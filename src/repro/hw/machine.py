"""Machine assembly: spec + topology + cores + interconnect + LLC."""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from ..sim.engine import Simulator
from ..sim.stats import StatsRegistry
from .cache import LlcModel
from .core import Core
from .interconnect import Interconnect
from .latency import DEFAULT_LATENCY, LatencyModel
from .spec import MachineSpec
from .tlb import Tlb
from .topology import Topology


class Machine:
    """A simulated NUMA machine ready to host a kernel."""

    def __init__(
        self,
        sim: Simulator,
        spec: MachineSpec,
        latency: Optional[LatencyModel] = None,
        stats: Optional[StatsRegistry] = None,
        pcid_enabled: bool = False,
        use_tlb_index: Optional[bool] = None,
        gate_latencies: Optional[bool] = None,
    ):
        self.sim = sim
        self.spec = spec
        self.latency = latency or DEFAULT_LATENCY
        self.stats = stats or StatsRegistry(sim, gate_latencies=gate_latencies)
        self.pcid_enabled = pcid_enabled
        self.topology = Topology(spec)
        #: Ids of the cores currently in lazy-TLB mode. Only the
        #: ``Core.lazy_tlb_mode`` setter and :meth:`set_lazy_flags` write it.
        self.lazy_cores: Set[int] = set()
        self.cores: List[Core] = [
            Core(
                core_id=c,
                socket=spec.socket_of(c),
                sim=sim,
                tlb=Tlb(
                    spec.l1_dtlb_entries,
                    pcid_enabled=pcid_enabled,
                    use_index=use_tlb_index,
                ),
                lazy_cores=self.lazy_cores,
            )
            for c in range(spec.total_cores)
        ]
        self.interconnect = Interconnect(sim, self.topology, self.latency, self.stats)
        self.llc = LlcModel(sim, spec, self.stats)

    def core(self, core_id: int) -> Core:
        return self.cores[core_id]

    def set_lazy_flags(self, flags: Iterable[bool]) -> None:
        """Set every core's lazy-TLB flag at once (``flags`` in core-id
        order) and rebuild :attr:`lazy_cores` to match: a snapshot restore
        writes the whole machine, not one ``Core.lazy_tlb_mode`` per core."""
        lazy = self.lazy_cores
        lazy.clear()
        for core, flag in zip(self.cores, flags):
            core._lazy_tlb_mode = flag
            if flag:
                lazy.add(core.id)

    @property
    def n_cores(self) -> int:
        return self.spec.total_cores

    def cores_on_node(self, node: int) -> List[Core]:
        return [c for c in self.cores if c.socket == node]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Machine {self.spec.name}: {self.n_cores} cores / {self.spec.sockets} sockets>"
