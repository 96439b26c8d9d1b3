"""repro: a full-system simulation reproduction of "LATR: Lazy Translation
Coherence" (Kumar, Maass, et al., ASPLOS 2018).

The package layers:

* :mod:`repro.sim` -- discrete-event engine,
* :mod:`repro.hw` -- NUMA machines, cores, TLBs, IPIs, caches,
* :mod:`repro.mm` -- frames, page tables, VMAs, address spaces,
* :mod:`repro.kernel` -- scheduler, syscalls, page faults, daemons,
* :mod:`repro.coherence` -- the paper's LATR mechanism plus the Linux,
  ABIS, and Barrelfish comparators,
* :mod:`repro.workloads` -- microbenchmarks, Apache, PARSEC and NUMA
  application models,
* :mod:`repro.experiments` -- one runner per paper table/figure.

Quickstart::

    from repro import build_system
    system = build_system("latr", machine="commodity-2s16c")
    # system.kernel, system.sim, system.machine are ready to use
"""

from dataclasses import dataclass
from typing import Optional

from .coherence import MECHANISMS, LatrCoherence, LinuxShootdown, make_mechanism
from .hw import COMMODITY_2S16C, FLEET_16S960C, LARGE_NUMA_8S120C, Machine, MachineSpec, preset
from .kernel import Kernel
from .sim import Simulator

__version__ = "1.0.0"


@dataclass
class System:
    """A booted simulated system (convenience bundle)."""

    sim: Simulator
    machine: Machine
    kernel: Kernel

    @property
    def stats(self):
        return self.kernel.stats

    @property
    def syscalls(self):
        return self.kernel.syscalls

    def snapshot(self):
        """Capture a restorable world snapshot (see :mod:`repro.snapshot`).

        Only legal at quiescent points: no running event loop, no pending
        generator continuations, no held locks."""
        from .snapshot import snapshot_kernel

        return snapshot_kernel(self.kernel)

    def restore(self, snap) -> None:
        """Rewind engine + kernel + mm state to ``snap``, in place."""
        from .snapshot import restore_kernel

        restore_kernel(self.kernel, snap)


def build_system(
    mechanism: str = "latr",
    machine: str = "commodity-2s16c",
    cores: Optional[int] = None,
    pcid: bool = False,
    seed: int = 1,
    frames_per_node: Optional[int] = None,
    gate_latencies: Optional[bool] = None,
    use_pt_replication: Optional[bool] = None,
    use_virtualization: Optional[bool] = None,
    **mechanism_kwargs,
) -> System:
    """Build and boot a simulated machine running one coherence mechanism.

    Args:
        mechanism: "linux", "latr", "abis", or "barrelfish".
        machine: a Table 3 preset name ("commodity-2s16c", "large-numa-8s120c").
        cores: optionally restrict the machine to this many cores.
        pcid: enable PCID-tagged TLBs (paper section 4.5).
        seed: deterministic RNG seed for workloads.
        frames_per_node: physical memory size override (frames).
        gate_latencies: stats escape hatch -- False keeps the historical
            record-from-t=0 latency recorders instead of gating them on
            the measurement window (default gated).
        use_pt_replication: NUMA page-table placement modelling
            (numaPTE) -- None asks the mechanism (only "numapte" wants
            it); True charges hop-aware walk latency (and, under the
            numapte policy, replicates tables per node); False keeps the
            flat single-table model bit-identically.
        use_virtualization: two-level (EPT/NPT) translation -- True makes
            processes VM tasks with gPA->hPA host tables, 2D walk costs,
            and host-level invalidation on free (policy chosen by the
            mechanism's ``host_invalidation`` attribute); False/None keeps
            the flat single-level model byte-identically.
        mechanism_kwargs: forwarded to the mechanism constructor (e.g.
            ``queue_depth=`` for LATR ablations, ``use_sweep_index=`` for
            the LATR full-scan reference sweep).
    """
    spec = preset(machine) if isinstance(machine, str) else machine
    if cores is not None:
        spec = spec.with_cores(cores)
    sim = Simulator()
    mech = make_mechanism(mechanism, **mechanism_kwargs)
    hw = Machine(
        sim,
        spec,
        pcid_enabled=pcid,
        gate_latencies=gate_latencies,
    )
    kwargs = {}
    if frames_per_node is not None:
        kwargs["frames_per_node"] = frames_per_node
    if use_pt_replication is not None:
        kwargs["use_pt_replication"] = use_pt_replication
    if use_virtualization is not None:
        kwargs["use_virtualization"] = use_virtualization
    kernel = Kernel(hw, mech, seed=seed, **kwargs)
    kernel.start()
    return System(sim=sim, machine=hw, kernel=kernel)


#: Process-local pool behind :func:`warm_build_system` (lazy).
_BOOT_POOL = None


def warm_build_system(mechanism: str = "latr", **kwargs) -> System:
    """:func:`build_system` with warm-boot reuse.

    Identical boot parameters within one process restore a post-boot
    snapshot in place instead of rebooting (see
    :class:`repro.snapshot.BootPool`); results are bit-identical to cold
    boots. Falls back to :func:`build_system` when snapshots are globally
    disabled or the previous user left the world non-quiescent.
    """
    from .snapshot import BootPool, snapshots_enabled

    if not snapshots_enabled():
        return build_system(mechanism, **kwargs)
    global _BOOT_POOL
    if _BOOT_POOL is None:
        _BOOT_POOL = BootPool()
    key = (mechanism, tuple(sorted((k, repr(v)) for k, v in kwargs.items())))
    return _BOOT_POOL.acquire(key, lambda: build_system(mechanism, **kwargs))


__all__ = [
    "COMMODITY_2S16C",
    "FLEET_16S960C",
    "warm_build_system",
    "Kernel",
    "LARGE_NUMA_8S120C",
    "LatrCoherence",
    "LinuxShootdown",
    "Machine",
    "MachineSpec",
    "MECHANISMS",
    "Simulator",
    "System",
    "build_system",
    "make_mechanism",
    "preset",
    "__version__",
]
