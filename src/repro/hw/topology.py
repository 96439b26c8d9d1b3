"""NUMA topology: socket placement and inter-socket hop counts.

The paper's Figure 7 discussion attributes the latency jump beyond three
sockets to IPIs needing two QPI hops on the 8-socket box. We model sockets
as a glueless ring-with-crosslinks (the E7-8870 v2 topology): adjacent
sockets and the direct cross link are one hop, everything else two.
"""

from __future__ import annotations

from typing import Dict, List

from .spec import MachineSpec


class Topology:
    """Maps cores to sockets and answers hop-distance queries."""

    def __init__(self, spec: MachineSpec):
        self.spec = spec
        self._socket_of: List[int] = [spec.socket_of(c) for c in range(spec.total_cores)]
        self._hops = self._build_socket_hops(spec.sockets)
        #: Per socket, the bitmap of its cores.
        self._socket_masks: List[int] = [0] * spec.sockets
        for core_id, socket in enumerate(self._socket_of):
            self._socket_masks[socket] |= 1 << core_id

    @staticmethod
    def _build_socket_hops(sockets: int) -> List[List[int]]:
        """Hop matrix between sockets.

        <=4 sockets are fully connected (1 hop); beyond that, ring neighbours
        and the diagonal cross link are 1 hop, the rest 2.
        """
        hops = [[0] * sockets for _ in range(sockets)]
        for a in range(sockets):
            for b in range(sockets):
                if a == b:
                    continue
                if sockets <= 4:
                    hops[a][b] = 1
                    continue
                ring = min((a - b) % sockets, (b - a) % sockets)
                cross = abs(a - b) == sockets // 2
                hops[a][b] = 1 if ring == 1 or cross else 2
        return hops

    def socket_of(self, core_id: int) -> int:
        return self._socket_of[core_id]

    def core_hops(self, core_a: int, core_b: int) -> int:
        """QPI hops between two cores (0 when on the same socket)."""
        return self._hops[self._socket_of[core_a]][self._socket_of[core_b]]

    def sharer_hop_counts(self, core_id: int, sharers: int) -> Dict[int, int]:
        """Histogram {hop distance: count} from ``core_id`` to every *other*
        core in the bitmap ``sharers`` (hop distances with no sharer are
        absent; the keys come in socket order). Equivalent to counting
        ``core_hops(core_id, s)`` per sharer, but done as one AND and one
        ``bit_count`` per socket: rmap bookkeeping sums a per-sharer cost
        on every munmap, and an mm on the fleet box is live on hundreds of
        cores."""
        row = self._hops[self._socket_of[core_id]]
        sharers &= ~(1 << core_id)
        counts: Dict[int, int] = {}
        for socket, members in enumerate(self._socket_masks):
            n = (members & sharers).bit_count()
            if n:
                hops = row[socket]
                counts[hops] = counts.get(hops, 0) + n
        return counts

    def socket_hops(self, socket_a: int, socket_b: int) -> int:
        return self._hops[socket_a][socket_b]

    def cores_on_socket(self, socket: int) -> List[int]:
        return [c for c in range(self.spec.total_cores) if self._socket_of[c] == socket]

    def max_hops(self) -> int:
        return max(max(row) for row in self._hops)

    def numa_node_of(self, core_id: int) -> int:
        """NUMA node == socket on both Table 3 machines."""
        return self._socket_of[core_id]
