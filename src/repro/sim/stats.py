"""Measurement machinery: counters, latency recorders and rate windows.

Experiments read everything they report from these objects, so each
simulated run produces one :class:`StatsRegistry` that the experiment
harness turns into table rows.
"""

from __future__ import annotations

import math
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

from .engine import SEC, Simulator

#: Never-reused version mint shared by every LatencyRecorder and
#: QuantileRecorder, and by the StatsRegistry key sets: a version number
#: is issued for exactly one state, and a restore only rewinds the version
#: together with installing exactly that state, so equal versions imply
#: identical state (the same contract as ``repro.hw.tlb._VERSIONS``). This
#: is what lets ``restore`` skip untouched recorders on the model checker's
#: backtracking hot path.
_VERSIONS = count(1)

#: Recorder window states. A gated recorder accepts samples while FREE
#: (no measurement window yet -- workloads that never open one keep the
#: old record-everything behaviour) and while OPEN; opening the window
#: discards warmup samples, closing it drops everything after.
_WIN_FREE, _WIN_OPEN, _WIN_CLOSED = 0, 1, 2

#: Process-wide default for whether registries gate latency/quantile
#: recorders on the measurement window. ``--legacy-latency-stats`` flips
#: this off so old (warmup-polluted) tables can be reproduced for A/B.
_GATE_LATENCIES_DEFAULT = True


def set_latency_gating(enabled: bool) -> None:
    """Escape hatch: registries built after this call gate (or don't gate)
    latency recorders on the measurement window."""
    global _GATE_LATENCIES_DEFAULT
    _GATE_LATENCIES_DEFAULT = bool(enabled)


def latency_gating_enabled() -> bool:
    return _GATE_LATENCIES_DEFAULT


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class _SampleList(list):
    """A list that bumps its owning recorder's version on every mutation.

    ``LatencyRecorder.percentile`` caches the sorted view keyed on that
    version, so *any* mutation path -- ``record()``, direct appends from
    tests, or same-length in-place edits -- invalidates the cache. A bare
    length comparison cannot see the last of those.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "LatencyRecorder", iterable=()):
        super().__init__(iterable)
        self._owner = owner

    def _bump(self) -> None:
        self._owner._version = next(_VERSIONS)

    def append(self, item):
        super().append(item)
        self._bump()

    def extend(self, iterable):
        super().extend(iterable)
        self._bump()

    def insert(self, index, item):
        super().insert(index, item)
        self._bump()

    def pop(self, index=-1):
        value = super().pop(index)
        self._bump()
        return value

    def remove(self, item):
        super().remove(item)
        self._bump()

    def clear(self):
        super().clear()
        self._bump()

    def sort(self, **kwargs):
        super().sort(**kwargs)
        self._bump()

    def reverse(self):
        super().reverse()
        self._bump()

    def __setitem__(self, index, value):
        super().__setitem__(index, value)
        self._bump()

    def __delitem__(self, index):
        super().__delitem__(index)
        self._bump()

    def __iadd__(self, other):
        result = super().__iadd__(other)
        self._bump()
        return result

    def __imul__(self, factor):
        result = super().__imul__(factor)
        self._bump()
        return result


class LatencyRecorder:
    """Collects latency samples (ns) and reports summary statistics.

    When ``gated`` (the registry decides at creation time), the recorder
    participates in the measurement window that ``RateWindow`` already
    honours: ``start_window`` discards warmup samples, ``stop_window``
    drops everything recorded after.  Ungated recorders ignore both calls
    and keep the historical record-everything behaviour.
    """

    def __init__(self, name: str, gated: bool = False):
        self.name = name
        self.gated = gated
        self._window_state = _WIN_FREE
        self._version = next(_VERSIONS)
        self._samples: _SampleList = _SampleList(self)
        self._sorted: Optional[List[int]] = None
        self._sorted_version = -1

    def start_window(self) -> None:
        """Begin the measurement window: forget warmup samples."""
        if not self.gated:
            return
        self._window_state = _WIN_OPEN
        # clear() bumps the version, covering the state change too.
        self._samples.clear()

    def stop_window(self) -> None:
        """Close the window: subsequent samples are dropped."""
        if not self.gated:
            return
        self._window_state = _WIN_CLOSED
        self._version = next(_VERSIONS)

    @property
    def samples(self) -> List[int]:
        return self._samples

    @samples.setter
    def samples(self, values) -> None:
        # Re-wrap wholesale assignment so mutation tracking survives it.
        self._samples = _SampleList(self, values)
        self._version = next(_VERSIONS)

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency sample on {self.name!r}: {latency_ns}")
        if self._window_state == _WIN_CLOSED:
            return
        self._samples.append(latency_ns)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def total(self) -> int:
        return sum(self.samples)

    @property
    def minimum(self) -> int:
        return min(self.samples) if self.samples else 0

    @property
    def maximum(self) -> int:
        return max(self.samples) if self.samples else 0

    def percentile(self, pct: float) -> float:
        """Linear-interpolated percentile, pct in [0, 100]."""
        if not self.samples:
            return 0.0
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        # Tail-latency experiments ask for several percentiles per recorder;
        # sort once and reuse until any mutation of ``samples`` bumps the
        # version (record(), direct appends, or same-length in-place edits).
        if self._sorted is None or self._sorted_version != self._version:
            self._sorted = sorted(self._samples)
            self._sorted_version = self._version
        ordered = self._sorted
        if len(ordered) == 1:
            return float(ordered[0])
        rank = (pct / 100.0) * (len(ordered) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return float(ordered[lo])
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    @property
    def stdev(self) -> float:
        n = len(self.samples)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((s - mu) ** 2 for s in self.samples) / (n - 1))

    # ---- snapshot/restore -----------------------------------------------------

    def snapshot(self) -> Tuple[Tuple[int, ...], int, int]:
        return (tuple(self._samples), self._version, self._window_state)

    def restore(self, snap: Tuple[Tuple[int, ...], int, int]) -> None:
        samples, version, window_state = snap
        if self._version == version:
            # Versions are never reused (module-level mint), so an equal
            # version means the recorder state is already exactly the
            # snapshot's (every state transition mints a fresh version).
            return
        self._samples = _SampleList(self, samples)
        self._version = version
        self._window_state = window_state
        # Invalidate the sorted cache: it may be keyed on a version from a
        # divergent history.
        self._sorted = None
        self._sorted_version = -1


class QuantileRecorder:
    """Bounded streaming quantile estimator over non-negative integers (ns).

    ``LatencyRecorder`` keeps every sample, which is fine for thousands of
    requests but not for open-loop runs that record millions.  This
    recorder keeps a fixed log-spaced histogram instead (HdrHistogram-style
    indexing): values below ``2**SUB_BITS`` get exact unit bins, larger
    values share ``2**SUB_BITS`` linear sub-buckets per power of two, so
    any reported percentile is within a relative half-bin error of
    ``2**-(SUB_BITS + 1)`` (~1.6% at the default 5 sub-bucket bits) while
    memory stays O(log(max) * 2**SUB_BITS) regardless of sample count.

    Window gating and the snapshot/restore version-mint contract match
    :class:`LatencyRecorder` exactly.
    """

    #: log2 of the number of linear sub-buckets per power of two.
    SUB_BITS = 5

    __slots__ = (
        "name",
        "gated",
        "_window_state",
        "_version",
        "_bins",
        "_count",
        "_total",
        "_min",
        "_max",
    )

    def __init__(self, name: str, gated: bool = False):
        self.name = name
        self.gated = gated
        self._window_state = _WIN_FREE
        self._version = next(_VERSIONS)
        self._reset()

    def _reset(self) -> None:
        self._bins: Dict[int, int] = {}
        self._count = 0
        self._total = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None

    # ---- windowing ------------------------------------------------------------

    def start_window(self) -> None:
        if not self.gated:
            return
        self._window_state = _WIN_OPEN
        self._reset()
        self._version = next(_VERSIONS)

    def stop_window(self) -> None:
        if not self.gated:
            return
        self._window_state = _WIN_CLOSED
        self._version = next(_VERSIONS)

    # ---- recording ------------------------------------------------------------

    @staticmethod
    def _bin_index(value: int) -> int:
        """Histogram bin for ``value``; monotonic in ``value``."""
        sub_bits = QuantileRecorder.SUB_BITS
        if value < (1 << sub_bits):
            return value
        exp = value.bit_length() - 1
        # Top (SUB_BITS + 1) bits of the value: in [2**SUB_BITS, 2**(SUB_BITS+1)).
        sub = value >> (exp - sub_bits)
        return ((exp - sub_bits) << sub_bits) + sub

    @staticmethod
    def _bin_rep(index: int) -> int:
        """Midpoint of the value range covered by bin ``index``."""
        sub_bits = QuantileRecorder.SUB_BITS
        if index < (1 << sub_bits):
            return index
        shift = (index >> sub_bits) - 1
        sub = (index & ((1 << sub_bits) - 1)) | (1 << sub_bits)
        lo = sub << shift
        return lo + ((1 << shift) >> 1)

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency sample on {self.name!r}: {latency_ns}")
        if self._window_state == _WIN_CLOSED:
            return
        bins = self._bins
        idx = self._bin_index(latency_ns)
        bins[idx] = bins.get(idx, 0) + 1
        self._count += 1
        self._total += latency_ns
        if self._min is None or latency_ns < self._min:
            self._min = latency_ns
        if self._max is None or latency_ns > self._max:
            self._max = latency_ns
        self._version = next(_VERSIONS)

    # ---- reporting ------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> int:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def minimum(self) -> int:
        return self._min if self._min is not None else 0

    @property
    def maximum(self) -> int:
        return self._max if self._max is not None else 0

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile, exact within the bin's half-width."""
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        if not self._count:
            return 0.0
        rank = max(1, math.ceil((pct / 100.0) * self._count))
        seen = 0
        for idx in sorted(self._bins):
            seen += self._bins[idx]
            if seen >= rank:
                # Clamp to the observed extremes so p0/p100 are exact and
                # a sparse top bin cannot report beyond the true maximum.
                return float(min(max(self._bin_rep(idx), self._min), self._max))
        return float(self._max)  # pragma: no cover - rank <= count always hits

    # ---- snapshot/restore -----------------------------------------------------

    def snapshot(self):
        return (
            tuple(sorted(self._bins.items())),
            self._count,
            self._total,
            self._min,
            self._max,
            self._window_state,
            self._version,
        )

    def restore(self, snap) -> None:
        bins, count, total, lo, hi, window_state, version = snap
        if self._version == version:
            # Same mint contract as LatencyRecorder: every mutation and
            # window transition mints a fresh version, so equality means
            # the state already matches the snapshot.
            return
        self._bins = dict(bins)
        self._count = count
        self._total = total
        self._min = lo
        self._max = hi
        self._window_state = window_state
        self._version = version


class RateWindow:
    """Counts events against the simulation clock to report per-second rates."""

    def __init__(self, name: str, sim: Simulator):
        self.name = name
        self.sim = sim
        self.events = 0
        self._window_start: Optional[int] = None
        self._window_end: Optional[int] = None

    def start_window(self) -> None:
        """Begin the measurement window at the current simulation time."""
        self._window_start = self.sim.now
        self.events = 0

    def stop_window(self) -> None:
        self._window_end = self.sim.now

    def hit(self, count: int = 1) -> None:
        if self._window_start is not None and self._window_end is None:
            self.events += count

    def per_second(self) -> float:
        """Event rate over the (closed or still-open) window."""
        if self._window_start is None:
            return 0.0
        end = self._window_end if self._window_end is not None else self.sim.now
        elapsed = end - self._window_start
        if elapsed <= 0:
            return 0.0
        return self.events * (SEC / elapsed)


def _rekey(live: Dict[str, object], names, make: Callable[[str], object]) -> None:
    """Make ``live`` hold exactly ``names``, in that order: surviving
    entries keep their identity, missing ones come from ``make(name)``."""
    entries = [(name, live.get(name)) for name in names]
    live.clear()
    for name, entry in entries:
        live[name] = make(name) if entry is None else entry


class StatsRegistry:
    """Owns all counters/recorders for one simulated machine run.

    ``gate_latencies`` decides whether latency/quantile recorders honour
    the measurement window (the fixed behaviour) or record from t=0 (the
    historical behaviour, kept behind ``set_latency_gating``/the
    ``--legacy-latency-stats`` CLI flag for A/B comparisons). ``None``
    defers to the process-wide default.
    """

    def __init__(self, sim: Simulator, gate_latencies: Optional[bool] = None):
        self.sim = sim
        if gate_latencies is None:
            gate_latencies = _GATE_LATENCIES_DEFAULT
        self.gate_latencies = bool(gate_latencies)
        self._counters: Dict[str, Counter] = {}
        self._latencies: Dict[str, LatencyRecorder] = {}
        self._quantiles: Dict[str, QuantileRecorder] = {}
        self._rates: Dict[str, RateWindow] = {}
        self._windows_active = False
        #: Names the four key sets *and their order*: minted whenever an
        #: entry is created, rewound by ``restore`` together with the key
        #: sets it names.
        self._keys_version = next(_VERSIONS)

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
            self._keys_version = next(_VERSIONS)
        return self._counters[name]

    def latency(self, name: str) -> LatencyRecorder:
        if name not in self._latencies:
            rec = self._latencies[name] = LatencyRecorder(
                name, gated=self.gate_latencies
            )
            self._keys_version = next(_VERSIONS)
            if self._windows_active:
                # A measurement window is open: recorders created after
                # warmup (first sample inside the window) join it directly.
                rec.start_window()
        return self._latencies[name]

    def quantile(self, name: str) -> QuantileRecorder:
        if name not in self._quantiles:
            rec = self._quantiles[name] = QuantileRecorder(
                name, gated=self.gate_latencies
            )
            self._keys_version = next(_VERSIONS)
            if self._windows_active:
                rec.start_window()
        return self._quantiles[name]

    def rate(self, name: str) -> RateWindow:
        if name not in self._rates:
            self._rates[name] = RateWindow(name, self.sim)
            self._keys_version = next(_VERSIONS)
            if self._windows_active:
                # A measurement window is open: new rates join it so that
                # lazily-created rates (first hit after warmup) still count.
                self._rates[name].start_window()
        return self._rates[name]

    def start_all_windows(self) -> None:
        self._windows_active = True
        for window in self._rates.values():
            window.start_window()
        for rec in self._latencies.values():
            rec.start_window()
        for qrec in self._quantiles.values():
            qrec.start_window()

    def stop_all_windows(self) -> None:
        self._windows_active = False
        for window in self._rates.values():
            window.stop_window()
        for rec in self._latencies.values():
            rec.stop_window()
        for qrec in self._quantiles.values():
            qrec.stop_window()

    def counters_snapshot(self) -> Dict[str, int]:
        return {name: c.value for name, c in self._counters.items()}

    # ---- snapshot/restore -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Capture every counter/recorder/rate value (structured copy)."""
        return {
            "counters": {name: c.value for name, c in self._counters.items()},
            "latencies": {
                name: rec.snapshot() for name, rec in self._latencies.items()
            },
            "quantiles": {
                name: rec.snapshot() for name, rec in self._quantiles.items()
            },
            "rates": {
                name: (r.events, r._window_start, r._window_end)
                for name, r in self._rates.items()
            },
            "windows_active": self._windows_active,
            "keys_version": self._keys_version,
        }

    def restore(self, snap: Dict[str, object]) -> None:
        """Restore to ``snap``, reusing surviving objects (callers cache
        counter/recorder references at boot, so identity must be preserved),
        dropping entries created after the snapshot was taken and recreating
        entries a restore to another snapshot dropped."""
        counters = snap["counters"]
        latencies = snap["latencies"]
        quantiles = snap["quantiles"]
        rates = snap["rates"]
        if self._keys_version != snap["keys_version"]:
            # The key sets differ from the snapshot's (entries created
            # since, or a restore to a snapshot of another branch): rebuild
            # each dict in the snapshot's order, so the zips below pair
            # every entry with its own value.
            gated = self.gate_latencies
            _rekey(self._counters, counters, Counter)
            _rekey(self._latencies, latencies, lambda n: LatencyRecorder(n, gated=gated))
            _rekey(self._quantiles, quantiles, lambda n: QuantileRecorder(n, gated=gated))
            _rekey(self._rates, rates, lambda n: RateWindow(n, self.sim))
            self._keys_version = snap["keys_version"]
        # Equal versions: the same keys in the same order (the
        # model-checker hot path skips the per-name hashing).
        for counter, value in zip(self._counters.values(), counters.values()):
            counter.value = value
        for rec, rec_snap in zip(self._latencies.values(), latencies.values()):
            rec.restore(rec_snap)
        for rec, rec_snap in zip(self._quantiles.values(), quantiles.values()):
            rec.restore(rec_snap)
        for rate, (events, start, end) in zip(self._rates.values(), rates.values()):
            rate.events = events
            rate._window_start = start
            rate._window_end = end
        self._windows_active = snap["windows_active"]

    def summary(self) -> Dict[str, object]:
        """A flat dict used by experiment reports and debugging dumps."""
        out: Dict[str, object] = {}
        for name, counter in sorted(self._counters.items()):
            out[f"count.{name}"] = counter.value
        for name, rec in sorted(self._latencies.items()):
            out[f"lat.{name}.mean_ns"] = rec.mean
            out[f"lat.{name}.count"] = rec.count
        for name, qrec in sorted(self._quantiles.items()):
            out[f"quant.{name}.mean_ns"] = qrec.mean
            out[f"quant.{name}.count"] = qrec.count
            out[f"quant.{name}.p99_ns"] = qrec.percentile(99.0)
        for name, rate in sorted(self._rates.items()):
            out[f"rate.{name}.per_sec"] = rate.per_second()
        return out


def weighted_mean(pairs: List[Tuple[float, float]]) -> float:
    """Mean of (value, weight) pairs; 0.0 for empty/zero-weight input."""
    total_weight = sum(weight for _, weight in pairs)
    if total_weight == 0:
        return 0.0
    return sum(value * weight for value, weight in pairs) / total_weight
