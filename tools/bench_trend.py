#!/usr/bin/env python
"""Summarize the committed bench trajectory as a text table.

``python -m repro bench`` writes one ``BENCH_<timestamp>.json`` per run
into ``benchmarks/results/`` and each run only compares against its
immediate predecessor. This tool reads *every* committed file (oldest
first) and prints, per case, how events/s and wall-clock moved across
the whole history -- the long-horizon view the pairwise regression gate
cannot give.

Usage::

    python tools/bench_trend.py [--dir benchmarks/results] [--case NAME]

One table per case: a row per BENCH file that contains it, with wall
seconds, events/s, and the delta versus the previous row. Files whose
scale keys differ (quick vs full stress sizes, host-dependent job
counts) are annotated rather than hidden, since an events/s step across
a scale change says nothing about the code.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

#: Keys that change a case's workload size; deltas across a change in any
#: of these are marked "(scale changed)" in the table. Mirrors
#: ``repro.bench.compare_to_previous``.
SCALE_KEYS = ("sim_ms", "jobs", "n_events", "ops", "mc_scope", "drivers", "seed")


def load_history(bench_dir: str) -> List[Tuple[str, Dict[str, object]]]:
    """(filename, report) pairs, oldest first (the names embed a sortable
    timestamp). Unreadable files are skipped with a warning."""
    out: List[Tuple[str, Dict[str, object]]] = []
    for path in sorted(glob.glob(os.path.join(bench_dir, "BENCH_*.json"))):
        try:
            with open(path) as fh:
                out.append((os.path.basename(path), json.load(fh)))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
    return out


def case_names(history: List[Tuple[str, Dict[str, object]]]) -> List[str]:
    """Every case name seen, in first-appearance order."""
    names: List[str] = []
    for _fname, report in history:
        for name in report.get("cases", {}):
            if name not in names:
                names.append(name)
    return names


def _scale_signature(entry: Dict[str, object]) -> Tuple:
    return tuple(entry.get(k) for k in SCALE_KEYS)


def trend_rows(
    history: List[Tuple[str, Dict[str, object]]], case: str
) -> List[Tuple[str, float, float, str]]:
    """(file, wall_s, events_per_sec, note) rows for one case."""
    rows: List[Tuple[str, float, float, str]] = []
    prev_eps: Optional[float] = None
    prev_sig: Optional[Tuple] = None
    for fname, report in history:
        entry = report.get("cases", {}).get(case)
        if not isinstance(entry, dict):
            continue
        wall = entry.get("wall_s")
        eps = entry.get("events_per_sec")
        if not isinstance(wall, (int, float)) or not isinstance(eps, (int, float)):
            continue
        sig = _scale_signature(entry)
        if prev_eps is None:
            note = ""
        elif prev_sig != sig:
            note = "(scale changed)"
        elif prev_eps > 0:
            note = f"{100.0 * (eps - prev_eps) / prev_eps:+.1f}% events/s"
        else:
            note = ""
        rows.append((fname, float(wall), float(eps), note))
        prev_eps, prev_sig = eps, sig
    return rows


def render(history: List[Tuple[str, Dict[str, object]]], only: Optional[str]) -> int:
    names = case_names(history)
    if only is not None:
        if only not in names:
            print(f"error: case {only!r} not in history; have {names}", file=sys.stderr)
            return 1
        names = [only]
    for case in names:
        rows = trend_rows(history, case)
        if not rows:
            continue
        print(f"{case} ({len(rows)} run(s))")
        print(f"  {'file':<28} {'wall_s':>9} {'events/s':>14}")
        for fname, wall, eps, note in rows:
            line = f"  {fname:<28} {wall:>9.3f} {eps:>14,.0f}"
            if note:
                line += f"  {note}"
            print(line)
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir",
        default=os.path.join("benchmarks", "results"),
        help="directory holding BENCH_*.json files",
    )
    parser.add_argument("--case", default=None, help="limit to one case name")
    args = parser.parse_args(argv)
    history = load_history(args.dir)
    if not history:
        # Exit 2 (not 1): "no baselines yet" is a setup condition, not a
        # regression -- callers gating on failures can tell them apart.
        print(f"no BENCH_*.json files under {args.dir}", file=sys.stderr)
        return 2
    return render(history, args.case)


if __name__ == "__main__":
    raise SystemExit(main())
