"""Steadiness check: do two separate sets of benchmark runs agree?

    python3 perfbench/steady.py [--workload NAME]... [--metric NAME]... [--out PATH]

A set runs ``perfbench/run.py --trace 0`` for BENCHMARK.json's
``run_seconds`` once per seed, seeds 1 to RUNS_PER_SET, on every chosen
workload; the second set does the same after the first. For each workload
and end-to-end metric this prints each set's median and quartiles
(``statistics.quantiles(values, n=4)``), the spread (quartile distance as a
share of the median) against the metric's bound, and how far the second
set's median is from the first's. It records nproc and the Python version
and writes the report as JSON to ``--out``. Exits 0 when every spread and
every change between the sets is within its bound; 1 when one is not; 2 on
bad arguments.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

from run import HERE, ROOT, Parser, load_spec, writable

RUN = os.path.join(HERE, "run.py")
RUNS_PER_SET = 10


def parse_args(spec: dict, argv=None):
    parser = Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--metric", action="append",
                        choices=[m["name"] for m in spec["end_to_end"]])
    parser.add_argument("--out", help="JSON report (default perfbench/out/steady.json)")
    args = parser.parse_args(argv)
    if args.out is None:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        args.out = os.path.join(HERE, "out", "steady.json")
    writable(args.out)
    return args


def one_run(workload: str, seed: int, seconds: int):
    """One ``run.py --trace 0`` invocation: its metrics, or None if it failed."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result["metrics"] if result.get("correct") else None


def summary(values: list) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(spec, argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = [m for m in spec["end_to_end"] if not args.metric or m["name"] in args.metric]
    seconds = spec["run_seconds"]
    values: dict = {}
    failed = 0
    for n in (1, 2):
        for workload in workloads:
            for seed in range(1, RUNS_PER_SET + 1):
                got = one_run(workload, seed, seconds)
                if got is None:
                    failed += 1
                    print(f"set {n} {workload} seed {seed}: FAILED", flush=True)
                    continue
                shown = []
                for metric in metrics:
                    value = got[metric["name"]]["value"]
                    values.setdefault((workload, metric["name"], n), []).append(value)
                    shown.append(f"{metric['name']} {value:.4f}")
                print(f"set {n} {workload} seed {seed}: {', '.join(shown)}", flush=True)

    report = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
              "run_seconds": seconds, "runs_per_set": RUNS_PER_SET, "failed": failed,
              "rows": []}
    ok = failed == 0
    print(f"nproc {report['nproc']}, Python {report['python']}, {RUNS_PER_SET} runs per set "
          f"of {seconds} s, {failed} failed")
    print(f"{'workload':<16} {'metric':<12} {'set':<6} {'median':>9} {'q1':>9} {'q3':>9} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sets = [values.get((workload, name, n), []) for n in (1, 2)]
            if min(len(s) for s in sets) < 2:
                ok = False
                print(f"{workload:<16} {name:<12} too few passing runs")
                continue
            stats = [summary(s) for s in sets]
            for n, st in zip((1, 2), stats):
                if st["spread"] < bound / 3:
                    verdict = "steady"
                elif st["spread"] <= bound:
                    verdict = "within bound"
                else:
                    verdict = "too wide"
                    ok = False
                print(f"{workload:<16} {name:<12} {n:<6} {st['median']:9.4f} {st['q1']:9.4f} "
                      f"{st['q3']:9.4f} {st['spread']:7.2%} {bound:6.0%}  {verdict}")
            first, second = stats[0]["median"], stats[1]["median"]
            change = (second - first) / first
            agree = abs(change) <= bound
            ok = ok and agree
            print(f"{workload:<16} {name:<12} 2 vs 1 median {change:+.2%}: "
                  f"{'agree' if agree else 'DISAGREE'}")
            report["rows"].append({"workload": workload, "metric": name, "bound": bound,
                                   "sets": stats, "change": change, "agree": agree})
    report["ok"] = ok
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"report: {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
