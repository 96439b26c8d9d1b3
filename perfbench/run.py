"""Host-time benchmark of the simulator: one workload per invocation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--trace-out PATH]

Workloads: ``apache-9cell`` (the Fig. 9 cell set), ``fleet-latr-960c``
(packed LATR on the 960-core fleet box) and ``mc-4c3p5o`` (an exhaustive,
seed-free model check). The load is a closed loop with one client: runs
start one after another, each in a fresh child process with no worker
pool, until ``--seconds`` have passed. Every run checks its modelled
output and prints a digest of it; a run fails if it raises, if a check
fails, or if its digest differs from the invocation's first run. Seed 1
is the default; seed 7919 is held out, to check a claim on inputs it was
not tuned on.

With ``--trace 0`` the result line reports the end-to-end metrics of
``BENCHMARK.json``. ``wall_s`` is the host time from the first simulated
event to the checked output. Every run is cut into the same fixed slices
(see ``child.py``), and ``wall_s`` is the sum over the slices of each
slice's minimum over the invocation's runs. A shared host runs the same
work fast or slow from one moment to the next; a slice's minimum is the
time it takes when the host does not slow it. ``setup_s`` (before ``import
repro`` to the first simulated event) is the minimum over the runs, for
the same reason, and ``peak_rss_mb`` the median. With ``--trace 1`` two
traced runs follow the timed ones; the
result line reports the per-layer metrics of the first
(``tracer.LAYER_METRICS``), the traced runs' digests must equal the
untraced one and their counts must repeat exactly, and the raw-span window
of the first goes to ``--trace-out`` as Chrome trace-event JSON.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Bad arguments exit
2 with a one-line message, and so does a checkout without the simulator
source beside this directory.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS, LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
RUN_TIMEOUT_S = 120
#: Child hash seed: set iteration order, and so the work done, repeats.
HASH_SEED = "0"


def fail(message: str) -> None:
    """Exit 2 with a one-line message (bad input, never a traceback)."""
    sys.stderr.write(f"{os.path.basename(sys.argv[0])}: error: {message}\n")
    sys.exit(2)


def load_spec() -> dict:
    """``BENCHMARK.json``, checked to declare the metrics computed here."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path}: {exc}")
    for kind, names in (("end_to_end", END_TO_END), ("per_layer", LAYER_METRICS)):
        if [m["name"] for m in spec[kind]] != list(names):
            fail(f"{path}: {kind} names differ from the metrics perfbench computes")
    return spec


class Parser(argparse.ArgumentParser):
    def error(self, message):
        fail(message)


def writable(path: str) -> str:
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        fail(f"cannot write {path}: {exc.strerror or exc}")
    return path


def parse_args(argv=None) -> argparse.Namespace:
    parser = Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30, help="1 to 600")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="Chrome trace JSON of the traced run "
                        "(default perfbench/out/trace-<workload>.json)")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        parser.error(f"argument --seconds: {args.seconds} is not within 1 to 600")
    if args.trace_out is not None and not args.trace:
        parser.error("argument --trace-out: needs --trace 1")
    return args


def run_child(workload: str, seed: int, *extra: str):
    """One child run; returns (result dict, None) or (None, error)."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {RUN_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"exit {proc.returncode}: {tail}"
    try:
        return json.loads(lines[-1]), None
    except ValueError:
        return None, f"unreadable result line: {lines[-1][:120]}"


class Ledger:
    """Runs attempted and failed, and the digest every run must match."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def judge(self, label: str, result, error):
        """Count one run; returns its result if it passed, else None."""
        self.attempted += 1
        if error is None and "digest" in result:
            if result["problems"]:
                error = "; ".join(result["problems"])
            elif self.digest is None:
                self.digest = result["digest"]
            elif result["digest"] != self.digest:
                error = f"digest {result['digest']} differs from {self.digest}"
        if error is not None:
            self.failed += 1
            print(f"{label}: FAILED {error}")
            return None
        return result


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        fail(f"no simulator source at {os.path.join(SRC, 'repro')}; "
             "run from the root of a repository checkout")
    trace_out = None
    if args.trace:
        if args.trace_out is None:
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            args.trace_out = os.path.join(HERE, "out", f"trace-{args.workload}.json")
        trace_out = writable(args.trace_out)
    compileall.compile_dir(SRC, quiet=1)

    ledger = Ledger()
    started = time.perf_counter()
    slices, rss, setups = [], [], []
    while True:
        label = f"run {ledger.attempted + 1}"
        result = ledger.judge(label, *run_child(args.workload, args.seed))
        if result is not None:
            slices.append(result["slices"])
            rss.append(result["peak_rss_mb"])
            setups.append(result["setup_s"])
            print(f"{label}: wall_s {result['wall_s']:.3f} s, setup_s {result['setup_s']:.3f} s, "
                  f"peak_rss_mb {result['peak_rss_mb']:.1f} MB, digest {result['digest']}")
        if time.perf_counter() - started >= args.seconds:
            break
    if not slices:
        return report(ledger, spec["end_to_end"], {})
    wall = sum(min(times) for times in zip(*slices))
    print(f"{args.workload} seed {args.seed}: {len(slices)} runs of {len(slices[0])} slices")
    if not args.trace:
        values = {"wall_s": wall, "setup_s": min(setups), "peak_rss_mb": statistics.median(rss)}
        for metric in spec["end_to_end"]:
            print(f"  {metric['name']:<12} {values[metric['name']]:10.4f} {metric['unit']}")
        return report(ledger, spec["end_to_end"], values)

    traced = []
    for n, extra in ((1, ("--trace", "--trace-out", trace_out)), (2, ("--trace",))):
        result = ledger.judge(f"traced run {n}", *run_child(args.workload, args.seed, *extra))
        if result is not None:
            traced.append(result)
    if not traced:
        return report(ledger, spec["per_layer"], {})
    layers = traced[0]["layers"]
    layers["trace.overhead_ratio"] = traced[0]["wall_s"] / wall
    if len(traced) == 2:
        moved = [m["name"] for m in spec["per_layer"]
                 if m["unit"] in ("count", "ratio") and m["name"] != "trace.overhead_ratio"
                 and layers[m["name"]] != traced[1]["layers"][m["name"]]]
        if moved:
            ledger.failed += 1
            print(f"traced run 2: FAILED counts differ from traced run 1: {', '.join(moved)}")
    print_layers(traced[0], layers, spec["per_layer"], trace_out)
    return report(ledger, spec["per_layer"], layers)


def print_layers(result: dict, layers: dict, per_layer: list, trace_out: str) -> None:
    wall = result["wall_s"]
    print(f"per-layer self time, traced run ({wall:.2f} s traced wall, "
          f"{layers['trace.overhead_ratio']:.2f}x the untraced wall_s):")
    for layer in LAYERS + ("unattributed",):
        spent = layers[f"{layer}.self_s"]
        print(f"  {layer:<14} {spent:9.3f} s  {100 * spent / wall:5.1f}%")
    print("per-layer metrics, and what they should move:")
    for metric in per_layer:
        value = layers[metric["name"]]
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {metric['name']:<30} {shown:>14} {metric['unit']:<6} "
              f"{LAYER_METRICS[metric['name']]}")
    print("entry points by self time:")
    for layer, name, spent, calls in result["top"]:
        print(f"  {name:<40} {layer:<11} {spent:8.3f} s  {calls:>10} calls/resumes")
    print(f"chrome trace: {trace_out} "
          f"({result['spans_written']} spans from the first simulated event)")


def report(ledger: Ledger, declared: list, values: dict) -> int:
    """Print the result line: the ``declared`` metrics, taken from ``values``."""
    correct = ledger.failed == 0 and bool(values)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared} if values else {}
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
