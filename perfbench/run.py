"""lcsforge benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload filtration --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and needs no build.  ``--trace 0`` repeats bare passes over the
workload's inputs and reports the end-to-end metrics; ``--trace 1``
alternates bare and traced passes and reports the per-layer metrics.  Every
pass checks the suites' outputs against ``expected.json``.  The last line of
standard output is the JSON result; graph files, the result record and the
trace spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# set-ups per run; the first runs in this process, the rest in fresh ones
SETUP_REPEATS = 5
ENVIRONMENT_LIMITS = "shared cores, no CPU isolation, no machine settings changed"


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    return "count"


def cpu_seconds() -> float:
    """User and system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def setup(workload: str, seed: int):
    """Import every layer and generate the workload's inputs; returns the
    time taken, the layer modules and the calls of one pass."""
    start = time.perf_counter()
    modules = {layer: importlib.import_module(f"lcsforge.{layer}") for layer in tracer.LAYERS}
    calls = workloads.make_calls(workload, seed, OUT / f"{workload}-seed{seed}")
    return time.perf_counter() - start, modules, calls


def fresh_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(cli, calls, expected) -> tuple[int, int]:
    """Run each call once; return (outputs checked, outputs off their pin)."""
    checked = failed = 0
    for call in calls:
        want = expected[call.key]
        try:
            got = workloads.summarize(cli.run_suite(call.suite, dict(call.params)))
        except Exception:
            traceback.print_exc()
            got = {}
        for key, value in want.items():
            checked += 1
            if got.get(key) != value:
                failed += 1
                print(f"mismatch {call.suite} {call.key} {key}: got {got.get(key)!r}, "
                      f"expected {value!r}", file=sys.stderr)
    return checked, failed


def timed_pass(cli, calls, expected) -> dict:
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    checked, failed = run_pass(cli, calls, expected)
    return {"wall_s": time.perf_counter() - wall0, "cpu_s": cpu_seconds() - cpu0,
            "checked": checked, "failed": failed}


def tail(samples: list[float]):
    """The highest whole percentile with at least ten samples above it, as
    (percentile, value), or None when there are too few samples."""
    q = 100 * (len(samples) - 10) // len(samples)
    if q < 1:
        return None
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "jobs": 1,
        "limits": ENVIRONMENT_LIMITS,
    }


def measure_untraced(cli, calls, expected, seconds: float) -> dict:
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(timed_pass(cli, calls, expected))
    return {"passes": passes, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def measure_traced(modules, calls, expected, seconds: float) -> dict:
    """Alternate bare and traced passes for the given time, with at least two
    traced ones so their counts can be compared; the spans of the last traced
    pass are kept for writing out."""
    cli = modules["cli"]
    bare, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        bare.append(timed_pass(cli, calls, expected))
        spans = tracer.Tracer(modules)
        spans.install()
        try:
            traced.append(timed_pass(cli, calls, expected))
        finally:
            spans.uninstall()
        layers.append(spans.layer_metrics())
    timed = [k for k in layers[0] if unit(k) in ("s", "ms")]
    counts = [{k: v for k, v in m.items() if k not in timed} for m in layers]
    deterministic = all(c == counts[0] for c in counts)
    if not deterministic:
        print("count metrics differ between traced passes", file=sys.stderr)
    metrics = dict(layers[0])
    metrics.update({k: statistics.median(m[k] for m in layers) for k in timed})
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in bare)
    )
    return {"passes": bare + traced, "metrics": metrics,
            "deterministic": deterministic, "spans": spans}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print the seconds")
    args = parser.parse_args(argv)

    if not (SRC / "lcsforge" / "__init__.py").is_file():
        print(f"error: no lcsforge source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(setup(args.workload, args.seed)[0])
        return 0

    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    first, modules, calls = setup(args.workload, args.seed)
    samples = {}
    if args.trace:
        run = measure_traced(modules, calls, expected, args.seconds)
        metrics = run["metrics"]
    else:
        samples["setup_s"] = [first] + [
            fresh_setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)
        ]
        run = measure_untraced(modules["cli"], calls, expected, args.seconds)
        samples["wall_s"] = [p["wall_s"] for p in run["passes"]]
        samples["cpu_s"] = [p["cpu_s"] for p in run["passes"]]
        metrics = {
            "wall_s": statistics.median(samples["wall_s"]),
            "cpu_s": statistics.median(samples["cpu_s"]),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
    passes = run["passes"]
    # a traced run also checks one more output: that its counts repeat
    checked = sum(p["checked"] for p in passes) + args.trace
    failed = sum(p["failed"] for p in passes) + int(args.trace and not run["deterministic"])
    env = environment()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  calls/pass {len(calls)}")
    for name, value in metrics.items():
        line = f"  {name:26s} {value:.6g} {unit(name)}"
        if name in samples:
            got = tail(samples[name])
            line += f"  median of n={len(samples[name])}" + (
                f", p{got[0]} {got[1]:.6g}" if got else ", no percentile has 10 samples above it"
            )
        print(line)
    print(f"  {'failed_ratio':26s} {failed / checked:.6g} ratio  ({failed} of {checked} outputs)")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "samples": samples, "metrics": metrics,
              "checked": checked, "failed": failed}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with gzip.open(OUT / f"spans-{stem}.json.gz", "wt", compresslevel=1) as fh:
            json.dump(run["spans"].to_json(), fh)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": checked,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
