"""Benchmark of the qbayes bound ladder.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: audit-ensemble, bounds-ladder, nagaoka-search (see README.md).
A run sets up the workload, then repeats whole rounds of its operations until
at least --seconds have passed, checks every result, and prints one JSON
object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_s, peak_rss_mb). With --trace 1 the run measures untraced rounds for
half of --seconds, then traced rounds for the other half, and the metrics are
the per-layer figures plus the tracing overhead. The full report, with every
operation's latency, is also written under bench/results/.

The package is imported from src/ of the checkout that holds this file; the
run exits with code 1 if it is missing. BLAS and OpenMP are pinned to one
thread before numpy is imported.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3       # set-ups per run (this process and two children)
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few small inputs, for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def import_package():
    """Import qbayes from this checkout's src/, or exit with code 1."""
    if not (SRC / "qbayes" / "__init__.py").is_file():
        sys.exit(f"error: no qbayes package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qbayes
    if Path(qbayes.__file__).resolve().parent != SRC / "qbayes":
        sys.exit(f"error: qbayes imported from {qbayes.__file__}, not {SRC}")


def measure(workload, seconds: float) -> dict:
    """Whole rounds until `seconds` have passed; every result is kept."""
    latencies, results = [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        for op in workload.ops:
            t = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception:
                result, error = None, traceback.format_exc()
            latencies.append(time.perf_counter() - t)
            results.append((op.label, result, error))
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return {"rounds": rounds, "elapsed_s": time.perf_counter() - start,
            "latencies": latencies, "results": results,
            "ops_per_s": len(latencies) / sum(latencies)}


def judge(workload, results) -> tuple[bool, int, list[str]]:
    """(correct, failed, problems) over every result of the run. An operation
    that raised, or that shows the known fault its workload names, is failed;
    `correct` speaks of the others."""
    problems = workload.finish()
    failed = 0
    for label, result, error in results:
        if error is not None:
            failed += 1
            print(f"{label} raised:\n{error}", file=sys.stderr)
            continue
        fault, found = workload.check(label, result)
        failed += int(fault)
        problems += found
    return not problems, failed, problems


def child_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--size", args.size,
           "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, WORKLOADS[args.workload], str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, make_workload, workdir: str) -> int:
    if args.setup_only:
        make_workload(args.seed, args.size, workdir)
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    if not args.trace:
        workload = make_workload(args.seed, args.size, workdir)
        setups = [time.perf_counter() - T0]
        setups += [child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
        timed = measure(workload, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results, latencies = timed["results"], timed["latencies"]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(timed["ops_per_s"], "1/s"),
            "op_p50_s": metric(statistics.median(timed["latencies"]), "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
        extra = {"setup_samples_s": setups, "rounds": timed["rounds"],
                 "elapsed_s": timed["elapsed_s"]}
    else:
        setup_tracer = spans.Tracer()
        setup_tracer.install()
        try:
            workload = make_workload(args.seed, args.size, workdir)
        finally:
            setup_tracer.uninstall()
        plain = measure(workload, args.seconds / 2)
        timed_tracer = spans.Tracer()
        timed_tracer.install()
        try:
            traced = measure(workload, args.seconds / 2)
        finally:
            timed_tracer.uninstall()
        results = plain["results"] + traced["results"]
        latencies = plain["latencies"] + traced["latencies"]
        layers = spans.layer_metrics(setup_tracer, timed_tracer, traced["rounds"])
        metrics = {name: metric(v, unit) for name, (v, unit) in layers.items()}
        metrics["trace.ops_per_s_untraced"] = metric(plain["ops_per_s"], "1/s")
        metrics["trace.ops_per_s_traced"] = metric(traced["ops_per_s"], "1/s")
        metrics["trace.overhead_pct"] = metric(
            100.0 * (plain["ops_per_s"] / traced["ops_per_s"] - 1.0), "%")
        extra = {"rounds_untraced": plain["rounds"], "rounds_traced": traced["rounds"],
                 "spans_setup": setup_tracer.totals(),
                 "spans_traced": timed_tracer.totals()}

    correct, failed, problems = judge(workload, results)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    report = {"correct": correct, "attempted": len(results), "failed": failed,
              "metrics": metrics}
    extra["latencies_s"] = [[label, t] for (label, _, _), t in zip(results, latencies)]
    save_results(args, report, extra)
    print(json.dumps(report))
    return 0


def save_results(args, report, extra) -> None:
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    detail = dict(report, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, size=args.size, **extra)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
