"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload plan_lownoise --seed 1 --seconds 2 --trace 0

Runs from the root of a source checkout, single-process and with every
math library pinned to one thread. The workload's inputs come from
--seed. Set-up runs SETUPS times; then whole rounds run until --seconds
have passed (at least one round), each round's outputs checked apart
from the timing. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end figures; with --trace 1
every covertlink layer is wrapped (tracer.py) and the metrics are the
per-layer figures. The line before the result records the machine and
library versions. Run files go to .bench_out/ under the checkout.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import covertlink from this checkout's src/; return it and the wall interval of the import."""
    if not (SRC / "covertlink" / "__init__.py").is_file():
        raise SystemExit(f"no covertlink sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    package = importlib.import_module("covertlink")
    for layer in tracing.LAYERS:
        importlib.import_module(f"covertlink.{layer}")
    interval = (start, perf_counter())
    if Path(package.__file__).resolve().parent != (SRC / "covertlink").resolve():
        raise SystemExit(f"imported covertlink from {package.__file__}, not from {SRC}")
    return package, interval


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        return run(args, speed)
    finally:
        speed.stop()


def run(args, speed) -> int:
    package, import_time = import_program()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work, SRC / "covertlink" / "configs")
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(package)

    correct, reason = True, ""
    attempted = failed = 0
    setup_times, round_times, op_times = [], [], []
    peak_rss_mb = float("nan")
    try:
        for _ in range(SETUPS):
            start = perf_counter()
            workload.setup()
            setup_times.append((start, perf_counter()))
        if tracer:
            tracer.set_phase("check")
        workload.check_setup()
        while not round_times or sum(end - start for start, end in round_times) < args.seconds:
            if tracer:
                tracer.set_phase("round")
                tracer.op = f"round{len(round_times)}"
            start = perf_counter()
            n, bad, intervals = workload.run_round()
            round_times.append((start, perf_counter()))
            if len(round_times) == 1:
                # checks below parse large outputs; keep their memory out of the figure
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            attempted, failed = attempted + n, failed + bad
            op_times.extend(intervals)
            if tracer:
                tracer.set_phase("check")
            workload.check_round()
    except (checks.CheckFailed, package.CovertLinkError) as exc:
        correct, reason = False, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    speed.stop()

    def wall(intervals):
        return [end - start for start, end in intervals]

    def corrected(intervals):
        return [speed.seconds(start, end) for start, end in intervals]

    def median(values):
        return statistics.median(values) if values else float("nan")

    def mean(values):
        return statistics.fmean(values) if values else float("nan")

    run_s = mean(corrected(round_times))
    if tracer:
        values = tracing.layer_metrics(tracer, SETUPS, max(len(round_times), 1), run_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": {"value": speed.seconds(*import_time) + median(corrected(setup_times)), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "op_s": {"value": median(corrected(op_times)), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    kinds = workload.report() if correct else {}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(round_times),
        "reason": reason,
        "wall_s": {
            "import": import_time[1] - import_time[0],
            "setups": wall(setup_times),
            "rounds": wall(round_times),
            "op_median": median(wall(op_times)),
            **{kind: median(wall(iv)) for kind, iv in kinds.items()},
        },
        "reference_s": {kind: median(corrected(iv)) for kind, iv in kinds.items()},
        "probes": len(speed.starts),
        "environment": environment(),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    if tracer:
        tracer.write_spans(results / f"{stem}-spans.csv.gz")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "planner.self_s": "s",
    "planner.mu_evals": "count",
    "planner.feasible_ratio": "ratio",
    "security.self_s": "s",
    "security.min_pairs_for_budget.calls": "count",
    "security.divergence_evals": "count",
    "security.evals_per_search": "count",
    "fock_stats.self_s": "s",
    "fock_stats.calls": "count",
    "reliability.self_s": "s",
    "reliability.bit_error_prob.calls": "count",
    "reliability.bit_error_prob.sum_k": "count",
    "reliability.probes_per_search": "count",
    "codec.self_s": "s",
    "codec.choose_positions.s": "s",
    "codec.majority_decode.s": "s",
    "simulator.self_s": "s",
    "simulator.compute_stats.s": "s",
    "simulator.run_distinguisher.s": "s",
    "simulator.simulate_monitoring.s": "s",
    "simulator.distinguisher_trials_per_s": "1/s",
    "fileio.self_s": "s",
    "fileio.bytes_written": "count",
    "fileio.write_mb_per_s": "MB/s",
    "tracer.run_s": "s",
    "tracer.spans": "count",
}


if __name__ == "__main__":
    sys.exit(main())
