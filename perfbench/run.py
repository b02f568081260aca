"""Benchmark for qlyap: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload ensemble-qubit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; qlyap is imported from ./src.
Every workload runs in this one process as a closed loop: each call is
issued after the previous one returns. --trace 0 reports the end-to-end
metrics; --trace 1 runs the fixed per-layer suite and the workload with
spans recorded around each call into the library, and reports the
per-layer metrics. The last line of standard output is the result JSON.
Spans, host facts and per-run results are written under .perfbench_out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("ensemble-qubit", "probe-4level", "trajectory-csv", "sweep-4level")
SETUP_REPEATS = 9
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def single_threaded_env():
    """Unset QLYAP_THREADS and pin BLAS pools to one thread unless already set."""
    original = os.environ.pop("QLYAP_THREADS", None)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    return original


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def host_facts(qlyap_threads):
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = {
        key: {k: deps.get(key, {}).get(k) for k in ("name", "version", "openblas configuration")}
        for key in ("blas", "lapack")
    }
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "QLYAP_THREADS": qlyap_threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


def tail(values):
    """(value, percentile, samples): the highest order statistic with at
    least 10 samples above it, or the median when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n - 11 >= n // 2:
        return ordered[n - 11], 100.0 * (n - 10) / n, n
    return statistics.median(ordered), 50.0, n


def measure(workload, seconds, apis, tracer=None):
    """Run rounds until `seconds` have passed, cycling through `apis`.

    Returns the outcomes of each round.
    """
    from workloads import run_op

    rounds = []
    start = time.perf_counter()
    for index, ops in enumerate(workload.rounds()):
        workload.api = apis[index % len(apis)]
        if tracer is not None:
            tracer.run_id = f"{workload.name}:{index}"
        with workload.api.boundaries():
            outcomes = [run_op(op) for op in ops]
        rounds.append(outcomes)
        if time.perf_counter() - start >= seconds and index + 1 >= len(apis):
            return rounds


def measure_setup(args, work_dir):
    """Median set-up time over fresh interpreters, each importing, loading and warming up."""
    times = []
    for rep in range(SETUP_REPEATS):
        child_dir = work_dir / f"setup-{rep}"
        child_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only", "--work-dir", str(child_dir)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times), times


def round_wall(outcomes):
    return sum(o.seconds for o in outcomes)


def end_to_end(rounds, setup_s):
    outcomes = [o for ops in rounds for o in ops]
    walls = [round_wall(ops) for ops in rounds]
    tail_value, percentile, samples = tail([o.seconds for o in outcomes])
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": setup_s,
        "items_per_s": statistics.median(sum(o.work for o in ops) / round_wall(ops) for ops in rounds),
        "op_p50_s": statistics.median(o.seconds for o in outcomes),
        "op_tail_s": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"rounds": len(rounds), "ops": samples, "op_tail_percentile": percentile}
    return metrics, notes


def print_baselines(values):
    from layers import BASELINES

    for label, quoted, key in BASELINES:
        measured = values.get(key) if key else None
        shown = f"{measured:.4g}" if measured is not None else "not measured in this run"
        print(f"baseline (ROADMAP re-anchor, cross-check only): {label}: {quoted:g}, measured {shown}")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qlyap" / "__init__.py").is_file():
        print(f"error: no qlyap sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    qlyap_threads = single_threaded_env()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        from tracing import Api
        from workloads import WORKLOADS

        WORKLOADS[args.workload](Api(), args.work_dir, args.seed).setup()
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    work_dir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        return run(args, work_dir, qlyap_threads)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_all(args):
    """Run every workload in its own process, one after another, and summarize."""
    results = {}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600, check=False,
        )
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("== summary")
    for name, result in results.items():
        print(f"{name}: failed_frac = {result['failed'] / result['attempted']:.6g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0


def run(args, work_dir, qlyap_threads):
    import qlyap
    from tracing import Api, Tracer
    from workloads import WORKLOADS

    if Path(qlyap.__file__).resolve().parent != SRC / "qlyap":
        print(f"error: imported qlyap from {qlyap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    plain = Api()
    workload = WORKLOADS[args.workload](plain, work_dir, args.seed)
    workload.setup()
    setup_s, setup_samples = measure_setup(args, work_dir)
    facts = host_facts(qlyap_threads)
    print("host: " + json.dumps(facts, sort_keys=True))

    threads_identical = True
    if not args.trace:
        rounds = measure(workload, args.seconds, [plain])
        metrics, notes = end_to_end(rounds, setup_s)
        units = END_TO_END_UNITS
        item = workload.item
        print(f"{item}_per_s = {metrics['items_per_s']:.6g} 1/s (items_per_s on this workload)")
        print(f"op samples {notes['ops']} in {notes['rounds']} rounds; op_tail_s is "
              f"p{notes['op_tail_percentile']:.1f}; setup samples {setup_samples}")
    else:
        from layers import PER_LAYER, LayerSuite

        tracer = Tracer()
        suite = LayerSuite(tracer, Api(tracer), work_dir, args.seed)
        metrics = suite.run()
        threads_identical = suite.threads_identical
        rounds = measure(workload, args.seconds, [plain, Api(tracer)], tracer)
        # rounds alternate untraced, traced: compare each traced round with the one just before it
        walls = [round_wall(ops) for ops in rounds]
        metrics["trace.overhead_s"] = statistics.median(
            traced - untraced for untraced, traced in zip(walls[0::2], walls[1::2]))
        metrics["ensemble.excluded_trajectories"] += sum(o.excluded for ops in rounds for o in ops)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        print(f"{'span':48s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
        for name, (calls, total, self_s) in tracer.self_times(args.workload).items():
            print(f"{name:48s} {calls:7d} {total:10.4f} {self_s:10.4f}")
        print_baselines({**metrics, **suite.extra})
        for name, (unit, moves) in PER_LAYER.items():
            print(f"{name} = {metrics[name]:.6g} {unit}  -> {moves}")
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(
            trace_dir / f"{args.workload}-seed{args.seed}.json",
            {"host": facts, "metrics": metrics, "self_times": tracer.self_times()},
        )

    outcomes = [o for ops in rounds for o in ops]
    failed = sum(1 for o in outcomes if o.problems) + sum(o.excluded for o in outcomes)
    attempted = len(outcomes)
    if args.trace:  # the suite's byte comparison at QLYAP_THREADS=1 and =2 is one more operation
        attempted += 1
        failed += not threads_identical
    for o in outcomes:
        if o.problems:
            print(f"FAILED {o.kind}: {'; '.join(o.problems)}")
    if not threads_identical:
        print("FAILED ensemble CLI output differs between QLYAP_THREADS=1 and =2")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    if not args.trace:
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"host": facts, "result": result, "setup_samples": setup_samples,
                   "rounds": [[[o.kind, o.seconds, o.work] for o in ops] for ops in rounds]}, handle)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
