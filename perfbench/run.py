"""pce-subspace benchmark: closed-loop workloads, one op at a time.

    python3 perfbench/run.py --workload subspace_eval --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the benchmark imports ``pce`` from
``src/``.  With ``--trace 0`` it measures the end-to-end metrics named in
BENCHMARK.json with tracing off; with ``--trace 1`` it runs a fixed number of
ops twice each, traced and untraced, plus a single-threaded reference pass in
a child process, and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Scratch files live under ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# set-up runs this many times before the timed ops and as many after, so its
# median samples the machine at both ends of the run
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("subspace_eval", "cli_roundtrip", "lambda_sweep")
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--blas-threads", type=int, default=len(os.sched_getaffinity(0)),
        help="BLAS thread count (default: nproc); the traced run's reference pass uses 1",
    )
    p.add_argument(
        "--ops", type=int, default=None,
        help="run exactly this many ops instead of --seconds of them",
    )
    return p.parse_args(argv)


@dataclass
class OpRecord:
    index: int
    seconds: float
    problems: list
    accuracy: float | None


def run_one(workload, index, tracer=None):
    """Time one op, then check its output outside the timed interval."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run_op(index)
        else:
            with tracer.op(index):
                result = workload.run_op(index)
    except Exception as exc:  # a failing op is counted, not fatal
        return OpRecord(index, time.perf_counter() - t0, [repr(exc)], None)
    seconds = time.perf_counter() - t0
    try:
        problems, accuracy = workload.check(index, result)
    except Exception as exc:
        problems, accuracy = [f"check raised {exc!r}"], None
    return OpRecord(index, seconds, problems, accuracy)


def timed_setups(workload):
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def p50(records):
    return statistics.median(r.seconds for r in records)


def blas_threads_in_use():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next(
        (ln.split(":", 1)[1].strip()
         for ln in Path("/proc/cpuinfo").read_text().splitlines()
         if ln.startswith("model name")),
        platform.processor(),
    )
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    levels = sorted(cache.glob("index*"), key=lambda p: int((p / "level").read_text()))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_requested": args.blas_threads,
        "blas_threads_in_use": blas_threads_in_use(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu": cpu,
        "llc": (levels[-1] / "size").read_text().strip() if levels else None,
    }


def report_failures(records):
    for r in records:
        if r.problems:
            print(f"op {r.index} failed: {'; '.join(r.problems)}")


def untraced_run(workload, args):
    setup_times = timed_setups(workload)
    records = []
    start = time.perf_counter()
    while (
        len(records) < args.ops if args.ops is not None
        else time.perf_counter() - start < args.seconds
    ):
        records.append(run_one(workload, len(records)))
    setup_times += timed_setups(workload)
    setup_s = statistics.median(setup_times)
    report_failures(records)
    n = len(records)
    failed = sum(1 for r in records if r.problems)
    accuracies = [r.accuracy for r in records if r.accuracy is not None]
    metrics = {
        "setup_s": setup_s,
        "op_s_p50": p50(records),
        "ops_per_s": n / sum(r.seconds for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"setup_s     {setup_s:.4f} s  (median of {len(setup_times)})")
    print(f"op_s_p50    {metrics['op_s_p50']:.4f} s  (n={n})")
    print(f"ops_per_s   {metrics['ops_per_s']:.4f} 1/s  (n={n})")
    print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    print(f"fail_ratio  {failed / n:.4f}  ({failed}/{n})")
    if accuracies:
        print(f"accuracy    {statistics.fmean(accuracies):.4f}  (n={len(accuracies)})")
    return n, failed, metrics


def single_thread_p50(args, ops):
    """op_s_p50 of the same ops in a child process with BLAS at 1 thread."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--blas-threads", "1", "--ops", str(ops)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread pass exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["metrics"]["op_s_p50"]["value"], result["attempted"], result["failed"]


def traced_run(workload, args):
    from tracing import Tracer, layer_metric, layer_totals

    workload.setup()
    tracer = Tracer()
    plain, traced = [], []
    for i in range(workload.trace_ops):
        # alternate which side runs first so warm caches favour neither
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                traced.append(run_one(workload, i, tracer))
            else:
                plain.append(run_one(workload, i))
    for site in tracer.missing_sites:
        print(f"trace: call site {site} not found; its layer reads 0")
    report_failures(plain + traced)
    one_thread, child_attempted, child_failed = single_thread_p50(args, workload.trace_ops)

    totals = layer_totals(tracer.spans)
    embed_dims = sum(op.get("graph.embed", {}).get("dim", 0) for op in totals.values())
    orders = sum(
        op.get("linalg.generalized_top_eigs", {}).get("pencil_order_sum", 0)
        for op in totals.values()
    )
    special = {
        "linalg.eig_useful_ratio": embed_dims / orders if orders else 0.0,
        "unattributed_s": layer_metric(totals, "op.self_s"),
        "blas.thread_speedup": one_thread / p50(plain),
        # paired by op, so drift in machine speed between ops cancels
        "trace.overhead_ratio": statistics.median(
            t.seconds / u.seconds for u, t in zip(plain, traced)
        ) - 1.0,
    }
    metrics = {}
    for spec in benchmark_spec()["per_layer"]:
        name = spec["name"]
        metrics[name] = special[name] if name in special else layer_metric(totals, name)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    print(f"op_s_p50 untraced {p50(plain):.4f} s, traced {p50(traced):.4f} s, "
          f"BLAS 1 thread {one_thread:.4f} s  (n={workload.trace_ops} each)")
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name:40s} {value!r}")
    attempted = len(plain) + len(traced) + child_attempted
    failed = sum(1 for r in plain + traced if r.problems) + child_failed
    return attempted, failed, metrics


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "pce" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a pce-subspace checkout "
              "(needs src/pce and BENCHMARK.json)", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads it
    for var in BLAS_ENV:
        os.environ[var] = str(args.blas_threads)
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            attempted, failed, metrics = traced_run(workload, args)
            kind = "per_layer"
        else:
            attempted, failed, metrics = untraced_run(workload, args)
            kind = "end_to_end"
        print("env " + json.dumps(environment(args)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
            for s in benchmark_spec()[kind]
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
