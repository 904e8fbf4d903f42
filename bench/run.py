"""qflearn benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout that holds `src/qflearn`; the benchmark
works in the checkout root and writes only under `.bench_out/`. Workloads
are train_awgn_perfect, train_nlpn_q1_bsc and eval_mc (see workloads.py).
The seed defaults to the workload's acceptance-suite seed. Everything runs
in this one process with one BLAS thread.

--trace 0 repeats the workload's operation for --seconds and reports the
`end_to_end` metrics of BENCHMARK.json. Every operation is a fixed amount
of work (a 50-iteration training run, or one full Monte Carlo pass), so the
timings are medians over the run's operations. setup_s is the import time
plus the median of three set-ups.

--trace 1 runs operations untraced for half of --seconds, then the same
number again under the layer tracer (tracer.py), and reports the `per_layer`
metrics of BENCHMARK.json, each per operation. process.traced_run_s is the
median traced operation time and process.trace_overhead_s that minus the
untraced median. cli.artifacts_bitexact compares
the artifacts of the workload's default seed against reference.json; a
mismatch is reported, not counted as a failure. The spans go to
`.bench_out/<workload>/spans.npz`.

Every operation passes the workload's correctness gate and leaves the same
artifacts as the run's first operation, traced or not; one that does not
counts as failed. The last line of stdout is the result object; the line
before it holds the environment stamp and diagnostics, also saved as
`.bench_out/<workload>/result-trace<0|1>.json`.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREADS = "1"
SETUP_REPEATS = 3


def run_op(workload, state):
    """One operation; one that raises is a failed operation and the run goes on."""
    from workloads import OpResult

    start = time.perf_counter()
    try:
        return workload.op(state)
    except Exception as exc:
        traceback.print_exc()
        return OpResult(seconds=time.perf_counter() - start, problems=[f"{type(exc).__name__}: {exc}"])


def run_ops(workload, state, seconds=None, count=None):
    """Repeat the operation `count` times, or until `seconds` are used up
    (stopping when the next one would end more than half an operation late)."""
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(run_op(workload, state))
        if count is not None:
            if len(ops) >= count:
                return ops
        elif time.perf_counter() - start + ops[-1].seconds / 2 >= seconds:
            return ops


def check_same_artifacts(ops):
    """Every operation repeats the same seeded work, so its artifacts must match."""
    done = [op for op in ops if op.digests]
    for op in done[1:]:
        if op.digests != done[0].digests:
            op.problems.append("artifacts differ from the run's first operation")


def median_rate(ops, work):
    rates = [op.work[work][0] / op.work[work][1] for op in ops if work in op.work]
    return statistics.median(rates) if rates else 0.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def measure(workload, seed, seconds, import_s):
    """Untraced run: (end-to-end values, extra diagnostics, operations)."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - start)
    ops = run_ops(workload, state, seconds)
    check_same_artifacts(ops)
    failed = sum(1 for op in ops if op.problems)
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "run_s": statistics.median(op.seconds for op in ops),
        "mc_samples_per_s": median_rate(ops, "mc_samples"),
        "symbols_per_s": median_rate(ops, "symbols"),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - failed / len(ops),
    }
    extra = {"setup_seconds": setup_times, "failed_frac": failed / len(ops)}
    if any("steps" in op.work for op in ops):
        extra["steps_per_s"] = median_rate(ops, "steps")
    return values, extra, ops


def trace(workload, seed, seconds, out_dir):
    """Traced run: (per-layer values, extra diagnostics, operations)."""
    import tracer
    import workloads

    state = workload.setup(seed)
    untraced = run_ops(workload, state, seconds / 2)
    n = len(untraced)
    before = tracer.package_bindings()
    cpu_start = time.process_time()
    with tracer.Tracer() as spans:
        traced = run_ops(workload, state, count=n)
    cpu_s = time.process_time() - cpu_start
    after = tracer.package_bindings()
    unrestored = sorted(f"{ns}.{attr}" for (ns, attr), v in before.items() if after.get((ns, attr)) is not v)
    if unrestored:
        raise RuntimeError(f"tracer left bindings patched: {unrestored}")
    ops = untraced + traced
    check_same_artifacts(ops)

    # Reproducibility watch on the default seed.
    if seed == workload.default_seed:
        watched = untraced[0]
    else:
        watched = run_op(workload, workload.setup(workload.default_seed))
        ops.append(watched)
    reference = workloads.load_reference()["digests"].get(workload.name)
    bitexact = bool(watched.digests) and watched.digests == reference

    values = {}
    for name, (calls, self_s) in spans.summary().items():
        values[f"{name}.calls"] = calls / n
        values[f"{name}.self_s"] = self_s / n
    for name, total in spans.counts.items():
        values[name] = total / n
    roundtrips = values["feedback.feedback_roundtrip.calls"]
    degenerate = values["feedback.feedback_roundtrip.degenerate"]
    values["feedback.useful_ratio"] = (roundtrips - degenerate) / roundtrips if roundtrips else 0.0
    values["cli.artifact_bytes"] = statistics.fmean(op.artifact_bytes for op in traced)
    values["cli.artifacts_bitexact"] = float(bitexact)
    traced_s = statistics.median(op.seconds for op in traced)
    values["process.cpu_s"] = cpu_s / n
    values["process.traced_run_s"] = traced_s
    values["process.trace_overhead_s"] = traced_s - statistics.median(op.seconds for op in untraced)
    spans.write(os.path.join(out_dir, "spans.npz"))
    extra = {
        "spans": spans.num_spans,
        "watched_seed": workload.default_seed,
        "watched_digests": watched.digests,
    }
    return values, extra, ops


def git_sha():
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256():
    """Digest of the qflearn sources, which names the code also outside git."""
    src = os.path.join(ROOT, "src", "qflearn")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment():
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "qflearn", "__init__.py")):
        print(f"error: no qflearn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # Fixed before NumPy loads, so every run uses the same BLAS threading.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    loadavg_start = os.getloadavg()
    start = time.perf_counter()
    import workloads  # loads NumPy and qflearn

    import_s = time.perf_counter() - start

    catalogue = workloads.desk_workloads()
    if args.workload not in catalogue:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(catalogue)}")
    workload = catalogue[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    out_dir = os.path.join(workloads.OUT_DIR, workload.name)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    if args.trace:
        values, extra, ops = trace(workload, seed, args.seconds, out_dir)
    else:
        values, extra, ops = measure(workload, seed, args.seconds, import_s)
    failed = sum(1 for op in ops if op.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment() | {"loadavg_start": loadavg_start, "loadavg_end": os.getloadavg()},
        "op_seconds": [op.seconds for op in ops],
        "digests": next((op.digests for op in ops if op.digests), {}),
        "problems": [p for op in ops for p in op.problems][:20],
        "remarks": sorted({r for op in ops for r in op.remarks}),
        **extra,
    }
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
