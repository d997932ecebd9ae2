"""cstarlab benchmark: closed-loop workloads, one client, one process and
one BLAS thread.

    python3 perfbench/run.py --workload {decompose,ideal,tro} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the library is imported from its
``src/``.  Set-up generates the seeded fixture pool (three times, keeping
the median) and warms up on the smallest fixture.  ``--trace 0`` then
makes whole passes over the pool until ``S`` seconds have gone, and at
least the workload's ``min_passes``, with tracing off, and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced pass over the
pool, then whole traced passes until ``S`` seconds have gone, and reports
the per-layer metrics per pass (call counts must repeat exactly from pass
to pass); its spans go to ``perfbench/out/``.  ``--smoke`` keeps only the
two smallest fixtures, for the benchmark's own test.

Every instance is checked; one that raises, exits nonzero, reports
``ok`` false, disagrees with the planted ground truth or prints other
bytes than its first pass counts as failed.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import os

# BLAS reads these once, when numpy loads it, so they are set before any import
# that can pull numpy in.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # OpenBLAS 0.3.31 (numpy 2.4's scipy-openblas) with its SkylakeX kernels
    # and one thread returns inaccurate complex SVDs (zgesdd reconstruction
    # error ~1e-5) or none at all ("SVD did not converge") on some span
    # inputs, and the library then fails an instance.  With two threads, or
    # with the Haswell (AVX2) kernels, the same inputs decompose to machine
    # precision, so the benchmark keeps one thread and takes those kernels.
    # The variable is ignored by other BLAS libraries.
    "OPENBLAS_CORETYPE": "Haswell",
}
os.environ.update(BLAS_ENV)

import argparse
import itertools
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("decompose", "ideal", "tro")
SETUP_REPEATS = 3
SMOKE_POOL = 2
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "instances_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "certified_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="only the two smallest fixtures (self-test)")
    return parser.parse_args(argv)


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_env": {v: os.environ[v] for v in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
    }


class Loop:
    """Runs and checks instances; keeps counts, latencies and the first
    report of every fixture."""

    def __init__(self, workload, pool):
        self.workload = workload
        self.pool = pool
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.errors = {}

    def instance(self, idx):
        """One instance on ``pool[idx]``: (wall seconds, error or None).
        Only the library call is timed, not the check."""
        fx = self.pool[idx]
        start = perf_counter()
        try:
            out = self.workload.run(fx)
        except Exception as exc:  # any raised error fails the instance
            return perf_counter() - start, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
        try:
            text = self.workload.check(fx, out)
        except Exception as exc:  # a malformed report fails the instance too
            return latency, f"{type(exc).__name__}: {exc}"
        if text != self.reference.setdefault(idx, text):
            return latency, "report bytes differ from the first pass"
        return latency, None

    def record(self, idx, latency, error):
        self.attempted += 1
        self.latencies.append(latency)
        if error is not None:
            self.failed += 1
            key = f"{self.pool[idx].label}: {error}"
            self.errors[key] = self.errors.get(key, 0) + 1

    def step(self, idx):
        self.record(idx, *self.instance(idx))

    @property
    def certified(self):
        return self.attempted - self.failed


def tail(latencies, base):
    """The tail latency of whole passes: the highest percentile that has at
    least TAIL_BEYOND samples above it, but never below the median, in a
    run of ``base`` samples (the minimum number of passes), taken at the
    same percentile however many passes the run makes, so that a faster
    program is not measured deeper in its tail.  Returns (value,
    percentile, samples, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    base_rank = max(base - TAIL_BEYOND, (base + 1) // 2)
    rank = -(-n * base_rank // base)
    return ordered[rank - 1], 100.0 * base_rank / base, n, n - rank


def end_to_end(loop, seconds, setup_s):
    # Whole passes only, so every fixture weighs the same in every run.
    start = perf_counter()
    deadline = start + seconds
    passes = 0
    while passes < loop.workload.min_passes or perf_counter() < deadline:
        for idx in range(len(loop.pool)):
            loop.step(idx)
        passes += 1
    elapsed = perf_counter() - start
    base = loop.workload.min_passes * len(loop.pool)
    tail_s, pct, n, beyond = tail(loop.latencies, base)
    print(f"{passes} passes in {elapsed:.2f} s; "
          f"latency_tail_s is p{pct:.1f} of {n} instances ({beyond} beyond it)")
    print(f"fail_ratio {loop.failed / loop.attempted:.6g} "
          f"({loop.failed} of {loop.attempted})")
    return {
        "setup_s": setup_s,
        "instances_per_s": loop.certified / elapsed,
        "latency_p50_s": statistics.median(loop.latencies),
        "latency_tail_s": tail_s,
        "certified_ratio": loop.certified / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(loop, seconds, tracing, trace_path, meta):
    """Per-layer metrics per pass, and whether every traced pass made the
    same calls."""
    start = perf_counter()
    deadline = start + seconds
    for idx in range(len(loop.pool)):
        loop.step(idx)
    untraced_s = perf_counter() - start
    untraced_certified = loop.certified

    tracer = tracing.Tracer()
    tracer.install()
    passes = []
    trace_id = 0
    try:
        while not passes or perf_counter() < deadline:
            lo, t0 = len(tracer.spans), perf_counter()
            for idx in range(len(loop.pool)):
                with tracer.instance(trace_id):
                    latency, error = loop.instance(idx)
                loop.record(idx, latency, error)
                trace_id += 1
            passes.append((lo, len(tracer.spans), perf_counter() - t0))
    finally:
        tracer.uninstall()

    per_pass = [tracing.aggregate(tracer.spans, lo, hi) for lo, hi, _ in passes]
    first_stats, first_counts = per_pass[0]
    steady = all(
        counts == first_counts
        and all(stats[n]["calls"] == first_stats[n]["calls"] for n in tracing.TRACED)
        for stats, counts in per_pass
    )
    if not steady:
        sys.stderr.write("error: call counts differ between traced passes\n")

    metrics = {}
    for name in tracing.TRACED:
        metrics[f"{name}.calls"] = first_stats[name]["calls"]
        for key in ("total_s", "self_s"):
            metrics[f"{name}.{key}"] = statistics.median(s[name][key] for s, _ in per_pass)
    for key in tracing.GROW_SPAN_COUNTERS:
        metrics[f"linalg.grow_span.{key}"] = first_counts[key]
    metrics["linalg.grow_span.kept_ratio"] = (
        first_counts["kept_rows"] / first_counts["candidate_rows"]
        if first_counts["candidate_rows"] else 0.0
    )
    traced_s = sum(seconds for _, _, seconds in passes)
    untraced_ips = untraced_certified / untraced_s
    traced_ips = (loop.certified - untraced_certified) / traced_s
    metrics["trace.untraced_instances_per_s"] = untraced_ips
    metrics["trace.traced_instances_per_s"] = traced_ips
    if traced_ips:
        print(f"tracing overhead: untraced/traced instances_per_s = "
              f"{untraced_ips / traced_ips:.4f} over {len(passes)} traced passes")

    with open(trace_path, "w") as fh:
        json.dump({**meta, "passes": passes, "spans": tracer.spans}, fh)
    print(f"spans written to {trace_path}")
    return metrics, steady


def metric_unit(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("instances_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes-computed"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cstarlab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no library sources under {SRC}; "
                         "run from the root of a cstarlab checkout\n")
        return 2

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import cstarlab
    import tracing
    import workloads
    import_s = perf_counter() - t0
    if Path(cstarlab.__file__).resolve().parent != SRC / "cstarlab":
        sys.stderr.write(f"error: imported cstarlab from {cstarlab.__file__}, not {SRC}\n")
        return 2

    env = environment(np)
    print("environment " + json.dumps(env, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed % (1 << 63)
    stream = WORKLOAD_NAMES.index(args.workload)
    limit = SMOKE_POOL if args.smoke else None

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        build_s = []
        for _ in range(SETUP_REPEATS):
            b0 = perf_counter()
            rng = np.random.default_rng([seed, stream])
            pool = list(itertools.islice(workload.build(rng, workdir), limit))
            build_s.append(perf_counter() - b0)
        loop = Loop(workload, pool)
        warm_s, _ = loop.instance(0)  # smallest fixture; not counted
        setup_s = import_s + statistics.median(build_s) + warm_s
        print(f"setup: import {import_s:.4f} s, fixtures {statistics.median(build_s):.4f} s "
              f"(median of {SETUP_REPEATS}), warm-up {warm_s:.4f} s; pool of {len(pool)}")
        for fx in pool:
            print(f"  fixture dim={fx.dim} {fx.label}")

        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            meta = {"workload": args.workload, "seed": args.seed, "environment": env,
                    "pool": [fx.label for fx in pool]}
            metrics, steady = per_layer(loop, args.seconds, tracing, trace_path, meta)
        else:
            metrics, steady = end_to_end(loop, args.seconds, setup_s), True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for error, count in sorted(loop.errors.items()):
        sys.stderr.write(f"failed x{count}: {error}\n")
    for name, value in metrics.items():
        print(f"{name} {value} {metric_unit(name)}")
    result = {
        "correct": loop.failed == 0 and steady,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": metric_unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
