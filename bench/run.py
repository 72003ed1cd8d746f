"""Benchmark for lcdshare, run from the repository root.

    python3 bench/run.py --workload deal-audit --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-check

One process, one thread, one closed-loop client calling the library and
`lcdshare.cli.main` in-process on inputs made from --seed.  The last
line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics (from a separate traced pass over a fixed amount of
work) with --trace 1.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUPS = 3  # set-ups per run; setup_s is their median plus the import time
TRACE_STEPS = {"deal-audit": 1, "recover-z4": 200, "cli-files": 40}
TINY_STEPS = {"deal-audit": 2, "recover-z4": 20, "cli-files": 20}


def import_library() -> float:
    """Import lcdshare from ./src and return the seconds it took."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    # one thread: keep numpy's BLAS from starting a thread pool at import
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    t0 = time.perf_counter()
    try:
        import lcdshare
        import lcdshare.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import lcdshare from {src} ({exc}); run from the repository root")
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(lcdshare.__file__).startswith(src + os.sep):
        sys.exit(f"bench: lcdshare was imported from {lcdshare.__file__}, not from {src}")
    return elapsed


def set_up(cls, seed: int, workdir: str, tiny: bool, repeats: int):
    """Build the workload `repeats` times and return the last build with
    the median build time.  Only the last build uses `seed` itself; the
    others use seeds derived from it, because how many draws code
    generation needs varies from seed to seed."""
    times = []
    for r in range(repeats):
        workload = cls(seed if r == repeats - 1 else f"{seed}/setup{r}", workdir, tiny)
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    # what set-up built lives for the whole run; keep it out of the
    # collector's way, as it would be in a process that just started
    gc.collect()
    gc.freeze()
    return workload, statistics.median(times)


def run_loop(workload, seconds: float | None = None, steps: int | None = None) -> float:
    """Closed loop: run `steps` operations, or run until the next one
    (predicted to take as long as the last) would end after `seconds`."""
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        workload.step(i)
        i += 1
        now = time.perf_counter()
        if steps is not None:
            if i >= steps:
                break
        elif now - start + (now - t0) > seconds:
            break
    return time.perf_counter() - start


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latency_figures(samples: list[float]) -> tuple[float, float]:
    """Median and 95th percentile (exclusive method)."""
    if len(samples) < 2:
        return samples[0], samples[0]
    return statistics.median(samples), statistics.quantiles(samples, n=100)[94]


def measure(cls, seed: int, seconds: float, workdir: str, import_s: float, tiny: bool):
    """The untraced run: end-to-end metrics."""
    workload, setup_s = set_up(cls, seed, workdir, tiny, SETUPS)
    if tiny:
        run_loop(workload, steps=TINY_STEPS[cls.name])
    else:
        run_loop(workload, seconds=seconds)
    workload.check()
    p50, p95 = latency_figures(workload.latencies_ref)
    metrics = {
        "setup_s": (import_s + setup_s, "s"),
        "ops_per_kref": (1000 * workload.ops / workload.busy_ref, "1/kref"),
        "latency_p50_ref": (p50, "ref"),
        "latency_p95_ref": (p95, "ref"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    p50_ms, p95_ms = latency_figures(workload.latencies_ms)
    name = workload.latency_name
    summary = {
        "pace_ms": (statistics.median(workload.pace.samples) * 1e3, "ms"),
        f"{name}_p50_ms": (p50_ms, "ms"),
        f"{name}_p95_ms": (p95_ms, "ms"),
        f"{name}_samples": (len(workload.latencies_ms), "count"),
        "ops": (workload.ops, workload.ops_unit),
        "ops_per_s": (workload.ops / workload.busy_s, "1/s"),
        **workload.notes,
        "error_rate": (workload.failed / workload.attempted, "ratio"),
    }
    if cls.name == "cli-files":
        summary["cli_ops_per_s"] = summary.pop("ops_per_s")
    return workload, metrics, summary


def trace(cls, seed: int, workdir: str, steps: int, tiny: bool):
    """The traced run: the same fixed work untraced, traced, untraced.

    The tracing overhead is the traced pass's paced operation time over
    the mean of the two untraced ones, which bracket it so that warm-up
    favours neither.  Returns the three workloads, the per-layer values,
    the recorder, the traced wall time and the sum of all self times
    (which cannot exceed it)."""
    from spans import Recorder, layer_metrics, traced

    def one_pass():
        workload, _ = set_up(cls, seed, workdir, tiny, 1)
        run_loop(workload, steps=steps)
        return workload

    before = one_pass()
    rec = Recorder()
    t0 = time.perf_counter()
    with traced(rec):
        workload = one_pass()
    wall = time.perf_counter() - t0
    after = one_pass()
    runs = (before, workload, after)
    for run in runs:
        run.check()
    values = layer_metrics(rec, 2 * workload.busy_ref / (before.busy_ref + after.busy_ref))
    self_total = sum(v for _, v in rec.self_times().values())
    return runs, values, rec, wall, self_total


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_workload(args, import_s: float) -> int:
    from spans import per_layer_names
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"{cls.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            runs, values, rec, _, _ = trace(cls, args.seed, workdir, TRACE_STEPS[cls.name], False)
            rec.dump(os.path.join(OUT_DIR, f"{cls.name}-seed{args.seed}.spans.jsonl"))
            units = per_layer_names()
            metrics = {name: (values[name], unit) for name, unit in units.items()}
            attempted = sum(w.attempted for w in runs)
            failed = sum(w.failed for w in runs)
            digests = runs[1].digests
        else:
            workload, metrics, summary = measure(cls, args.seed, args.seconds, workdir, import_s, False)
            attempted, failed, digests = workload.attempted, workload.failed, workload.digests
            print(f"{cls.name} seed={args.seed}: " + "  ".join(
                f"{k}={v:.6g} {u}" if isinstance(v, float) else f"{k}={v} {u}"
                for k, (v, u) in {**metrics, **summary}.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for doc, digest in sorted(digests.items()):
        print(f"sha256 {digest}  {doc}")
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


def self_check(import_s: float) -> int:
    """Tiny runs of every workload that check the benchmark itself."""
    from spans import EXTRA_METRICS
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"self-check-{os.getpid()}")
    os.makedirs(workdir)
    problems = []
    try:
        for name, cls in WORKLOADS.items():
            workload, _, summary = measure(cls, 7, 0, workdir, import_s, True)
            if workload.failed:
                problems.append(f"{name}: untraced tiny run had {workload.failed} failures")
            counts = []
            for _ in range(2):
                runs, values, _, wall, self_total = trace(cls, 7, workdir, TINY_STEPS[name], True)
                if any(w.failed for w in runs):
                    problems.append(f"{name}: traced tiny run had failures")
                if self_total > wall:
                    problems.append(f"{name}: self times {self_total:.4f} s exceed wall {wall:.4f} s")
                counts.append({k: v for k, v in values.items()
                               if k.endswith(".calls") or EXTRA_METRICS.get(k) in ("count", "bytes")})
            if counts[0] != counts[1]:
                diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
                problems.append(f"{name}: counts differ between two runs: {diff}")
            print(f"{name}: tiny run ok={not workload.failed}, error_rate={summary['error_rate'][0]}")

        # a share whose x was changed after writing must count as failed
        workload, _ = set_up(WORKLOADS["deal-audit"], 7, workdir, True, 1)
        run_loop(workload, steps=1)
        shares_doc, record_doc = workload.written[0]
        doc = json.loads(shares_doc)
        doc["shares"][3]["x"] = (doc["shares"][3]["x"] + 1) % workload.ring.m
        workload.written[0] = (json.dumps(doc).encode(), record_doc)
        workload.check()
        print(f"deal-audit: corrupted share gives failed={workload.failed}")
        if workload.failed != 1:
            problems.append(f"corrupted share counted {workload.failed} times, expected 1")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["deal-audit", "recover-z4", "cli-files"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run the benchmark's own checks on tiny inputs")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")
    import_s = import_library()
    return self_check(import_s) if args.self_check else run_workload(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
