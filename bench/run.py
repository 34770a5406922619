"""Benchmark of the koopmetrics identify -> compare pipeline.

Run one workload (the last stdout line is the JSON result):

    python3 bench/run.py --workload hopping-flow --seed 1 --seconds 30 --trace 0

or every workload, each in its own process, with a summary table:

    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each run imports koopmetrics from ``src/`` of the checkout that holds this
file and refuses to run without it. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer span metrics of one traced
set-up and pass, and the tracing overhead. Scratch files go to
``.bench_work/`` and a full result with run metadata (and spans, when
traced) to ``.bench_out/``, both in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# BLAS runs on one thread, fixed before numpy loads, so that the process's CPU
# time, which every timing metric reads, is the time of the work itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("hopping-flow", "random-compare", "analytic-sweep")


def _import_package() -> None:
    """Import koopmetrics from this checkout's src/, or exit 1."""
    if not (SRC / "koopmetrics" / "__init__.py").is_file():
        sys.exit(f"error: no koopmetrics sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import koopmetrics

    if Path(koopmetrics.__file__).resolve().parent != SRC / "koopmetrics":
        sys.exit(f"error: imported koopmetrics from {koopmetrics.__file__}, not {SRC}")


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "koopmetrics").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(args, workload) -> dict:
    import numpy as np

    try:
        import scipy
    except ImportError:
        scipy = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__ if scipy else None,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": NPROC,
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, seed) -> tuple[float, float | None]:
    """Median set-up time over the workload's repeats, and its identify time."""
    times, identify = [], []
    for _ in range(workload.setup_repeats):
        start = time.process_time()
        ident = workload.setup(seed)
        times.append(time.process_time() - start)
        if ident is not None:
            identify.append(ident)
    return statistics.median(times), (statistics.median(identify) if identify else None)


def measure(workload, seconds, pause) -> list:
    """Closed loop: passes back to back while another one fits in ``seconds``."""
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        passes.append(workload.run_pass(pause))
        walls.append(time.perf_counter() - begin)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return passes


def end_to_end(setup_s, setup_identify_s, passes) -> dict:
    identify = [_identify_s(setup_identify_s, p) for p in passes]
    values = {
        "setup_s": (setup_s, "s"),
        "identify_s": (statistics.median(identify), "s"),
        "compare_s": (statistics.median(p.compare_s for p in passes), "s"),
        "pipeline_s": (statistics.median(i + p.compare_s for i, p in zip(identify, passes)), "s"),
        "points_per_s": (statistics.median(p.compares / p.compare_s for p in passes), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _identify_s(setup_identify_s, result) -> float:
    """Identify time of a pass; random-compare decomposes in set-up instead."""
    return (setup_identify_s or 0.0) + result.identify_s


def per_layer(tracer, op_spans, untraced_s, traced_s, self_dmax, model_bytes) -> dict:
    metrics = {}
    for name, entry in tracer.summary().items():
        metrics[f"{name}.s"] = {"value": entry["s"], "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": entry["self_s"], "unit": "s"}
        metrics[f"{name}.calls"] = {"value": entry["calls"], "unit": "count"}
    metrics["io.model_bytes"] = {"value": model_bytes, "unit": "B"}
    metrics["conjugacy.self_dmax"] = {"value": self_dmax, "unit": "1"}
    metrics["trace.untraced_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.traced_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    metrics["trace.top_span_s"] = {"value": tracer.top_level_seconds(op_spans), "unit": "s"}
    return metrics


def run_workload(args) -> dict:
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](str(workdir), tiny=args.tiny)
        if args.trace:
            return traced_run(args, workload)
        setup_s, setup_identify_s = timed_setup(workload, args.seed)
        workload.warm()
        passes = measure(workload, args.seconds, nullcontext)
        metrics = end_to_end(setup_s, setup_identify_s, passes)
        return _result(args, workload, passes, workload.self_comparisons(), metrics, spans=None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(args, workload) -> dict:
    """Per-layer spans of one traced set-up + pass, and the tracing overhead.

    After a warm-up, one set-up and pass run with the wrappers installed; their
    spans give the per-layer metrics. Untraced and traced passes then
    alternate while another pair fits in ``--seconds`` (at least one pair), so
    ``trace.untraced_s`` / ``trace.traced_s`` are medians of the timed
    operations (``identify_s`` + ``compare_s``) taken over the same stretch of
    host speed. The top-level spans of the workload's operations should
    account for ``trace.traced_s``.
    """
    from tracing import Tracer

    workload.setup(args.seed)
    workload.warm()
    untraced_identify_s = workload.setup(args.seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced_identify_s = workload.setup(args.seed)
        first = workload.run_pass(tracer.pause)
    finally:
        tracer.uninstall()

    passes = [first]
    untraced, traced = [], [_identify_s(traced_identify_s, first) + first.compare_s]
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(nullcontext))
        untraced.append(_identify_s(untraced_identify_s, passes[-1]) + passes[-1].compare_s)
        extra = Tracer()
        extra.install()
        try:
            passes.append(workload.run_pass(extra.pause))
        finally:
            extra.uninstall()
        traced.append(_identify_s(traced_identify_s, passes[-1]) + passes[-1].compare_s)
        elapsed = time.perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break

    selfs = workload.self_comparisons()
    metrics = per_layer(
        tracer, workload.op_spans, statistics.median(untraced), statistics.median(traced),
        max((d for _, d, _ in selfs if math.isfinite(d)), default=0.0), first.model_bytes,
    )
    return _result(args, workload, passes, selfs, metrics, spans=tracer.spans)


def _result(args, workload, passes, selfs, metrics, spans) -> dict:
    """The run's result (its last stdout line); the full record goes to ``.bench_out``.

    ``selfs`` are the untimed self-comparisons. Their checks are reported in
    the metadata and on stderr but are not operations of the run, so they do
    not enter ``correct``, ``attempted`` or ``failed``.
    """
    ops = [op for p in passes for op in p.ops]
    failures = [f for p in passes for f in p.failures]
    meta = metadata(args, workload)
    meta["passes"] = len(passes)
    meta["self_comparisons"] = [
        {"op": op, "d_max": d_max, "failures": msgs} for op, d_max, msgs in selfs
    ]
    print("meta " + json.dumps(meta))
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    for op, _, msgs in selfs:
        for msg in msgs:
            print(f"SELF-COMPARISON {op}: {msg}", file=sys.stderr)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "meta": meta,
        "metrics": metrics,
        "passes": [
            {"identify_s": p.identify_s, "compare_s": p.compare_s, "failures": p.failures}
            for p in passes
        ],
        "spans": spans,
    }
    out = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": sum(1 for _, msgs in ops if msgs),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']} failed {res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_package()
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
