"""Benchmark of the synthweave package; see README.md in this directory.

    python3 perfbench/run.py --workload synth_cart --seed 1 --seconds 36 --trace 0

Run from the repository root.  Makes the workload's inputs from the seed,
runs operations for about ``--seconds`` seconds, checks every output, and
prints a metadata line and then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` operations alternate
between traced and untraced and the metrics are the per-layer ones.  Spans,
per-operation records and metadata go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = ("synth_cart", "synth_parametric", "audit")
END_TO_END = {
    "rows_per_s": "1/s",
    "op_s.p50": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "success_rate": "ratio",
}


def pin_blas_threads() -> None:
    """Run BLAS on one thread.

    On a 2-CPU box, two BLAS threads doubled the run-to-run spread of the
    operation time (README.md), so the benchmark pins BLAS to one thread.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def import_package() -> float:
    """Import the package from this checkout's ``src``; returns the seconds taken."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import synthweave  # noqa: F401  (numpy and scipy come with it)
    import workloads  # noqa: F401

    import_s = time.perf_counter() - t0
    where = Path(synthweave.__file__).resolve().parent
    if where != SRC / "synthweave":
        raise ImportError(f"synthweave imported from {where}, not from {SRC}")
    return import_s


def metadata(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    try:
        # --show-toplevel guards against a checkout nested in another repository
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.split()
    except OSError:
        out = []
    commit = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "synthweave").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def one_operation(wl, inputs, tracer):
    """Run and check one operation, traced if ``tracer`` is given."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
        try:
            op_s, code, extra = wl.operate(inputs)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return wl.check(inputs, op_s, code, extra)
    except Exception as exc:  # a failed operation is counted and the run goes on
        return wl.Outcome(time.perf_counter() - t0, False, [f"{type(exc).__name__}: {exc}"])


def bench(workload: str, seed: int, seconds: float, trace: bool, n_rows: int | None = None,
          out: Path = OUT, import_s: float = 0.0) -> dict:
    """Set up, run operations for about ``seconds``, check them; returns the record.

    Every operation of a run works on the same inputs.  A traced run
    alternates traced and untraced operations, so the tracing overhead is
    measured on the same inputs too.
    """
    import layers
    import workloads as wl
    from tracer import Tracer

    n_rows = n_rows or wl.ROWS
    work = out / "work" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    tracer = Tracer(layers.TARGETS) if trace else None
    setup_times, outcomes, traced, untraced = [], [], [], []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = wl.setup(workload, seed, work, n_rows)
            setup_times.append(time.perf_counter() - t0)
        started = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.op = len(traced)
                traced.append(one_operation(wl, inputs, tracer))
                outcomes.append(traced[-1])
            untraced.append(one_operation(wl, inputs, None))
            outcomes.append(untraced[-1])
            rounds = len(untraced)
            # stop before a round that would end past the time budget
            if (time.perf_counter() - started) * (rounds + 1) / rounds > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not o.ok for o in outcomes)
    if trace:
        metrics = layers.layer_metrics(tracer, traced, untraced)
        units = layers.metric_units()
    else:
        op_p50 = statistics.median(o.op_s for o in outcomes)
        metrics = {
            "rows_per_s": n_rows / op_p50,
            "op_s.p50": op_p50,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": import_s + statistics.median(setup_times),
            "success_rate": 1.0 - failed / len(outcomes),
        }
        units = END_TO_END
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(outcomes),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
        "n_rows": n_rows,
        "import_s": import_s,
        "setup_s_each": setup_times,
        "operations": [
            {"op_s": o.op_s, "ok": o.ok, "traced": any(o is t for t in traced),
             "problems": o.problems, "sha256": o.sha256, "facts": o.facts}
            for o in outcomes
        ],
        "trace": tracer.dump() if trace else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_blas_threads()
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    meta = metadata(args.workload, args.seed, args.trace)
    record = bench(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    record["metadata"] = meta
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record) + "\n", encoding="utf-8")
    hashes = sorted({o["sha256"] for o in record["operations"] if o["sha256"]})
    print("metadata " + json.dumps({**meta, "output_sha256": hashes, "record": str(results / name)}))
    for o in record["operations"]:
        if o["problems"]:
            print("failed operation: " + "; ".join(o["problems"]), file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
