"""One benchmark operation in a fresh process.

Imports koopnet from the checkout's ``src/``, sets up the workload's
inputs, times the run, takes the peak resident memory, then (outside
the timed interval) checks and fingerprints the outputs. Prints one
JSON object on its last stdout line. ``run.py`` starts this script;
it is not meant to be called by hand, though it can be:

    python3 bench/worker.py --workload ifo-lattice --seed 1 --out .bench_out/x --check 1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import koopnet  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BLAS_THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"]


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    """What produced a result: machine, interpreter, numpy and its BLAS,
    the BLAS thread settings, and the koopnet version and commit."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "blas_threads": "library default" if not any(
            k in os.environ for k in BLAS_THREAD_VARS) else "set by environment",
        "koopnet": koopnet.__version__,
        "koopnet_file": str(Path(koopnet.__file__).resolve().relative_to(ROOT)),
        "commit": _git_commit(),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="scratch directory for this operation")
    p.add_argument("--check", type=int, choices=[0, 1], default=1)
    p.add_argument("--trace", default="", help="write spans to this file and report layers")
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    work = workloads.WORKLOADS[args.workload](args.seed, Path(args.out), args.size)
    try:
        work.setup()
        setup_done = time.monotonic()
        if tracer is not None:
            tracer.phase = "run"
        cpu0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        work.run()
        t1 = time.perf_counter()
        cpu1 = resource.getrusage(resource.RUSAGE_SELF)
        peak_rss_mb = cpu1.ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        files, nbytes = work.written()
        result = {
            "setup_done": setup_done,
            "run_s": t1 - t0,
            "cpu_s": (cpu1.ru_utime + cpu1.ru_stime) - (cpu0.ru_utime + cpu0.ru_stime),
            "peak_rss_mb": peak_rss_mb,
            "digest": work.digest(),
            "problems": work.check() if args.check else [],
            "info": work.info(),
        }
        if args.check or tracer is not None:
            result["env"] = environment()
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer, t1 - t0, files, nbytes)
            trace_file = Path(args.trace)
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            trace_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "env": result["env"],
                "run_interval_s": [0.0, t1 - t0], "layers": result["layers"],
                "spans": spans.spans_as_dicts(tracer, t0),
            }, indent=1) + "\n")
    finally:
        work.cleanup()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
