"""koopnet benchmark: end-to-end and per-layer timings of three workloads.

    python3 bench/run.py --workload bs-pipeline --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each operation runs in a fresh process (bench/worker.py) that imports
koopnet from this checkout's src/, sets up its inputs from the seed,
runs the workload once and checks its outputs. Operations repeat until
``--seconds`` have passed; the reported figures are medians over them.
With ``--trace 1`` operations alternate between untraced and traced,
and the per-layer figures of the traced ones are reported instead,
together with the tracing overhead. The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
See bench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ["bs-pipeline", "ifo-lattice", "bs-sliding"]
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# A run must finish within 180 s; no single operation may hold it longer.
RUN_DEADLINE_S = 170.0
# Each run spreads its operations over this many workload seeds. The cost
# of an SVD depends on the data (see README), so one seed per run would
# make run_s depend on the seed drawn rather than on the program.
SUBSEEDS = 4
# ifo-lattice runs the same lattice seeds whatever --seed is. On about one
# lattice seed in eight koopnet's DMD returns a noise mode for a
# numerically zero eigenvalue (lattice seed 7 here; see CHANGES.md), and
# that operation fails its check every time. Seeds drawn from --seed would
# make the share of failed operations depend on --seed.
IFO_SEEDS = list(range(8))


def run_op(workload: str, seed: int, index: int, check: bool, trace_file: Path | None,
           deadline: float) -> dict | None:
    """One operation in a fresh worker process; None if it failed."""
    out = OUT / workload / f"op-{seed}-{index}"
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--check", str(int(check))]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        print(f"# operation {index} timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"# operation {index} failed with status {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    # Set-up runs from just before the process is started to the end of
    # input generation: interpreter start, imports, inputs.
    result["setup_s"] = result["setup_done"] - spawned
    return result


def subseeds(workload: str, seed: int) -> list[int]:
    """The inputs of one run: the workload seeds of one round."""
    if workload == "ifo-lattice":
        return IFO_SEEDS
    return [seed * SUBSEEDS + j for j in range(SUBSEEDS)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    plain, traced, attempted, failed = [], [], 0, 0
    first: dict[int, dict] = {}            # sub-seed -> its checked operation
    # A round runs one untraced operation per sub-seed, each followed by a
    # traced one when tracing; every run attempts whole rounds.
    while True:
        for sub in subseeds(workload, seed):
            kinds = [(plain, None)]
            if trace:
                kinds.append((traced, OUT / "traces" / f"{workload}-seed{sub}.json"))
            for sink, trace_file in kinds:
                res = run_op(workload, sub, attempted, sub not in first, trace_file, deadline)
                attempted += 1
                if res is None:
                    failed += 1
                    continue
                res["subseed"] = sub
                first.setdefault(sub, res)
                sink.append(res)
        now = time.monotonic()
        if now - started >= seconds or now >= deadline:
            break
    if not plain or (trace and not traced):
        print(f"error: every operation of {workload} failed", file=sys.stderr)
        return 1

    # Operations repeat exactly (the digests below), so every operation on
    # a workload seed whose checked operation failed a check has failed.
    problems = [p for res in first.values() for p in res["problems"]]
    bad = {sub for sub, res in first.items() if res["problems"]}
    failed += sum(r["subseed"] in bad for r in plain + traced)
    wrong = []
    for sub in first:
        if len({r["digest"] for r in plain + traced if r["subseed"] == sub}) != 1:
            wrong.append(f"determinism: repeated operations on seed {sub} differ")
    env = next(iter(first.values()))["env"]
    print(f"# env: {json.dumps(env, sort_keys=True)}")
    print(f"# {workload} seed {seed}: {len(plain)} untraced, {len(traced)} traced operations "
          f"over seeds {subseeds(workload, seed)}")
    for sub, res in first.items():
        print(f"# seed {sub}: {json.dumps(res['info'], sort_keys=True)}")
    print(f"# run_s per operation: {[round(r['run_s'], 4) for r in plain]}")
    print(f"# cpu_s median (recorded, not gated): "
          f"{statistics.median(r['cpu_s'] for r in plain):.4f}")
    for p in problems:
        print(f"# failed check: {p}")
    for p in wrong:
        print(f"# problem: {p}")
        print(f"problem: {p}", file=sys.stderr)

    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = layers["trace.run_s"] - statistics.median(
            r["run_s"] for r in plain)
        metrics = {name: {"value": value, "unit": LAYER_METRICS[name]}
                   for name, value in layers.items()}
        traces = (OUT / "traces").relative_to(ROOT)
        print(f"# spans of the last traced operation per seed: {traces}")
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own fresh process, one after another."""
    summary, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        summary.update({f"{workload}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="koopnet benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "koopnet" / "__init__.py").is_file():
        print(f"error: koopnet source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
