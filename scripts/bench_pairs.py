"""Alternating parent/change runs of the benchmark, summarized as a BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload bs-pipeline --seeds 101 102 103 --out BENCH_9.json

Runs each checkout's own ``bench/run.py --workload W --seed S --seconds N
--trace T`` once per seed, one pair per seed: the parent first on even
pairs (0, 2, ...), the change first on odd ones. Each run's value of a
metric is the benchmark's median over its operations; the summary gives,
per side, n/median/q1/q3/min/max over the runs (inclusive quartiles),
and per metric the pairs the change won (ties count for neither side),
the change of the median in percent and the parent's interquartile
range. Which direction is better comes from the change's BENCHMARK.json.
A metric's ``gain_rule_met`` is true when the change won at least 9 in
10 of the pairs and its median is better than the parent's by more than
the parent's interquartile range, both read from the rounded summaries.

With ``--trace 0`` the result is ``end_to_end.<W>``; with ``--trace 1``
it is ``layers_<W>`` (dashes as underscores), the per-layer metrics of
the traced operations. ``--out`` merges that section, the environment
the workers reported and the command into the file, keeping every other
key, so one file collects several invocations; without ``--out`` the
JSON goes to stdout. Every run made is listed under ``runs``, and each
side's commit under ``commits``, with ``+dirty`` appended where
``git status`` lists changes to the checkout's ``src/``. Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

META_KEYS = ("commit", "koopnet_file")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `bench/run.py` run in `checkout`: its final JSON plus the
    environment line its workers printed."""
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}")
    result = json.loads(lines[-1])
    env = [json.loads(line[len("# env: "):]) for line in lines if line.startswith("# env: ")]
    result["env"] = env[0] if env else {}
    return result


def dirty(checkout: Path) -> bool:
    """Whether git lists changes to `checkout`'s src/ against its HEAD,
    the commit its workers report; False outside a git checkout."""
    proc = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain", "--", "src"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return bool(proc.stdout.strip())


def summary(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"n": len(values), "median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4),
            "min": round(min(values), 4), "max": round(max(values), 4)}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    p, c = summary(parent), summary(change)
    wins = sum((b < a) if better == "lower" else (b > a) for a, b in zip(parent, change))
    pct = (100.0 * (c["median"] - p["median"]) / p["median"]) if p["median"] else None
    iqr = round(p["q3"] - p["q1"], 4)
    gap = round(p["median"] - c["median"] if better == "lower" else c["median"] - p["median"], 4)
    return {"parent": p, "change": c, "change_better_pairs": wins,
            "median_change_pct": None if pct is None else round(pct, 1),
            "parent_iqr": iqr,
            "gain_rule_met": 10 * wins >= 9 * len(parent) and gap > iqr}


def directions(checkout: Path) -> dict[str, str]:
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m.get("better", "lower")
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", type=Path, default=None,
                   help="JSON file to merge the result into (default: print it)")
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs, envs = [], {}
    operations = {side: {"attempted": 0, "failed": 0, "correct": True} for side in sides}
    for i, seed in enumerate(args.seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        run = {"seed": seed, "first": order[0]}
        for side in order:
            res = run_bench(sides[side], args.workload, seed, args.seconds, args.trace)
            for key in ("attempted", "failed"):
                operations[side][key] += res[key]
            operations[side]["correct"] &= res["correct"]
            envs.setdefault(side, res["env"])
            run[side] = {name: m["value"] for name, m in res["metrics"].items()}
            print(f"# pair {i} seed {seed} {side}: "
                  + ", ".join(f"{k}={v:.4g}" for k, v in run[side].items()
                              if not args.trace or k == "trace.run_s"), file=sys.stderr)
        runs.append({"seed": seed, "first": run["first"],
                     "parent": run["parent"], "change": run["change"]})

    better = directions(sides["change"])
    section = {"seeds": args.seeds, "pairs": len(runs), "seconds": args.seconds,
               "parent_operations": operations["parent"],
               "change_operations": operations["change"]}
    for name in runs[0]["change"]:
        section[name] = compare([r["parent"][name] for r in runs],
                                [r["change"][name] for r in runs], better.get(name, "lower"))
    section["runs"] = runs
    section["command"] = " ".join(["python3", "scripts/bench_pairs.py", "--workload",
                                   args.workload, "--seeds", *map(str, args.seeds),
                                   "--seconds", f"{args.seconds:g}",
                                   "--trace", str(args.trace)])
    section["commits"] = {side: envs[side].get("commit", "unknown")
                          + ("+dirty" if dirty(sides[side]) else "") for side in sides}

    doc = {}
    if args.out is not None and args.out.exists():
        doc = json.loads(args.out.read_text(encoding="utf-8"))
    if args.trace:
        doc[f"layers_{args.workload.replace('-', '_')}"] = section
    else:
        doc.setdefault("end_to_end", {})[args.workload] = section
    doc["environment"] = {k: v for k, v in envs["change"].items() if k not in META_KEYS}
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
