"""SHA-256 of every artifact koopnet's CLI writes, for fixed configurations.

Runs the pipeline for each configuration in CONFIGS, and `simulate`
then `analyze` for each in ANALYZE_CONFIGS, in a temporary directory,
and prints a ``#`` line naming the environment the bits were made in
(the numpy version, the CPU count and the BLAS thread variables), then
one line per artifact: ``config  file  sha256``.

A refactor that should not move any artifact byte is checked against a
golden run of its parent:

    python3 scripts/artifact_digest.py --src ../parent/src --keep golden/  # before
    python3 scripts/artifact_digest.py --diff-values golden/              # after

``--src`` picks the source tree koopnet is imported from (default: this
checkout's ``src/``), so two checkouts can be compared without
installing either. ``--keep DIR`` saves the run's artifacts as
``DIR/<config>/<file>`` (DIR must be new or empty) and its environment
line as ``DIR/environment.txt``.

``--diff-values DIR`` compares the run against artifacts saved that
way. It warns on stderr when the saved environment line differs from
this run's or is missing. It prints each changed, missing or new file,
and a count ``N of M files differ``; a file that holds the golden's
lines in another order is listed as ``reordered``. Then it prints one
line per file kind (``modes_w*.csv`` stands for every window's modes
file) and column with the number of cells that moved, the largest
absolute and relative move among the cells that kept their sign, the
largest such move over its file column's largest old magnitude, and the
number of sign flips. A CSV file's columns are its header's; any other
file is compared line by line, as one column named ``(line)``. A
reordered file is counted per file kind and left out of the column
lines. It exits 1 if any file differs. Stdlib only; each run is a
separate ``python -m koopnet.cli`` process.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import math
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONFIGS = {
    **{f"bs-n100-seed{s}": ["--model", "bs", "--n", "100", "--steps", "4000",
                            "--seed", str(s)] for s in range(4)},
    "ifo-8x8-seed7": ["--model", "ifo", "--rows", "8", "--cols", "8",
                      "--steps", "2500", "--seed", "7"],
    "ifo-16x16-seed3": ["--model", "ifo", "--rows", "16", "--cols", "16",
                        "--steps", "2000", "--seed", "3"],
    # 1024x199 windows: tall, full-rank IFO windows like the benchmark's
    "ifo-32x32-seed7": ["--model", "ifo", "--rows", "32", "--cols", "32",
                        "--steps", "1000", "--seed", "7"],
    # non-default analysis and boundary flags, so a broken mapping from
    # the command line to the run configuration shows up as a diff
    "ifo-6x6-periodic-seed2": ["--model", "ifo", "--rows", "6", "--cols", "6",
                               "--boundary", "periodic", "--steps", "1500", "--seed", "2",
                               "--window", "150", "--stride", "100", "--rank", "0",
                               "--jump-threshold", "10"],
    # wrap-around avalanches that take many sweeps, up to all 576 nodes
    "ifo-24x24-periodic-seed5": ["--model", "ifo", "--rows", "24", "--cols", "24",
                                 "--boundary", "periodic", "--steps", "1500", "--seed", "5"],
    # a kick map far from the default gamma 2, epsilon 0.145
    "ifo-8x8-g9-e024-seed4": ["--model", "ifo", "--rows", "8", "--cols", "8",
                              "--gamma", "9", "--epsilon", "0.24", "--steps", "3000",
                              "--seed", "4"],
    "bs-n40-seed5": ["--model", "bs", "--n", "40", "--steps", "1500", "--seed", "5",
                     "--window", "150", "--stride", "50", "--rank", "0"],
    # 200x199 windows: tall BS windows like bs-sliding's, most rows constant
    "bs-n200-seed1": ["--model", "bs", "--n", "200", "--steps", "1000", "--seed", "1",
                      "--stride", "50"],
    # a record length, window and stride that are no multiples of the
    # pipeline's row block, so windows straddle block edges at many offsets
    "bs-n60-seed9-ragged": ["--model", "bs", "--n", "60", "--steps", "1337", "--seed", "9",
                            "--window", "97", "--stride", "37"],
    # no optional flag at all, so a moved default shows up as a diff
    "bs-defaults-seed3": ["--model", "bs", "--steps", "1000", "--seed", "3"],
    "ifo-defaults-seed3": ["--model", "ifo", "--steps", "1000", "--seed", "3"],
    # a subnormal kick, whose rounding misjudges kick counts: 30 of this
    # run's 71 cascades rerun from the whole-lattice orbit
    "ifo-3x3-g50-tiny-eps-seed1": ["--model", "ifo", "--rows", "3", "--cols", "3",
                                   "--gamma", "50", "--epsilon", "5e-324", "--steps", "1000",
                                   "--seed", "1"],
}


# (simulate flags, analyze flags): `analyze` reads the written
# snapshots.csv back, and meta.csv for dt, a path no pipeline run takes,
# and writes its artifacts beside the record
ANALYZE_CONFIGS = {
    "bs-n100-seed2-analyze": (["--model", "bs", "--n", "100", "--steps", "4000",
                               "--seed", "2"], []),
    "ifo-8x8-seed5-analyze": (["--model", "ifo", "--rows", "8", "--cols", "8",
                               "--steps", "1200", "--seed", "5"],
                              ["--window", "150", "--stride", "75"]),
}


def commands(name: str, out: Path) -> list[list[str]]:
    """The koopnet.cli argument lists that write config `name`'s
    artifacts to out, in order."""
    if name in CONFIGS:
        return [["pipeline", *CONFIGS[name], "--out", str(out)]]
    simulate, analyze = ANALYZE_CONFIGS[name]
    return [["simulate", *simulate, "--out", str(out)],
            ["analyze", str(out / "snapshots.csv"), *analyze]]


def run_all(src: Path, base: Path) -> None:
    """The runs of every config, each into base/<config>."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for name in [*CONFIGS, *ANALYZE_CONFIGS]:
        for args in commands(name, base / name):
            proc = subprocess.run([sys.executable, "-m", "koopnet.cli", *args],
                                  env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{name}: {args[0]} exited {proc.returncode}\n{proc.stderr}")


def artifacts(base: Path) -> dict[tuple[str, str], Path]:
    """(config, file) -> path of every artifact under base/<config>, in
    CONFIGS then ANALYZE_CONFIGS order, then any other config's in name
    order."""
    rank = {name: i for i, name in enumerate([*CONFIGS, *ANALYZE_CONFIGS])}
    configs = sorted((d for d in base.iterdir() if d.is_dir()),
                     key=lambda d: (rank.get(d.name, len(rank)), d.name))
    return {(config.name, path.name): path
            for config in configs for path in sorted(config.iterdir())}


def digests(base: Path) -> dict[tuple[str, str], str]:
    """(config, file) -> sha256 hex digest of every artifact under base."""
    return {key: hashlib.sha256(path.read_bytes()).hexdigest()
            for key, path in artifacts(base).items()}


def table(path: Path | None) -> dict[str, list[str]]:
    """column -> cells of an artifact, top to bottom: a CSV file's header
    columns, or any other file's lines as the column '(line)'. A missing
    file has no columns."""
    if path is None:
        return {}
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".csv":
        return {"(line)": text.splitlines()}
    header, *rows = list(csv.reader(text.splitlines()))
    return {col: [row[i] if i < len(row) else "" for row in rows] for i, col in enumerate(header)}


def number(cell: str | None) -> float | None:
    """The cell as a float, or None if it is missing or no number."""
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def kind(name: str) -> str:
    """The file kind of an artifact name: modes_w3.csv -> modes_w*.csv."""
    return re.sub(r"_w\d+", "_w*", name)


def changed(old: Path, new: Path):
    """(config, file), old path, new path of each artifact whose bytes
    differ between two directories laid out as --keep saves them; the
    path is None on the side that lacks the file."""
    before, after = artifacts(old), artifacts(new)
    for key in sorted(before.keys() | after.keys()):
        p, q = before.get(key), after.get(key)
        if not (p and q and p.read_bytes() == q.read_bytes()):
            yield key, p, q


def permuted(p: Path | None, q: Path | None) -> bool:
    """Whether two files both exist and hold the same lines in another
    order."""
    return bool(p and q) and (sorted(p.read_text(encoding="utf-8").splitlines())
                              == sorted(q.read_text(encoding="utf-8").splitlines()))


def value_diff(old: Path, new: Path) -> dict[tuple[str, str], dict]:
    """(file kind, column) -> {'cells', 'moved', 'max_abs', 'max_rel',
    'max_scaled', 'flips'} over the artifacts whose bytes differ between
    two directories laid out as --keep saves them, other than those
    whose lines are only reordered. A cell moved if its
    text changed, or it is on one side only (so every cell of a missing
    or new file moved). max_abs, max_rel and max_scaled are over the
    moved cells that are finite numbers of the same sign on both sides:
    max_rel divides a move by its cell's old |value| (inf where that is
    0), max_scaled by the largest finite old |value| of its column in its
    file, so a cell near 0 in a column of O(1) values reads small. A
    sign flip is a move between two nonzero numbers of opposite sign."""
    stats: dict[tuple[str, str], dict] = {}
    for key, p, q in changed(old, new):
        if permuted(p, q):
            continue
        before, after = table(p), table(q)
        for col in list(before) + [c for c in after if c not in before]:
            a, b = before.get(col, []), after.get(col, [])
            s = stats.setdefault((kind(key[1]), col),
                                 {"cells": 0, "moved": 0, "max_abs": 0.0,
                                  "max_rel": 0.0, "max_scaled": 0.0, "flips": 0})
            s["cells"] += max(len(a), len(b))
            scale = max((abs(u) for u in map(number, a) if u is not None and math.isfinite(u)),
                        default=0.0)
            for x, y in zip_longest(a, b):
                if x == y:
                    continue
                s["moved"] += 1
                u, v = number(x), number(y)
                if u is None or v is None or not (math.isfinite(u) and math.isfinite(v)):
                    continue
                if u * v < 0:
                    s["flips"] += 1
                    continue
                s["max_abs"] = max(s["max_abs"], abs(v - u))
                s["max_rel"] = max(s["max_rel"], abs(v - u) / abs(u) if u else math.inf)
                s["max_scaled"] = max(s["max_scaled"], abs(v - u) / scale if scale else math.inf)
    return stats


def environment() -> str:
    """The '#' line that heads the output: what the artifact bits depend
    on besides the source."""
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}"
                       for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return (f"# numpy={importlib.metadata.version('numpy')} "
            f"cpu_count={os.cpu_count()} {threads}")


def report_files(old: Path, new: Path) -> dict[tuple[str, str], str]:
    """Print each artifact whose bytes differ between two directories
    laid out as --keep saves them, as changed, missing, new or reordered
    (the same lines in another order), and a count; return (config,
    file) -> that state for each such file."""
    states = {key: ("missing" if q is None else "new" if p is None
                    else "reordered" if permuted(p, q) else "changed")
              for key, p, q in changed(old, new)}
    for (config, name), state in states.items():
        print(f"{config}  {name}  {state}")
    print(f"{len(states)} of {len(artifacts(old).keys() | artifacts(new).keys())} files differ")
    return states


def report_values(stats: dict[tuple[str, str], dict], reordered_keys=()) -> None:
    """Print value_diff's lines for the columns with moved cells, then
    the number of files of each kind in `reordered_keys`."""
    print("kind  column  cells  moved  max_abs  max_rel  max_scaled  sign_flips")
    for (name, col), s in sorted(stats.items()):
        if s["moved"]:
            print(f"{name}  {col}  {s['cells']}  {s['moved']}  {s['max_abs']:.3g}  "
                  f"{s['max_rel']:.3g}  {s['max_scaled']:.3g}  {s['flips']}")
    counts = Counter(kind(name) for _, name in reordered_keys)
    if counts:
        print("kind  reordered_files")
        for name, n in sorted(counts.items()):
            print(f"{name}  {n}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--diff-values", type=Path, default=None,
                   help="artifacts saved by --keep to compare against")
    p.add_argument("--keep", type=Path, default=None,
                   help="new or empty directory to save the artifacts in")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory koopnet is imported from (default: %(default)s)")
    args = p.parse_args(argv)
    if args.keep is not None and args.keep.exists() and any(args.keep.iterdir()):
        p.error(f"--keep {args.keep} is not empty")
    if args.diff_values is not None and not args.diff_values.is_dir():
        p.error(f"--diff-values {args.diff_values} is no directory")

    with (nullcontext(args.keep) if args.keep is not None
          else tempfile.TemporaryDirectory(prefix="koopnet-digest-")) as base:
        base = Path(base)
        base.mkdir(parents=True, exist_ok=True)
        run_all(args.src.resolve(), base)
        env = environment()
        # beside the config directories, which are all artifacts() reads
        (base / "environment.txt").write_text(env + "\n", encoding="utf-8")
        if args.diff_values is None:
            print(env)
            for (config, name), digest in digests(base).items():
                print(f"{config}  {name}  {digest}")
            return 0
        golden = args.diff_values
        saved = golden / "environment.txt"
        header = saved.read_text(encoding="utf-8").strip() if saved.exists() else None
        if header != env:
            print(f"warning: environment differs from {saved}:\n"
                  f"  golden: {header or '(no environment line)'}\n"
                  f"  now:    {env}", file=sys.stderr)
        states = report_files(golden, base)
        report_values(value_diff(golden, base),
                      [key for key, state in states.items() if state == "reordered"])
    return 1 if states else 0


if __name__ == "__main__":
    sys.exit(main())
