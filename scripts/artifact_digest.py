"""SHA-256 of every artifact koopnet's CLI writes, for fixed configurations.

Runs the pipeline for each configuration in CONFIGS, and `simulate`
then `analyze` for each in ANALYZE_CONFIGS, in a temporary directory,
and prints one line per artifact: ``config  file  sha256``. Saving that
output before a refactor and comparing after it shows whether the
refactor changed any artifact byte:

    python3 scripts/artifact_digest.py > golden.txt          # before
    python3 scripts/artifact_digest.py --compare golden.txt  # after

The first line is a ``#`` comment naming the environment the bits were
made in: the numpy version, the CPU count and the BLAS thread
variables.

``--compare`` prints every file whose digest differs, is missing or is
new, and exits 1 if there is any; it warns on stderr when the golden
file's environment line differs from this run's. ``--src`` picks the
source tree koopnet is imported from (default: this checkout's
``src/``), so two checkouts can be compared without installing either.

``--keep DIR`` saves the run's artifacts as ``DIR/<config>/<file>``
(DIR must be new or empty), and ``--diff-values DIR`` compares the
run's values against artifacts saved that way:

    python3 scripts/artifact_digest.py --keep golden/ > golden.txt  # before
    python3 scripts/artifact_digest.py --diff-values golden/        # after

It prints each changed, missing or new file, then one line per file
kind (``modes_w*.csv`` stands for every window's modes file) and column
with the number of cells that moved, the largest absolute and relative
move among the cells that kept their sign, the largest such move over
its file column's largest old magnitude, and the number of sign flips.
A CSV file's columns are its header's; any other file is compared line
by line, as one column named ``(line)``. A file that holds the golden's
lines in another order is listed as ``reordered`` instead of changed,
counted per file kind, and left out of the column lines. It exits 1 if
any file differs. Stdlib only; each run is a separate
``python -m koopnet.cli`` process.
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


def reordered(old: Path, new: Path) -> list[tuple[str, str]]:
    """(config, file) of each changed artifact whose lines are only
    reordered."""
    return [key for key, p, q in changed(old, new) if permuted(p, q)]


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


def read_digests(path: Path) -> tuple[str | None, dict[tuple[str, str], str]]:
    """The environment line (None if there is none) and the digests of
    an earlier output of this script."""
    header, out = None, {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            header = header or line
        elif line.strip():
            config, name, digest = line.split()
            out[config, name] = digest
    return header, out


def report_files(golden: dict[tuple[str, str], str], current: dict[tuple[str, str], str],
                 reordered_keys=()) -> int:
    """Print each file whose digest differs, is missing or is new, and
    a count; return the number of such files. A file in `reordered_keys`
    (see reordered) is printed as reordered, not changed."""
    differing = 0
    for key in sorted(golden.keys() | current.keys()):
        old, new = golden.get(key), current.get(key)
        if old == new:
            continue
        differing += 1
        state = ("missing" if new is None else "new" if old is None
                 else "reordered" if key in reordered_keys else "changed")
        print(f"{key[0]}  {key[1]}  {state}")
    print(f"{differing} of {len(golden.keys() | current.keys())} files differ")
    return differing


def report_values(stats: dict[tuple[str, str], dict], reordered_keys=()) -> None:
    """Print value_diff's lines for the columns with moved cells, then
    the number of files of each kind in `reordered_keys` (see reordered)."""
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
    against = p.add_mutually_exclusive_group()
    against.add_argument("--compare", type=Path, default=None,
                         help="earlier output of this script to compare against")
    against.add_argument("--diff-values", type=Path, default=None,
                         help="artifacts saved by --keep to compare values against")
    p.add_argument("--keep", type=Path, default=None,
                   help="new or empty directory to save the artifacts in")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory koopnet is imported from (default: %(default)s)")
    args = p.parse_args(argv)
    if args.keep is not None and args.keep.exists() and any(args.keep.iterdir()):
        p.error(f"--keep {args.keep} is not empty")

    with (nullcontext(args.keep) if args.keep is not None
          else tempfile.TemporaryDirectory(prefix="koopnet-digest-")) as base:
        base = Path(base)
        base.mkdir(parents=True, exist_ok=True)
        run_all(args.src.resolve(), base)
        current, env = digests(base), environment()
        if args.compare is None and args.diff_values is None:
            print(env)
            for (config, name), digest in current.items():
                print(f"{config}  {name}  {digest}")
            return 0
        if args.compare is not None:
            header, golden = read_digests(args.compare)
            if header != env:
                print(f"warning: environment differs from {args.compare}:\n"
                      f"  golden: {header or '(no environment line)'}\n"
                      f"  now:    {env}", file=sys.stderr)
            reordered_keys = []
        else:
            golden, reordered_keys = digests(args.diff_values), reordered(args.diff_values, base)
        differing = report_files(golden, current, reordered_keys)
        if args.diff_values is not None:
            report_values(value_diff(args.diff_values, base), reordered_keys)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
