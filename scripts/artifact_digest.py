"""SHA-256 of every artifact `koopnet pipeline` writes, for fixed configurations.

Runs the pipeline for each configuration below in a temporary directory
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
Stdlib only; each run is a separate ``python -m koopnet.cli`` process.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import os
import subprocess
import sys
import tempfile
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


def digests(src: Path) -> dict[tuple[str, str], str]:
    """(config, file) -> sha256 hex digest of one pipeline run per config."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out: dict[tuple[str, str], str] = {}
    with tempfile.TemporaryDirectory(prefix="koopnet-digest-") as tmp:
        for name, args in CONFIGS.items():
            run_dir = Path(tmp) / name
            cmd = [sys.executable, "-m", "koopnet.cli", "pipeline", *args, "--out", str(run_dir)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{name}: pipeline exited {proc.returncode}\n{proc.stderr}")
            for path in sorted(run_dir.iterdir()):
                out[name, path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


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


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--compare", type=Path, default=None,
                   help="earlier output of this script to compare against")
    p.add_argument("--src", type=Path, default=ROOT / "src",
                   help="directory koopnet is imported from (default: %(default)s)")
    args = p.parse_args(argv)

    current, env = digests(args.src.resolve()), environment()
    if args.compare is None:
        print(env)
        for (config, name), digest in current.items():
            print(f"{config}  {name}  {digest}")
        return 0

    header, golden = read_digests(args.compare)
    if header != env:
        print(f"warning: environment differs from {args.compare}:\n"
              f"  golden: {header or '(no environment line)'}\n"
              f"  now:    {env}", file=sys.stderr)
    differing = 0
    for key in sorted(golden.keys() | current.keys()):
        old, new = golden.get(key), current.get(key)
        if old == new:
            continue
        differing += 1
        state = "missing" if new is None else "new" if old is None else "changed"
        print(f"{key[0]}  {key[1]}  {state}")
    print(f"{differing} of {len(golden.keys() | current.keys())} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
