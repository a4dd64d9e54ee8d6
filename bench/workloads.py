"""The benchmark's workloads: what each sets up, runs and checks.

Each workload object is built for one seed and one output directory and
is used for exactly one operation in its own process: ``setup`` makes
the inputs, ``run`` is the timed call into koopnet, ``check`` verifies
the outputs against computations made apart from the program, and
``digest`` fingerprints the outputs so that repeated operations on the
same seed can be compared. koopnet functions are looked up through
their modules at call time, so the tracer's wrappers are the ones used.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import numpy as np

import koopnet
import koopnet.analysis as ana
import koopnet.bak_sneppen as kbs
import koopnet.cli as kcli
import koopnet.ifo as kifo

import checks

WINDOW_LEN = 200
RANK = 16
JUMP_THRESHOLD = 1e2

# Sizes per workload; "tiny" is what the self-test runs.
SIZES = {
    "bs-pipeline": {"full": {"n": 100, "steps": 4000}, "tiny": {"n": 100, "steps": 2000}},
    "ifo-lattice": {"full": {"side": 64, "steps": 1000}, "tiny": {"side": 8, "steps": 1000}},
    "bs-sliding": {"full": {"n": 200, "steps": 2000, "stride": 10},
                   "tiny": {"n": 30, "steps": 500, "stride": 10}},
}

IFO_GAMMA = 2.0
IFO_EPSILON = 0.145
IFO_DT = 0.01


def _hash_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _or_minus_one(value):
    return -1 if value is None else value


class BsPipeline:
    """``koopnet pipeline --model bs``: simulate, write CSV, re-read it,
    windowed DMD, write spectra/modes/amplitudes/transition/report."""

    name = "bs-pipeline"

    def __init__(self, seed: int, out: Path, size: str = "full"):
        self.seed, self.out = seed, out
        self.n, self.steps = SIZES[self.name][size]["n"], SIZES[self.name][size]["steps"]

    def setup(self) -> None:
        self.out.mkdir(parents=True)
        self.argv = ["pipeline", "--model", "bs", "--n", str(self.n),
                     "--steps", str(self.steps), "--seed", str(self.seed),
                     "--out", str(self.out)]

    def run(self) -> None:
        status = kcli.main(self.argv)
        if status != 0:
            raise RuntimeError(f"koopnet pipeline exited with status {status}")

    def written(self) -> tuple[int, int]:
        files = [p for p in self.out.iterdir() if p.is_file()]
        return len(files), sum(p.stat().st_size for p in files)

    def check(self) -> list[str]:
        return checks.check_pipeline(self.out, self.seed, self.n, self.steps,
                                     WINDOW_LEN, RANK, JUMP_THRESHOLD)

    def digest(self) -> str:
        h = hashlib.sha256()
        for p in sorted(self.out.iterdir()):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        return h.hexdigest()

    def info(self) -> dict:
        rows = (self.out / "transition.csv").read_text().splitlines()[1:]
        return {"transition_window": int(rows[0].split(",")[0]) if rows else None}

    def cleanup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class IfoLattice:
    """Library path on a 64x64 open IFO lattice: simulate, find the
    synchronization onset, windowed DMD (tall 4096 x 199 windows),
    transition detection, and the mode diagnostics of the last window."""

    name = "ifo-lattice"

    def __init__(self, seed: int, out: Path, size: str = "full"):
        self.seed = seed
        cfg = SIZES[self.name][size]
        self.side, self.steps = cfg["side"], cfg["steps"]

    def setup(self) -> None:
        self.params = koopnet.IfoParams(gamma=IFO_GAMMA, epsilon=IFO_EPSILON, rows=self.side,
                                        cols=self.side, dt=IFO_DT, seed=self.seed)

    def run(self) -> None:
        n = self.params.n_nodes
        self.snapshots, self.avalanches = kifo.simulate_ifo(self.params, self.steps)
        self.onset = kifo.synchronization_onset(self.avalanches, n)
        self.windows = ana.windowed_dmd(self.snapshots, window_len=WINDOW_LEN, rank=RANK)
        self.report = ana.detect_transition(self.windows, jump_threshold=JUMP_THRESHOLD)
        last = next(w for w in reversed(self.windows) if not w.degenerate)
        self.dominant = ana.dominant_modes(last.result, 5)
        try:
            self.zero_mode = ana.zero_frequency_mode(last.result)
        except koopnet.NotFoundError:
            self.zero_mode = None
        self.pattern = ana.spatial_pattern(self.dominant[0].mode,
                                           self.snapshots.node_labels())

    def written(self) -> tuple[int, int]:
        return 0, 0

    def check(self) -> list[str]:
        record = self.snapshots.data
        problems = checks.check_ifo(self.seed, self.params.n_nodes, IFO_DT, IFO_EPSILON,
                                    record, self.avalanches, self.onset, self.dominant,
                                    self.zero_mode, self.pattern)
        problems += checks.check_transition(
            "ifo", [w.max_amplitude for w in self.windows], JUMP_THRESHOLD,
            self.report.transition_window, self.report.jump_ratio)
        problems += checks.check_windows_in_memory("ifo", record, self.windows,
                                                   WINDOW_LEN, RANK, IFO_DT)
        return problems

    def digest(self) -> str:
        events = np.array([(a.start_time, a.size, len(a.participants))
                           for a in self.avalanches], dtype=float)
        spectra = [w.result.eigenvalues_discrete for w in self.windows if not w.degenerate]
        tail = [_or_minus_one(self.report.transition_window), _or_minus_one(self.onset)]
        return _hash_arrays(self.snapshots.data, events, *spectra, np.array(tail, dtype=float))

    def info(self) -> dict:
        onset_window = None
        if self.onset is not None:
            step = int(round(self.onset / IFO_DT)) - 1
            onset_window = step // WINDOW_LEN
        return {"onset_time": self.onset, "onset_window": onset_window,
                "transition_window": self.report.transition_window,
                "avalanches": len(self.avalanches),
                "firings": sum(a.size for a in self.avalanches)}

    def cleanup(self) -> None:
        pass


class BsSliding:
    """Overlapping-window DMD (window 200, stride 10) plus transition
    detection over a Bak-Sneppen record built in set-up."""

    name = "bs-sliding"

    def __init__(self, seed: int, out: Path, size: str = "full"):
        self.seed = seed
        cfg = SIZES[self.name][size]
        self.n, self.steps, self.stride = cfg["n"], cfg["steps"], cfg["stride"]

    def setup(self) -> None:
        self.snapshots, _ = kbs.simulate_bs(koopnet.BsParams(n=self.n, seed=self.seed),
                                            self.steps)

    def run(self) -> None:
        self.windows = ana.windowed_dmd(self.snapshots, window_len=WINDOW_LEN,
                                        stride=self.stride, rank=RANK)
        self.report = ana.detect_transition(self.windows, jump_threshold=JUMP_THRESHOLD)

    def written(self) -> tuple[int, int]:
        return 0, 0

    def check(self) -> list[str]:
        problems = checks.check_sliding(self.windows, self.steps, WINDOW_LEN, self.stride)
        problems += checks.check_transition(
            "sliding", [w.max_amplitude for w in self.windows], JUMP_THRESHOLD,
            self.report.transition_window, self.report.jump_ratio)
        problems += checks.check_windows_in_memory("sliding", self.snapshots.data,
                                                   self.windows, WINDOW_LEN, RANK, 1.0)
        return problems

    def digest(self) -> str:
        spectra = [w.result.eigenvalues_discrete for w in self.windows if not w.degenerate]
        return _hash_arrays(*spectra, np.array([_or_minus_one(self.report.transition_window)]))

    def info(self) -> dict:
        return {"windows": len(self.windows),
                "transition_window": self.report.transition_window}

    def cleanup(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (BsPipeline, IfoLattice, BsSliding)}
