"""Bak-Sneppen evolution model on a ring.

Each site holds a fitness in [0, 1]. Every update finds the global
minimum-fitness site and redraws it together with its two ring
neighbors from the uniform distribution. The stationary state is
critical: fitness concentrates on [x_crit, 1] with avalanches of
replacements below the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, _check_int
from .snapshots import _BLOCK_ROWS, SnapshotMatrix, _rows


@dataclass(frozen=True)
class BsParams:
    """Ring size and RNG seed. n >= 3 so the replaced triple (minimum
    site plus both neighbors) consists of distinct sites."""

    n: int
    seed: int = 0

    def __post_init__(self):
        _check_int("ring size", self.n, 3)
        _check_int("seed", self.seed, 0)


def _replace_minimum(fitness: np.ndarray, draws) -> int:
    """One update, in place: redraw the minimum-fitness site and its two
    ring neighbors. Ties at the minimum break to the lowest index; the
    three draws (a sequence of floats) go to the left neighbor, the
    center and the right neighbor, in that order, so RNG streams are
    reproducible.

    Returns the index of the replaced minimum.
    """
    i_min = int(fitness.argmin())
    left, center, right = draws
    fitness[i_min - 1] = left  # index -1 is the last site: the ring wraps
    fitness[i_min] = center
    fitness[(i_min + 1) % fitness.shape[0]] = right
    return i_min


def _states(params: BsParams, min_history: list[int]):
    """Yield the fitness vector after every update, without end: one
    array, updated in place, appending each replaced minimum to
    `min_history`."""
    # PCG64 draws the same doubles however they are chunked, so drawing
    # the triples `_BLOCK_ROWS` steps at a time gives the one-per-step run
    rng = np.random.default_rng(params.seed)
    fitness = rng.random(params.n)
    while True:
        for draws in rng.random((_BLOCK_ROWS, 3)).tolist():
            min_history.append(_replace_minimum(fitness, draws))
            yield fitness


def simulate_bs(params: BsParams, n_iterations: int) -> tuple[SnapshotMatrix, list[int]]:
    """Run the model from an i.i.d. uniform initial state, recording the
    fitness vector after every update and the replaced minimum index of
    every step. Deterministic for a fixed (params, n_iterations):
    PCG64 seeded with params.seed, one 3-draw block per step."""
    _check_int("n_iterations", n_iterations, 2)
    min_history: list[int] = []
    snaps = _rows(_states(params, min_history), n_iterations, params.n)
    return SnapshotMatrix(data=snaps, dt=1.0), min_history


def estimate_threshold(snapshots: SnapshotMatrix, burn_in: int) -> float:
    """Estimate the lower edge of the stationary fitness support as the
    5% quantile of all post-burn-in fitness values.

    A low quantile rather than the pooled minimum is robust to the small
    sub-threshold population contributed by in-flight avalanches.
    """
    _check_int("burn_in", burn_in, 0)
    tail = snapshots.data[burn_in:]
    if tail.shape[0] < 100:
        raise InsufficientDataError(
            f"need >= 100 post-burn-in rows, got {tail.shape[0]}"
        )
    return float(np.quantile(tail, 0.05))
