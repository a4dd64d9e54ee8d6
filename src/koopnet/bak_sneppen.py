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

from .errors import ConfigError, InsufficientDataError
from .snapshots import SnapshotMatrix


@dataclass(frozen=True)
class BsParams:
    """Ring size and RNG seed. n >= 3 so the replaced triple (minimum
    site plus both neighbors) consists of distinct sites."""

    n: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError(f"ring size must be >= 3, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class BsState:
    """Fitness vector on the ring plus an update counter."""

    fitness: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        self.fitness = np.asarray(self.fitness, dtype=float)
        if self.fitness.ndim != 1:
            raise ConfigError("fitness must be a 1-D vector")
        if np.any(self.fitness < 0) or np.any(self.fitness > 1):
            raise ConfigError("fitness values outside [0, 1]")


def _replace_minimum(fitness: np.ndarray, draws: np.ndarray) -> int:
    """The update of :func:`bs_step`, in place, with the three draws
    given; returns the index of the replaced minimum."""
    n = fitness.shape[0]
    i_min = int(np.argmin(fitness))
    fitness[(i_min - 1) % n] = draws[0]
    fitness[i_min] = draws[1]
    fitness[(i_min + 1) % n] = draws[2]
    return i_min


def bs_step(state: BsState, rng: np.random.Generator) -> tuple[BsState, int]:
    """One update: redraw the minimum-fitness site and its two ring
    neighbors from U[0, 1]. Ties at the minimum break to the lowest
    index; the three replacement draws are consumed in left-neighbor,
    center, right-neighbor order so RNG streams are reproducible.

    Returns the new state and the index of the replaced minimum.
    """
    fitness = state.fitness.copy()
    i_min = _replace_minimum(fitness, rng.random(3))
    return BsState(fitness=fitness, iteration=state.iteration + 1), i_min


def simulate_bs(params: BsParams, n_iterations: int) -> tuple[SnapshotMatrix, list[int]]:
    """Run the model from an i.i.d. uniform initial state, recording the
    fitness vector after every update and the replaced minimum index of
    every step. Deterministic for a fixed (params, n_iterations):
    PCG64 seeded with params.seed, one 3-draw block per step."""
    if n_iterations < 1:
        raise ConfigError(f"n_iterations must be >= 1, got {n_iterations}")
    rng = np.random.default_rng(params.seed)
    fitness = rng.random(params.n)
    draws = rng.random((n_iterations, 3))
    snaps = np.empty((n_iterations, params.n))
    min_history: list[int] = []
    for k in range(n_iterations):
        min_history.append(_replace_minimum(fitness, draws[k]))
        snaps[k] = fitness
    return SnapshotMatrix(data=snaps, dt=1.0), min_history


def average_fitness(state: BsState) -> float:
    """Arithmetic mean of the fitness vector."""
    return float(np.mean(state.fitness))


def estimate_threshold(snapshots: SnapshotMatrix, burn_in: int) -> float:
    """Estimate the lower edge of the stationary fitness support as the
    5% quantile of all post-burn-in fitness values.

    A low quantile rather than the pooled minimum is robust to the small
    sub-threshold population contributed by in-flight avalanches.
    """
    if burn_in < 0:
        raise ConfigError(f"burn_in must be >= 0, got {burn_in}")
    tail = snapshots.data[burn_in:]
    if tail.shape[0] < 100:
        raise InsufficientDataError(
            f"need >= 100 post-burn-in rows, got {tail.shape[0]}"
        )
    return float(np.quantile(tail, 0.05))
