"""Time-ordered network state records, the interchange format between
simulators and spectral analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _check_positive

# Rows per block of a record streamed from a simulator, and per
# changed-cell batch of its CSV: enough to amortize the per-call cost of
# numpy, few enough to keep a block and its texts small. On a 4000-row
# BS pipeline, peak RSS rose 0.26 MB with 512-row blocks and 0.16 MB
# with 64 (BENCH_12.json), at equal speed.
_BLOCK_ROWS = 64


def _rows(states, count: int, n: int) -> np.ndarray:
    """The next `count` states (length-n arrays) of the iterator `states`
    as the rows of a new count x n array. It pulls exactly `count`
    states; count = -1 would drain `states`, so callers check it first."""
    return np.fromiter(states, np.dtype((float, (n,))), count=count)


def _blocks(states, n_steps: int, n_nodes: int):
    """Yield the first `n_steps` states of `states` as new arrays of up
    to `_BLOCK_ROWS` rows each, as the pipeline streams a record."""
    for start in range(0, n_steps, _BLOCK_ROWS):
        yield _rows(states, min(_BLOCK_ROWS, n_steps - start), n_nodes)


def _all_finite(a: np.ndarray) -> bool:
    """np.all(np.isfinite(a)) for a non-empty a, with no temporary of
    a's size: NaN and inf show in its max or min."""
    return bool(np.isfinite(a.max()) and np.isfinite(a.min()))


def default_labels(n_nodes: int) -> list[str]:
    return [f"n{i}" for i in range(n_nodes)]


@dataclass
class SnapshotMatrix:
    """T x N record of network observable vectors sampled every `dt`.

    Rows are snapshots in time order, columns are nodes n0..n{N-1}.
    """

    data: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ConfigError("snapshot data must be 2-D (time x nodes)")
        t, n = self.data.shape
        if t < 2:
            raise ConfigError(f"need at least 2 snapshots, got {t}")
        if n < 1:
            raise ConfigError("need at least 1 node column")
        if not _all_finite(self.data):
            raise ConfigError("snapshot data contains non-finite entries")
        _check_positive("dt", self.dt)

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[0]

    def node_labels(self) -> list[str]:
        return default_labels(self.data.shape[1])
