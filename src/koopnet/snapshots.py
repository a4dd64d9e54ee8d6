"""Time-ordered network state records, the interchange format between
simulators and spectral analysis."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass
class SnapshotMatrix:
    """T x N record of network observable vectors sampled every `dt`.

    Rows are snapshots in time order, columns are nodes. `labels` is an
    optional list of N node identifiers (defaults to n0..n{N-1} when
    serialized).
    """

    data: np.ndarray
    dt: float = 1.0
    labels: list[str] | None = field(default=None)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2:
            raise ConfigError("snapshot data must be 2-D (time x nodes)")
        t, n = self.data.shape
        if t < 2:
            raise ConfigError(f"need at least 2 snapshots, got {t}")
        if n < 1:
            raise ConfigError("need at least 1 node column")
        if not np.all(np.isfinite(self.data)):
            raise ConfigError("snapshot data contains non-finite entries")
        if not 0 < self.dt < np.inf:
            raise ConfigError(f"dt must be finite and > 0, got {self.dt}")
        if self.labels is not None and len(self.labels) != n:
            raise ConfigError(
                f"{len(self.labels)} labels for {n} node columns"
            )

    @property
    def n_snapshots(self) -> int:
        return self.data.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.data.shape[1]

    def node_labels(self) -> list[str]:
        if self.labels is not None:
            return list(self.labels)
        return [f"n{i}" for i in range(self.n_nodes)]
