"""Pulse-coupled integrate-and-fire oscillators on a 2-D lattice.

Each node carries a phase that drifts upward at unit rate. The node's
energy is a fixed concave function of phase; when energy reaches the
firing threshold the node resets and kicks its lattice neighbors, which
can cascade into an avalanche. Avalanches resolve instantaneously
relative to the drift (time-scale separation), so simulation time does
not advance while one is being processed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DomainError, KoopnetError
from .snapshots import SnapshotMatrix


@dataclass(frozen=True)
class IfoParams:
    """Lattice and dynamics parameters.

    The dissipative-coupling condition degree * epsilon < 1 (the firing
    threshold, E(1) = 1) is enforced at construction; without it an
    avalanche could pump energy faster than firing drains it and never
    terminate.
    """

    gamma: float
    epsilon: float
    rows: int
    cols: int
    dt: float = 0.01
    boundary: str = "open"
    seed: int = 0

    def __post_init__(self):
        # chained comparisons are False for NaN, so these reject it too
        if not 0 < self.gamma < np.inf:
            raise ConfigError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0 <= self.epsilon < np.inf:
            raise ConfigError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0 < self.dt < np.inf:
            raise ConfigError(f"dt must be finite and > 0, got {self.dt}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"lattice must be >= 1x1, got {self.rows}x{self.cols}")
        if self.boundary not in ("open", "periodic"):
            raise ConfigError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")
        # lattice_neighbors' max degree, either boundary: <= 2 neighbors per axis
        max_degree = min(self.rows - 1, 2) + min(self.cols - 1, 2)
        if max_degree * self.epsilon >= 1.0:
            raise ConfigError(
                f"dissipative coupling violated: degree {max_degree} * epsilon "
                f"{self.epsilon} >= 1"
            )

    @property
    def n_nodes(self) -> int:
        return self.rows * self.cols


@dataclass
class IfoState:
    """Per-node phases (all in [0, 1) between avalanche resolutions) and
    the current simulation time."""

    theta: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim != 1:
            raise ConfigError("theta must be a 1-D vector")


@dataclass
class AvalancheRecord:
    """One resolved avalanche: when it started, how many firings occurred
    (nodes may fire more than once), and which nodes participated."""

    start_time: float
    size: int
    participants: set[int] = field(default_factory=set)


def lattice_neighbors(rows: int, cols: int, boundary: str) -> list[np.ndarray]:
    """4-neighborhood adjacency for a rows x cols lattice, row-major
    node indexing. Open boundary drops out-of-range neighbors; periodic
    wraps (a 1-wide dimension contributes no wrap neighbor twice)."""
    nbrs = []
    for r in range(rows):
        for c in range(cols):
            cur = set()
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                rr, cc = r + dr, c + dc
                if boundary == "periodic":
                    rr %= rows
                    cc %= cols
                elif not (0 <= rr < rows and 0 <= cc < cols):
                    continue
                j = rr * cols + cc
                if j != r * cols + c:
                    cur.add(j)
            nbrs.append(np.array(sorted(cur), dtype=np.intp))
    return nbrs


def _energy(theta, gamma, em1):
    """Unchecked E(theta) given em1 = expm1(-gamma); no cancellation at small gamma."""
    return np.expm1(-gamma * theta) / em1


def _phase(e, gamma, em1):
    """Unchecked inverse of :func:`_energy`; log1p keeps it accurate near e = 1."""
    return -np.log1p(e * em1) / gamma


def energy_of_phase(theta, gamma):
    """Energy as a function of phase: E(t) = K (1 - exp(-gamma t)) with
    K = 1/(1 - exp(-gamma)), so E(0) = 0, E(1) = 1, strictly increasing
    and concave. Accepts scalars or arrays. The simulator's coupling
    kicks use this same map."""
    theta = np.asarray(theta, dtype=float)
    if not gamma > 0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    if np.any(theta < 0) or np.any(theta > 1):
        raise DomainError("phase outside [0, 1]")
    out = _energy(theta, gamma, np.expm1(-gamma))
    return out if out.ndim else float(out)


def phase_of_energy(e, gamma):
    """Exact inverse of :func:`energy_of_phase` on [0, 1]."""
    e = np.asarray(e, dtype=float)
    if not gamma > 0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    if np.any(e < 0) or np.any(e > 1):
        raise DomainError("energy outside [0, 1]")
    out = _phase(e, gamma, np.expm1(-gamma))
    return out if out.ndim else float(out)


def advance(state: IfoState, params: IfoParams, dt: float) -> IfoState:
    """Drift every phase upward by dt at unit rate. Phases may land at or
    above 1 afterwards; resolution is a separate step."""
    if not 0 < dt < np.inf:
        raise DomainError(f"dt must be finite and > 0, got {dt}")
    return IfoState(theta=state.theta + dt, time=state.time + dt)


def _resolve_inplace(theta: np.ndarray, params: IfoParams,
                     neighbors: list[np.ndarray], time: float) -> AvalancheRecord | None:
    """Fire all at-threshold nodes, sweep by sweep, mutating theta.

    Within a sweep, nodes at threshold fire in ascending index; each
    firing resets the node's phase to 0 and adds the coupling energy to
    every neighbor. A neighbor pushed over threshold is clamped at the
    threshold (surplus dissipated) and fires in a later sweep.
    """
    gamma, eps = params.gamma, params.epsilon
    em1 = np.expm1(-gamma)
    size = 0
    participants: set[int] = set()
    # Dissipative coupling bounds total sweeps; the guard is defensive only.
    per_sweep = int(np.ceil(1.0 / eps)) if eps > 0 else 1
    max_sweeps = params.n_nodes * per_sweep + 2
    for _ in range(max_sweeps):
        firing = np.flatnonzero(theta >= 1.0)
        if firing.size == 0:
            if size == 0:
                return None
            return AvalancheRecord(start_time=time, size=size, participants=participants)
        for i in firing:
            theta[i] = 0.0
            size += 1
            participants.add(int(i))
            if eps == 0.0:
                continue
            for j in neighbors[i]:
                tj = theta[j] if theta[j] < 1.0 else 1.0
                ej = _energy(tj, gamma, em1) + eps
                theta[j] = 1.0 if ej >= 1.0 else _phase(ej, gamma, em1)
    raise KoopnetError("avalanche did not terminate within the sweep bound")


def resolve_avalanche(state: IfoState, params: IfoParams) -> tuple[IfoState, AvalancheRecord | None]:
    """Resolve any pending firings; returns the settled state (all phases
    < 1) and the avalanche record, or None when no node was at threshold."""
    if not np.all(np.isfinite(state.theta)):
        raise DomainError("non-finite phase in state")
    theta = state.theta.copy()
    nbrs = lattice_neighbors(params.rows, params.cols, params.boundary)
    record = _resolve_inplace(theta, params, nbrs, state.time)
    return IfoState(theta=theta, time=state.time), record


def simulate_ifo(params: IfoParams, n_steps: int,
                 initial: IfoState | None = None) -> tuple[SnapshotMatrix, list[AvalancheRecord]]:
    """Run n_steps of {drift by dt, resolve avalanche}, recording the
    settled phase vector after each step.

    Initial phases default to i.i.d. uniform [0, 1) draws from a PCG64
    generator seeded with params.seed; runs are bit-reproducible for a
    fixed parameter set.
    """
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    n = params.n_nodes
    if initial is None:
        rng = np.random.default_rng(params.seed)
        theta = rng.random(n)
        time = 0.0
    else:
        if initial.theta.shape != (n,):
            raise ConfigError(
                f"initial state has {initial.theta.shape[0]} nodes, lattice has {n}"
            )
        theta = initial.theta.copy()
        time = initial.time
    nbrs = lattice_neighbors(params.rows, params.cols, params.boundary)
    snaps = np.empty((n_steps, n))
    records: list[AvalancheRecord] = []
    for step in range(n_steps):
        theta += params.dt
        time += params.dt
        if np.max(theta) >= 1.0:
            rec = _resolve_inplace(theta, params, nbrs, time)
            if rec is not None:
                records.append(rec)
        snaps[step] = theta
    return SnapshotMatrix(data=snaps, dt=params.dt), records


def synchronization_onset(records: list[AvalancheRecord], n_nodes: int) -> float | None:
    """Time of the first system-spanning avalanche from which the run is
    fully synchronized: every later avalanche also spans all nodes and
    consecutive events are equally spaced within 1e-9 (above the rounding
    of accumulated step times, below a step). None if the run never locks
    in, or locks in with fewer than 3 events (two gaps) to confirm it."""
    for idx, rec in enumerate(records):
        tail = records[idx:]
        if rec.size != n_nodes or len(tail) < 3:
            continue
        if any(r.size != n_nodes for r in tail):
            continue
        gaps = np.diff([r.start_time for r in tail])
        if np.all(np.abs(gaps - gaps[0]) <= 1e-9):
            return rec.start_time
    return None
