"""Pulse-coupled integrate-and-fire oscillators on a 2-D lattice.

Each node carries a phase that drifts upward at unit rate. The node's
energy is a fixed concave function of phase; when energy reaches the
firing threshold the node resets and kicks its lattice neighbors, which
can cascade into an avalanche. Avalanches resolve instantaneously
relative to the drift (time-scale separation), so simulation time does
not advance while one is being processed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
        # the neighbor table's max degree, either boundary: <= 2 neighbors per axis
        max_degree = min(self.rows - 1, 2) + min(self.cols - 1, 2)
        if max_degree * self.epsilon >= 1.0:
            raise ConfigError(
                f"dissipative coupling violated: degree {max_degree} * epsilon "
                f"{self.epsilon} >= 1"
            )
        if _kicks_reach_threshold(max_degree, self.gamma, self.epsilon):
            raise ConfigError(
                f"dissipative coupling violated in rounding: {max_degree} kicks of epsilon "
                f"{self.epsilon} take a reset node to the threshold at gamma {self.gamma}"
            )

    @property
    def n_nodes(self) -> int:
        return self.rows * self.cols


@dataclass
class AvalancheRecord:
    """One resolved avalanche: the simulation time it started at (an
    avalanche takes no time), how many firings occurred and which nodes
    fired. No node fires twice in one avalanche (see
    :func:`_resolve_inplace`), so size == len(participants)."""

    start_time: float
    size: int
    participants: set[int] = field(default_factory=set)


# a threshold count no kick count reaches: fired nodes and the sentinel
_NEVER = np.iinfo(np.intp).max


def _kicks_reach_threshold(degree: int, gamma: float, eps: float) -> bool:
    """Whether `degree` kicks, through the simulator's own kick map, take
    a node from phase 0 to the threshold. degree * eps < 1 rules that out
    in exact arithmetic, but within rounding of 1/degree the map can land
    on E = 1.0, and a node that fires with all its neighbors then fires
    again in every sweep."""
    return bool(_kick_orbits(np.zeros(1), degree, gamma, eps)[-1, 0] >= 1.0)


def _kick_orbits(theta: np.ndarray, degree: int, gamma: float, eps: float) -> np.ndarray:
    """(degree + 1, len(theta)) array whose row k is theta after k kicks
    of the map theta -> E^-1(E(theta) + eps), clamped at 1 once
    E(theta) + eps >= 1 (the surplus is dissipated). Once a phase
    reaches 1 it stays there, since E(1) is exactly 1."""
    em1 = np.expm1(-gamma)
    orbit = np.empty((degree + 1, theta.size))
    orbit[0] = theta
    # log1p of a clamped node's E * em1 may be out of domain; np.where
    # discards it, so its warning says nothing
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(degree):
            e = _energy(orbit[k], gamma, em1) + eps
            orbit[k + 1] = np.where(e >= 1.0, 1.0, _phase(e, gamma, em1))
    return orbit


@functools.lru_cache(maxsize=256)
def _kick_thresholds(degree: int, gamma: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only bins [tau_degree, ..., tau_1, 1.0] and zero orbit f^k(0),
    k = 0..degree, of :func:`_kick_orbits`.

    tau_k is the least double whose k-kick orbit reaches 1 under
    _kick_orbits itself. It is searched for on the bit patterns of [0, 1]
    (nonnegative doubles order as their bits): each step evaluates 63
    patterns spread over every k's bracket in one orbit call and keeps
    the gap before the first that reaches 1, so 62 bits take 11 steps. A
    phase theta then needs ``bins.size - np.digitize(theta, bins)`` kicks
    to reach the threshold: 0 from 1 up, degree + 1 (never) below
    tau_degree. That count is exact wherever the rounded kick map is
    monotone; :func:`_resolve_inplace` checks it on every node it relies
    on.
    """
    row = np.arange(degree)  # row k - 1 searches for tau_k
    lo = np.full(degree, -1, dtype=np.int64)  # below 0.0: never reaches 1
    hi = np.full(degree, np.float64(1.0).view(np.int64))  # 1.0: at the threshold
    while np.any(hi - lo > 1):
        step = np.maximum((hi - lo) // 64, 1)
        grid = np.minimum(lo[:, None] + step[:, None] * np.arange(65), hi[:, None])
        grid[:, -1] = hi
        orbit = _kick_orbits(grid[:, 1:-1].ravel().view(np.float64), degree, gamma, eps)
        reach = orbit.reshape(degree + 1, degree, 63)[row + 1, row] >= 1.0
        first = np.append(reach, np.ones((degree, 1), dtype=bool), axis=1).argmax(axis=1)
        lo, hi = grid[row, first], grid[row, first + 1]
    # k kicks reaching 1 implies k + 1 do, so tau_k >= tau_(k+1); the
    # minimum keeps the bins sorted should rounding break that
    bins = np.append(np.minimum.accumulate(hi.view(np.float64))[::-1], 1.0)
    zero = _kick_orbits(np.zeros(1), degree, gamma, eps)[:, 0]
    bins.flags.writeable = zero.flags.writeable = False
    return bins, zero


def _neighbor_table(rows: int, cols: int, boundary: str) -> np.ndarray:
    """(n, max-degree) neighbor table of a rows x cols lattice, row-major
    node indexing, each row sorted and padded with the sentinel n.

    Open boundary drops out-of-range neighbors; periodic wraps. A wrap
    that lands on the node itself (a 1-wide dimension) or on a neighbor
    already listed (a 2-wide one) is dropped. `boundary` comes from an
    :class:`IfoParams`, which has checked it.
    """
    n = rows * cols
    node = np.arange(n)
    r, c = np.divmod(node, cols)
    rr = r[:, None] + np.array([-1, 1, 0, 0])
    cc = c[:, None] + np.array([0, 0, -1, 1])
    if boundary == "periodic":
        table = (rr % rows) * cols + cc % cols
    else:
        inside = (rr >= 0) & (rr < rows) & (cc >= 0) & (cc < cols)
        table = np.where(inside, rr * cols + cc, n)
    table[table == node[:, None]] = n
    table.sort(axis=1)
    table[:, 1:][table[:, 1:] == table[:, :-1]] = n
    table.sort(axis=1)
    return table[:, :np.count_nonzero(table < n, axis=1).max(initial=0)]


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


def _kick_setup(params: IfoParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What every avalanche of a run shares: the neighbor table (see
    :func:`_neighbor_table`), and the threshold bins and zero orbit of
    :func:`_kick_thresholds` at its degree. Uncoupled (eps = 0) nodes
    send no kicks, so their table has no columns; E^-1(E(theta)) need
    not round-trip."""
    table = _neighbor_table(params.rows, params.cols, params.boundary)
    if params.epsilon == 0.0:
        table = table[:, :0]
    return (table, *_kick_thresholds(table.shape[1], params.gamma, params.epsilon))


def _cascade(firing: np.ndarray, need: np.ndarray,
             table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fire sweep by sweep from `firing`, mutating `need`: each firing
    node's need becomes _NEVER and it kicks its row of `table`; the next
    sweep fires every node whose kick count reaches its need, in
    ascending order. A sweep fires only nodes that never fired, so there
    are at most n sweeps. Returns the nodes in firing order and each
    node's kick count over the whole avalanche (the sentinel's
    included)."""
    kicks = np.zeros(need.size, dtype=np.intp)
    sweeps = []
    while firing.size:
        sweeps.append(firing)
        need[firing] = _NEVER
        np.add.at(kicks, table[firing], 1)
        firing = (kicks >= need).nonzero()[0]
    return np.concatenate(sweeps), kicks


def _resolve_inplace(theta: np.ndarray, params: IfoParams, table: np.ndarray,
                     bins: np.ndarray, zero: np.ndarray, time: float) -> AvalancheRecord | None:
    """Fire all at-threshold nodes, sweep by sweep, mutating theta.

    The rule: within a sweep, nodes at threshold fire in ascending index;
    each firing resets the node's phase to 0 and kicks every neighbor j
    by the map theta -> E^-1(E(min(theta, 1)) + eps), clamped at 1 (the
    surplus is dissipated and j fires in a later sweep).

    The cascade is resolved in integers, giving the same bits as firing
    one node at a time. No node fires twice in one avalanche: IfoParams
    rejects any eps for which ``degree`` kicks take a reset node to the
    threshold, and after a node fires only its neighbors that have not
    yet fired can kick it, once each. So a node's phase after k kicks is
    f^k(theta_0), or f^k(0) once it has fired, in whatever sweeps the
    kicks arrive, and the kicks that take theta_0 to the threshold are
    its count against the run's thresholds `bins` (see
    :func:`_kick_thresholds`; `zero` is the zero orbit).

    The sweeps (:func:`_cascade`) only count kicks, each node's over the
    whole avalanche. A fired node's phase is the zero orbit at the kicks
    it took after its reset: one from each neighbor that fired after it,
    in a later sweep or, in the same sweep, at a higher index. A kick
    from a lower index in its own sweep finds it still at threshold and
    the clamp undoes it. One orbit (:func:`_kick_orbits`) over the
    touched nodes, those kicked or fired, gives the unfired ones their
    final phase and checks every touched node's threshold count; should
    rounding have misjudged one, the counts are taken from the orbit of
    the whole lattice and the cascade runs again. An untouched node keeps
    theta_0. A phase that starts above 1 fires in the first sweep and its
    orbit is never read, so min(theta, 1) is not needed. Every kick goes
    through numpy's ufuncs (the private energy/phase helpers), never
    ``math``: libm's expm1 and log1p round differently from numpy's
    vectorized ones on some inputs.
    """
    firing = np.flatnonzero(theta >= 1.0)
    if firing.size == 0:
        return None
    if zero[-1] >= 1.0:
        raise KoopnetError(
            f"avalanche did not terminate: {table.shape[1]} kicks take a reset node to the threshold"
        )
    fired = _settle(theta, firing, params, table, bins, zero)
    # made once _settle's work arrays are freed, the set, which the
    # record keeps, can reuse their heap space rather than pin the heap's
    # top above them (0.3 MB of peak RSS on the 64x64 lattice)
    return AvalancheRecord(start_time=time, size=fired.size, participants=set(fired.tolist()))


def _settle(theta: np.ndarray, firing: np.ndarray, params: IfoParams, table: np.ndarray,
            bins: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """The avalanche `firing` starts, resolved as :func:`_resolve_inplace`
    describes, mutating theta; returns the fired nodes in firing order."""
    n, degree = theta.size, table.shape[1]
    # column n is the table's sentinel: the kicks it is sent are discarded
    need = np.empty(n + 1, dtype=np.intp)
    need[:n] = bins.size - np.digitize(theta, bins)
    need[n] = _NEVER
    predicted = need.copy()
    fired, kicks = _cascade(firing, need, table)
    touched = kicks[:n] > 0
    touched[fired] = True
    touched = np.flatnonzero(touched)
    orbit = _kick_orbits(theta[touched], degree, params.gamma, params.epsilon)
    # an orbit that reaches 1 stays there: its rows below 1 count the kicks
    if not np.array_equal(np.count_nonzero(orbit < 1.0, axis=0), predicted[touched]):
        touched = np.arange(n)
        orbit = _kick_orbits(theta, degree, params.gamma, params.epsilon)
        need[:n] = np.count_nonzero(orbit < 1.0, axis=0)
        fired, kicks = _cascade(firing, need, table)
    theta[touched] = orbit[kicks[touched], np.arange(touched.size)]
    order = np.full(n + 1, -1)
    order[fired] = np.arange(fired.size)
    later = order[table[fired]] > np.arange(fired.size)[:, None]
    theta[fired] = zero[np.count_nonzero(later, axis=1)]
    return fired


def simulate_ifo(params: IfoParams, n_steps: int) -> tuple[SnapshotMatrix, list[AvalancheRecord]]:
    """Run n_steps of {drift by dt, resolve avalanche}, recording the
    settled phase vector after each step.

    Initial phases are i.i.d. uniform [0, 1) draws from a PCG64 generator
    seeded with params.seed; runs are bit-reproducible for a fixed
    parameter set.
    """
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    return _simulate(params, np.random.default_rng(params.seed).random(params.n_nodes), n_steps)


def _simulate(params: IfoParams, theta: np.ndarray,
              n_steps: int) -> tuple[SnapshotMatrix, list[AvalancheRecord]]:
    """:func:`simulate_ifo` from the phases `theta` at time 0, mutating theta."""
    kick_setup = _kick_setup(params)
    snaps = np.empty((n_steps, theta.size))
    records: list[AvalancheRecord] = []
    time = 0.0
    for step in range(n_steps):
        theta += params.dt
        time += params.dt
        if np.max(theta) >= 1.0:
            rec = _resolve_inplace(theta, params, *kick_setup, time)
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
    # One backward pass over the gaps with their running max and min: by
    # monotone rounding, |g - g0| <= 1e-9 for every later gap g exactly
    # when max(g) - g0 and g0 - min(g) are.
    onset = None
    hi, lo = -np.inf, np.inf
    for idx in range(len(records) - 2, -1, -1):
        rec, later = records[idx], records[idx + 1]
        if rec.size != n_nodes or later.size != n_nodes:
            break
        gap = later.start_time - rec.start_time
        hi, lo = max(hi, gap), min(lo, gap)
        if idx + 3 <= len(records) and hi - gap <= 1e-9 and gap - lo <= 1e-9:
            onset = rec.start_time
    return onset
