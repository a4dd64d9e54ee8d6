"""Pulse-coupled integrate-and-fire oscillators on a 2-D lattice.

Each node carries a phase that drifts upward at unit rate. The node's
energy is a fixed concave function of phase; when energy reaches the
firing threshold the node resets and kicks its lattice neighbors, which
can cascade into an avalanche. Avalanches resolve instantaneously
relative to the drift (time-scale separation), so simulation time does
not advance while one is being processed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, _check_int, _check_positive
from .snapshots import SnapshotMatrix, _rows


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
        _check_positive("gamma", self.gamma)
        # a chained comparison is False for NaN, so this rejects it too
        if not 0 <= self.epsilon < np.inf:
            raise ConfigError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        _check_positive("dt", self.dt)
        _check_int("seed", self.seed, 0)
        _check_int("rows", self.rows, 1)
        _check_int("cols", self.cols, 1)
        if self.boundary not in ("open", "periodic"):
            raise ConfigError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")
        # along an axis of 1, 2 or >= 3 sites the most neighbors a node has
        # is 0, 1 or 2 under either boundary, and some node has both maxima
        max_degree = min(self.rows - 1, 2) + min(self.cols - 1, 2)
        if max_degree * self.epsilon >= 1.0:
            raise ConfigError(
                f"dissipative coupling violated: degree {max_degree} * epsilon "
                f"{self.epsilon} >= 1"
            )
        # degree * eps < 1 rules out in exact arithmetic that `max_degree`
        # kicks take a reset node to the threshold, but within rounding of
        # 1/degree the simulator's own kick map can land on E = 1.0, and a
        # node that fires with all its neighbors then fires in every sweep
        if _kick_orbits(np.zeros(1), max_degree, self.gamma, self.epsilon)[-1, 0] >= 1.0:
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
    fired, as a 1-D intp array of their indices in ascending order. No
    node fires twice in one avalanche (see :func:`_resolve_inplace`), so
    size == participants.size."""

    start_time: float
    size: int
    participants: np.ndarray


# a threshold count no kick count reaches: fired nodes and the sentinel
_NEVER = np.iinfo(np.intp).max


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


def _checked(x, gamma, name: str) -> np.ndarray:
    """`x` as a float array, once gamma is finite and > 0 and every entry
    of `x` lies in [0, 1]; NaN fails both checks."""
    x = np.asarray(x, dtype=float)
    _check_positive("gamma", gamma, DomainError)
    if not np.all((x >= 0) & (x <= 1)):
        raise DomainError(f"{name} outside [0, 1]")
    return x


def energy_of_phase(theta, gamma):
    """Energy as a function of phase: E(t) = K (1 - exp(-gamma t)) with
    K = 1/(1 - exp(-gamma)), so E(0) = 0, E(1) = 1, strictly increasing
    and concave. Accepts scalars or arrays. The simulator's coupling
    kicks use this same map."""
    out = _energy(_checked(theta, gamma, "phase"), gamma, np.expm1(-gamma))
    return out if out.ndim else float(out)


def phase_of_energy(e, gamma):
    """Exact inverse of :func:`energy_of_phase` on [0, 1]."""
    out = _phase(_checked(e, gamma, "energy"), gamma, np.expm1(-gamma))
    return out if out.ndim else float(out)


def _kick_setup(params: IfoParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What every avalanche of a run shares: the neighbor table (see
    :func:`_neighbor_table`; no columns when eps = 0, as uncoupled nodes
    send no kicks and E^-1(E(theta)) need not round-trip), the threshold
    bins [tau_degree, ..., tau_1, 1.0] and the zero orbit f^k(0) of
    :func:`_kick_orbits`. k kicks take theta to the threshold when
    E(theta) + k eps >= 1, so tau_k = E^-1(1 - k eps), clipped at 1 and
    sorted should rounding break either; :func:`_settle` checks the
    counts they give, which rounding can put one off near a tau."""
    table = _neighbor_table(params.rows, params.cols, params.boundary)
    if params.epsilon == 0.0:
        table = table[:, :0]
    degree, gamma, eps = table.shape[1], params.gamma, params.epsilon
    with np.errstate(divide="ignore"):  # E^-1(1) = inf once expm1(-gamma) rounds to -1
        taus = _phase(1.0 - eps * np.arange(degree, 0, -1), gamma, np.expm1(-gamma))
    bins = np.append(np.sort(np.minimum(taus, 1.0)), 1.0)
    return table, bins, _kick_orbits(np.zeros(1), degree, gamma, eps)[:, 0]


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
    :func:`_kick_setup`; `zero` is the zero orbit).

    The sweeps (:func:`_cascade`) only count kicks, each node's over the
    whole avalanche. A fired node's phase is the zero orbit at the kicks
    it took after its reset: one from each neighbor that fired after it,
    in a later sweep or, in the same sweep, at a higher index. A kick
    from a lower index in its own sweep finds it still at threshold and
    the clamp undoes it. One orbit (:func:`_kick_orbits`) over the
    touched nodes, those kicked or fired, gives the unfired ones their
    final phase and checks every touched node's count: the thresholds
    hold in exact arithmetic, so should rounding have misjudged a count,
    the counts are taken from the orbit of the whole lattice and the
    cascade runs again. An untouched node keeps theta_0. A phase that
    starts above 1 fires in the first sweep and its orbit is never read,
    so min(theta, 1) is not needed. Every kick goes through numpy's
    ufuncs (the private energy/phase helpers), never ``math``: libm's
    expm1 and log1p round differently from numpy's vectorized ones on
    some inputs.
    """
    firing = np.flatnonzero(theta >= 1.0)
    if firing.size == 0:
        return None
    fired = _settle(theta, firing, params, table, bins, zero)
    return AvalancheRecord(start_time=time, size=fired.size, participants=np.sort(fired))


def _settle(theta: np.ndarray, firing: np.ndarray, params: IfoParams, table: np.ndarray,
            bins: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """The avalanche `firing` starts, resolved as :func:`_resolve_inplace`
    describes, mutating theta; returns the fired nodes in firing order.
    A node needs ``bins.size - np.digitize(theta, bins)`` kicks: 0 from 1
    up, degree + 1 (never) below tau_degree."""
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
    _check_int("n_steps", n_steps, 2)
    records: list[AvalancheRecord] = []
    snaps = _rows(_states(params, records), n_steps, params.n_nodes)
    return SnapshotMatrix(data=snaps, dt=params.dt), records


def _initial_phases(params: IfoParams) -> np.ndarray:
    return np.random.default_rng(params.seed).random(params.n_nodes)


def _states(params: IfoParams, records: list[AvalancheRecord]):
    """Yield the settled phases after every step of {drift by dt,
    resolve avalanche}, without end: one array, updated in place,
    appending each avalanche to `records`."""
    theta = _initial_phases(params)
    kick_setup = _kick_setup(params)
    time = 0.0
    while True:
        theta += params.dt
        time += params.dt
        rec = _resolve_inplace(theta, params, *kick_setup, time)
        if rec is not None:
            records.append(rec)
        yield theta


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
