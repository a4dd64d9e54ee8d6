"""Integrate-and-fire oscillator lattice tests.

Worked-example expectations were frozen from independent hand/numerical
oracles (RK4 integration of the energy ODE, manual sweep resolution on
tiny chains) before being compared to the implementation.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koopnet import (
    AvalancheRecord,
    ConfigError,
    DomainError,
    IfoParams,
    KoopnetError,
    energy_of_phase,
    phase_of_energy,
    simulate_ifo,
    synchronization_onset,
)
import koopnet.ifo as ifo
from koopnet.ifo import _kick_orbits, _kick_setup, _neighbor_table, _resolve_inplace, _simulate

GAMMA = 2.0


def resolve(theta, params):
    """Resolve the avalanche pending in a copy of `theta` at time 0;
    returns the settled phases and the record (None if nothing fired)."""
    theta = np.array(theta, dtype=float)
    return theta, _resolve_inplace(theta, params, *_kick_setup(params), 0.0)


def rk4_energy(theta, gamma, n_sub=20000):
    # independent oracle: integrate dE/dtheta = gamma (K - E), E(0) = 0
    k = 1.0 / (1.0 - np.exp(-gamma))
    h = theta / n_sub
    e = 0.0
    f = lambda e: gamma * (k - e)
    for _ in range(n_sub):
        k1 = f(e)
        k2 = f(e + 0.5 * h * k1)
        k3 = f(e + 0.5 * h * k2)
        k4 = f(e + h * k3)
        e += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return e


def reference_neighbors(rows, cols, boundary):
    # independent oracle: one node at a time, duplicates removed by a set
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


def reference_resolve(theta, params, time=0.0):
    """Reference kernel: the per-firing loop. Within a sweep the nodes at
    threshold fire in ascending index, and each kicks its neighbors one
    at a time through the public energy map, clamped at 1. Raises
    KoopnetError past a sweep bound that no avalanche reaches when, as
    IfoParams checks, no node can fire twice."""
    theta = np.array(theta, dtype=float)
    gamma, eps = params.gamma, params.epsilon
    nbrs = reference_neighbors(params.rows, params.cols, params.boundary)
    size, participants = 0, set()
    per_sweep = 1.0 / float(eps) + 1.0 if eps > 0 else 1.0
    sweeps = 0
    while sweeps < params.n_nodes * per_sweep + 2:
        sweeps += 1
        firing = np.flatnonzero(theta >= 1.0)
        if firing.size == 0:
            record = AvalancheRecord(time, size, participants) if size else None
            return theta, record
        for i in firing:
            theta[i] = 0.0
            size += 1
            participants.add(int(i))
            if eps == 0.0:
                continue
            for j in nbrs[i]:
                ej = energy_of_phase(min(theta[j], 1.0), gamma) + eps
                theta[j] = 1.0 if ej >= 1.0 else phase_of_energy(ej, gamma)
    raise KoopnetError("reference avalanche did not terminate")


def reference_onset(records, n_nodes):
    # the O(R^2) forward scan synchronization_onset must agree with
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


def coupling_limit(rows, cols, gamma=GAMMA):
    """The largest epsilon IfoParams accepts at gamma: just below
    1/degree, a few ulps further down where rounding lets degree kicks
    reach the threshold (at most 3 ulps in a scan of 12,000 gammas)."""
    degree = min(rows - 1, 2) + min(cols - 1, 2)
    if degree == 0:
        return 1.0
    eps = 1.0 / degree
    while True:
        try:
            IfoParams(gamma=gamma, epsilon=eps, rows=rows, cols=cols)
            return float(eps)
        except ConfigError:
            eps = np.nextafter(eps, 0.0)


@st.composite
def lattice_states(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    gamma = draw(st.floats(0.05, 10.0))
    limit = coupling_limit(rows, cols, gamma)
    params = IfoParams(
        gamma=gamma,
        epsilon=draw(st.one_of(st.just(0.0), st.just(limit), st.floats(0.0, limit))),
        rows=rows, cols=cols, boundary=draw(st.sampled_from(["open", "periodic"])),
    )
    phase = st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(0.9, 1.0, exclude_max=True),
        st.just(1.0),
        st.floats(1.0, 3.0),
    )
    theta = draw(st.lists(phase, min_size=rows * cols, max_size=rows * cols))
    return params, np.array(theta)


class TestEnergyProfile:
    def test_boundaries(self):
        assert energy_of_phase(0.0, GAMMA) == 0.0
        assert energy_of_phase(1.0, GAMMA) == pytest.approx(1.0, abs=1e-15)

    def test_midpoint_closed_form(self):
        expected = (1.0 - np.exp(-1.0)) / (1.0 - np.exp(-2.0))
        assert energy_of_phase(0.5, GAMMA) == pytest.approx(expected, abs=1e-15)

    def test_midpoint_against_ode_oracle(self):
        assert energy_of_phase(0.5, GAMMA) == pytest.approx(rk4_energy(0.5, GAMMA), abs=1e-12)
        assert energy_of_phase(0.83, 0.7) == pytest.approx(rk4_energy(0.83, 0.7), abs=1e-12)

    def test_vectorized(self):
        thetas = np.array([0.0, 0.25, 0.5, 1.0])
        out = energy_of_phase(thetas, GAMMA)
        assert out.shape == (4,)
        assert np.all(np.diff(out) > 0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            energy_of_phase(-0.1, GAMMA)
        with pytest.raises(DomainError):
            energy_of_phase(1.1, GAMMA)
        with pytest.raises(DomainError):
            energy_of_phase(0.5, 0.0)
        with pytest.raises(DomainError):
            phase_of_energy(1.0001, GAMMA)

    def test_inverse_example(self):
        e = energy_of_phase(0.7311, GAMMA)
        assert phase_of_energy(e, GAMMA) == pytest.approx(0.7311, abs=1e-12)

    @settings(max_examples=1000, deadline=None)
    @given(theta=st.floats(0.0, 1.0), gamma=st.floats(0.05, 10.0))
    def test_inverse_roundtrip_property(self, theta, gamma):
        back = phase_of_energy(energy_of_phase(theta, gamma), gamma)
        assert abs(back - theta) <= 1e-12

    @settings(max_examples=1000, deadline=None)
    @given(
        a=st.floats(0.0, 1.0),
        b=st.floats(0.0, 1.0),
        gamma=st.floats(0.05, 10.0),
    )
    def test_monotone_and_concave_property(self, a, b, gamma):
        lo, hi = min(a, b), max(a, b)
        e_lo, e_hi = energy_of_phase(lo, gamma), energy_of_phase(hi, gamma)
        assert e_hi >= e_lo
        # concavity: chord midpoint never exceeds the function
        mid = energy_of_phase(0.5 * (lo + hi), gamma)
        assert mid >= 0.5 * (e_lo + e_hi) - 1e-12


def padded_reference(rows, cols, boundary):
    """reference_neighbors as the simulator's table: rows padded with the sentinel n."""
    nbrs = reference_neighbors(rows, cols, boundary)
    width = max(len(nb) for nb in nbrs)
    return [nb.tolist() + [rows * cols] * (width - len(nb)) for nb in nbrs]


class TestLattice:
    def test_open_corner_edge_interior(self):
        table = _neighbor_table(3, 3, "open")
        assert table[0].tolist() == [1, 3, 9, 9]     # corner
        assert table[1].tolist() == [0, 2, 4, 9]     # edge
        assert table[4].tolist() == [1, 3, 5, 7]     # interior

    def test_periodic_wrap(self):
        assert _neighbor_table(3, 3, "periodic")[0].tolist() == [1, 2, 3, 6]

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_matches_per_node_reference(self, boundary):
        # 1- and 2-wide periodic dimensions wrap onto the node itself and
        # onto a neighbor already listed
        for rows in range(1, 8):
            for cols in range(1, 8):
                table = _neighbor_table(rows, cols, boundary)
                assert table.tolist() == padded_reference(rows, cols, boundary)

    def test_symmetry(self):
        for boundary in ("open", "periodic"):
            table = _neighbor_table(4, 5, boundary)
            for i, row in enumerate(table):
                for j in row[row < 20]:
                    assert i in table[j]

    def test_config_rejects_nondissipative_coupling(self):
        with pytest.raises(ConfigError):
            IfoParams(gamma=2.0, epsilon=0.26, rows=3, cols=3)  # 4 * 0.26 >= 1
        IfoParams(gamma=2.0, epsilon=0.24, rows=3, cols=3)  # just inside

    def test_config_rejects_coupling_that_rounds_to_the_threshold(self):
        # 4 * eps < 1, but at gamma = 9 the kick map's rounding takes a
        # reset node through energies 0.25, 0.5, 0.75 to exactly 1.0, so a
        # fully synchronized periodic 3x3 lattice would fire forever
        eps = 0.24999999999999997
        assert 4 * eps < 1.0
        with pytest.raises(ConfigError, match="rounding: 4 kicks"):
            IfoParams(gamma=9.0, epsilon=eps, rows=3, cols=3, boundary="periodic")
        IfoParams(gamma=9.0, epsilon=np.nextafter(eps, 0.0), rows=3, cols=3, boundary="periodic")
        # the benchmark's and the acceptance runs' coupling
        IfoParams(gamma=2.0, epsilon=0.145, rows=64, cols=64)
        IfoParams(gamma=2.0, epsilon=0.145, rows=8, cols=8)

    def test_config_rejects_misspelled_boundary(self):
        with pytest.raises(ConfigError, match="boundary must be 'open' or 'periodic'"):
            IfoParams(gamma=2.0, epsilon=0.145, rows=2, cols=2, boundary="periodc")

    @pytest.mark.parametrize("name, value", [
        ("gamma", np.nan), ("gamma", np.inf), ("epsilon", np.nan), ("epsilon", np.inf),
        ("dt", np.nan), ("dt", np.inf), ("seed", -1),
    ])
    def test_config_rejects_non_finite_values_and_negative_seed(self, name, value):
        # a single node has degree 0, so the coupling bound alone cannot
        # catch an infinite epsilon
        for rows, cols in ((1, 1), (1, 2)):
            kwargs = {"gamma": 2.0, "epsilon": 0.145, "rows": rows, "cols": cols}
            with pytest.raises(ConfigError):
                IfoParams(**{**kwargs, name: value})


    def test_coupling_bound_uses_lattice_max_degree(self):
        # IfoParams computes the maximum degree without building the
        # lattice; epsilon = 1/degree must be rejected naming that degree
        for boundary in ("open", "periodic"):
            for rows in range(1, 8):
                for cols in range(1, 8):
                    degree = _neighbor_table(rows, cols, boundary).shape[1]
                    kwargs = {"gamma": 2.0, "rows": rows, "cols": cols, "boundary": boundary}
                    if degree == 0:
                        IfoParams(epsilon=10.0, **kwargs)
                        continue
                    IfoParams(epsilon=0.99 / degree, **kwargs)
                    with pytest.raises(ConfigError, match=f"degree {degree} "):
                        IfoParams(epsilon=1.0 / degree, **kwargs)


class TestResolveAvalanche:
    def test_single_firing_on_chain(self):
        # E = [1.0, 0.5, 0.2] on a 3-chain: only node 0 fires, node 1
        # absorbs the kick, node 2 is untouched.
        p = IfoParams(gamma=GAMMA, epsilon=0.145, rows=1, cols=3)
        theta = np.array([1.0, phase_of_energy(0.5, GAMMA), phase_of_energy(0.2, GAMMA)])
        out, rec = resolve(theta, p)
        energies = energy_of_phase(out, GAMMA)
        assert np.allclose(energies, [0.0, 0.645, 0.2], atol=1e-12)
        assert rec.size == 1
        assert rec.participants == {0}

    def test_cascade_on_pair(self):
        # E = [1.0, 0.9]: node 0 fires, kicks node 1 to the threshold
        # (surplus dissipated), node 1 fires next sweep and kicks node 0.
        p = IfoParams(gamma=GAMMA, epsilon=0.145, rows=1, cols=2)
        theta = np.array([1.0, phase_of_energy(0.9, GAMMA)])
        out, rec = resolve(theta, p)
        energies = energy_of_phase(out, GAMMA)
        assert np.allclose(energies, [0.145, 0.0], atol=1e-12)
        assert rec.size == 2
        assert rec.participants == {0, 1}

    def test_kick_past_threshold_stays_finite(self):
        # node 0 fires and kicks node 1 from E ~ 0.88 to ~ 1.17; the kick
        # is clamped at the threshold instead of inverting E >= 1
        p = IfoParams(gamma=2, epsilon=0.29, rows=1, cols=2)
        out, rec = resolve([1.0, 0.72], p)
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0.0) & (out < 1.0))
        assert rec.participants == {0, 1}

    def test_kick_uses_the_energy_map(self):
        # node 0 fires and kicks node 1 from phase t: the new phase is
        # exactly E^-1(E(t) + eps) as the public map computes it
        p = IfoParams(gamma=2, epsilon=0.145, rows=1, cols=2)
        ts = [t for t in np.linspace(0.01, 0.99, 99) if energy_of_phase(t, 2) + 0.145 < 1.0]
        assert len(ts) > 60
        for t in ts:
            out, _ = resolve([1.0, t], p)
            assert out[1] == phase_of_energy(energy_of_phase(t, 2) + 0.145, 2)

    @pytest.mark.parametrize("gamma", [1e-12, 1e-17])
    def test_kick_in_the_linear_limit(self, gamma):
        # E(t) -> t as gamma -> 0, so a kick adds eps to the phase;
        # 1 - exp(-gamma) cancels to 1e-4 relative error at 1e-12 and to
        # 0 at 1e-17, where K = 1/(1 - exp(-gamma)) would be inf
        p = IfoParams(gamma=gamma, epsilon=0.2, rows=1, cols=2)
        for t in (0.1, 0.3, 0.55, 0.75):
            out, _ = resolve([1.0, t], p)
            assert out[1] == pytest.approx(t + 0.2, rel=1e-9)

    def test_no_firing_returns_none(self):
        p = IfoParams(gamma=GAMMA, epsilon=0.145, rows=1, cols=2)
        theta = np.array([0.3, 0.4])
        out, rec = resolve(theta, p)
        assert rec is None
        assert np.array_equal(out, theta)

    def test_all_phases_below_threshold_after(self):
        rng = np.random.default_rng(11)
        p = IfoParams(gamma=GAMMA, epsilon=0.145, rows=3, cols=3)
        for _ in range(50):
            theta = rng.random(9)
            theta[rng.integers(9)] = 1.0
            out, rec = resolve(theta, p)
            assert rec is not None
            assert np.all(out < 1.0)
            assert rec.size == len(rec.participants) <= 9


class TestPerFiringReference:
    """The sweep-at-a-time kernel against the per-firing loop, bit for bit."""

    @staticmethod
    def assert_same(params, theta):
        try:
            want, ref = reference_resolve(theta, params)
        except KoopnetError:
            with pytest.raises(KoopnetError, match="did not terminate"):
                resolve(theta, params)
            return
        out, rec = resolve(theta, params)
        assert out.tobytes() == want.tobytes()
        assert (rec is None) == (ref is None)
        if rec is not None:
            assert (rec.size, rec.participants) == (ref.size, ref.participants)
            # the kernel relies on no node firing twice in one avalanche
            assert rec.size == len(rec.participants)
        return rec

    @settings(max_examples=400, deadline=None)
    @given(case=lattice_states())
    # at 1/degree less one ulp, rounding lets four kicks take a reset node
    # from E = 0 to E = 1 at gamma = 9 (IfoParams rejects that epsilon);
    # at the limit it accepts, the avalanche on a periodic lattice
    # (degree 4 everywhere) ends
    @example(case=(IfoParams(gamma=9.0, epsilon=coupling_limit(3, 3, 9.0), rows=3, cols=3,
                             boundary="periodic"),
                   np.array([0.0, 1.0, 0.5, 1.0, 0.0, 1.0, 0.5, 0.5, 0.0])))
    def test_resolve_matches_reference_property(self, case):
        self.assert_same(*case)

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("epsilon", ["limit", 0.0])
    def test_resolve_matches_reference_on_every_small_lattice(self, boundary, epsilon):
        # every shape from 1x1 to 6x6, 2xN periodic included, from a
        # state with nodes at, above and just below the threshold
        rng = np.random.default_rng(3)
        for rows in range(1, 7):
            for cols in range(1, 7):
                eps = coupling_limit(rows, cols) if epsilon == "limit" else epsilon
                p = IfoParams(gamma=GAMMA, epsilon=eps, rows=rows, cols=cols, boundary=boundary)
                theta = 0.8 + 0.2 * rng.random(rows * cols)
                theta[rng.integers(rows * cols, size=2)] = [1.0, 1.5]
                self.assert_same(p, theta)

    @pytest.mark.parametrize("low", [0.0, 0.5])
    def test_resolve_matches_reference_on_the_benchmark_lattice(self, low):
        # the 64x64 open lattice of the ifo-lattice workload, from uniform
        # phases in [low, 1) with five nodes at the threshold: from [0, 1)
        # a small avalanche, from [0.5, 1) one that spans the lattice in
        # many sweeps
        p = IfoParams(gamma=GAMMA, epsilon=0.145, rows=64, cols=64)
        rng = np.random.default_rng(14)
        theta = low + (1.0 - low) * rng.random(p.n_nodes)
        theta[rng.choice(p.n_nodes, 5, replace=False)] = 1.0
        rec = self.assert_same(p, theta)
        if low:
            assert rec.size == p.n_nodes
        else:
            assert 1 < rec.size < 100

    def test_resolve_matches_reference_when_every_node_is_at_threshold(self):
        # a single sweep over the whole benchmark lattice: each node's
        # kicks reach only its neighbors of lower index, which have reset
        p = IfoParams(gamma=GAMMA, epsilon=0.145, rows=64, cols=64)
        rec = self.assert_same(p, np.ones(p.n_nodes))
        assert rec.size == p.n_nodes

    def test_non_terminating_coupling_raises(self):
        # IfoParams rejects this epsilon (see
        # test_config_rejects_coupling_that_rounds_to_the_threshold); set
        # past that check, the per-firing loop fires forever and the
        # kernel refuses to start
        eps = 0.24999999999999997
        p = IfoParams(gamma=9.0, epsilon=np.nextafter(eps, 0.0), rows=3, cols=3,
                      boundary="periodic")
        object.__setattr__(p, "epsilon", eps)
        with pytest.raises(KoopnetError, match="did not terminate"):
            reference_resolve(np.ones(9), p)
        self.assert_same(p, np.ones(9))

    def test_simulate_matches_reference(self):
        p = IfoParams(gamma=GAMMA, epsilon=0.145, rows=12, cols=12, seed=4)
        snaps, records = simulate_ifo(p, 500)
        # the drift loop of simulate_ifo around the reference kernel
        theta, time = np.random.default_rng(p.seed).random(p.n_nodes), 0.0
        want, ref_records = np.empty((500, p.n_nodes)), []
        for step in range(500):
            theta += p.dt
            time += p.dt
            theta, rec = reference_resolve(theta, p, time)
            if rec is not None:
                ref_records.append(rec)
            want[step] = theta
        assert snaps.data.tobytes() == want.tobytes()
        assert [(r.start_time, r.size, r.participants) for r in records] == \
            [(r.start_time, r.size, r.participants) for r in ref_records]
        assert max(r.size for r in records) == p.n_nodes  # a many-sweep avalanche


@st.composite
def kick_maps(draw):
    """An IfoParams on a lattice of degree 0 to 4, with a gamma and eps it
    accepts, tiny gamma and subnormal eps included."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gamma = draw(st.one_of(st.floats(0.01, 50.0), st.sampled_from([1e-17, 1e-12, 1e-6])))
    limit = coupling_limit(rows, cols, gamma)
    eps = draw(st.one_of(st.just(5e-324), st.just(limit), st.floats(0.0, limit)))
    return IfoParams(gamma=gamma, epsilon=eps, rows=rows, cols=cols)


def benchmark_lattice_state(low):
    # the states of test_resolve_matches_reference_on_the_benchmark_lattice
    p = IfoParams(gamma=GAMMA, epsilon=0.145, rows=64, cols=64)
    rng = np.random.default_rng(14)
    theta = low + (1.0 - low) * rng.random(p.n_nodes)
    theta[rng.choice(p.n_nodes, 5, replace=False)] = 1.0
    return p, theta


class TestKickThresholds:
    """The per-run thresholds the kernel counts kicks against, and the
    exact counts it falls back on when they misjudge a node."""

    @settings(max_examples=150, deadline=None)
    @given(params=kick_maps(), seed=st.integers(0, 2**32 - 1))
    def test_thresholds_are_the_least_phases_that_reach_1_property(self, params, seed):
        table, bins, zero = _kick_setup(params)
        degree, gamma, eps = table.shape[1], params.gamma, params.epsilon
        assert bins.size == degree + 1 and bins[-1] == 1.0

        def orbit(theta):
            return _kick_orbits(np.asarray(theta, dtype=float), degree, gamma, eps)

        for k in range(1, degree + 1):
            tau = bins[degree - k]
            assert orbit([tau])[k, 0] >= 1.0
            assert tau == 0.0 or orbit([np.nextafter(tau, 0.0)])[k, 0] < 1.0
        assert zero.tobytes() == orbit([0.0])[:, 0].tobytes()
        # the count digitize predicts is the orbit's exact one, for
        # uniform phases and for phases within 3 ulps of each threshold
        near = (bins.view(np.int64)[:, None] + np.arange(-3, 4)).ravel()
        theta = np.concatenate([np.random.default_rng(seed).random(200),
                                near[near >= 0].view(np.float64)])
        exact = np.count_nonzero(orbit(theta) < 1.0, axis=0)
        assert np.array_equal(bins.size - np.digitize(theta, bins), exact)

    @pytest.mark.parametrize("gamma, eps", [(GAMMA, 0.145), (9.0, 0.24), (1e-17, 0.2)])
    def test_orbit_of_a_subset_matches_the_whole_lattice(self, gamma, eps):
        # the kernel's checking orbit runs on the nodes an avalanche
        # touched, its zero orbit on one element; both must round as the
        # same columns of a whole-lattice orbit do, wherever a SIMD loop
        # puts them (slices at every offset, gathered index sets)
        p = IfoParams(gamma=gamma, epsilon=eps, rows=64, cols=64)
        table, bins, zero = _kick_setup(p)
        rng = np.random.default_rng(16)
        theta = rng.random(p.n_nodes + 1)
        theta[rng.choice(p.n_nodes, 400, replace=False)] = np.repeat(bins, 80)
        theta[-1] = 0.0
        whole = _kick_orbits(theta, table.shape[1], gamma, eps)
        assert whole[:, -1].tobytes() == zero.tobytes()
        for _ in range(500):
            size = int(theta.size ** rng.random())
            start = rng.integers(theta.size - size + 1)
            if rng.random() < 0.5:
                cols = slice(start, start + size)
            else:
                cols = rng.choice(theta.size, size, replace=False)
            sub = _kick_orbits(theta[cols], table.shape[1], gamma, eps)
            assert sub.tobytes() == np.ascontiguousarray(whole[:, cols]).tobytes()

    @pytest.mark.parametrize("low", [0.0, 0.5])
    def test_misjudged_thresholds_fall_back_to_exact_counts(self, low, monkeypatch):
        # thresholds one ulp or 1e-3 off misjudge the count of a node the
        # avalanche touches; the checking orbit finds it, the cascade
        # reruns on exact counts, and the result is the per-firing one.
        # One ulp misjudges only a phase at a threshold or one ulp under
        # it, so the first firing nodes' neighbors are put there.
        p, theta = benchmark_lattice_state(low)
        table, bins, zero = _kick_setup(p)
        firing = np.flatnonzero(theta >= 1.0)
        neighbors = np.setdiff1d(table[firing], np.append(firing, p.n_nodes))
        taus = bins[:-1]
        theta[neighbors] = np.resize(np.column_stack([taus, np.nextafter(taus, 0.0)]).ravel(),
                                     neighbors.size)
        want, ref = reference_resolve(theta, p)
        cascade, cascades = ifo._cascade, []
        monkeypatch.setattr(ifo, "_cascade", lambda *a: cascades.append(a) or cascade(*a))
        shifted = [np.nextafter(taus, 1.0), np.nextafter(taus, 0.0), taus + 1e-3, taus - 1e-3]
        for wrong, runs in [(bins, 1)] + [(np.append(t, 1.0), 2) for t in shifted]:
            out, cascades[:] = theta.copy(), []
            rec = _resolve_inplace(out, p, table, wrong, zero, 0.0)
            assert out.tobytes() == want.tobytes()
            assert (rec.size, rec.participants) == (ref.size, ref.participants)
            assert len(cascades) == runs


class TestSimulate:
    def test_single_node_sawtooth(self):
        p = IfoParams(gamma=GAMMA, epsilon=0.0, rows=1, cols=1, seed=3)
        snaps, records = simulate_ifo(p, 1000)
        assert snaps.data.shape == (1000, 1)
        assert snaps.data.min() >= 0.0 and snaps.data.max() < 1.0
        resets = np.flatnonzero(snaps.data[:, 0] == 0.0)
        assert len(resets) >= 9
        # unit period sampled every 0.01 (allow one-step float slack)
        assert set(np.diff(resets)) <= {100, 101}
        assert all(r.size == 1 for r in records)

    def test_uncoupled_pair_keeps_phase_offset(self):
        p = IfoParams(gamma=GAMMA, epsilon=0.0, rows=1, cols=2)
        snaps, _ = _simulate(p, np.array([0.0, 0.5]), 500)
        diff = np.mod(snaps.data[:, 1] - snaps.data[:, 0], 1.0)
        assert np.max(np.abs(diff - 0.5)) <= 1e-9

    def test_determinism(self):
        p = IfoParams(gamma=GAMMA, epsilon=0.145, rows=4, cols=4, seed=9)
        a, ra = simulate_ifo(p, 600)
        b, rb = simulate_ifo(p, 600)
        assert np.array_equal(a.data, b.data)
        assert [(r.start_time, r.size) for r in ra] == [(r.start_time, r.size) for r in rb]

    def test_snapshots_always_settled(self):
        for seed in range(5):
            p = IfoParams(gamma=GAMMA, epsilon=0.145, rows=4, cols=4, seed=seed)
            snaps, _ = simulate_ifo(p, 400)
            assert snaps.data.max() < 1.0
            assert snaps.data.min() >= 0.0

    def test_default_lattice_synchronizes(self):
        p = IfoParams(gamma=GAMMA, epsilon=0.145, rows=8, cols=8, seed=0)
        snaps, records = simulate_ifo(p, 2500)
        onset = synchronization_onset(records, 64)
        assert onset is not None
        assert all(r.size == 64 for r in records[-10:])

    def test_tiny_gamma_stays_finite(self):
        # the kicks must not divide by 1 - exp(-gamma), which is 0 here
        p = IfoParams(gamma=1e-17, epsilon=0.2, rows=4, cols=4)
        snaps, records = simulate_ifo(p, 300)
        assert np.all(np.isfinite(snaps.data))
        assert len(records) > 0

    def test_subnormal_epsilon_runs(self):
        # 1/eps overflows to inf here, and a kick leaves E all but
        # unchanged; every avalanche must still settle
        p = IfoParams(gamma=GAMMA, epsilon=5e-324, rows=3, cols=3)
        snaps, records = simulate_ifo(p, 200)
        assert records and np.all(snaps.data < 1.0)


class TestFullSyncOrbit:
    def test_all_equal_state_stays_system_spanning_and_periodic(self):
        p = IfoParams(gamma=GAMMA, epsilon=0.145, rows=3, cols=3)
        _, records = _simulate(p, np.full(9, 0.5), 800)
        assert len(records) >= 3
        assert all(r.size == 9 for r in records)
        gaps = np.diff([r.start_time for r in records])
        assert np.all(np.abs(gaps - gaps[0]) <= 1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="sweep semantics leave kick residue on earlier-firing nodes, "
        "so an all-equal state does not stay exactly equal; the orbit is "
        "system-spanning and periodic instead (see the test above)",
    )
    def test_all_equal_state_stays_equal(self):
        p = IfoParams(gamma=GAMMA, epsilon=0.145, rows=3, cols=3)
        out, rec = resolve(np.full(9, 1.0), p)
        assert rec.size == 9
        assert np.ptp(out) == 0.0


class TestSynchronizationOnset:
    def test_detects_locked_tail(self):
        records = [
            AvalancheRecord(start_time=1.0, size=3, participants={0, 1, 2}),
            AvalancheRecord(start_time=2.0, size=4, participants={0, 1, 2, 3}),
            AvalancheRecord(start_time=3.0, size=4, participants={0, 1, 2, 3}),
            AvalancheRecord(start_time=4.0, size=4, participants={0, 1, 2, 3}),
        ]
        assert synchronization_onset(records, 4) == pytest.approx(2.0)

    def test_none_when_never_locked(self):
        records = [
            AvalancheRecord(start_time=1.0, size=4, participants=set(range(4))),
            AvalancheRecord(start_time=2.0, size=2, participants={0, 1}),
            AvalancheRecord(start_time=3.0, size=4, participants=set(range(4))),
        ]
        assert synchronization_onset(records, 4) is None

    def test_tail_that_locks_only_as_a_whole(self):
        # gaps 1 + s, 1, 1 + 2s with s = 0.6e-9: each is within 1e-9 of
        # the first, but the last two are 1.2e-9 apart, so the tail from
        # the second event does not lock
        s = 0.6e-9
        times = np.cumsum([10.0, 1.0 + s, 1.0, 1.0 + 2 * s])
        records = [AvalancheRecord(start_time=t, size=4) for t in times]
        assert reference_onset(records, 4) == times[0]
        assert reference_onset(records[1:], 4) is None
        assert synchronization_onset(records, 4) == times[0]
        assert synchronization_onset(records[1:], 4) is None

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_matches_forward_scan_property(self, data):
        base = data.draw(st.floats(0.01, 2.0))
        near = st.sampled_from([-1.2e-9, -0.6e-9, 0.0, 0.6e-9, 1e-9, 1.2e-9])
        gap = st.one_of(st.floats(0.01, 2.0), near.map(lambda d: base + d))
        events = data.draw(st.lists(st.tuples(st.sampled_from([4, 4, 3]), gap), max_size=12))
        t = data.draw(st.floats(0.0, 50.0))
        records = []
        for size, g in events:
            records.append(AvalancheRecord(start_time=t, size=size))
            t += g
        assert synchronization_onset(records, 4) == reference_onset(records, 4)
