"""Exact DMD tests against analytically known linear systems."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopnet import (
    ConfigError,
    DegenerateDataError,
    DomainError,
    SnapshotMatrix,
    build_snapshot_pairs,
    continuous_spectrum,
    dmd,
    dmd_of_snapshots,
    reconstruct,
)


def linear_data(m, x0, n_steps):
    rows = [np.asarray(x0, dtype=float)]
    for _ in range(n_steps):
        rows.append(m @ rows[-1])
    return np.array(rows)


def rotation(w):
    return np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])


def random_system(rng, n):
    """Diagonalizable matrix with distinct eigenvalues in a stable
    annulus, conjugated by a moderately conditioned basis."""
    n_pairs = rng.integers(0, n // 2 + 1)
    eigs = []
    while len(eigs) < n - 2 * n_pairs:
        eigs.append(rng.uniform(0.5, 1.1) * rng.choice([-1.0, 1.0]))
    blocks = [np.array([[e]]) for e in eigs]
    for _ in range(n_pairs):
        radius = rng.uniform(0.5, 1.1)
        angle = rng.uniform(0.2, np.pi - 0.2)
        blocks.append(radius * rotation(angle))
    d = np.zeros((n, n))
    at = 0
    for b in blocks:
        k = b.shape[0]
        d[at:at + k, at:at + k] = b
        at += k
    while True:
        s = rng.normal(size=(n, n))
        if np.linalg.cond(s) < 50:
            break
    return s @ d @ np.linalg.inv(s)


def sorted_eigs(values):
    values = np.asarray(values, dtype=complex)
    order = np.lexsort((values.imag, values.real))
    return values[order]


class TestSnapshotPairs:
    def test_shapes_and_alignment(self):
        data = np.arange(12, dtype=float).reshape(4, 3)
        x, xp = build_snapshot_pairs(SnapshotMatrix(data=data))
        assert x.shape == (3, 3) and xp.shape == (3, 3)
        assert np.array_equal(x[:, 1], data[1])
        assert np.array_equal(xp[:, 1], data[2])
        assert np.shares_memory(x, data) and np.shares_memory(xp, data)

    def test_minimum_two_snapshots(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        x, xp = build_snapshot_pairs(SnapshotMatrix(data=data))
        assert x.shape == (2, 1)


@pytest.mark.parametrize("dt", [0.0, -1.0, np.inf, np.nan])
def test_rejects_dt_outside_zero_to_inf(dt):
    # an infinite dt would map every eigenvalue to mu = 0
    data = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
    with pytest.raises(ConfigError, match="dt must be finite and > 0"):
        SnapshotMatrix(data=data, dt=dt)
    with pytest.raises(DomainError, match="dt must be finite and > 0"):
        dmd(data[:-1].T, data[1:].T, dt=dt)
    with pytest.raises(DomainError, match="dt must be finite and > 0"):
        continuous_spectrum(np.array([0.5]), dt=dt)


class TestDmdExamples:
    def test_scalar_decay(self):
        data = (0.5 ** np.arange(20))[:, None] * 3.0
        result = dmd_of_snapshots(SnapshotMatrix(data=data))
        assert result.rank == 1
        assert result.eigenvalues_discrete[0] == pytest.approx(0.5, abs=1e-12)
        assert abs(result.amplitudes[0]) == pytest.approx(3.0, abs=1e-12)

    def test_pure_rotation(self):
        w = 0.7
        data = linear_data(rotation(w), [1.0, 0.3], 30)
        result = dmd_of_snapshots(SnapshotMatrix(data=data, dt=0.1))
        lams = sorted_eigs(result.eigenvalues_discrete)
        expect = sorted_eigs([np.exp(1j * w), np.exp(-1j * w)])
        assert np.allclose(lams, expect, atol=1e-10)
        # dt = 0.1 makes the continuous frequency w / dt = 7
        freqs = np.sort(np.imag(result.eigenvalues_continuous))
        assert np.allclose(freqs, [-7.0, 7.0], atol=1e-9)

    def test_constant_data(self):
        data = np.full((10, 4), 2.5)
        result = dmd_of_snapshots(SnapshotMatrix(data=data))
        assert result.rank == 1
        assert result.eigenvalues_discrete[0] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(reconstruct(result, 7), data[7], atol=1e-12)

    def test_modes_unit_norm_and_dominance_order(self):
        rng = np.random.default_rng(4)
        data = linear_data(random_system(rng, 4), rng.normal(size=4), 30)
        result = dmd_of_snapshots(SnapshotMatrix(data=data))
        assert np.allclose(np.linalg.norm(result.modes, axis=0), 1.0, atol=1e-12)
        amps = np.abs(result.amplitudes)
        assert np.all(np.diff(amps) <= 1e-12)

    def test_rank_truncation_capped(self):
        rng = np.random.default_rng(4)
        data = linear_data(random_system(rng, 4), rng.normal(size=4), 30)
        result = dmd_of_snapshots(SnapshotMatrix(data=data), rank=2)
        assert result.rank == 2
        result = dmd_of_snapshots(SnapshotMatrix(data=data), rank=99)
        assert result.rank == 4

    @staticmethod
    def numerically_zero_eigenvalue_pairs():
        # six nodes, one exact zero eigenvalue whose eigenvector is close
        # to that of 0.95: rounding leaves lambda at 1e-14..1e-9, and
        # lifting by 1/lambda would return a noise mode
        for seed in range(5):
            rng = np.random.default_rng(seed)
            s = rng.normal(size=(6, 6))
            s[:, -1] = s[:, 0] + 0.1 * s[:, -1]
            m = s @ np.diag([0.95, 0.9, 0.7, -0.5, 0.3, 0.0]) @ np.linalg.inv(s)
            data = linear_data(m, rng.normal(size=6), 12)
            yield data[:-1].T, data[1:].T

    def test_numerically_zero_eigenvalue_gets_projected_mode(self):
        for x, xp in self.numerically_zero_eigenvalue_pairs():
            result = dmd(x, xp)
            assert result.rank == 6
            assert np.count_nonzero(result.zero_flags) == 1
            u, sv, vh = np.linalg.svd(x, full_matrices=False)
            r = result.rank
            a = xp @ vh[:r].T @ np.diag(1.0 / sv[:r]) @ u[:, :r].T
            tol = 1e-8 * max(1.0, np.linalg.norm(a, 2))
            for lam, v in zip(result.eigenvalues_discrete, result.modes.T):
                assert np.linalg.norm(a @ v - lam * v) <= tol

    def test_continuous_eigenvalues_match_continuous_spectrum(self):
        # same map, bit for bit, but dmd() flags zero eigenvalues silently
        for x, xp in self.numerically_zero_eigenvalue_pairs():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result = dmd(x, xp, dt=0.25)
            assert np.count_nonzero(result.zero_flags) == 1
            with pytest.warns(RuntimeWarning):
                mu = continuous_spectrum(result.eigenvalues_discrete, dt=0.25)
            assert result.eigenvalues_continuous.tobytes() == mu.tobytes()

    def test_degenerate_and_config_errors(self):
        with pytest.raises(DegenerateDataError):
            dmd_of_snapshots(SnapshotMatrix(data=np.zeros((5, 3))))
        data = np.ones((5, 3))
        with pytest.raises(ConfigError):
            dmd_of_snapshots(SnapshotMatrix(data=data), rank=0)
        with pytest.raises(ConfigError):
            dmd(np.ones((3, 4)), np.ones((3, 5)))
        with pytest.raises(DomainError):
            dmd(np.ones((3, 4)), np.ones((3, 4)), dt=0.0)


class TestOracleEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 6))
    def test_recovers_generator_spectrum(self, seed, n):
        rng = np.random.default_rng(seed)
        m = random_system(rng, n)
        data = linear_data(m, rng.normal(size=n), 49)
        result = dmd_of_snapshots(SnapshotMatrix(data=data))
        got = sorted_eigs(result.eigenvalues_discrete)
        expect = sorted_eigs(np.linalg.eigvals(m))
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect)) < 1e-8

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_reconstruction_of_linear_trajectory(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        data = linear_data(random_system(rng, n), rng.normal(size=n), 30)
        result = dmd_of_snapshots(SnapshotMatrix(data=data))
        for k in (0, 5, 20):
            assert np.linalg.norm(reconstruct(result, k) - data[k]) < 1e-6


class TestSpectrumProperties:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(25, 5))
        result = dmd_of_snapshots(SnapshotMatrix(data=data))
        lams = result.eigenvalues_discrete
        for lam in lams:
            assert np.min(np.abs(lams - np.conj(lam))) < 1e-10

    def test_reconstruction_residual_nonincreasing_in_rank(self):
        rng = np.random.default_rng(8)
        data = linear_data(random_system(rng, 5), rng.normal(size=5), 30)
        snaps = SnapshotMatrix(data=data)
        prev = np.inf
        for rank in range(1, 6):
            result = dmd_of_snapshots(snaps, rank=rank)
            resid = sum(
                np.linalg.norm(reconstruct(result, k) - data[k])
                for k in range(data.shape[0] - 1)
            )
            assert resid <= prev + 1e-9
            prev = resid

    def test_shift_invariance_of_nonunit_eigenvalues(self):
        # decaying 2-D dynamics embedded into 5 nodes with an offset:
        # adding a constant vector may only touch the mu = 0 direction
        rng = np.random.default_rng(3)
        a = 0.9 * rotation(0.7)
        e = rng.normal(size=(5, 2))
        f = rng.normal(size=5)
        y = rng.normal(size=2)
        rows = [e @ y + f]
        for _ in range(40):
            y = a @ y
            rows.append(e @ y + f)
        data = np.array(rows)

        def nonunit(result):
            lam = result.eigenvalues_discrete[~result.zero_flags]
            return sorted_eigs(lam[np.abs(lam - 1.0) > 1e-6])

        base = nonunit(dmd_of_snapshots(SnapshotMatrix(data=data)))
        shifted = nonunit(dmd_of_snapshots(SnapshotMatrix(data=data + rng.normal(size=5))))
        assert base.shape == shifted.shape
        assert np.max(np.abs(base - shifted)) < 1e-8


class TestContinuousSpectrum:
    def test_examples(self):
        mu = continuous_spectrum(np.array([1.0, np.exp(-0.02), 1j]), dt=1.0)
        assert mu[0] == pytest.approx(0.0, abs=1e-14)
        assert mu[1] == pytest.approx(-0.02, abs=1e-12)
        assert mu[2] == pytest.approx(1j * np.pi / 2, abs=1e-12)

    def test_zero_eigenvalue_warns_and_nans(self):
        with pytest.warns(RuntimeWarning):
            mu = continuous_spectrum(np.array([0.0, 0.5]), dt=1.0)
        assert np.isnan(mu[0])
        assert mu[1] == pytest.approx(np.log(0.5), abs=1e-12)

    def test_principal_branch(self):
        mu = continuous_spectrum(np.array([-0.5 + 0j]), dt=2.0)
        assert -np.pi / 2 < np.imag(mu[0]) <= np.pi / 2

    @settings(max_examples=1000, deadline=None)
    @given(
        re=st.floats(-3.0, 0.5),
        im=st.floats(-3.0, 3.0),
        dt=st.floats(0.01, 2.0),
    )
    def test_identity_on_exponential_map(self, re, im, dt):
        mu = complex(re, im)
        if not abs(im) * dt < np.pi - 1e-6:
            return
        back = continuous_spectrum(np.array([np.exp(mu * dt)]), dt=dt)[0]
        assert abs(back - mu) <= 1e-9 * max(1.0, abs(mu))

    def test_rejects_bad_dt(self):
        with pytest.raises(DomainError):
            continuous_spectrum(np.array([0.5]), dt=-1.0)


class TestReconstruct:
    def test_rejects_negative_step(self):
        data = np.full((10, 2), 1.5)
        result = dmd_of_snapshots(SnapshotMatrix(data=data))
        with pytest.raises(DomainError):
            reconstruct(result, -1)
