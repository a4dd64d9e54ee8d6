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
    dmd,
    dmd_of_snapshots,
    reconstruct,
)
from koopnet.dmd import _basis, _kernel, _log_map


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["x", "xp"])
def test_rejects_non_finite_snapshots(value, which):
    rng = np.random.default_rng(0)
    pair = {"x": rng.normal(size=(4, 9)), "xp": rng.normal(size=(4, 9))}
    pair[which][2, 5] = value
    with pytest.raises(DomainError, match="must be finite"):
        dmd(pair["x"], pair["xp"])


@pytest.mark.parametrize("shape", [(1, 0), (2, 0), (100, 0)])
def test_rejects_window_without_snapshot_pairs(shape):
    # with two or more rows, all of them count as constant across the
    # empty window, and the constant-row fold has no column to read
    with pytest.raises(DegenerateDataError, match="no snapshot pairs"):
        dmd(np.ones(shape), np.ones(shape))


def prescribed_window(rng, n, m, singular_values):
    """N x (T-1) pair (x, xp): x = Q1 diag(singular_values) Q2^T with
    random orthonormal Q1, Q2, and xp = M x for a random orthogonal M
    scaled by 0.9, so the reduced operator's eigenvalues are O(1)."""
    k = len(singular_values)
    q1 = np.linalg.qr(rng.normal(size=(n, k)))[0]
    q2 = np.linalg.qr(rng.normal(size=(m, k)))[0]
    x = (q1 * singular_values) @ q2.T
    return x, 0.9 * np.linalg.qr(rng.normal(size=(n, n)))[0] @ x


def svd_dmd(x, xp, rank):
    """Exact DMD from the SVD of x, operation for operation as dmd()'s
    SVD fallback: (eigenvalues, modes, amplitudes, singular values)."""
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    r = int(np.count_nonzero(s > s[0] * max(x.shape) * np.finfo(float).eps))
    r = r if rank is None else min(rank, r)
    u_r, v_r = u[:, :r], vh[:r].conj().T
    b_mat = (xp @ v_r) / s[:r]
    lambdas, w = np.linalg.eig(u_r.conj().T @ b_mat)
    lambdas, w = lambdas.astype(complex), w.astype(complex)
    zero = np.abs(lambdas) <= np.sqrt(np.finfo(float).eps) * max(1.0, np.max(np.abs(lambdas)))
    modes = b_mat @ (w / np.where(zero, 1.0, lambdas))
    modes[:, zero] = u_r @ w[:, zero]
    norms = np.linalg.norm(modes, axis=0)
    modes /= np.where(norms > 0, norms, 1.0)
    amps = np.linalg.lstsq(modes, x[:, 0].astype(complex), rcond=None)[0]
    order = np.argsort(-np.abs(amps), kind="stable")
    return lambdas[order], modes[:, order], amps[order], s


class TestGramKernel:
    """The method-of-snapshots basis against an SVD exact-DMD oracle, on
    windows whose singular values straddle the 1e-3 cut-off."""

    @staticmethod
    def decompose(monkeypatch, x, xp, rank):
        """dmd() of the pair, and whether it called np.linalg.svd."""
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        result = dmd(x, xp, rank=rank)
        monkeypatch.undo()
        return result, bool(calls)

    @pytest.mark.parametrize("n, m", [(40, 99), (150, 99)], ids=["wide", "tall"])
    @pytest.mark.parametrize("rank", [16, None])
    @pytest.mark.parametrize("ratio, gram", [(1.02e-3, True), (0.98e-3, False)],
                             ids=["above", "below"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_svd_oracle(self, monkeypatch, n, m, rank, ratio, gram, seed):
        rng = np.random.default_rng(seed)
        k = min(n, m)
        want = k if rank is None else rank
        # sigma_want / sigma_1 = ratio; the tail beyond `want` lies below it
        s = np.concatenate([np.geomspace(1.0, ratio, want),
                            np.geomspace(0.5 * ratio, 1e-3 * ratio, k - want)])
        x, xp = prescribed_window(rng, n, m, 3.0 * s)
        lambdas, modes, amps, sigma = svd_dmd(x, xp, rank)
        result, used_svd = self.decompose(monkeypatch, x, xp, rank)
        assert used_svd is not gram
        assert result.rank == len(lambdas) == want
        if gram:
            assert np.max(np.abs(sorted_eigs(result.eigenvalues_discrete)
                                 - sorted_eigs(lambdas))) <= 1e-10
            kept = sigma[:want]
            assert np.max(np.abs(result.singular_values[:want] - kept) / kept) <= 1e-10
        else:
            assert np.array_equal(result.eigenvalues_discrete, lambdas)
            assert np.array_equal(result.modes, modes)
            assert np.array_equal(result.amplitudes, amps)
            assert np.array_equal(result.singular_values, sigma)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_gram_underflow_or_overflow_goes_to_the_svd(self, monkeypatch, scale):
        # squares of these entries underflow to subnormals or overflow
        rng = np.random.default_rng(0)
        x, xp = prescribed_window(rng, 6, 29, np.geomspace(1.0, 0.1, 6))
        expect = sorted_eigs(dmd(x, xp).eigenvalues_discrete)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, used_svd = self.decompose(monkeypatch, scale * x, scale * xp, None)
        assert used_svd
        assert np.max(np.abs(sorted_eigs(result.eigenvalues_discrete) - expect)) <= 1e-12


def window_with_constant_rows(rng, n, m, varying, singular_values, value=None):
    """N x (T-1) pair (x, xp) whose `varying` rows, at random positions,
    are a prescribed_window and whose other rows hold a constant across
    both x and xp (uniform in [0.2, 1], or `value`); also the mask of
    the constant rows."""
    const = np.ones(n, dtype=bool)
    const[rng.permutation(n)[:varying]] = False
    x, xp = np.empty((n, m)), np.empty((n, m))
    x[~const], xp[~const] = prescribed_window(rng, varying, m, singular_values)
    c = rng.uniform(0.2, 1.0, n - varying) if value is None else np.full(n - varying, value)
    x[const] = xp[const] = c[:, None]
    return x, xp, const


class TestConstantRowFold:
    """Rows constant across the window fold into one row before the
    basis; the result must match the SVD oracle on the whole window."""

    @staticmethod
    def assert_matches_oracle(x, xp, rank):
        lambdas, modes, amps, sigma = svd_dmd(x, xp, rank)
        result = dmd(x, xp, rank=rank)
        assert result.rank == len(lambdas)
        assert result.singular_values.shape == sigma.shape
        assert np.max(np.abs(sorted_eigs(result.eigenvalues_discrete)
                             - sorted_eigs(lambdas))) <= 1e-10
        # each mode against the oracle mode of the nearest eigenvalue;
        # modes are unit vectors up to a phase, so compare magnitudes
        for lam, v, b in zip(result.eigenvalues_discrete, result.modes.T, result.amplitudes):
            j = np.argmin(np.abs(lambdas - lam))
            assert np.max(np.abs(np.abs(v) - np.abs(modes[:, j]))) <= 1e-8
            assert abs(abs(b) - abs(amps[j])) <= 1e-8 * max(1.0, abs(amps[j]))
        return result, sigma

    @pytest.mark.parametrize("n, m, varying", [(60, 99, 40), (150, 99, 30)],
                             ids=["wide", "tall"])
    @pytest.mark.parametrize("rank", [16, None])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_svd_oracle(self, n, m, varying, rank, seed):
        rng = np.random.default_rng(seed)
        x, xp, const = window_with_constant_rows(rng, n, m, varying,
                                                 3.0 * np.geomspace(1.0, 0.05, varying))
        result, sigma = self.assert_matches_oracle(x, xp, rank)
        assert result.rank == (varying + 1 if rank is None else rank)
        kept = sigma[:varying + 1]
        assert np.max(np.abs(result.singular_values[:varying + 1] - kept) / kept) <= 1e-10
        assert np.all(result.singular_values[varying + 1:] == 0.0)

    @pytest.mark.parametrize("rank", [16, None])
    def test_zero_constant_rows(self, rank):
        rng = np.random.default_rng(5)
        x, xp, const = window_with_constant_rows(rng, 120, 99, 30,
                                                 np.geomspace(1.0, 0.05, 30), value=0.0)
        result, _ = self.assert_matches_oracle(x, xp, rank)
        assert result.rank == (30 if rank is None else rank)
        assert np.all(result.modes[const] == 0.0)
        assert np.all(_basis(x, rank)[0][const] == 0.0)

    @pytest.mark.parametrize("n, m", [(40, 99), (150, 99)], ids=["wide", "tall"])
    @pytest.mark.parametrize("rank", [16, None])
    def test_one_constant_row_is_not_folded(self, n, m, rank):
        rng = np.random.default_rng(6)
        x, xp, _ = window_with_constant_rows(rng, n, m, n - 1,
                                             np.geomspace(1.0, 0.05, min(n - 1, m)))
        for got, expect in zip(_basis(x, rank), _kernel(x, rank, max(n, m))):
            assert np.array_equal(got, expect)

    def test_rank_tolerance_uses_the_whole_window(self):
        # sigma_20 / sigma_1 = 8e-14 lies between 99 eps and 1000 eps: below
        # the 1000 x 99 window's tolerance, above the folded 21 x 99 one's
        rng = np.random.default_rng(10)
        sv = np.concatenate([np.geomspace(1.0, 0.1, 19), [8e-14]])
        x, xp, _ = window_with_constant_rows(rng, 1000, 99, 20, sv, value=1e-3)
        result, _ = self.assert_matches_oracle(x, xp, None)
        assert result.rank == 20

    @pytest.mark.parametrize("rank", [16, None])
    def test_row_constant_in_x_only(self, rank):
        # the constant rows' successors need not be constant: xp is not folded
        rng = np.random.default_rng(7)
        x, xp, const = window_with_constant_rows(rng, 150, 99, 30,
                                                 3.0 * np.geomspace(1.0, 0.05, 30))
        xp[np.flatnonzero(const)[:3], -1] += 0.5
        self.assert_matches_oracle(x, xp, rank)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    @pytest.mark.parametrize("n, m, varying", [(60, 99, 40), (150, 99, 30)],
                             ids=["wide", "tall"])
    def test_extreme_scales(self, n, m, varying, scale):
        # ||c|| squared underflows to subnormals or overflows unless scaled
        rng = np.random.default_rng(11)
        x, xp, const = window_with_constant_rows(rng, n, m, varying,
                                                 3.0 * np.geomspace(1.0, 0.05, varying))
        expect = dmd(x, xp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = dmd(scale * x, scale * xp)
        assert result.rank == expect.rank == varying + 1
        assert np.max(np.abs(sorted_eigs(result.eigenvalues_discrete)
                             - sorted_eigs(expect.eigenvalues_discrete))) <= 1e-10
        assert np.max(np.abs(result.singular_values / scale - expect.singular_values)
                      / expect.singular_values[0]) <= 1e-10
        for lam, v in zip(result.eigenvalues_discrete, result.modes.T):
            j = np.argmin(np.abs(expect.eigenvalues_discrete - lam))
            assert np.max(np.abs(np.abs(v) - np.abs(expect.modes[:, j]))) <= 1e-8

    # at 1e-310 the rows are subnormal and ||c|| is too: x is not folded
    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e160, 1e-310])
    def test_every_row_constant(self, scale):
        c = np.random.default_rng(8).uniform(0.2, 1.0, 50)
        x = np.repeat(scale * c[:, None], 99, axis=1)
        result = dmd(x, 0.5 * x)
        assert result.rank == 1
        assert result.eigenvalues_discrete[0] == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(np.abs(result.modes[:, 0]), c / np.linalg.norm(c), atol=1e-12)
        assert np.all(result.singular_values[1:] == 0.0)

    @pytest.mark.parametrize("shape", [(40, 99), (150, 99)], ids=["wide", "tall"])
    def test_all_zero_window_is_degenerate(self, shape):
        with pytest.raises(DegenerateDataError):
            dmd(np.zeros(shape), np.zeros(shape))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_constant_row_is_rejected(self, value):
        rng = np.random.default_rng(9)
        x, xp, const = window_with_constant_rows(rng, 60, 99, 20, np.geomspace(1.0, 0.1, 20))
        x[np.flatnonzero(const)[0]] = value
        with pytest.raises(DomainError, match="must be finite"):
            dmd(x, xp)


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
        # mu = log(lambda)/dt on every unflagged eigenvalue, bit for bit,
        # and NaN + NaN j, silently, on the zero-flagged one
        for x, xp in self.numerically_zero_eigenvalue_pairs():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result = dmd(x, xp, dt=0.25)
            assert np.count_nonzero(result.zero_flags) == 1
            mu, flags = result.eigenvalues_continuous, result.zero_flags
            assert np.all(np.isnan(mu[flags].real)) and np.all(np.isnan(mu[flags].imag))
            want = np.log(result.eigenvalues_discrete[~flags]) / 0.25
            assert mu[~flags].tobytes() == want.tobytes()

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
    """The map dmd() takes its continuous eigenvalues with."""

    @staticmethod
    def log_map(lambdas, dt):
        return _log_map(np.asarray(lambdas, dtype=complex), np.zeros(len(lambdas), bool), dt)

    def test_examples(self):
        mu = self.log_map([1.0, np.exp(-0.02), 1j], dt=1.0)
        assert mu[0] == pytest.approx(0.0, abs=1e-14)
        assert mu[1] == pytest.approx(-0.02, abs=1e-12)
        assert mu[2] == pytest.approx(1j * np.pi / 2, abs=1e-12)

    def test_principal_branch(self):
        mu = self.log_map([-0.5 + 0j], dt=2.0)
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
        back = self.log_map([np.exp(mu * dt)], dt=dt)[0]
        assert abs(back - mu) <= 1e-9 * max(1.0, abs(mu))


class TestReconstruct:
    def test_rejects_negative_step(self):
        data = np.full((10, 2), 1.5)
        result = dmd_of_snapshots(SnapshotMatrix(data=data))
        with pytest.raises(DomainError):
            reconstruct(result, -1)
