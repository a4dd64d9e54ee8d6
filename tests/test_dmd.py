"""Exact DMD tests against analytically known linear systems."""

import contextlib
import importlib
import itertools
import logging
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import koopnet
from koopnet import (
    ConfigError,
    DegenerateDataError,
    DomainError,
    IfoParams,
    SnapshotMatrix,
    build_snapshot_pairs,
    dmd,
    dmd_of_snapshots,
    reconstruct,
    simulate_ifo,
)
from koopnet.dmd import _basis, _kernel, _log_map, _one_blas_thread, _openblas, _svd
from systems import random_system, rotation, sorted_eigs

# the module, not the function koopnet exports under the same name
dmd_module = importlib.import_module("koopnet.dmd")


def linear_data(m, x0, n_steps):
    rows = [np.asarray(x0, dtype=float)]
    for _ in range(n_steps):
        rows.append(m @ rows[-1])
    return np.array(rows)


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
def test_rejects_non_finite_first_or_last_entry(value, index):
    # the checks read max and min; NaN or inf anywhere must reach them
    rng = np.random.default_rng(1)
    for which in ("x", "xp"):
        pair = {"x": rng.normal(size=(4, 9)), "xp": rng.normal(size=(4, 9))}
        pair[which][index, index] = value
        with pytest.raises(DomainError, match="must be finite"):
            dmd(pair["x"], pair["xp"])
    data = rng.normal(size=(10, 4))
    data[index, index] = value
    with pytest.raises(ConfigError, match="non-finite"):
        SnapshotMatrix(data=data)


@pytest.mark.parametrize("make, message", [
    (lambda: SnapshotMatrix(data=np.ones(5)), "must be 2-D"),
    (lambda: SnapshotMatrix(data=np.ones((3, 2, 2))), "must be 2-D"),
    (lambda: SnapshotMatrix(data=np.ones((1, 3))), "at least 2 snapshots"),
    (lambda: SnapshotMatrix(data=np.ones((4, 0))), "at least 1 node column"),
    (lambda: dmd(np.ones(5), np.ones(5)), "must be 2-D"),
], ids=["record-1-D", "record-3-D", "record-one-row", "record-no-column", "dmd-1-D"])
def test_rejects_input_of_the_wrong_shape(make, message):
    with pytest.raises(ConfigError, match=message):
        make()


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
    SVD fallback, on one OpenBLAS thread as dmd() runs: (eigenvalues,
    modes, amplitudes, singular values)."""
    with _one_blas_thread():
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
        """dmd() of the pair, and whether it took the SVD fallback."""
        calls = []
        monkeypatch.setattr(dmd_module, "_svd", lambda a: calls.append(1) or _svd(a))
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


class TestOneBlasThread:
    """dmd() runs on one OpenBLAS thread and gives the count back."""

    @pytest.fixture
    def threads(self):
        """numpy's OpenBLAS thread count getter, with the count set to 2
        for the test (so the pin is seen whatever the environment says)
        and restored after it."""
        lib = _openblas()
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_finds_numpy_openblas(self):
        # else the pin would silently do nothing on this build
        assert _openblas() is not None

    def test_decomposes_on_one_thread(self, monkeypatch, threads):
        seen = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: seen.append(threads()) or eig(a))
        x, xp = prescribed_window(np.random.default_rng(0), 40, 99, np.geomspace(1.0, 0.1, 40))
        dmd(x, xp)
        assert seen == [1]
        assert threads() == 2

    def test_restores_the_count_after_an_error(self, monkeypatch, threads):
        # an all-zero window raises inside the pinned body, in the SVD fallback
        seen = []
        monkeypatch.setattr(dmd_module, "_svd", lambda a: seen.append(threads()) or _svd(a))
        with pytest.raises(DegenerateDataError):
            dmd(np.zeros((40, 99)), np.zeros((40, 99)))
        assert seen == [1]
        assert threads() == 2

    def test_concurrent_calls_take_turns(self, monkeypatch, threads):
        # the first call waits in its pinned body until a second one has
        # entered its own, or 0.5 s has passed, and the second until the
        # first has returned: pins that overlapped would see the first
        # one's restore, and the second would restore the first one's 1
        entered, returned = threading.Event(), threading.Event()
        order, seen, basis = itertools.count(), [], dmd_module._basis

        def held_basis(x, rank):
            if next(order) == 0:
                entered.wait(0.5)
            else:
                entered.set()
                returned.wait(0.5)
            seen.append(threads())
            return basis(x, rank)

        def call():
            dmd(x, xp)
            returned.set()

        monkeypatch.setattr(dmd_module, "_basis", held_basis)
        x, xp = prescribed_window(np.random.default_rng(2), 40, 99, np.geomspace(1.0, 0.1, 40))
        workers = [threading.Thread(target=call) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(10)
            assert not worker.is_alive()
        assert seen == [1, 1]
        assert threads() == 2

    def test_without_openblas_runs_and_warns_once(self, monkeypatch, caplog, tmp_path):
        monkeypatch.setattr(dmd_module, "_BLAS_DIR", str(tmp_path))
        _openblas.cache_clear()
        x, xp = prescribed_window(np.random.default_rng(1), 40, 99, np.geomspace(1.0, 0.1, 40))
        try:
            with caplog.at_level(logging.WARNING, logger="koopnet.dmd"):
                results = [dmd(x, xp) for _ in range(2)]
        finally:
            _openblas.cache_clear()     # the next call looks again
        assert all(r.rank == 40 for r in results)
        warned = [r for r in caplog.records if r.name == "koopnet.dmd"]
        assert len(warned) == 1 and warned[0].levelno == logging.WARNING


def lattice_window(seed, window):
    """The pair (x, xp) of window `window` (rows 200w..200w+199) of a
    64x64 open IFO lattice record as the benchmark's ifo-lattice
    workload makes it: 4096 x 199 F-ordered views, as windowed_dmd
    passes them to dmd()."""
    params = IfoParams(gamma=2.0, epsilon=0.145, rows=64, cols=64, dt=0.01, seed=seed)
    snapshots, _ = simulate_ifo(params, 200 * (window + 1))
    return build_snapshot_pairs(SnapshotMatrix(snapshots.data[200 * window:]))


# the VmHWM growth, in kB, of one SVD of a 4096 x 199 window in a fresh
# process, after a small SVD has loaded and warmed up LAPACK
SVD_PEAK_PROBE = """
import numpy as np
from koopnet.dmd import _svd

def hwm():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

_svd(np.random.default_rng(1).normal(size=(40, 20)))
x = np.random.default_rng(0).normal(size=(199, 4096)).T
before = hwm()
_svd(x)
print(hwm() - before)
"""


class TestSvd:
    """dmd._svd: LAPACK's dgesdd called directly with jobz 'O', so the
    copy of x it overwrites is the only buffer of x's size. sigma and
    the smaller factor are np.linalg.svd(x, full_matrices=False)'s bit
    for bit; the larger one is within 1 eps of numpy's entry by entry,
    and bit for bit on the small shapes below."""

    @staticmethod
    def assert_same_bits(x):
        for got, expect in zip(_svd(x), np.linalg.svd(x, full_matrices=False)):
            assert got.shape == expect.shape and np.array_equal(got, expect)

    def test_lattice_fallback_window(self, monkeypatch):
        x, _ = lattice_window(0, 3)
        assert x.shape == (4096, 199)
        eps = np.finfo(float).eps
        for pin in (contextlib.nullcontext, _one_blas_thread):
            with pin():
                u, s, vh = _svd(x)
                u_np, s_np, vh_np = np.linalg.svd(x, full_matrices=False)
            assert np.array_equal(s, s_np) and np.array_equal(vh, vh_np)
            assert u.shape == u_np.shape and np.max(np.abs(u - u_np)) <= eps
            # U^T U - I is no worse than numpy's
            eye = np.eye(u.shape[1])
            assert np.max(np.abs(u.T @ u - eye)) <= np.max(np.abs(u_np.T @ u_np - eye))
        # and the window is one the Gram path refuses
        calls = []
        monkeypatch.setattr(dmd_module, "_svd", lambda a: calls.append(a.shape) or _svd(a))
        _kernel(x, 16, max(x.shape))
        assert calls == [(4096, 199)]

    @pytest.mark.parametrize("shape", [(150, 99), (40, 99), (199, 199), (1, 5), (5, 1)])
    def test_matches_numpy(self, shape):
        x = np.random.default_rng(sum(shape)).normal(size=shape)
        self.assert_same_bits(x)
        self.assert_same_bits(np.asfortranarray(x))

    def test_failure_raises_linalg_error(self):
        # LAPACKE's NaN check returns info = -5 (argument a) on a NaN input
        with pytest.raises(np.linalg.LinAlgError, match="info -5"):
            _svd(np.full((3, 3), np.nan))

    def test_without_openblas_takes_numpy_svd(self, monkeypatch, tmp_path):
        x, xp = lattice_window(0, 3)
        expect = dmd(x, xp, rank=16)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        lib = _openblas()
        previous = lib.scipy_openblas_get_num_threads64_()
        monkeypatch.setattr(dmd_module, "_BLAS_DIR", str(tmp_path))
        _openblas.cache_clear()
        # the pin is off without the library; set the count it would set
        lib.scipy_openblas_set_num_threads64_(1)
        try:
            result = dmd(x, xp, rank=16)
        finally:
            lib.scipy_openblas_set_num_threads64_(previous)
            _openblas.cache_clear()
        assert calls == [1]
        assert np.array_equal(result.singular_values, expect.singular_values)
        assert result.rank == expect.rank
        # numpy's U differs from _svd's in the last bit only (measured: the
        # eigenvalues move by 4.7e-10; this window's amplitudes are set by
        # rounding, so they are not compared)
        assert np.max(np.abs(sorted_eigs(result.eigenvalues_discrete)
                             - sorted_eigs(expect.eigenvalues_discrete))) <= 1e-9

    @pytest.mark.skipif(not os.path.exists("/proc/self/status") or _openblas() is None,
                        reason="needs Linux's VmHWM and numpy's bundled scipy-openblas")
    def test_holds_no_window_copy_but_its_input(self):
        src = str(Path(koopnet.__file__).resolve().parent.parent)
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        growth = int(subprocess.run([sys.executable, "-c", SVD_PEAK_PROBE], env=env,
                                    check=True, capture_output=True, text=True).stdout)
        # one 4096 x 199 window is 6,368 kB: the copy LAPACK overwrites
        # with U, and under 0.75 of one more for the workspace and the
        # small factors (np.linalg.svd grows by about 3.5 windows)
        window = 4096 * 199 * 8 // 1024
        assert window <= growth <= 1.75 * window, growth


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

    def test_signed_zero_rows_fold_as_constant(self, monkeypatch):
        # rows of 0.0 and -0.0 are constant: the kernel gets the rows the
        # mask np.any(x != x[:, :1], axis=1) selects, then the folded row
        rng = np.random.default_rng(12)
        x, xp, const = window_with_constant_rows(rng, 60, 99, 20,
                                                 np.geomspace(1.0, 0.1, 20), value=0.0)
        rows = np.flatnonzero(const)
        x[rows[0], ::2] = -0.0
        x[rows[1], 0] = -0.0
        x[rows[2], 1:] = -0.0
        folded = []
        monkeypatch.setattr(dmd_module, "_kernel",
                            lambda y, *a, kernel=_kernel: folded.append(y) or kernel(y, *a))
        result = dmd(x, xp)
        varying = np.any(x != x[:, :1], axis=1)
        assert np.array_equal(varying, ~const)
        assert len(folded) == 1 and np.array_equal(folded[0][:-1], x[varying])
        assert np.all(folded[0][-1] == 0.0)
        assert result.rank == 20 and np.all(result.modes[const] == 0.0)

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

    @pytest.mark.parametrize("x, xp, message", [
        # sigma_1 = 3.2e-320 is subnormal: Xp V S^-1 overflows
        ([[1e-320], [3e-320]], [[1.0], [2.0]],
         r"X' V S\^-1 or the reduced operator .* overflows \(sigma_1 = 3.16e-320\)"),
        # Xp V S^-1 = 1e308 in each of 4 rows, but U^T of it is 2e308
        (np.full((4, 1), 1e-300), np.full((4, 1), 2e8),
         r"X' V S\^-1 or the reduced operator U\^T X' V S\^-1 overflows \(sigma_1 = 2e-300\)"),
        # lambda = 1e-7 is no zero, and dividing Xp V S^-1's 1e305 by it overflows
        ([[1e-300], [0.0]], [[1e-307], [1e5]], r"a lifted mode X' V S\^-1 w / lambda overflows"),
    ], ids=["xp-v-s", "reduced-operator", "lifted-mode"])
    def test_overflow_on_finite_data_is_degenerate(self, x, xp, message):
        # the inf or NaN would otherwise reach eig or lstsq, whose
        # LinAlgError used to escape
        with pytest.raises(DegenerateDataError, match=message):
            dmd(x, xp)

    def test_finite_mode_whose_squared_norm_overflows_is_kept(self):
        # lambda = 1e-7 lifts Xp V S^-1's 1e148 to a mode entry of 1e155,
        # finite, but the sum of its squares overflows
        result = dmd([[1e-300], [0.0]], [[1e-307], [1e-152]])
        assert result.rank == 1 and not result.zero_flags[0]
        np.testing.assert_allclose(result.modes[:, 0], [1e-155, 1.0], rtol=1e-12)

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_overflowing_singular_value_is_named(self, value):
        # sqrt(12) * 1e308 has no float: sigma_1 is inf, not below tolerance
        x = np.full((3, 4), value)
        with pytest.raises(DegenerateDataError, match="largest singular value overflows"):
            dmd(x, 0.5 * x)


class TestOracleEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 6))
    @example(seed=65332, n=6)
    @example(seed=1235245747, n=6)
    def test_recovers_generator_spectrum(self, seed, n):
        rng = np.random.default_rng(seed)
        m = random_system(rng, n)
        data = linear_data(m, rng.normal(size=n), 49)
        result = dmd_of_snapshots(SnapshotMatrix(data=data))
        got = sorted_eigs(result.eigenvalues_discrete)
        # Each eigenvalue's bound is 1e-8, criterion 1's, or what rounding
        # allows on this data if that is more. Exact DMD returns the
        # eigenvalues of Xp X^+. The rounded trajectory is Xp = m X + R,
        # ||R|| ~ eps ||m|| ||X||, and a backward-stable SVD solves for
        # X + E, ||E|| ~ eps ||X||; both move Xp X^+ off m by about
        # eps ||m|| sigma_1/sigma_n of X. To first order that moves
        # eigenvalue k by at most its condition number kappa_k =
        # ||y_k|| ||x_k|| / |y_k^H x_k| times as much, x_k and y_k its right
        # and left eigenvectors; kappa_k <= cond(S), the Bauer-Fike factor.
        # With S's unit columns as x_k and the rows of S^-1 as y_k^H,
        # kappa_k is the norm of row k of S^-1. At seed 65332, n = 6,
        # sigma_6/sigma_1 is 8.0e-9, and a plain numpy SVD exact DMD is off
        # by 8.5e-9, pinv by 1.08e-8. On 25,000 random cases, wherever the
        # rounding term exceeded 1e-8, both koopnet and a plain SVD exact
        # DMD stayed within 0.024 of it.
        lam, s_vecs = np.linalg.eig(m)
        kappa = np.linalg.norm(s_vecs, axis=0) * np.linalg.norm(np.linalg.inv(s_vecs), axis=1)
        order = np.lexsort((lam.imag, lam.real))  # sorted_eigs' order
        expect = lam[order]
        s = np.linalg.svd(data[:-1], compute_uv=False)
        rounding = np.finfo(float).eps * np.linalg.norm(m, 2) * s[0] / s[-1] * kappa[order]
        assert got.shape == expect.shape
        assert np.all(np.abs(got - expect) < np.maximum(1e-8, rounding))

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
        # a step index is a count, checked as every other count is
        with pytest.raises(ConfigError, match=">= 0"):
            reconstruct(result, -1)

    @staticmethod
    def growing():
        # eigenvalues 1.2 and 0.5
        data = np.array([[1.2 ** k, 0.5 ** k] for k in range(30)])
        return data, dmd_of_snapshots(SnapshotMatrix(data=data))

    def test_rejects_a_prediction_that_overflows(self):
        data, result = self.growing()
        assert np.allclose(reconstruct(result, 25), data[25], rtol=1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                reconstruct(result, 10_000)

    @pytest.mark.parametrize("k", [2.5, 1e-3, np.nan, np.inf])
    def test_rejects_a_fractional_step(self, k):
        _, result = self.growing()
        with pytest.raises(ConfigError, match="must be an integer"):
            reconstruct(result, k)

    @pytest.mark.parametrize("k", [3.0, np.float64(3.0), "3"])
    def test_rejects_a_step_of_another_type(self, k):
        # an integral float is not an integer, as for dominant_modes' k
        _, result = self.growing()
        with pytest.raises(ConfigError, match="must be an integer"):
            reconstruct(result, k)

    @pytest.mark.parametrize("k", [3, np.int64(3), np.int32(3)])
    def test_accepts_an_integral_step_of_any_type(self, k):
        _, result = self.growing()
        assert np.array_equal(reconstruct(result, k), reconstruct(result, 3))
