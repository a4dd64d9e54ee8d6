"""Exact dynamic mode decomposition of snapshot data.

Fits the least-squares (Frobenius-optimal) linear operator mapping each
snapshot to its successor, then eigendecomposes it in a reduced basis of
the leading singular vectors of the data. The basis comes from the method
of snapshots with an SVD fallback below sigma_r/sigma_1 = 1e-3: eigh of
the smaller Gram matrix, or the SVD where that ratio would lose accuracy.
The SVD calls LAPACK's dgesdd itself (_svd), with jobz 'O': LAPACK
writes U over its copy of the window, so on a 4096 x 199 window that
copy is the only 6.2 MiB buffer, where np.linalg.svd holds three. sigma
and the small factor have np.linalg.svd's bits; where the long side is
at least 11/6 of the short one, the large factor may differ from its in
the last bit.
Rows constant across a window (sites no Bak-Sneppen avalanche reached
in it) are first folded, exactly, into one row, so the Gram matrix is
only as large as the varying rows. The resulting eigenvalues/modes/
amplitudes approximate the spectrum of the underlying evolution operator
acting on the identity observable.

Every decomposition runs on one OpenBLAS thread (_one_blas_thread).
The last bits of a Gram product or an eigh depend on how many threads
OpenBLAS splits it over, so the spectra, and the artifacts built from
them, would otherwise depend on OPENBLAS_NUM_THREADS. The pin sets the
count through ctypes on the scipy-openblas library that numpy's Linux
and Windows wheels bundle in numpy.libs. With any other BLAS (a macOS
wheel's, a system one) it logs one warning, leaves the count alone and
takes the SVD from np.linalg.svd. The count is process-wide, so dmd()
calls made at once from several Python threads run their pinned bodies
one at a time.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, DomainError, _check_int, _check_positive
from .snapshots import SnapshotMatrix, _all_finite


@dataclass
class DmdResult:
    """Spectral decomposition of one data window.

    Modes (columns) have unit Euclidean norm; scale lives in the
    amplitudes. The columns are in dominance order, the one ranking of
    modes that every consumer reads: descending |b_k|, ties in eig's
    order, as dmd() sorts them, so column 0 is the most dominant mode
    (with unit modes, also the order of |b_k| * ||v_k|| to within the
    last bit). `zero_flags[k]` marks a discrete eigenvalue numerically
    indistinguishable from 0, |lambda_k| <= sqrt(eps) * max(1,
    max|lambda|) (an infinitely fast decaying direction); its mode is
    the projected U_r w_k, its continuous eigenvalue is NaN and it is
    excluded from rate-based diagnostics.

    `singular_values` holds all min(N, T-1) singular values of X. The
    basis comes from the method of snapshots with an SVD fallback below
    sigma_r/sigma_1 = 1e-3; on the method-of-snapshots path the values
    past the retained rank are accurate only to about sqrt(eps) * sigma_1.
    When at least 2 rows of X are constant and fold into one (see
    _basis), those past min(k + 1, T-1) (k varying rows) are exact zeros.
    """

    rank: int
    eigenvalues_discrete: np.ndarray
    eigenvalues_continuous: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    singular_values: np.ndarray
    dt: float
    zero_flags: np.ndarray

    def amplitude_magnitudes(self) -> np.ndarray:
        """|b_k| * ||v_k|| for every retained mode, in column order."""
        return np.abs(self.amplitudes) * np.linalg.norm(self.modes, axis=0)


def build_snapshot_pairs(snapshots: SnapshotMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Split a T x N record into the N x (T-1) matrices X (snapshots
    0..T-2 as columns) and Xp (snapshots 1..T-1), so each Xp column is
    the one-step image of the matching X column. Both are views of the
    record's data, not copies; the record has at least 2 snapshots."""
    data = snapshots.data
    return data[:-1].T, data[1:].T


def _zero_tolerance(lambdas: np.ndarray) -> float:
    """|lambda| at or below which an eigenvalue counts as zero:
    sqrt(eps) * max(1, max|lambda|). Lifting a mode divides by lambda,
    so its relative error grows like eps * max|lambda| / |lambda|; below
    this bound that error would exceed sqrt(eps)."""
    scale = np.max(np.abs(lambdas)) if lambdas.size else 0.0
    return np.sqrt(np.finfo(float).eps) * max(1.0, scale)


# numpy's wheels for Linux and Windows bundle OpenBLAS (scipy-openblas)
# here, beside the numpy package
_BLAS_DIR = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")


@functools.cache
def _openblas():
    """The scipy-openblas library numpy has loaded, with its LAPACKE
    dgesdd typed, or None, with one logged warning, if _BLAS_DIR holds
    none."""
    try:
        names = os.listdir(_BLAS_DIR)
    except OSError:
        names = []
    for name in names:
        if name.startswith("libscipy_openblas"):
            # the path numpy loaded it from: CDLL returns that same copy
            lib = ctypes.CDLL(os.path.join(_BLAS_DIR, name))
            if all(hasattr(lib, f) for f in ("scipy_openblas_set_num_threads64_",
                                             "scipy_openblas_get_num_threads64_",
                                             "scipy_LAPACKE_dgesdd64_")):
                # layout, jobz, m, n, a, lda, s, u, ldu, vt, ldvt; ILP64 ints
                i, p = ctypes.c_int64, ctypes.c_void_p
                gesdd = lib.scipy_LAPACKE_dgesdd64_
                gesdd.restype = i
                gesdd.argtypes = [ctypes.c_int, ctypes.c_char, i, i, p, i, p, p, i, p, i]
                return lib
    # imported here, not at the top: importing logging leaves 0.18 MB
    # resident, and builds that have the pin never log
    import logging
    logging.getLogger(__name__).warning(
        "numpy's BLAS is not a bundled scipy-openblas; DMD runs with the BLAS "
        "thread count as it is, so its last bits may depend on it")
    return None


# held across a pinned body: a concurrent one's restore would end its pin
_PIN_LOCK = threading.Lock()


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, one body at a time, and
    restore the count after."""
    lib = _openblas()
    if lib is None:
        yield
        return
    with _PIN_LOCK:
        previous = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(1)
        try:
            yield
        finally:
            lib.scipy_openblas_set_num_threads64_(previous)


def _svd(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """np.linalg.svd(x, full_matrices=False) with no buffer of x's size
    but one: LAPACK's dgesdd (jobz 'O', workspace from the optimal-lwork
    query) overwrites an F-ordered copy of x with the larger factor, U
    when x is tall and V^T when it is wide, and writes the other, k x k,
    into a small array; all three are F-ordered. sigma and the k x k
    factor have numpy's (jobz 'S') bits; where max(m, n) >= 11k/6, 'O'
    forms the larger factor in blocks, so it may differ from numpy's in
    the last bit. Without a bundled scipy-openblas it is np.linalg.svd."""
    lib = _openblas()
    if lib is None:
        return np.linalg.svd(x, full_matrices=False)
    m, n = x.shape
    k = min(m, n)
    a = np.array(x, order="F")      # dgesdd overwrites its input
    s, small = np.empty(k), np.empty((k, k), order="F")
    # 102: LAPACK_COL_MAJOR; `small` goes as both u and vt, and LAPACK
    # writes the one of them that does not go over `a`
    info = lib.scipy_LAPACKE_dgesdd64_(102, b"O", m, n, a.ctypes.data, max(m, 1), s.ctypes.data,
                                       small.ctypes.data, max(k, 1), small.ctypes.data, max(k, 1))
    if info:
        raise np.linalg.LinAlgError(f"SVD failed: LAPACKE dgesdd returned info {info}")
    return (a, s, small) if m >= n else (small, s, a)


# The Gram matrix's eigenvalues give sigma_r^2 to a relative error of
# about eps * (sigma_1 / sigma_r)^2, 2e-10 at this ratio; below it the SVD
# gives the basis. At 1e-4 a 64x64 IFO window with sigma_16/sigma_1 =
# 8.7e-4 moved an eigenvalue by 1.35e-8.
_GRAM_MIN_RATIO = 1e-3
# Smallest Gram eigenvalue the basis may divide by: above it, entries
# that underflow in forming the Gram matrix are negligible.
_GRAM_MIN_EIGENVALUE = np.finfo(float).tiny / np.finfo(float).eps


def _basis(x: np.ndarray, rank: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U_r, every singular value, V_r) of x, truncated to the rank dmd() keeps.

    When at least 2 rows are constant across the window, their values c
    fold into one row first: x = Q Y exactly, with Y the varying rows
    followed by ||c|| times a row of ones and Q the orthonormal columns
    e_i (varying rows i) and c/||c||. Y has x's singular values and V,
    so the kernel runs on Y and U_r = Q U_Y (0 on the constant rows if
    c = 0); the singular values past Y's min(k+1, T-1) are exact zeros.
    The numerical-rank tolerance stays sigma_1 * max(N, T-1) * eps. With
    fewer than 2 constant rows, or a ||c|| that overflows or is
    subnormal, x goes to the kernel as it is.
    """
    n, m = x.shape
    varying = x.max(axis=1) != x.min(axis=1)     # 0.0 and -0.0 count as equal
    if n - np.count_nonzero(varying) < 2:
        return _kernel(x, rank, max(n, m))
    # ||c|| of c scaled by a power of 2, so that squares neither overflow
    # nor underflow; the scaling is exact, and on other data so is ||c||
    exponent = np.frexp(np.max(np.abs(x[~varying, 0])))[1]
    c = np.ldexp(x[~varying, :1], -exponent)
    norm_c = np.linalg.norm(c)
    row = np.ldexp(norm_c, exponent)
    if row == np.inf or 0.0 < row < np.finfo(float).tiny:
        return _kernel(x, rank, max(n, m))    # ||c|| has no full-precision float
    y = np.vstack((x[varying], np.full((1, m), row)))
    u_y, s_y, v_r = _kernel(y, rank, max(n, m))
    u_r = np.empty((n, u_y.shape[1]))
    u_r[varying] = u_y[:-1]
    u_r[~varying] = (c / norm_c if norm_c else c) * u_y[-1]
    s = np.zeros(min(n, m))
    s[:s_y.size] = s_y
    return u_r, s, v_r


def _kernel(x: np.ndarray, rank: int | None,
            size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U_r, every singular value, V_r) of x by the method of snapshots
    with an SVD fallback; `size` is max(N, T-1) of the window x stands for.

    Method of snapshots: eigh of the smaller Gram matrix, X X^T when x
    is wide (N <= T-1) and X^T X otherwise, gives sigma = sqrt(eigenvalue)
    and one factor; the other is X^T U_r / sigma_r or X V_r / sigma_r.
    That needs sigma_want / sigma_1 >= _GRAM_MIN_RATIO, want = min(rank,
    N, T-1); otherwise the SVD of x gives the basis, truncated to its
    numerical rank at tolerance sigma_1 * size * eps. The SVD is LAPACK's
    dgesdd, called by _svd itself: np.linalg.svd's sigma, and factors
    within one eps of its.
    """
    n, m = x.shape
    want = min(n, m) if rank is None else min(rank, n, m)
    if want and (basis := _gram_basis(x, want)):
        return basis
    u, s, vh = _svd(x)
    if s.size and s[0] == np.inf:
        raise DegenerateDataError("the largest singular value overflows")
    tol = s[0] * size * np.finfo(float).eps if s.size else 0.0
    r_num = int(np.count_nonzero(s > tol))
    if r_num == 0:
        raise DegenerateDataError("all singular values are below tolerance")
    r = r_num if rank is None else min(rank, r_num)
    # C-ordered factors, as np.linalg.svd's: BLAS products round
    # differently on F-ordered ones
    return np.ascontiguousarray(u[:, :r]), s, np.ascontiguousarray(vh[:r]).T


def _gram_basis(x: np.ndarray, want: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """_kernel's method-of-snapshots basis, or None where it would lose
    accuracy; a function of its own, so its arrays are freed before
    the SVD."""
    wide = x.shape[0] <= x.shape[1]
    # an overflowing Gram matrix (inf, or nan from inf - inf) goes to the SVD
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x @ x.T if wide else x.T @ x
    if not _all_finite(gram):
        return None
    lam, vecs = np.linalg.eigh(gram)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    s = np.sqrt(np.maximum(lam, 0.0))
    if lam[want - 1] < _GRAM_MIN_EIGENVALUE or s[want - 1] < _GRAM_MIN_RATIO * s[0]:
        return None
    vecs, s_r = vecs[:, :want], s[:want]
    other = x.T @ vecs if wide else x @ vecs
    other /= s_r
    return (vecs, s, other) if wide else (other, s, vecs)


def dmd(x: np.ndarray, xp: np.ndarray, rank: int | None = None, dt: float = 1.0) -> DmdResult:
    """Exact DMD of the snapshot pair (x, xp).

    Takes the leading singular vectors of x by the method of snapshots
    with an SVD fallback below sigma_r/sigma_1 = 1e-3 (see _basis), after
    folding the rows constant across the window into one: eigh of the
    smaller Gram matrix when the requested rank's sigma_r is at least
    1e-3 sigma_1, else the SVD truncated to min(requested rank, numerical
    rank at tolerance sigma_max * max(dims of x) * machine epsilon).
    Forms the reduced operator and lifts its eigenvectors to exact modes
    v_k = Xp V S^-1 w_k / lambda_k. Eigenvalues with |lambda_k| <=
    sqrt(eps) * max(1, max|lambda|) count as zero and get the projected
    mode U_r w_k instead: dividing by a lambda_k that is rounding noise
    would return a noise vector. Amplitudes solve modes @ b ~ first
    snapshot in the least-squares sense. The columns are sorted into
    DmdResult's dominance order. Non-finite x or xp raise DomainError.
    A window with no snapshot pairs raises DegenerateDataError, and so
    does finite data whose sigma_1, Xp V S^-1, reduced operator or
    lifted modes overflow.

    The decomposition runs on one OpenBLAS thread, so its bits do not
    depend on OPENBLAS_NUM_THREADS, and the previous count is restored
    afterwards, also when it raises. This holds on numpy's bundled
    scipy-openblas only (see the module docstring).
    """
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if x.shape != xp.shape:
        raise ConfigError(f"shape mismatch: {x.shape} vs {xp.shape}")
    if x.ndim != 2:
        raise ConfigError("snapshot pair matrices must be 2-D")
    if rank is not None:
        _check_int("requested rank", rank, 1)
    _check_positive("dt", dt, DomainError)

    if x.size and not (_all_finite(x) and _all_finite(xp)):
        raise DomainError("snapshot pair matrices must be finite")
    if x.shape[1] == 0:
        raise DegenerateDataError("no snapshot pairs in the window")

    with _one_blas_thread():
        u_r, s, v_r = _basis(x, rank)
        r = u_r.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            b_mat = xp @ v_r
            b_mat /= s[:r]                        # Xp V S^-1
            a_tilde = u_r.T @ b_mat
        # an overflow here would reach eig or lstsq as inf or NaN, and
        # LAPACK would fail on it; an inf in Xp V S^-1 makes the reduced
        # operator inf or NaN (0 * inf) or, past a zero row of U, the modes
        if not _all_finite(a_tilde):
            raise DegenerateDataError("X' V S^-1 or the reduced operator U^T X' V S^-1 "
                                      f"overflows (sigma_{r} = {s[r - 1]:.3g})")
        lambdas, w = np.linalg.eig(a_tilde)
        lambdas = lambdas.astype(complex)   # eig returns float when all real
        w = w.astype(complex)

        zero_flags = np.abs(lambdas) <= _zero_tolerance(lambdas)
        with np.errstate(over="ignore", invalid="ignore"):
            modes = b_mat @ (w / np.where(zero_flags, 1.0, lambdas))
            modes[:, zero_flags] = u_r @ w[:, zero_flags]
            norms = np.linalg.norm(modes, axis=0)
        big = ~np.isfinite(norms)
        if big.any():
            if not _all_finite(modes[:, big]):
                raise DegenerateDataError("a lifted mode X' V S^-1 w / lambda overflows")
            # finite entries whose sum of squares overflows: scale the
            # column by its largest |entry| first
            modes[:, big] /= np.abs(modes[:, big]).max(axis=0)
            norms[big] = np.linalg.norm(modes[:, big], axis=0)
        modes /= np.where(norms > 0, norms, 1.0)

        amplitudes, *_ = np.linalg.lstsq(modes, x[:, 0].astype(complex), rcond=None)

    order = np.argsort(-np.abs(amplitudes), kind="stable")
    lambdas = lambdas[order]
    modes = modes[:, order]
    amplitudes = amplitudes[order]
    zero_flags = zero_flags[order]

    return DmdResult(
        rank=r,
        eigenvalues_discrete=lambdas,
        eigenvalues_continuous=_log_map(lambdas, zero_flags, dt),
        modes=modes,
        amplitudes=amplitudes,
        singular_values=s,
        dt=dt,
        zero_flags=zero_flags,
    )


def dmd_of_snapshots(snapshots: SnapshotMatrix, rank: int | None = None) -> DmdResult:
    """Convenience wrapper: pair a snapshot record and decompose it."""
    x, xp = build_snapshot_pairs(snapshots)
    return dmd(x, xp, rank=rank, dt=snapshots.dt)


def _log_map(lambdas: np.ndarray, zero: np.ndarray, dt: float) -> np.ndarray:
    """mu = log(lambda)/dt on the principal branch, NaN + NaN j where `zero`."""
    mu = np.full(lambdas.shape, complex(np.nan, np.nan))
    mu[~zero] = np.log(lambdas[~zero]) / dt
    return mu


def reconstruct(result: DmdResult, k: int) -> np.ndarray:
    """DMD-predicted snapshot at step index k (real part of the mode
    expansion sum_j b_j lambda_j^k v_j). A k that is not an integer
    (numpy's too) >= 0 raises ConfigError; a lambda^k or prediction that
    is not finite, as for |lambda| > 1 at large k, raises DomainError."""
    _check_int("step index", k, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = result.eigenvalues_discrete ** int(k)
        prediction = np.real(result.modes @ (result.amplitudes * powers))
    if not (np.all(np.isfinite(powers)) and np.all(np.isfinite(prediction))):
        raise DomainError(f"the DMD prediction at step {k} is not finite")
    return prediction
