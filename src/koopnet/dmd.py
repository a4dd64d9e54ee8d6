"""Exact dynamic mode decomposition of snapshot data.

Fits the least-squares (Frobenius-optimal) linear operator mapping each
snapshot to its successor, then eigendecomposes it in a reduced basis of
the leading singular vectors of the data. The basis comes from the method
of snapshots with an SVD fallback below sigma_r/sigma_1 = 1e-3: eigh of
the smaller Gram matrix, or the SVD where that ratio would lose accuracy.
Rows constant across a window (sites no Bak-Sneppen avalanche reached
in it) are first folded, exactly, into one row, so the Gram matrix is
only as large as the varying rows. The resulting eigenvalues/modes/
amplitudes approximate the spectrum of the underlying evolution operator
acting on the identity observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError, DomainError
from .snapshots import SnapshotMatrix


@dataclass
class DmdResult:
    """Spectral decomposition of one data window.

    Modes (columns) have unit Euclidean norm; scale lives in the
    amplitudes. Entries are sorted by descending amplitude magnitude, so
    index 0 is the most dominant mode. `zero_flags[k]` marks a discrete
    eigenvalue numerically indistinguishable from 0, |lambda_k| <=
    sqrt(eps) * max(1, max|lambda|) (an infinitely fast decaying
    direction); its mode is the projected U_r w_k, its continuous
    eigenvalue is NaN and it is excluded from rate-based diagnostics.

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
        """|b_k| * ||v_k|| for every retained mode (descending)."""
        return np.abs(self.amplitudes) * np.linalg.norm(self.modes, axis=0)


def build_snapshot_pairs(snapshots: SnapshotMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Split a T x N record into the N x (T-1) matrices X (snapshots
    0..T-2 as columns) and Xp (snapshots 1..T-1), so each Xp column is
    the one-step image of the matching X column. Both are views of the
    record's data, not copies."""
    data = snapshots.data
    if data.shape[0] < 2:
        raise ConfigError("need at least 2 snapshots to form pairs")
    return data[:-1].T, data[1:].T


def _zero_tolerance(lambdas: np.ndarray) -> float:
    """|lambda| at or below which an eigenvalue counts as zero:
    sqrt(eps) * max(1, max|lambda|). Lifting a mode divides by lambda,
    so its relative error grows like eps * max|lambda| / |lambda|; below
    this bound that error would exceed sqrt(eps)."""
    scale = np.max(np.abs(lambdas)) if lambdas.size else 0.0
    return np.sqrt(np.finfo(float).eps) * max(1.0, scale)


def _check_rank(rank: int | None) -> None:
    if rank is not None and rank < 1:
        raise ConfigError(f"requested rank must be >= 1, got {rank}")


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
    varying = np.any(x != x[:, :1], axis=1)
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
    numerical rank at tolerance sigma_1 * size * eps.
    """
    n, m = x.shape
    want = min(n, m) if rank is None else min(rank, n, m)
    wide = n <= m
    # an overflowing Gram matrix (inf, or nan from inf - inf) goes to the SVD
    with np.errstate(over="ignore", invalid="ignore"):
        gram = x @ x.T if wide else x.T @ x
    if want and np.all(np.isfinite(gram)):
        lam, vecs = np.linalg.eigh(gram)
        lam, vecs = lam[::-1], vecs[:, ::-1]
        s = np.sqrt(np.maximum(lam, 0.0))
        if lam[want - 1] >= _GRAM_MIN_EIGENVALUE and s[want - 1] >= _GRAM_MIN_RATIO * s[0]:
            vecs, s_r = vecs[:, :want], s[:want]
            if wide:
                return vecs, s, (x.T @ vecs) / s_r
            return (x @ vecs) / s_r, s, vecs

    u, s, vh = np.linalg.svd(x, full_matrices=False)
    tol = s[0] * size * np.finfo(float).eps if s.size else 0.0
    r_num = int(np.count_nonzero(s > tol))
    if r_num == 0:
        raise DegenerateDataError("all singular values are below tolerance")
    r = r_num if rank is None else min(rank, r_num)
    return u[:, :r], s, vh[:r].conj().T


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
    snapshot in the least-squares sense. Output is sorted by descending
    |b_k|. Non-finite x or xp raise DomainError, and a window with no
    snapshot pairs raises DegenerateDataError.
    """
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    if x.shape != xp.shape:
        raise ConfigError(f"shape mismatch: {x.shape} vs {xp.shape}")
    if x.ndim != 2:
        raise ConfigError("snapshot pair matrices must be 2-D")
    _check_rank(rank)
    if not 0 < dt < np.inf:
        raise DomainError(f"dt must be finite and > 0, got {dt}")

    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xp))):
        raise DomainError("snapshot pair matrices must be finite")
    if x.shape[1] == 0:
        raise DegenerateDataError("no snapshot pairs in the window")

    u_r, s, v_r = _basis(x, rank)
    r = u_r.shape[1]
    b_mat = (xp @ v_r) / s[:r]                    # Xp V S^-1
    a_tilde = u_r.conj().T @ b_mat
    lambdas, w = np.linalg.eig(a_tilde)
    lambdas = lambdas.astype(complex)   # eig returns float when all real
    w = w.astype(complex)

    zero_flags = np.abs(lambdas) <= _zero_tolerance(lambdas)
    modes = b_mat @ (w / np.where(zero_flags, 1.0, lambdas))
    modes[:, zero_flags] = u_r @ w[:, zero_flags]
    norms = np.linalg.norm(modes, axis=0)
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
    expansion sum_j b_j lambda_j^k v_j)."""
    if k < 0:
        raise DomainError(f"step index must be >= 0, got {k}")
    weights = result.amplitudes * result.eigenvalues_discrete ** k
    return np.real(result.modes @ weights)
