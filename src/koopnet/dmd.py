"""Exact dynamic mode decomposition of snapshot data.

Fits the least-squares (Frobenius-optimal) linear operator mapping each
snapshot to its successor, then eigendecomposes it in the reduced SVD
basis. The resulting eigenvalues/modes/amplitudes approximate the
spectrum of the underlying evolution operator acting on the identity
observable.
"""

from __future__ import annotations

import warnings
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


def dmd(x: np.ndarray, xp: np.ndarray, rank: int | None = None, dt: float = 1.0) -> DmdResult:
    """Exact DMD of the snapshot pair (x, xp).

    Truncates the SVD of x to min(requested rank, numerical rank at
    tolerance sigma_max * max(dims) * machine epsilon), forms the
    reduced operator, and lifts its eigenvectors to exact modes
    v_k = Xp V S^-1 w_k / lambda_k. Eigenvalues with |lambda_k| <=
    sqrt(eps) * max(1, max|lambda|) count as zero and get the projected
    mode U_r w_k instead: dividing by a lambda_k that is rounding noise
    would return a noise vector. Amplitudes solve modes @ b ~ first
    snapshot in the least-squares sense. Output is sorted by descending
    |b_k|.
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

    u, s, vh = np.linalg.svd(x, full_matrices=False)
    tol = s[0] * max(x.shape) * np.finfo(float).eps if s.size else 0.0
    r_num = int(np.count_nonzero(s > tol))
    if r_num == 0:
        raise DegenerateDataError("all singular values are below tolerance")
    r = r_num if rank is None else min(rank, r_num)

    u_r = u[:, :r]
    s_r = s[:r]
    v_r = vh[:r].conj().T
    b_mat = (xp @ v_r) / s_r                      # Xp V S^-1
    a_tilde = u_r.conj().T @ b_mat
    lambdas, w = np.linalg.eig(a_tilde)
    lambdas = lambdas.astype(complex)   # eig returns float when all real
    w = w.astype(complex)

    zero_tol = _zero_tolerance(lambdas)
    zero_flags = np.abs(lambdas) <= zero_tol
    modes = np.empty((x.shape[0], r), dtype=complex)
    for k in range(r):
        if zero_flags[k]:
            modes[:, k] = u_r @ w[:, k]
        else:
            modes[:, k] = (b_mat @ w[:, k]) / lambdas[k]
        nrm = np.linalg.norm(modes[:, k])
        if nrm > 0:
            modes[:, k] /= nrm

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
    """mu = log(lambda)/dt on the principal branch, NaN where `zero`."""
    mu = np.full(lambdas.shape, np.nan, dtype=complex)
    mu[~zero] = np.log(lambdas[~zero]) / dt
    return mu


def continuous_spectrum(lambdas: np.ndarray, dt: float) -> np.ndarray:
    """Map discrete eigenvalues to continuous-time rates/frequencies,
    mu = log(lambda)/dt on the principal branch (Im mu in (-pi/dt,
    pi/dt]). Eigenvalues at 0 are infinitely fast decaying directions:
    they produce NaN with a warning rather than a finite rate."""
    lambdas = np.asarray(lambdas, dtype=complex)
    if not 0 < dt < np.inf:
        raise DomainError(f"dt must be finite and > 0, got {dt}")
    zero = np.abs(lambdas) <= _zero_tolerance(lambdas)
    if np.any(zero):
        warnings.warn(
            "zero eigenvalue(s) excluded from the continuous spectrum",
            RuntimeWarning,
            stacklevel=2,
        )
    return _log_map(lambdas, zero, dt)


def reconstruct(result: DmdResult, k: int) -> np.ndarray:
    """DMD-predicted snapshot at step index k (real part of the mode
    expansion sum_j b_j lambda_j^k v_j)."""
    if k < 0:
        raise DomainError(f"step index must be >= 0, got {k}")
    weights = result.amplitudes * result.eigenvalues_discrete ** k
    return np.real(result.modes @ weights)
