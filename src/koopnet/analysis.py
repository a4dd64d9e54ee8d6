"""Windowed spectral diagnostics over long snapshot records.

Cuts a record into fixed-length windows, decomposes each one, and
derives regime-shift indicators: dominant-mode amplitude tracking,
order-of-magnitude amplitude jumps across window boundaries, fast/slow
eigenvalue group separation, and spatial structure of dominant and
zero-frequency modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dmd import DmdResult, build_snapshot_pairs, dmd
from .errors import ConfigError, DegenerateDataError, InsufficientDataError, NotFoundError
from .snapshots import SnapshotMatrix


@dataclass
class WindowAnalysis:
    """Spectral summary of one window. A degenerate window (no usable
    signal) keeps its place in the batch with result=None and an
    explanatory note."""

    window_index: int
    start_step: int
    end_step: int
    result: DmdResult | None
    dominant_amplitudes: np.ndarray
    max_amplitude: float
    slow_group: list[int]
    fast_group: list[int]
    note: str = ""

    @property
    def degenerate(self) -> bool:
        return self.result is None


@dataclass
class TransitionReport:
    """The first window boundary whose max-amplitude jump reached the
    configured ratio, if any, and that ratio (0.0 when none did)."""

    transition_window: int | None
    jump_ratio: float


class ModeEntry(NamedTuple):
    eigenvalue: complex
    mode: np.ndarray
    amplitude: complex


@dataclass
class SpatialPattern:
    """Per-node magnitudes of one mode, plus contiguous runs of nodes
    whose magnitudes lie within 10% of each other."""

    entries: list[tuple[str, float]]
    groups: list[list[int]]


def _check_windows(window_len: int, stride: int | None) -> None:
    if window_len < 2:
        raise ConfigError(f"window_len must be >= 2, got {window_len}")
    if stride is not None and stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")


def _check_jump_threshold(jump_threshold: float) -> None:
    if not 1 < jump_threshold < np.inf:
        raise ConfigError(f"jump_threshold must be finite and > 1, got {jump_threshold}")


def windowed_dmd(snapshots: SnapshotMatrix, window_len: int,
                 stride: int | None = None, rank: int | None = None) -> list[WindowAnalysis]:
    """Decompose the record window by window.

    Windows start at multiples of `stride` (default: stride =
    window_len, i.e. non-overlapping) and cover [start, start +
    window_len). Each window is analyzed independently; a degenerate
    window is flagged and skipped rather than aborting the batch.
    """
    _check_windows(window_len, stride)
    stride = stride or window_len
    t = snapshots.n_snapshots
    if t < window_len:
        raise ConfigError(f"record length {t} is shorter than window_len {window_len}")

    x, xp = build_snapshot_pairs(snapshots)
    analyses = []
    for idx, start in enumerate(range(0, t - window_len + 1, stride)):
        end = start + window_len
        try:
            # window [start, end) pairs snapshots start..end-2 with their successors
            result = dmd(x[:, start:end - 1], xp[:, start:end - 1], rank=rank, dt=snapshots.dt)
        except DegenerateDataError as exc:
            analyses.append(WindowAnalysis(
                window_index=idx, start_step=start, end_step=end,
                result=None, dominant_amplitudes=np.array([]),
                max_amplitude=float("nan"), slow_group=[], fast_group=[],
                note=f"degenerate window: {exc}",
            ))
        else:
            amps = result.amplitude_magnitudes()
            slow, fast = split_timescales(result)
            analyses.append(WindowAnalysis(
                window_index=idx, start_step=start, end_step=end,
                result=result, dominant_amplitudes=amps,
                max_amplitude=float(amps[0]), slow_group=slow, fast_group=fast,
            ))
    return analyses


def dominant_modes(result: DmdResult, k: int) -> list[ModeEntry]:
    """Top-k modes by amplitude magnitude |b| * ||v||, descending. Ties
    break toward lower oscillation frequency, then lower index. k larger
    than the retained rank is clamped."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    k = min(k, result.rank)
    amps = result.amplitude_magnitudes()
    freqs = np.abs(np.imag(result.eigenvalues_continuous))
    freqs = np.where(np.isnan(freqs), np.inf, freqs)
    order = sorted(range(result.rank), key=lambda i: (-amps[i], freqs[i], i))
    return [
        ModeEntry(
            eigenvalue=complex(result.eigenvalues_discrete[i]),
            mode=result.modes[:, i],
            amplitude=complex(result.amplitudes[i]),
        )
        for i in order[:k]
    ]


def detect_transition(windows: list[WindowAnalysis],
                      jump_threshold: float = 1e2) -> TransitionReport:
    """Scan consecutive non-degenerate windows for the first boundary
    where the max mode amplitude jumps by at least `jump_threshold`.

    The default threshold of 100x is an order-of-magnitude detector:
    regime transitions in these models show up as multi-decade amplitude
    jumps, while within-regime fluctuation stays well below it.
    """
    _check_jump_threshold(jump_threshold)
    if len(windows) < 2:
        raise InsufficientDataError(f"need >= 2 windows, got {len(windows)}")
    prev = None
    for w in windows:
        if w.degenerate:
            continue
        if prev is not None and prev.max_amplitude > 0:
            ratio = w.max_amplitude / prev.max_amplitude
            if ratio >= jump_threshold:
                return TransitionReport(transition_window=w.window_index,
                                        jump_ratio=float(ratio))
        prev = w
    return TransitionReport(transition_window=None, jump_ratio=0.0)


def split_timescales(result: DmdResult) -> tuple[list[int], list[int]]:
    """Partition retained (non-zero-flagged) eigenvalues into slow and
    fast groups by decay rate |Re mu|, at the largest gap of the sorted
    rates (a two-cluster split, so no rate scale is assumed). If every
    gap is within 1e-12 relative, the rates coincide: all are slow."""
    if result.rank < 1:
        raise ConfigError("result has no retained eigenvalues")
    idx = [k for k in range(result.rank) if not result.zero_flags[k]]
    if len(idx) < 2:
        return idx, []
    rates = np.abs(np.real(result.eigenvalues_continuous[idx]))
    sorted_rates = np.sort(rates)
    gaps = np.diff(sorted_rates)
    g = int(np.argmax(gaps))
    if gaps[g] <= 1e-12 * max(1.0, sorted_rates[-1]):
        return idx, []
    split = 0.5 * (sorted_rates[g] + sorted_rates[g + 1])
    slow = [k for k, rate in zip(idx, rates) if rate < split]
    fast = [k for k, rate in zip(idx, rates) if rate >= split]
    return slow, fast


class ZeroFrequencyMode(NamedTuple):
    eigenvalue: complex
    mu: complex
    mode: np.ndarray
    amplitude: complex
    index: int


def zero_frequency_mode(result: DmdResult) -> ZeroFrequencyMode:
    """The governing zero-frequency mode: largest amplitude among modes
    whose continuous eigenvalue has |Im mu| below 1e-6 of the Nyquist
    frequency pi/dt, a bound that scales with the sampling interval.

    A discrete eigenvalue within 0.01 of 1 is the static background
    (the mean state, effectively unchanged over a window); it is only
    returned when no genuinely relaxing zero-frequency mode exists,
    since the spatial structure of interest (where activity happened)
    lives in the decaying directions.
    """
    amps = result.amplitude_magnitudes()
    candidates = [
        k for k in range(result.rank)
        if not result.zero_flags[k]
        and abs(np.imag(result.eigenvalues_continuous[k])) < 1e-6 * np.pi / result.dt
    ]
    if not candidates:
        raise NotFoundError("no eigenvalue within the zero-frequency tolerance")
    relaxing = [k for k in candidates
                if abs(result.eigenvalues_discrete[k] - 1.0) > 0.01]
    best = max(relaxing if relaxing else candidates, key=lambda k: amps[k])
    return ZeroFrequencyMode(
        eigenvalue=complex(result.eigenvalues_discrete[best]),
        mu=complex(result.eigenvalues_continuous[best]),
        mode=result.modes[:, best],
        amplitude=complex(result.amplitudes[best]),
        index=best,
    )


def spatial_pattern(mode: np.ndarray, labels: list[str] | None = None) -> SpatialPattern:
    """Per-node component magnitudes of a mode, in node order, plus
    contiguous node groups whose magnitudes stay within 10% of the group
    maximum. Groups of similar magnitude mark regions that participate
    coherently in the mode."""
    mode = np.asarray(mode)
    if mode.ndim != 1 or mode.shape[0] < 1:
        raise ConfigError("mode must be a non-empty 1-D vector")
    mags = np.abs(mode)
    if labels is None:
        labels = [f"n{i}" for i in range(mags.shape[0])]
    elif len(labels) != mags.shape[0]:
        raise ConfigError(f"{len(labels)} labels for {mags.shape[0]} components")

    groups: list[list[int]] = []
    cur = [0]
    lo = hi = mags[0]
    for i in range(1, mags.shape[0]):
        new_lo, new_hi = min(lo, mags[i]), max(hi, mags[i])
        if new_hi - new_lo <= 0.1 * new_hi:
            cur.append(i)
            lo, hi = new_lo, new_hi
        else:
            groups.append(cur)
            cur = [i]
            lo = hi = mags[i]
    groups.append(cur)
    return SpatialPattern(
        entries=[(labels[i], float(mags[i])) for i in range(mags.shape[0])],
        groups=groups,
    )
