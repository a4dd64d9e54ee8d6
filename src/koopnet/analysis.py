"""Windowed spectral diagnostics over long snapshot records.

Cuts a record into fixed-length windows and decomposes each one; a
window keeps only its place, its DmdResult and its note. The regime-shift
indicators are read from each result where they are used: dominant-mode
amplitudes, order-of-magnitude amplitude jumps across window boundaries,
fast/slow eigenvalue groups, and the spatial structure of dominant and
zero-frequency modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dmd import DmdResult, dmd
from .dmd import build_snapshot_pairs  # noqa: F401  (bound by bench/spans.py)
from .errors import (ConfigError, DegenerateDataError, DomainError, InsufficientDataError,
                     NotFoundError, _check_int)
from .snapshots import SnapshotMatrix, default_labels


@dataclass
class WindowAnalysis:
    """One window's place in the record, its DmdResult, from which each
    statistic of the window is read, and its note. A degenerate window
    (no usable signal) keeps its place with result=None and a note."""

    window_index: int
    start_step: int
    end_step: int
    result: DmdResult | None
    note: str = ""

    @property
    def degenerate(self) -> bool:
        return self.result is None

    @property
    def max_amplitude(self) -> float:
        """Column 0's |b|·‖v‖, the largest (see DmdResult); NaN if degenerate."""
        return np.nan if self.result is None else float(self.result.amplitude_magnitudes()[0])


@dataclass
class TransitionReport:
    """The first window boundary whose max-amplitude jump reached the
    configured ratio, if any, and that ratio (0.0 when none did)."""

    transition_window: int | None
    jump_ratio: float


class ModeEntry(NamedTuple):
    """Column `index` of a DmdResult: its discrete and continuous (mu,
    NaN for a zero-flagged column) eigenvalues, its mode and amplitude."""

    eigenvalue: complex
    mode: np.ndarray
    amplitude: complex
    mu: complex
    index: int


@dataclass
class SpatialPattern:
    """Per-node magnitudes of one mode, plus contiguous runs of nodes
    whose magnitudes lie within 10% of each other."""

    entries: list[tuple[str, float]]
    groups: list[list[int]]


def _check_windows(window_len: int, stride: int | None) -> None:
    _check_int("window_len", window_len, 2)
    if stride is not None:
        _check_int("stride", stride, 1)


# detect_transition's default, and the CLI's: see its docstring
JUMP_THRESHOLD = 1e2


def _check_jump_threshold(jump_threshold: float) -> None:
    if not 1 < jump_threshold < np.inf:
        raise ConfigError(f"jump_threshold must be finite and > 1, got {jump_threshold}")


def _check_length(n_snapshots: int, window_len: int) -> None:
    if n_snapshots < window_len:
        raise ConfigError(f"record length {n_snapshots} is shorter than window_len {window_len}")


def _check_window_count(n_windows: int) -> None:
    if n_windows < 2:
        raise InsufficientDataError(f"need >= 2 windows, got {n_windows}")


def windowed_dmd(snapshots: SnapshotMatrix, window_len: int,
                 stride: int | None = None, rank: int | None = None) -> list[WindowAnalysis]:
    """Decompose the record window by window.

    Windows start at multiples of `stride` (default: stride =
    window_len, i.e. non-overlapping) and cover [start, start +
    window_len). Each window is analyzed independently; a degenerate
    window is flagged and skipped rather than aborting the batch.
    """
    _check_windows(window_len, stride)
    _check_length(snapshots.n_snapshots, window_len)
    windows: list[WindowAnalysis] = []
    # the record is one block, so every window is a view of it
    for _ in _stream_windows([snapshots.data], windows, snapshots.dt, window_len, stride, rank):
        pass
    return windows


def _stream_windows(blocks, windows: list[WindowAnalysis], dt: float, window_len: int,
                    stride: int | None, rank: int | None):
    """Pass on each row block of a record, in order, then append to
    `windows` the windowed_dmd analysis of each window its rows complete."""
    # A window inside one block is a view of it. Any other is copied into
    # one C-contiguous array, with the shape and strides of a view of the
    # whole record, so DMD gets the same bits. Only the blocks holding
    # rows of windows still to come are kept: (first row, block) pairs.
    stride = stride or window_len
    held: list[tuple[int, np.ndarray]] = []
    start = stop = 0
    for block in blocks:
        yield block
        first, stop = stop, stop + block.shape[0]
        held.append((first, block))
        while (end := start + window_len) <= stop:
            if start >= first:
                rows = block[start - first:end - first]
            else:
                rows = np.concatenate([b[max(start - f, 0):end - f] for f, b in held])
            result, note = None, ""
            try:
                # the window's rows pair snapshots start..end-2 with their successors
                result = dmd(rows[:-1].T, rows[1:].T, rank=rank, dt=dt)
            except DegenerateDataError as exc:
                note = f"degenerate window: {exc}"
            windows.append(WindowAnalysis(start // stride, start, end, result, note))
            start += stride
        held = [(f, b) for f, b in held if f + b.shape[0] > start]


def _entry(result: DmdResult, k: int) -> ModeEntry:
    return ModeEntry(eigenvalue=complex(result.eigenvalues_discrete[k]), mode=result.modes[:, k],
                     amplitude=complex(result.amplitudes[k]),
                     mu=complex(result.eigenvalues_continuous[k]), index=k)


def dominant_modes(result: DmdResult, k: int) -> list[ModeEntry]:
    """The first k modes in dominance order (see DmdResult): columns
    0..k-1. k larger than the retained rank is clamped."""
    _check_int("k", k, 1)
    return [_entry(result, i) for i in range(min(k, result.rank))]


def detect_transition(windows: list[WindowAnalysis],
                      jump_threshold: float = JUMP_THRESHOLD) -> TransitionReport:
    """Scan consecutive non-degenerate windows for the first boundary
    where the max mode amplitude jumps by at least `jump_threshold`.

    The default threshold of 100x is an order-of-magnitude detector:
    regime transitions in these models show up as multi-decade amplitude
    jumps, while within-regime fluctuation stays well below it.
    """
    _check_jump_threshold(jump_threshold)
    _check_window_count(len(windows))
    prev = 0.0  # the last non-degenerate window's max amplitude
    for w in windows:
        if w.degenerate:
            continue
        amp = w.max_amplitude
        if prev > 0 and (ratio := amp / prev) >= jump_threshold:
            return TransitionReport(transition_window=w.window_index, jump_ratio=float(ratio))
        prev = amp
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


def zero_frequency_mode(result: DmdResult) -> ModeEntry:
    """The governing zero-frequency mode: the first, in dominance order
    (see DmdResult), of the modes whose continuous eigenvalue has |Im mu|
    below 1e-6 of the Nyquist frequency pi/dt, a bound that scales with
    the sampling interval.

    A discrete eigenvalue within 0.01 of 1 is the static background
    (the mean state, effectively unchanged over a window); it is only
    returned when no genuinely relaxing zero-frequency mode exists,
    since the spatial structure of interest (where activity happened)
    lives in the decaying directions.
    """
    candidates = [
        k for k in range(result.rank)
        if not result.zero_flags[k]
        and abs(np.imag(result.eigenvalues_continuous[k])) < 1e-6 * np.pi / result.dt
    ]
    if not candidates:
        raise NotFoundError("no eigenvalue within the zero-frequency tolerance")
    return _entry(result, next((k for k in candidates
                                if abs(result.eigenvalues_discrete[k] - 1.0) > 0.01),
                               candidates[0]))


def spatial_pattern(mode: np.ndarray, labels: list[str] | None = None) -> SpatialPattern:
    """Per-node component magnitudes of a mode, in node order, plus
    contiguous node groups whose magnitudes stay within 10% of the group
    maximum. Groups of similar magnitude mark regions that participate
    coherently in the mode."""
    mode = np.asarray(mode)
    if mode.ndim != 1 or mode.shape[0] < 1:
        raise ConfigError("mode must be a non-empty 1-D vector")
    if not np.all(np.isfinite(mode)):
        raise DomainError("mode must be finite")
    # the loop runs on Python floats, where the same IEEE comparisons and
    # arithmetic cost a fraction of what they do on numpy scalars
    mags = np.abs(mode).astype(float, copy=False).tolist()
    if labels is None:
        labels = default_labels(len(mags))
    elif len(labels) != len(mags):
        raise ConfigError(f"{len(labels)} labels for {len(mags)} components")

    groups: list[list[int]] = []
    cur = [0]
    lo = hi = mags[0]
    for i in range(1, len(mags)):
        # min(lo, m) and max(hi, m), without the builtins' call overhead
        m = mags[i]
        new_lo = m if m < lo else lo
        new_hi = m if m > hi else hi
        if new_hi - new_lo <= 0.1 * new_hi:
            cur.append(i)
            lo, hi = new_lo, new_hi
        else:
            groups.append(cur)
            cur = [i]
            lo = hi = m
    groups.append(cur)
    return SpatialPattern(entries=list(zip(labels, mags)), groups=groups)
