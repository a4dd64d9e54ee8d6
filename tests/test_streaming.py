"""The pipeline's row-block stream: simulator blocks, streamed windows
and the memory the pipeline holds."""

import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopnet import BsParams, ConfigError, IfoParams, SnapshotMatrix, simulate_bs, simulate_ifo
from koopnet import bak_sneppen, ifo, snapshots
from koopnet.analysis import _stream_windows, split_timescales, windowed_dmd
from koopnet.cli import main
from koopnet.io import write_snapshots
from koopnet.snapshots import default_labels


def bs_record(n, steps, seed):
    return simulate_bs(BsParams(n=n, seed=seed), steps)[0]


def ifo_record(side, steps, seed):
    params = IfoParams(gamma=2.0, epsilon=0.145, rows=side, cols=side, seed=seed)
    return simulate_ifo(params, steps)[0]


def stream(data, block_rows, window_len, stride, rank, dt):
    """The windows of `data` cut into fresh blocks of `block_rows` rows,
    as a simulator yields them; checks every block is passed on as is."""
    blocks = [data[i:i + block_rows].copy() for i in range(0, data.shape[0], block_rows)]
    windows = []
    passed = list(_stream_windows(iter(blocks), windows.append, dt, window_len, stride, rank))
    assert len(passed) == len(blocks)
    assert all(a is b for a, b in zip(passed, blocks))
    return windows


def window_bytes(w):
    """Everything a window's analysis holds, and the statistics read
    from it, as bytes."""
    head = (w.window_index, w.start_step, w.end_step, w.note,
            np.float64(w.max_amplitude).tobytes())
    if w.degenerate:
        return head
    r = w.result
    return head + (r.rank, r.eigenvalues_discrete.tobytes(), r.eigenvalues_continuous.tobytes(),
                   r.modes.tobytes(), r.amplitudes.tobytes(), r.singular_values.tobytes(),
                   r.zero_flags.tobytes(), r.dt, split_timescales(r))


def assert_stream_matches_whole(snaps, window_len, stride, rank, block_rows):
    whole = windowed_dmd(snaps, window_len, stride=stride, rank=rank)
    streamed = stream(snaps.data, block_rows, window_len, stride, rank, snaps.dt)
    assert [window_bytes(w) for w in streamed] == [window_bytes(w) for w in whole]
    return whole


# a BS ring, most rows constant in a window (the fold path), an IFO
# lattice with every row varying, and a BS record whose windows are tall
RECORDS = {
    "bs-n20": lambda: bs_record(20, 400, 3),
    "ifo-4x4": lambda: ifo_record(4, 400, 5),
    "bs-n60": lambda: bs_record(60, 400, 9),
}
WINDOW_LEN = 40


class TestStreamedWindows:
    @pytest.mark.parametrize("record", sorted(RECORDS))
    @pytest.mark.parametrize("block_rows", [1, 7, 64, WINDOW_LEN - 1, WINDOW_LEN + 1])
    @pytest.mark.parametrize("stride", [13, WINDOW_LEN, 57], ids=["below", "equal", "above"])
    @pytest.mark.parametrize("rank", [16, None])
    def test_match_whole_record_bytes(self, record, block_rows, stride, rank):
        whole = assert_stream_matches_whole(RECORDS[record](), WINDOW_LEN, stride, rank,
                                            block_rows)
        assert len(whole) == (400 - WINDOW_LEN) // stride + 1

    @settings(max_examples=40, deadline=None)
    @given(model=st.sampled_from(["bs", "ifo"]), seed=st.integers(0, 50),
           steps=st.integers(20, 260), window_len=st.integers(2, 70),
           stride=st.none() | st.integers(1, 90), rank=st.sampled_from([16, None, 3]),
           block_rows=st.integers(1, 100))
    def test_match_whole_record_bytes_property(self, model, seed, steps, window_len, stride,
                                               rank, block_rows):
        snaps = bs_record(12, steps, seed) if model == "bs" else ifo_record(3, steps, seed)
        if steps < window_len:
            with pytest.raises(ConfigError, match="shorter than window_len"):
                windowed_dmd(snaps, window_len, stride=stride, rank=rank)
            assert stream(snaps.data, block_rows, window_len, stride, rank, snaps.dt) == []
            return
        assert_stream_matches_whole(snaps, window_len, stride, rank, block_rows)

    def test_degenerate_windows_match(self):
        # all-zero stretches give degenerate windows around live ones
        data = np.zeros((120, 3))
        data[40:70] = np.random.default_rng(2).normal(size=(30, 3))
        snaps = SnapshotMatrix(data=data)
        whole = assert_stream_matches_whole(snaps, 12, 5, None, 7)
        assert any(w.degenerate for w in whole) and not all(w.degenerate for w in whole)

    def test_short_record_raises(self):
        snaps = bs_record(10, 50, 0)
        with pytest.raises(ConfigError, match="record length 50 is shorter than window_len 51"):
            windowed_dmd(snaps, 51)


def counted(states, pulled):
    """`states`, adding 1 to pulled[0] for every state taken."""
    for state in states:
        pulled[0] += 1
        yield state


def simulated(model, simulate, params, steps):
    """simulate(params, steps), checking that it pulls `steps` states."""
    states, pulled = model._states, [0]
    with mock.patch.object(model, "_states", lambda *a: counted(states(*a), pulled)):
        out = simulate(params, steps)
    assert pulled == [steps]
    return out


def streamed(model, params, steps, block_rows, n_nodes):
    """The pipeline's blocks of `block_rows` rows and the events, checking
    that the stream pulls `steps` states."""
    events, pulled = [], [0]
    with mock.patch.object(snapshots, "_BLOCK_ROWS", block_rows):
        states = counted(model._states(params, events), pulled)
        blocks = list(snapshots._blocks(states, steps, n_nodes))
    assert pulled == [steps]
    assert [b.shape[0] for b in blocks[:-1]] == [block_rows] * (len(blocks) - 1)
    return blocks, events


class TestSimulatorBlocks:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(3, 12), steps=st.integers(2, 300), block_rows=st.integers(1, 80),
           seed=st.integers(0, 2**32))
    def test_bs_blocks_make_the_record(self, n, steps, block_rows, seed):
        params = BsParams(n=n, seed=seed)
        snaps, min_history = simulated(bak_sneppen, simulate_bs, params, steps)
        blocks, events = streamed(bak_sneppen, params, steps, block_rows, n)
        assert np.concatenate(blocks).tobytes() == snaps.data.tobytes()
        assert events == min_history

    @settings(max_examples=25, deadline=None)
    @given(side=st.integers(1, 5), steps=st.integers(2, 400), block_rows=st.integers(1, 80),
           seed=st.integers(0, 2**32), periodic=st.booleans())
    def test_ifo_blocks_make_the_record(self, side, steps, block_rows, seed, periodic):
        params = IfoParams(gamma=2.0, epsilon=0.145, rows=side, cols=side + 1, seed=seed,
                           boundary="periodic" if periodic else "open")
        snaps, records = simulated(ifo, simulate_ifo, params, steps)
        blocks, events = streamed(ifo, params, steps, block_rows, params.n_nodes)
        assert np.concatenate(blocks).tobytes() == snaps.data.tobytes()
        assert [(r.start_time, r.size, r.participants.tolist()) for r in events] == \
            [(r.start_time, r.size, r.participants.tolist()) for r in records]
        for r in records:
            assert r.participants.dtype == np.intp and r.participants.shape == (r.size,)
            assert np.all(np.diff(r.participants) > 0)

    def test_blocks_are_fresh_arrays(self):
        # the streamed windows keep earlier blocks: no block may reuse
        # another's memory, though each model yields one array throughout
        blocks = list(snapshots._blocks(bak_sneppen._states(BsParams(n=5), []), 200, 5))
        params = IfoParams(gamma=2.0, epsilon=0.145, rows=2, cols=2)
        blocks += list(snapshots._blocks(ifo._states(params, []), 200, 4))
        assert len(blocks) == 8
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(blocks) for b in blocks[i + 1:])


def bs_args(out: Path, steps: int, n: int = 100) -> list[str]:
    return ["--model", "bs", "--n", str(n), "--steps", str(steps), "--seed", "1",
            "--out", str(out)]


def pipeline_peak(out: Path, steps: int, *flags: str, n: int = 100) -> int:
    tracemalloc.start()
    try:
        assert main(["pipeline", *bs_args(out, steps, n), *flags]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pipeline_memory_does_not_grow_with_the_record(tmp_path):
    # 6000 more rows of 100 nodes are 4.8 MB; a pipeline that held the
    # record would grow by at least that
    grow = pipeline_peak(tmp_path / "long", 8000) - pipeline_peak(tmp_path / "short", 2000)
    assert grow < 0.5 * 6000 * 100 * 8


def analyze_peak(out: Path, steps: int, *flags: str, n: int = 100) -> int:
    assert main(["simulate", *bs_args(out, steps, n)]) == 0
    tracemalloc.start()
    try:
        assert main(["analyze", str(out / "snapshots.csv"), *flags]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analyze_memory_does_not_grow_with_the_record(tmp_path):
    # analyze reads snapshots.csv in blocks and windows them as they
    # come, so it holds no more of the record than the pipeline does
    grow = analyze_peak(tmp_path / "long", 8000) - analyze_peak(tmp_path / "short", 2000)
    assert grow < 0.5 * 6000 * 100 * 8


@pytest.mark.parametrize("peak", [pipeline_peak, analyze_peak], ids=["pipeline", "analyze"])
def test_each_window_keeps_less_than_eight_mode_columns(tmp_path, peak):
    # until the files are written, a window keeps its spectrum's inputs,
    # its amplitudes.csv and report.md rows, its warnings and the at most
    # 6 mode columns modes_w<k>.csv names; with its whole DmdResult it
    # kept 16 columns of 400 complex entries and sigma. The runs have 10
    # and 50 windows of rank 16; a first run takes the lazy imports
    n, flags = 400, ("--window", "50")
    peak(tmp_path / "first", 500, *flags, n=n)
    grow = peak(tmp_path / "long", 2500, *flags, n=n) - peak(tmp_path / "short", 500, *flags, n=n)
    assert grow < (50 - 10) * 8 * n * np.dtype(complex).itemsize


def test_snapshot_writer_streams_its_lines(tmp_path):
    # every cell changes from row to row, as on an IFO lattice. One
    # block's changed columns and values, as Python ints and floats, take
    # about 10 times its bytes of float64 at the peak. A writer that kept
    # them until the next block's were built took about 19 times; one
    # that also formatted the whole block, and joined its lines before
    # writing them, about 30
    rng = np.random.default_rng(0)
    blocks = [rng.random((snapshots._BLOCK_ROWS, 4096)) for _ in range(2)]
    tracemalloc.start()
    try:
        write_snapshots(tmp_path / "snapshots.csv", default_labels(4096), iter(blocks))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15 * blocks[0].nbytes
