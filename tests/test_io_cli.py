"""CSV artifact and command-line interface tests."""

import dataclasses
import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopnet import (
    AvalancheRecord,
    BsParams,
    DmdResult,
    IfoParams,
    KoopnetError,
    SnapshotMatrix,
)
from koopnet.analysis import (dominant_modes, split_timescales, windowed_dmd,
                              zero_frequency_mode)
from koopnet.cli import ENV_OUT, _mode_lines, _spectrum_rows, main
from koopnet.dmd import _log_map
from koopnet.io import (
    _BLOCK_ROWS,
    FileFormatError,
    read_meta,
    read_snapshots,
    write_csv,
    write_ifo_events,
    write_meta,
    write_snapshots,
)


def random_doubles(rng, shape):
    # cover many binades, including values whose decimal forms are long
    mant = rng.normal(size=shape)
    expo = rng.integers(-40, 40, size=shape)
    return np.ldexp(mant, expo)


def write_record(path, snapshots):
    """write_snapshots of a whole record, its one block."""
    write_snapshots(path, snapshots.node_labels(), [snapshots.data])


def read_record(path, dt=1.0):
    """read_snapshots of a whole record: its blocks joined into one matrix."""
    _, blocks = read_snapshots(path)
    return SnapshotMatrix(data=np.concatenate(list(blocks)), dt=dt)


SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def repr_oracle(data):
    """The snapshots.csv bytes of `data`: every cell formatted by repr."""
    header = ",".join(f"n{i}" for i in range(data.shape[1])) + "\n"
    return (header + "".join(",".join(repr(float(v)) for v in row) + "\n"
                             for row in data)).encode("utf-8")


# ±0.0, subnormals and small sets of values, so rows repeat cells
CELL_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                               1.0, 0.1]) | st.floats(allow_nan=False, allow_infinity=False)


class TestSnapshotsRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        snaps = SnapshotMatrix(data=random_doubles(rng, (40, 7)), dt=0.25)
        path = tmp_path / "snapshots.csv"
        write_record(path, snaps)
        back = read_record(path, dt=0.25)
        assert np.array_equal(back.data, snaps.data)
        assert back.dt == 0.25
        assert read_snapshots(path)[0] == snaps.node_labels()

    def test_header_labels_read(self, tmp_path):
        path = tmp_path / "snapshots.csv"
        path.write_text("left,right\n1.0,2.0\n3.0,4.0\n")
        assert read_snapshots(path)[0] == ["left", "right"]

    def test_rows_arrive_in_blocks(self, tmp_path):
        # the rows are parsed _BLOCK_ROWS at a time, the last block short
        data = np.arange(2.0 * (2 * _BLOCK_ROWS + 5)).reshape(-1, 2)
        path = tmp_path / "snapshots.csv"
        write_record(path, SnapshotMatrix(data=data))
        blocks = list(read_snapshots(path)[1])
        assert [b.shape for b in blocks] == [(_BLOCK_ROWS, 2)] * 2 + [(5, 2)]
        assert np.array_equal(np.concatenate(blocks), data)

    def test_comment_lines_ignored(self, tmp_path):
        path = tmp_path / "snapshots.csv"
        path.write_text("# produced by hand\nn0,n1\n1.0,2.0\n# mid comment\n3.0,4.0\n")
        back = read_record(path)
        assert np.array_equal(back.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "snapshots.csv"
        path.write_text("n0,n1\n1.0,2.0\n3.0\n")
        with pytest.raises(FileFormatError, match=":3:"):
            read_record(path)
        path.write_text("n0\n1.0\npotato\n")
        with pytest.raises(FileFormatError, match=":3:"):
            read_record(path)
        path.write_text("")
        with pytest.raises(FileFormatError, match="no data"):
            read_record(path)

    def test_edge_values_match_repr_oracle(self, tmp_path):
        row = [5e-324, 2.2250738585072014e-308 / 3, -0.0, 0.0, 1e16, 1e-5, 1.0,
               -3.0, 1e22, 0.1, 123456789012345.6]
        data = np.array([row, row[::-1]])
        path = tmp_path / "snapshots.csv"
        write_record(path, SnapshotMatrix(data=data))
        expect = ",".join(f"n{i}" for i in range(len(row))) + "\n" + "".join(
            ",".join(repr(float(v)) for v in r) + "\n" for r in data)
        assert path.read_bytes() == expect.encode("utf-8")
        back = read_record(path).data
        assert np.array_equal(back, data)
        assert np.signbit(back[0, 2])

    @pytest.mark.parametrize("data", [
        # one column 0.0 -> -0.0 -> 0.0 -> 0.0: equal values, different bits
        [[0.0, 1.0], [-0.0, 2.0], [0.0, 3.0], [0.0, 4.0]],
        # a column that never changes
        [[0.1, 1.0], [0.1, 2.0], [0.1, 3.0], [0.1, 4.0]],
        # a row identical to the row before it
        [[1.0, -0.0, 5e-324], [2.0, 0.0, 5e-324], [2.0, 0.0, 5e-324], [3.0, 0.0, -5e-324]],
        # every cell changes on every row, as in an IFO record
        np.arange(24.0).reshape(6, 4) / 7 - 1,
    ], ids=["signed-zero", "constant-column", "repeated-row", "all-change"])
    def test_changed_cells_match_repr_oracle(self, tmp_path, data):
        data = np.array(data)
        path = tmp_path / "snapshots.csv"
        write_record(path, SnapshotMatrix(data=data))
        assert path.read_bytes() == repr_oracle(data)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_changed_cells_match_repr_oracle_property(self, data):
        # each row after the first redraws a random subset of the cells
        n = data.draw(st.integers(1, 6))
        rows = [data.draw(st.lists(CELL_VALUES, min_size=n, max_size=n))]
        for _ in range(data.draw(st.integers(1, 7))):
            redraw = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            rows.append([data.draw(CELL_VALUES) if r else v for r, v in zip(redraw, rows[-1])])
        record = np.array(rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "snapshots.csv"
            write_record(path, SnapshotMatrix(data=record))
            assert path.read_bytes() == repr_oracle(record)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_changed_cells_across_stream_blocks_match_repr_oracle_property(self, data):
        # the record arrives in blocks of any sizes, as a simulator yields
        # them; a cell's bits are compared with the row before across edges
        n = data.draw(st.integers(1, 4))
        rows = [data.draw(st.lists(CELL_VALUES, min_size=n, max_size=n))]
        for _ in range(data.draw(st.integers(1, 80))):
            redraw = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            rows.append([data.draw(CELL_VALUES) if r else v for r, v in zip(redraw, rows[-1])])
        record = np.array(rows)
        edges = sorted(data.draw(st.sets(st.integers(1, len(rows) - 1), max_size=8)))
        blocks = [b.copy() for b in np.split(record, edges)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "snapshots.csv"
            write_snapshots(path, [f"n{i}" for i in range(n)], iter(blocks))
            assert path.read_bytes() == repr_oracle(record)

    def test_changed_cells_across_blocks_match_repr_oracle(self, tmp_path):
        # more rows than two formatting blocks; column 0 changes only in
        # its bits (0.0 -> -0.0), exactly at the first row of block 2
        rng = np.random.default_rng(5)
        n_rows = 2 * _BLOCK_ROWS + 100
        data = np.repeat(rng.normal(size=(1, 4)), n_rows, axis=0)
        redraw = rng.random(data.shape) < 0.01
        data[redraw] = rng.normal(size=redraw.sum())
        data[:, 0] = 0.0
        data[_BLOCK_ROWS:, 0] = -0.0
        path = tmp_path / "snapshots.csv"
        write_record(path, SnapshotMatrix(data=data))
        assert path.read_bytes() == repr_oracle(data)

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "snapshots.csv"
        write_record(path, SnapshotMatrix(data=np.ones((3, 2))))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").splitlines()[0] == "n0,n1"


class TestMetaAndEvents:
    def test_meta_round_trip(self, tmp_path):
        path = tmp_path / "meta.csv"
        write_meta(path, {"model": "ifo", "dt": 0.01, "steps": 2500})
        meta = read_meta(path)
        assert meta["model"] == "ifo"
        assert float(meta["dt"]) == 0.01
        assert int(meta["steps"]) == 2500

    def test_meta_leading_comment_is_not_a_row(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("# written by hand\nkey,value\nmodel,bs\n\n# note\ndt,1.0\n")
        assert read_meta(path) == {"model": "bs", "dt": "1.0"}

    def test_ifo_events_format(self, tmp_path):
        path = tmp_path / "events.csv"
        records = [AvalancheRecord(start_time=1.5, size=3, participants=np.array([1, 2, 4]))]
        write_ifo_events(path, records)
        lines = path.read_text().splitlines()
        assert lines[0] == "start_time,size,participants"
        assert lines[1] == "1.5,3,1;2;4"


class TestWriteCsv:
    @pytest.mark.parametrize("value", [-0.0, float("nan"), float("inf"), float("-inf"),
                                       5e-324, 1e16, 1e-5, 0.1, 123456789012345.6])
    def test_float_cells_written_as_repr(self, tmp_path, value):
        path = tmp_path / "out.csv"
        write_csv(path, ["x"], [(value,)])
        assert path.read_text().splitlines() == ["x", repr(value)]

    def test_string_and_int_cells(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b", "c"], [("1e16", -7, ""), ("nan", 0, "x;y")])
        assert path.read_text() == "a,b,c\n1e16,-7,\nnan,0,x;y\n"

    def test_blocks_of_lines_and_cells_match_per_row_oracle(self, tmp_path):
        # more rows than two write blocks; every third row is a ready line
        rng = np.random.default_rng(3)
        cells = [(f"r{k}", k, *random_doubles(rng, 2).tolist())
                 for k in range(2 * _BLOCK_ROWS + 1)]
        lines = [",".join(map(str, row)) for row in cells]
        path = tmp_path / "out.csv"
        write_csv(path, ["name", "k", "x", "y"],
                  [line if k % 3 == 0 else row for k, (line, row) in enumerate(zip(lines, cells))])
        assert path.read_bytes() == "".join(
            line + "\n" for line in ["name,k,x,y", *lines]).encode("utf-8")

    def test_no_rows_writes_the_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [])
        assert path.read_bytes() == b"a,b\n"

    def test_generator_is_consumed_once(self, tmp_path):
        pulled = []

        def rows():
            for k in range(_BLOCK_ROWS + 3):
                pulled.append(k)
                yield (k,)

        path = tmp_path / "out.csv"
        write_csv(path, ["k"], rows())
        assert pulled == list(range(_BLOCK_ROWS + 3))
        assert path.read_text().splitlines() == ["k", *map(str, pulled)]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        # rows that raise after more than one write block: the existing
        # artifact keeps its bytes and no temp file is left behind
        path = tmp_path / "out.csv"
        write_csv(path, ["k"], [(1,), (2,)])
        before = path.read_bytes()

        def rows():
            yield from ((k,) for k in range(2 * _BLOCK_ROWS + 5))
            raise RuntimeError("simulated failure")

        with pytest.raises(RuntimeError, match="simulated failure"):
            write_csv(path, ["k"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def cell(value):
    """A numeric cell formatted one numpy scalar at a time, as the
    artifacts were before rows were built from .tolist()."""
    return repr(float(value))


def spectrum_oracle(window):
    result = window.result
    amps = result.amplitude_magnitudes()
    slow, _ = split_timescales(result)
    norms = np.linalg.norm(result.modes, axis=0)
    lines = []
    for k in range(result.rank):
        lam, mu = result.eigenvalues_discrete[k], result.eigenvalues_continuous[k]
        if result.zero_flags[k]:
            mu_cells, group = ["nan", "nan"], "excluded"
        else:
            mu_cells = [cell(np.real(mu)), cell(np.imag(mu))]
            group = "slow" if k in slow else "fast"
        lines.append(",".join([cell(np.real(lam)), cell(np.imag(lam)), *mu_cells,
                               cell(amps[k]), cell(norms[k]), group]))
    return lines


def mode_oracle(name, labels, mode):
    return [",".join([name, node, cell(np.real(v)), cell(np.imag(v)), cell(abs(v))])
            for node, v in zip(labels, mode)]


class TestAnalysisCells:
    # `shared`: whether a window's zero-frequency mode is one of its five
    # dominant modes, over the windows; the files format such a column once
    @pytest.mark.parametrize("model_args, shared", [
        # windows 0-2 list it apart, windows 3-5 among the dominant five
        (["--model", "bs", "--n", "12", "--steps", "600", "--seed", "1"], {False, True}),
        # window 1 of this run has a zero-flagged (excluded) mode
        (["--model", "ifo", "--rows", "6", "--cols", "6", "--steps", "600", "--seed", "3"],
         {True}),
    ], ids=["bs", "ifo"])
    def test_mode_and_spectrum_cells_match_per_element_oracle(self, tmp_path, model_args,
                                                              shared):
        assert main(["pipeline", *model_args, "--window", "100", "--out", str(tmp_path)]) == 0
        snaps = read_record(tmp_path / "snapshots.csv",
                            dt=float(read_meta(tmp_path / "meta.csv")["dt"]))
        labels = snaps.node_labels()
        windows = windowed_dmd(snaps, window_len=100, rank=16)
        assert windows and not any(w.degenerate for w in windows)
        seen = set()
        for w in windows:
            spectrum = (tmp_path / f"spectrum_w{w.window_index}.csv").read_text().splitlines()
            assert spectrum[1:] == spectrum_oracle(w)
            expect = []
            dominant = dominant_modes(w.result, 5)
            for i, entry in enumerate(dominant, start=1):
                expect += mode_oracle(f"dominant_{i}", labels, entry.mode)
            try:
                zf = zero_frequency_mode(w.result)
            except KoopnetError:
                pass
            else:
                expect += mode_oracle("zero_frequency", labels, zf.mode)
                seen.add(any(np.shares_memory(e.mode, zf.mode) for e in dominant))
            modes = (tmp_path / f"modes_w{w.window_index}.csv").read_text().splitlines()
            assert modes[1:] == expect
        assert seen == shared

    def test_excluded_mode_has_nan_rates(self):
        # dmd's own map gives a zero-flagged eigenvalue NaN + NaN j; the
        # file says nan for both parts
        lambdas, zero = np.array([0.5 + 0.25j, 1e-12 + 0j]), np.array([False, True])
        result = DmdResult(rank=2, eigenvalues_discrete=lambdas,
                           eigenvalues_continuous=_log_map(lambdas, zero, 1.0),
                           modes=np.eye(2, dtype=complex), amplitudes=np.array([2.0, 1.0 + 0j]),
                           singular_values=np.array([1.0, 0.5]), dt=1.0, zero_flags=zero)
        rows = list(_spectrum_rows(result, result.amplitude_magnitudes(), [0], []))
        assert rows[0][2:4] == (np.log(0.5 + 0.25j).real, np.log(0.5 + 0.25j).imag)
        assert rows[0][6] == "slow"
        assert [repr(v) for v in rows[1][2:4]] == ["nan", "nan"]
        assert rows[1][6] == "excluded"

    def test_equal_columns_keep_their_own_text(self):
        # -0.0 == 0.0, so matching columns by value would write the
        # second column with the first one's "0.0"; a column named twice
        # is written the same both times
        zero, negative = np.array([0j, 0.5 + 0.25j]), np.array([complex(-0.0, 0.0), 0.5 + 0.25j])
        assert np.array_equal(zero, negative)
        modes = np.column_stack([zero, negative])
        named = [("dominant_1", 0), ("dominant_2", 1), ("zero_frequency", 0)]
        assert list(_mode_lines(["n0", "n1"], modes, named)) == [
            line for name, j in named for line in mode_oracle(name, ["n0", "n1"], modes[:, j])]

    def test_abs_is_the_scalar_hypot(self, tmp_path):
        # np.abs over a complex array rounds this value's last digit
        # differently from the scalar abs the files have always used
        v = 0.09107391910860078 + 0.011357673222502935j
        assert repr(abs(v)) == "0.091779384846648"
        assert repr(float(np.abs(np.array([v]))[0])) == "0.09177938484664798"
        path = tmp_path / "modes.csv"
        write_csv(path, ["mode", "node", "re_v", "im_v", "abs_v"],
                  _mode_lines(["n0"], np.array([[v]]), [("dominant_1", 0)]))
        assert path.read_text().splitlines()[1] == (
            "dominant_1,n0,0.09107391910860078,0.011357673222502935,0.091779384846648")


def read_dir_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestCli:
    def test_simulate_ifo_artifacts(self, tmp_path):
        out = tmp_path / "run"
        status = main(["simulate", "--model", "ifo", "--steps", "60", "--seed", "1",
                       "--rows", "3", "--cols", "3", "--out", str(out)])
        assert status == 0
        snaps = read_record(out / "snapshots.csv", dt=0.01)
        assert snaps.data.shape == (60, 9)
        meta = read_meta(out / "meta.csv")
        assert meta["model"] == "ifo" and meta["seed"] == "1"
        assert (out / "events.csv").exists()

    def test_defaults(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--model", "ifo", "--steps", "60", "--out", str(out)]) == 0
        meta = read_meta(out / "meta.csv")
        expect = {"rows": "8", "cols": "8", "epsilon": "0.145", "gamma": "2.0", "dt": "0.01",
                  "boundary": "open", "seed": "0"}
        assert {k: meta[k] for k in expect} == expect
        # analyze: window 200 (450 rows give 2 windows), rank 16 of 20
        # nodes, jump threshold 100
        path = tmp_path / "snapshots.csv"
        rng = np.random.default_rng(0)
        write_record(path, SnapshotMatrix(data=rng.normal(size=(450, 20))))
        assert main(["analyze", str(path)]) == 0
        assert len((tmp_path / "amplitudes.csv").read_text().splitlines()) == 1 + 2
        assert len((tmp_path / "spectrum_w0.csv").read_text().splitlines()) == 1 + 16
        assert "threshold x100)" in (tmp_path / "report.md").read_text()
        # bs: ring of 100, seed 0
        out = tmp_path / "bs"
        assert main(["simulate", "--model", "bs", "--steps", "60", "--out", str(out)]) == 0
        meta = read_meta(out / "meta.csv")
        assert (meta["n"], meta["seed"]) == ("100", "0")

    @pytest.mark.parametrize("params, flags", [
        (IfoParams, ["--model", "ifo", "--rows", "4", "--cols", "5", "--gamma", "3",
                     "--epsilon", "0.1", "--dt", "0.02", "--boundary", "periodic",
                     "--seed", "3"]),
        (BsParams, ["--model", "bs", "--n", "20", "--seed", "4"]),
    ], ids=["ifo", "bs"])
    def test_meta_is_enough_to_rerun(self, tmp_path, params, flags):
        # every parameter differs from its default, so a field missing
        # from meta.csv falls back to the default on the re-run
        first, again = tmp_path / "first", tmp_path / "again"
        analysis = ["--window", "100"]
        assert main(["pipeline", *flags, "--steps", "300", *analysis,
                     "--out", str(first)]) == 0
        meta = read_meta(first / "meta.csv")
        fields = [f.name for f in dataclasses.fields(params)]
        assert list(meta) == list(dict.fromkeys(["model", *fields, "dt", "steps"]))
        rerun = [cell for key, value in meta.items() for cell in (f"--{key}", value)]
        assert main(["pipeline", *rerun, *analysis, "--out", str(again)]) == 0
        for name in ("snapshots.csv", "events.csv", "meta.csv"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    def test_simulate_bs_artifacts(self, tmp_path):
        out = tmp_path / "run"
        status = main(["simulate", "--model", "bs", "--steps", "50", "--n", "12",
                       "--out", str(out)])
        assert status == 0
        snaps = read_record(out / "snapshots.csv")
        assert snaps.data.shape == (50, 12)
        lines = (out / "events.csv").read_text().splitlines()
        assert lines[0] == "iteration,min_index"
        assert len(lines) == 51

    def test_analyze_constant_input(self, tmp_path):
        path = tmp_path / "snapshots.csv"
        write_record(path, SnapshotMatrix(data=np.full((80, 4), 2.0)))
        status = main(["analyze", str(path), "--window", "40"])
        assert status == 0
        spectrum = (tmp_path / "spectrum_w0.csv").read_text().splitlines()
        assert spectrum[0].startswith("re_lambda,")
        assert len(spectrum) == 2  # rank-1 window: the mu = 0 mode only
        assert spectrum[1].endswith(",slow")
        amp_lines = (tmp_path / "amplitudes.csv").read_text().splitlines()
        assert len(amp_lines) == 3
        transition = (tmp_path / "transition.csv").read_text().splitlines()
        assert transition == ["window,ratio,threshold"]
        assert (tmp_path / "report.md").exists()
        assert (tmp_path / "modes_w0.csv").exists()

    def test_analyze_degenerate_window_warns_but_exits_zero(self, tmp_path):
        rng = np.random.default_rng(2)
        data = np.vstack([np.zeros((30, 3)), rng.normal(size=(30, 3))])
        path = tmp_path / "snapshots.csv"
        write_record(path, SnapshotMatrix(data=data))
        status = main(["analyze", str(path), "--window", "30", "--rank", "0"])
        assert status == 0
        report = (tmp_path / "report.md").read_text().splitlines()
        assert "| 0 | 0-30 | - | degenerate | - | - |" in report
        assert report[report.index("## Warnings") + 1] == (
            "- window 0: degenerate window: all singular values are below tolerance")
        # the degenerate window keeps its place in every artifact: a NaN
        # amplitude row with a blank top 5, a header-only spectrum and no modes
        amp_lines = (tmp_path / "amplitudes.csv").read_text().splitlines()
        assert amp_lines[1] == "0,nan,,,,,"
        assert amp_lines[2].startswith("1,")
        assert (tmp_path / "spectrum_w0.csv").read_text() == (
            "re_lambda,im_lambda,re_mu,im_mu,amplitude,mode_norm,group\n")
        assert not (tmp_path / "modes_w0.csv").exists()
        assert (tmp_path / "modes_w1.csv").exists()

    def test_analyze_writes_header_labels_in_mode_files(self, tmp_path):
        # the labels reach the node column of modes_w*.csv and nothing
        # else: the report's groups are node index ranges
        rng = np.random.default_rng(4)
        data = rng.normal(size=(120, 4)).cumsum(axis=0)
        labels = ["left", "mid", "right", "far"]
        named, plain = tmp_path / "named", tmp_path / "plain"
        for out, header in [(named, labels), (plain, ["n0", "n1", "n2", "n3"])]:
            out.mkdir()
            write_snapshots(out / "snapshots.csv", header, [data])
            assert main(["analyze", str(out / "snapshots.csv"), "--window", "60"]) == 0
        named_files, plain_files = read_dir_bytes(named), read_dir_bytes(plain)
        assert sorted(named_files) == sorted(plain_files)
        assert "modes_w1.csv" in named_files and b",far," in named_files["modes_w1.csv"]
        for name, raw in plain_files.items():
            if name.startswith("modes_w"):
                for i, label in enumerate(labels):
                    raw = raw.replace(f",n{i},".encode(), f",{label},".encode())
            if name != "snapshots.csv":
                assert named_files[name] == raw, name

    @pytest.mark.parametrize("cell, message", [
        ("nan", "non-finite value"), ("inf", "non-finite value"), ("-inf", "non-finite value"),
        ("potato", "could not convert"), ("1.0,2.0", "expected 2 fields, got 3"),
    ])
    def test_analyze_rejects_bad_row_after_the_last_window(self, tmp_path, capsys,
                                                           cell, message):
        # 150 rows give windows 0-60 and 60-120; the bad row, 130, lies in
        # the third read block and in no window, and is still read
        rng = np.random.default_rng(6)
        lines = ["n0,n1", *(f"{a!r},{b!r}" for a, b in rng.normal(size=(150, 2)).tolist())]
        lines[1 + 130] = f"{cell},0.5"
        path = tmp_path / "snapshots.csv"
        path.write_text("\n".join(lines) + "\n")
        status = main(["analyze", str(path), "--window", "60"])
        assert status == 1
        assert f"koopnet: error: {path}:132: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report.md").exists()

    def test_analyze_rejects_header_only_file(self, tmp_path, capsys):
        path = tmp_path / "snapshots.csv"
        path.write_text("n0,n1\n")
        status = main(["analyze", str(path), "--window", "60"])
        assert status == 1
        assert f"koopnet: error: {path}: no data rows" in capsys.readouterr().err
        assert not (tmp_path / "report.md").exists()

    def test_analyze_reads_dt_from_meta(self, tmp_path):
        main(["simulate", "--model", "ifo", "--steps", "80", "--rows", "2",
              "--cols", "2", "--epsilon", "0.2", "--out", str(tmp_path)])
        status = main(["analyze", str(tmp_path / "snapshots.csv"), "--window", "40"])
        assert status == 0
        spectrum = (tmp_path / "spectrum_w0.csv").read_text().splitlines()
        # continuous eigenvalues scaled by dt = 0.01 from meta.csv: drift
        # direction sits at mu ~ 0 regardless, so just check parseability
        assert len(spectrum) >= 2

    def test_pipeline_bs(self, tmp_path):
        out = tmp_path / "run"
        status = main(["pipeline", "--model", "bs", "--steps", "450", "--n", "20",
                       "--seed", "3", "--window", "150", "--out", str(out)])
        assert status == 0
        amp_lines = (out / "amplitudes.csv").read_text().splitlines()
        assert len(amp_lines) == 4  # header + 3 windows
        for i in range(3):
            assert (out / f"spectrum_w{i}.csv").exists()
            assert (out / f"modes_w{i}.csv").exists()

    def test_pipeline_byte_determinism(self, tmp_path):
        args = ["pipeline", "--model", "ifo", "--steps", "400", "--seed", "5",
                "--rows", "4", "--cols", "4", "--window", "100"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read_dir_bytes(a) == read_dir_bytes(b)

    @pytest.mark.parametrize("model_args, analysis_args, n_windows", [
        pytest.param(["--model", "bs", "--n", "15", "--steps", "300", "--seed", "2"],
                     ["--window", "100", "--rank", "8"], 3, id="model_args0"),
        pytest.param(["--model", "ifo", "--rows", "3", "--cols", "4", "--steps", "300",
                      "--seed", "4"], ["--window", "100", "--rank", "8"], 3, id="model_args1"),
        # the digest's ragged run: analyze's 64-row read blocks straddle
        # its windows and strides at many offsets
        pytest.param(["--model", "bs", "--n", "60", "--steps", "1337", "--seed", "9"],
                     ["--window", "97", "--stride", "37"], 34, id="bs-ragged"),
        # --rank 0 and --jump-threshold reach both parsers' analysis
        pytest.param(["--model", "bs", "--n", "60", "--steps", "1337", "--seed", "9"],
                     ["--window", "97", "--stride", "37", "--rank", "0",
                      "--jump-threshold", "10"], 34, id="bs-ragged-rank0"),
    ])
    def test_pipeline_matches_simulate_then_analyze(self, tmp_path, model_args, analysis_args,
                                                    n_windows):
        piped, staged = tmp_path / "piped", tmp_path / "staged"
        assert main(["pipeline", *model_args, *analysis_args, "--out", str(piped)]) == 0
        assert main(["simulate", *model_args, "--out", str(staged)]) == 0
        assert main(["analyze", str(staged / "snapshots.csv"), *analysis_args]) == 0
        assert len(read_dir_bytes(piped)) == 3 + 2 * n_windows + 3
        assert read_dir_bytes(piped) == read_dir_bytes(staged)

    @pytest.mark.parametrize("window_args, message", [
        (["--steps", "300", "--window", "200"], "need >= 2 windows, got 1"),
        (["--steps", "300", "--window", "100", "--stride", "250"], "need >= 2 windows, got 1"),
        (["--steps", "100", "--window", "200"],
         "record length 100 is shorter than window_len 200"),
    ], ids=["one-window", "one-window-stride", "short-record"])
    def test_pipeline_checks_the_window_plan_first(self, tmp_path, capsys, window_args, message):
        # the flags fix the window count, so no output directory is made
        out = tmp_path / "run"
        status = main(["pipeline", "--model", "bs", "--n", "10", *window_args, "--out", str(out)])
        assert status == 1
        assert f"koopnet: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("window_args", [
        ["--window", "200"], ["--window", "100", "--stride", "250"],
    ], ids=["one-window", "one-window-stride"])
    def test_analyze_with_one_window_makes_no_output_dir(self, tmp_path, capsys, window_args):
        # analyze learns the record length only by reading it, so it
        # counts the windows then, but before the output directory is made
        assert main(["simulate", "--model", "bs", "--n", "10", "--steps", "300",
                     "--out", str(tmp_path)]) == 0
        out = tmp_path / "new"
        status = main(["analyze", str(tmp_path / "snapshots.csv"), *window_args,
                       "--out", str(out)])
        assert status == 1
        assert "koopnet: error: need >= 2 windows, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, steps", [
        ("simulate", "0"), ("pipeline", "0"), ("simulate", "1"), ("pipeline", "1"),
        ("simulate", "-1"), ("pipeline", "-1"),
    ], ids=["simulate", "pipeline", "simulate-1", "pipeline-1", "simulate-neg", "pipeline-neg"])
    def test_zero_steps_exits_one_before_making_the_output_dir(self, tmp_path, capsys, command,
                                                               steps):
        # a record of one snapshot has no pair for DMD to fit; -1 steps
        # would have the simulator's endless states drained
        out = tmp_path / "d"
        status = main([command, "--model", "bs", "--n", "10", "--steps", steps, "--out", str(out)])
        assert status == 1
        assert f"koopnet: error: steps must be >= 2, got {steps}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize("model_args, message", [
        (["--model", "bs", "--n", "2"], "ring size must be >= 3, got 2"),
        (["--model", "ifo", "--epsilon", "0.3"], "dissipative coupling violated"),
        (["--model", "ifo", "--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["bs-n2", "ifo-epsilon", "ifo-seed"])
    def test_bad_model_parameter_exits_before_making_the_output_dir(self, tmp_path, capsys,
                                                                    command, model_args,
                                                                    message):
        out = tmp_path / "new" / "sub"
        status = main([command, *model_args, "--steps", "10", "--out", str(out)])
        assert status == 1
        assert f"koopnet: error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("command", ["simulate", "pipeline"])
    @pytest.mark.parametrize("model_args, flag", [
        (["--model", "bs", "--n", "10", "--rows", "3"], "--rows 3"),
        (["--model", "bs", "--n", "10", "--cols", "3"], "--cols 3"),
        (["--model", "bs", "--n", "10", "--gamma", "7"], "--gamma 7.0"),
        (["--model", "bs", "--n", "10", "--epsilon", "0.1"], "--epsilon 0.1"),
        (["--model", "bs", "--n", "10", "--boundary", "periodic"], "--boundary periodic"),
        (["--model", "bs", "--n", "10", "--dt", "0.5"], "--dt 0.5"),
        (["--model", "ifo", "--rows", "3", "--cols", "3", "--n", "50"], "--n 50"),
    ], ids=["bs-rows", "bs-cols", "bs-gamma", "bs-epsilon", "bs-boundary", "bs-dt", "ifo-n"])
    def test_other_models_flag_exits_before_making_the_output_dir(self, tmp_path, capsys,
                                                                  command, model_args, flag):
        # a flag the chosen model does not read would otherwise be
        # dropped without a word (bs: a dt other than its 1.0)
        out = tmp_path / "new"
        # 450 steps give the pipeline two windows of 200: the flag is the only fault
        status = main([command, *model_args, "--steps", "450", "--out", str(out)])
        assert status == 1
        assert (f"koopnet: error: --model {model_args[1]} does not take {flag}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        status = main(["simulate", "--model", "ifo", "--steps", "10",
                       "--epsilon", "0.3", "--out", str(tmp_path)])
        assert status == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["bs", "ifo"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, model):
        status = main(["simulate", "--model", model, "--steps", "10", "--seed", "-1",
                       "--out", str(tmp_path)])
        assert status == 1
        assert "koopnet: error: seed must be >= 0" in capsys.readouterr().err

    def test_meaningless_jump_threshold_exits_one(self, tmp_path, capsys):
        status = main(["pipeline", "--model", "bs", "--n", "10", "--steps", "300",
                       "--window", "100", "--jump-threshold", "nan", "--out", str(tmp_path)])
        assert status == 1
        assert "koopnet: error: jump_threshold must be" in capsys.readouterr().err
        assert not (tmp_path / "report.md").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--jump-threshold", "nan", "jump_threshold must be"),
        ("--window", "1", "window_len must be >= 2"),
        ("--stride", "0", "stride must be >= 1"),
        ("--rank", "-1", "requested rank must be >= 1"),
    ])
    def test_bad_analysis_flag_exits_before_simulating(self, tmp_path, capsys,
                                                        flag, value, message):
        status = main(["pipeline", "--model", "bs", "--n", "10", "--steps", "300",
                       "--window", "100", flag, value, "--out", str(tmp_path)])
        assert status == 1
        assert f"koopnet: error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "snapshots.csv").exists()

    def test_bad_analysis_flag_exits_before_reading(self, tmp_path, capsys):
        status = main(["analyze", str(tmp_path / "missing.csv"), "--rank", "-1"])
        assert status == 1
        assert "koopnet: error: requested rank must be >= 1" in capsys.readouterr().err

    def test_analyze_rejects_infinite_dt(self, tmp_path, capsys):
        path = tmp_path / "snapshots.csv"
        rng = np.random.default_rng(0)
        write_record(path, SnapshotMatrix(data=rng.normal(size=(60, 3))))
        status = main(["analyze", str(path), "--window", "30", "--dt", "inf"])
        assert status == 1
        assert "koopnet: error: dt must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "report.md").exists()

    @pytest.mark.parametrize("flags, meta_dt", [(["--dt", "inf"], None),
                                                 (["--dt", "0"], None), ([], "-1")])
    def test_analyze_checks_dt_before_the_record_length(self, tmp_path, capsys,
                                                        flags, meta_dt):
        # 50 rows against a 200-row window: the bad dt is reported, not the length
        path = tmp_path / "snapshots.csv"
        rng = np.random.default_rng(0)
        write_record(path, SnapshotMatrix(data=rng.normal(size=(50, 3))))
        if meta_dt is not None:
            write_meta(tmp_path / "meta.csv", {"model": "bs", "dt": meta_dt})
        status = main(["analyze", str(path), "--window", "200", *flags])
        assert status == 1
        assert "koopnet: error: dt must be finite and > 0" in capsys.readouterr().err

    def test_analyze_rejects_non_numeric_meta_dt(self, tmp_path, capsys):
        path = tmp_path / "snapshots.csv"
        rng = np.random.default_rng(0)
        write_record(path, SnapshotMatrix(data=rng.normal(size=(60, 3))))
        write_meta(tmp_path / "meta.csv", {"model": "bs", "dt": "abc"})
        status = main(["analyze", str(path), "--window", "30"])
        assert status == 1
        err = capsys.readouterr().err
        assert f"koopnet: error: {tmp_path / 'meta.csv'}: dt:" in err
        assert not (tmp_path / "report.md").exists()

    def test_missing_input_exits_one(self, tmp_path, capsys):
        status = main(["analyze", str(tmp_path / "missing.csv")])
        assert status == 1
        assert "error" in capsys.readouterr().err

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUT, str(tmp_path / "envout"))
        status = main(["simulate", "--model", "bs", "--steps", "30", "--n", "8"])
        assert status == 0
        assert (tmp_path / "envout" / "snapshots.csv").exists()


def bench_tracer(monkeypatch):
    """The benchmark's span tracer, loaded from bench/spans.py."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


def test_pipeline_runs_through_the_benchmark_bindings(tmp_path, monkeypatch):
    # the benchmark's tracer times `simulate` and `analyze` by wrapping
    # cli.cmd_simulate and cli.cmd_analyze, and raises on a binding that
    # no longer exists; the pipeline must call both through them
    tracer = bench_tracer(monkeypatch)
    try:
        # a missing binding raises here, after patching the ones before it
        tracer.install()
        status = main(["pipeline", "--model", "bs", "--n", "10", "--steps", "300",
                       "--window", "100", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert status == 0
    totals = tracer.totals()
    assert totals["cli.cmd_simulate"][0] == 1
    assert totals["cli.cmd_analyze"][0] == 1
    # every CSV artifact goes through the writer the benchmark times
    assert totals["io.write_csv"][0] == len(list(tmp_path.glob("*.csv")))


def test_analyze_runs_through_the_benchmark_bindings(tmp_path, monkeypatch):
    # the tracer hooks io.read_snapshots and io.read_meta and counts the
    # size of the file named by their first argument as bytes read; the
    # span of read_snapshots covers the header read, and the rows are
    # parsed as cli pulls the blocks
    assert main(["simulate", "--model", "bs", "--n", "10", "--steps", "300",
                 "--out", str(tmp_path)]) == 0
    tracer = bench_tracer(monkeypatch)
    try:
        tracer.install()
        status = main(["analyze", str(tmp_path / "snapshots.csv"), "--window", "100"])
    finally:
        tracer.uninstall()
    assert status == 0
    totals = tracer.totals()
    assert totals["io.read_snapshots"][0] == 1
    assert totals["cli.cmd_analyze"][0] == 1
    assert tracer.counts["bytes_read"] == sum(
        (tmp_path / name).stat().st_size for name in ["snapshots.csv", "meta.csv"])
