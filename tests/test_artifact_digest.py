"""scripts/artifact_digest.py: its file and value diffs, on hand-made
artifact directories, its two kinds of run, and the golden-run check."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digest.py"
spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPT)
artifact_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_digest)

SPECTRUM = "re_lambda,im_lambda,amplitude,group\n0.5,{im},{amp},slow\n0.25,0.0,1.0,fast\n"
MODES = "mode,node,re_v\ndominant_1,n0,0.5\n"
REPORT = "# Windowed spectral analysis\n\n- windows analyzed: 2\n"


def write(base, files):
    for name, text in files.items():
        path = base / "cfg" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return base


@pytest.fixture
def dirs(tmp_path):
    """The saved run, and a run in which window 1's first eigenvalue
    flips the sign of its imaginary part, its amplitude moves from 2.0
    to 3.0 and report.md is missing."""
    old = write(tmp_path / "old", {"spectrum_w0.csv": SPECTRUM.format(im=0.5, amp=2.0),
                                   "spectrum_w1.csv": SPECTRUM.format(im=0.5, amp=2.0),
                                   "modes_w1.csv": MODES, "report.md": REPORT})
    new = write(tmp_path / "new", {"spectrum_w0.csv": SPECTRUM.format(im=0.5, amp=2.0),
                                   "spectrum_w1.csv": SPECTRUM.format(im=-0.5, amp=3.0),
                                   "modes_w1.csv": MODES})
    return old, new


def test_value_diff(dirs):
    stats = artifact_digest.value_diff(*dirs)
    # identical files are left out: only spectrum_w1.csv's 2 rows count
    assert stats["spectrum_w*.csv", "im_lambda"] == {
        "cells": 2, "moved": 1, "max_abs": 0.0, "max_rel": 0.0, "max_scaled": 0.0, "flips": 1}
    assert stats["spectrum_w*.csv", "amplitude"] == {
        "cells": 2, "moved": 1, "max_abs": 1.0, "max_rel": 0.5, "max_scaled": 0.5, "flips": 0}
    for col in ("re_lambda", "group"):
        assert stats["spectrum_w*.csv", col]["moved"] == 0
    # every line of the missing file moved
    assert stats["report.md", "(line)"] == {
        "cells": 3, "moved": 3, "max_abs": 0.0, "max_rel": 0.0, "max_scaled": 0.0, "flips": 0}
    assert not any(kind == "modes_w*.csv" for kind, _ in stats)


def test_reports(dirs, capsys):
    old, new = dirs
    assert len(artifact_digest.report_files(old, new)) == 2
    artifact_digest.report_values(artifact_digest.value_diff(old, new))
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["cfg  report.md  missing", "cfg  spectrum_w1.csv  changed",
                         "2 of 4 files differ"]
    assert lines[3:] == ["kind  column  cells  moved  max_abs  max_rel  max_scaled  sign_flips",
                         "report.md  (line)  3  3  0  0  0  0",
                         "spectrum_w*.csv  amplitude  2  1  1  0.5  0.5  0",
                         "spectrum_w*.csv  im_lambda  2  1  0  0  0  1"]


def test_scaled_move_reads_a_cell_against_its_column(tmp_path):
    # window 0's cell near 0 moves by 7e-14, a relative move of 1 but
    # 1.4e-13 of its column's 0.5; window 1's column has its own scale,
    # 1e-3, against which its move of 1e-4 reads 0.1
    old = write(tmp_path / "old", {"modes_w0.csv": "mode,re_v\nd1,0.5\nd1,7e-14\n",
                                   "modes_w1.csv": "mode,re_v\nd1,1e-3\nd1,5e-4\n"})
    new = write(tmp_path / "new", {"modes_w0.csv": "mode,re_v\nd1,0.5\nd1,1.4e-13\n",
                                   "modes_w1.csv": "mode,re_v\nd1,1e-3\nd1,6e-4\n"})
    stats = artifact_digest.value_diff(old, new)["modes_w*.csv", "re_v"]
    assert stats["max_rel"] == pytest.approx(1.0)
    assert stats["max_scaled"] == pytest.approx(0.1)


def test_keep_must_be_new_or_empty(dirs):
    with pytest.raises(SystemExit) as exc:
        artifact_digest.main(["--keep", str(dirs[0])])
    assert exc.value.code == 2


def test_simulate_then_analyze_writes_the_pipeline_bytes(tmp_path, monkeypatch):
    # the same tiny IFO run both ways; analyze takes the non-default dt
    # from meta.csv beside the record it reads back
    simulate = ["--model", "ifo", "--rows", "3", "--cols", "3", "--steps", "300",
                "--seed", "1", "--dt", "0.03"]
    monkeypatch.setattr(artifact_digest, "CONFIGS", {"piped": [*simulate, "--window", "100"]})
    monkeypatch.setattr(artifact_digest, "ANALYZE_CONFIGS",
                        {"read": (simulate, ["--window", "100"])})
    artifact_digest.run_all(SCRIPT.parent.parent / "src", tmp_path)
    found = artifact_digest.digests(tmp_path)
    assert list(found)[0][0] == "piped"
    piped = {name: digest for (config, name), digest in found.items() if config == "piped"}
    read = {name: digest for (config, name), digest in found.items() if config == "read"}
    assert {"snapshots.csv", "spectrum_w2.csv", "report.md"} <= piped.keys()
    assert read == piped


def test_reordered_file_is_counted_not_diffed(tmp_path, capsys):
    # meta.csv holds the same lines in another order; events.csv swaps
    # two values between its rows, so its lines are no permutation of
    # the old ones and its cells are reported as moved
    old = write(tmp_path / "old", {"meta.csv": "key,value\nmodel,bs\nn,100\nseed,0\ndt,1.0\n",
                                   "events.csv": "iteration,min_index\n0,3\n1,5\n"})
    new = write(tmp_path / "new", {"meta.csv": "key,value\nmodel,bs\nn,100\ndt,1.0\nseed,0\n",
                                   "events.csv": "iteration,min_index\n0,5\n1,3\n"})
    states = artifact_digest.report_files(old, new)
    assert states == {("cfg", "events.csv"): "changed", ("cfg", "meta.csv"): "reordered"}
    stats = artifact_digest.value_diff(old, new)
    assert not any(kind == "meta.csv" for kind, _ in stats)
    assert stats["events.csv", "min_index"]["moved"] == 2
    artifact_digest.report_values(stats, [("cfg", "meta.csv")])
    assert capsys.readouterr().out.splitlines() == [
        "cfg  events.csv  changed", "cfg  meta.csv  reordered", "2 of 2 files differ",
        "kind  column  cells  moved  max_abs  max_rel  max_scaled  sign_flips",
        "events.csv  min_index  2  2  2  0.667  0.4  0",
        "kind  reordered_files", "meta.csv  1"]


@pytest.fixture
def tiny(monkeypatch):
    """One tiny pipeline configuration in place of the digest's runs."""
    monkeypatch.setattr(artifact_digest, "CONFIGS", {"tiny": [
        "--model", "bs", "--n", "10", "--steps", "300", "--seed", "1", "--window", "100"]})
    monkeypatch.setattr(artifact_digest, "ANALYZE_CONFIGS", {})


def test_keep_saves_the_environment_line_and_diff_values_passes_the_same_run(tiny, tmp_path,
                                                                            capsys):
    golden = tmp_path / "golden"
    assert artifact_digest.main(["--keep", str(golden)]) == 0
    env = artifact_digest.environment()
    assert (golden / "environment.txt").read_text(encoding="utf-8") == env + "\n"
    assert capsys.readouterr().out.splitlines()[0] == env
    assert artifact_digest.main(["--diff-values", str(golden)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    files = len(list((golden / "tiny").iterdir()))
    assert captured.out.splitlines()[0] == f"0 of {files} files differ"


@pytest.mark.parametrize("saved", ["# numpy=0.0 cpu_count=1\n", None], ids=["differs", "missing"])
def test_diff_values_warns_on_another_environment(tiny, tmp_path, capsys, saved):
    golden = tmp_path / "golden"
    assert artifact_digest.main(["--keep", str(golden)]) == 0
    if saved is None:
        (golden / "environment.txt").unlink()
    else:
        (golden / "environment.txt").write_text(saved, encoding="utf-8")
    capsys.readouterr()
    # the artifacts are the same bytes, so the check still passes
    assert artifact_digest.main(["--diff-values", str(golden)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("warning: environment differs from")
    assert err[1] == f"  golden: {saved.strip() if saved else '(no environment line)'}"
    assert err[2] == f"  now:    {artifact_digest.environment()}"


def test_diff_values_exits_one_on_a_moved_byte(tiny, tmp_path, capsys):
    golden = tmp_path / "golden"
    assert artifact_digest.main(["--keep", str(golden)]) == 0
    with (golden / "tiny" / "report.md").open("a", encoding="utf-8") as fh:
        fh.write("one more line\n")
    capsys.readouterr()
    assert artifact_digest.main(["--diff-values", str(golden)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["tiny  report.md  changed",
                       f"1 of {len(list((golden / 'tiny').iterdir()))} files differ"]
    assert "report.md  (line)" in "\n".join(out[2:])
