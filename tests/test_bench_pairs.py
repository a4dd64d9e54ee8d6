"""scripts/bench_pairs.py: which commit each side of a pair run is
recorded under."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                           *args], check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def checkout(tmp_path):
    """A git checkout with one committed module under src/ and a
    BENCHMARK.json; returns its path and HEAD."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "mod.py").write_text("x = 1\n", encoding="utf-8")
    (repo / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "run_s", "better": "lower"}]}), encoding="utf-8")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "one")
    return repo, git(repo, "rev-parse", "HEAD")


def test_dirty_sees_only_changes_under_src(checkout):
    repo, _ = checkout
    assert not bench_pairs.dirty(repo)
    (repo / "notes.txt").write_text("outside src\n", encoding="utf-8")
    assert not bench_pairs.dirty(repo)
    (repo / "src" / "new.py").write_text("y = 2\n", encoding="utf-8")
    assert bench_pairs.dirty(repo)
    (repo / "src" / "new.py").unlink()
    (repo / "src" / "mod.py").write_text("x = 2\n", encoding="utf-8")
    assert bench_pairs.dirty(repo)


def test_dirty_is_false_outside_a_git_checkout(tmp_path):
    assert not bench_pairs.dirty(tmp_path)


def test_uncommitted_side_is_marked_dirty(checkout, tmp_path, monkeypatch, capsys):
    # the change is the parent's commit plus an edit under src/: both
    # sides' workers report the same HEAD
    parent, head = checkout
    change = tmp_path / "change"
    git(tmp_path, "clone", "-q", str(parent), str(change))
    (change / "src" / "mod.py").write_text("x = 2\n", encoding="utf-8")

    def run_bench(checkout, workload, seed, seconds, trace):
        return {"attempted": 1, "failed": 0, "correct": True,
                "metrics": {"run_s": {"value": 1.0}}, "env": {"commit": head}}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--workload", "w", "--seeds", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["end_to_end"]["w"]["commits"] == {"parent": head, "change": f"{head}+dirty"}
