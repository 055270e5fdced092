"""Benchmark runner: a dirty tree is marked, not passed off as HEAD, and
interleaved timing alternates which side runs first."""

import shutil
import subprocess

import pytest

from repro.engine.benchrunner import environment, git_state, measure_interleaved

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None, reason="git is not installed"
)


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
         *args],
        cwd=repo, check=True, capture_output=True,
    )


@pytest.fixture()
def repo(tmp_path):
    _git(tmp_path, "init", "-q")
    (tmp_path / "src.py").write_text("x = 1\n")
    (tmp_path / "BENCH_engine.json").write_text("{}\n")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


def test_clean_checkout_is_not_dirty(repo):
    commit, dirty = git_state(repo)
    assert commit and dirty is False


def test_rewritten_bench_json_is_not_dirty(repo):
    (repo / "BENCH_engine.json").write_text('{"records": []}\n')
    assert git_state(repo)[1] is False


@pytest.mark.parametrize("staged", [False, True])
def test_changed_source_is_dirty(repo, staged):
    (repo / "src.py").write_text("x = 2\n")
    if staged:
        _git(repo, "add", "src.py")
    assert git_state(repo)[1] is True


def test_untracked_file_is_not_dirty(repo):
    (repo / "scratch.txt").write_text("notes\n")
    assert git_state(repo)[1] is False


def test_no_checkout_gives_null(tmp_path):
    assert git_state(tmp_path) == (None, None)


def test_environment_records_the_flag():
    env = environment()
    assert "git_dirty" in env
    assert env["git_dirty"] in (True, False, None)


def test_interleaved_repeats_alternate_the_first_side():
    calls = []
    records = measure_interleaved(
        [lambda: calls.append("a"), lambda: calls.append("b")],
        repeats=4, warmup=1, trace_memory=True,
    )
    warmup, timed, traced = calls[:2], calls[2:10], calls[10:]
    assert warmup == ["a", "b"]
    assert timed == ["a", "b", "b", "a", "a", "b", "b", "a"]
    assert traced == ["a", "b"]
    assert [len(r["runs_s"]) for r in records] == [4, 4]
    assert all("traced_peak_bytes" in r for r in records)
