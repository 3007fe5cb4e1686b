"""Every ``BENCH_*.json`` trajectory in the tree honours one schema.

The trajectory files are the repo's machine-readable performance story;
they are only useful if every producer writes the same shape.  This suite
runs the shared validator (:func:`benchmarks.reporting.validate_entry`)
over every ``BENCH_*.json`` at the repo root — engine, transport, serving,
and whatever future benchmarks add — and pins the validator's own behaviour
so a drifting producer fails here, not in a downstream consumer.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess

import pytest

from benchmarks import reporting


def _bench_files():
    return sorted(glob.glob(os.path.join(reporting.REPO_ROOT, "BENCH_*.json")))


def test_there_are_trajectories_to_validate():
    names = [os.path.basename(p) for p in _bench_files()]
    # The serving trajectory is part of the tree from PR 7 onwards.
    assert "BENCH_serving.json" in names, names


@pytest.mark.parametrize(
    "path", _bench_files(), ids=[os.path.basename(p) for p in _bench_files()]
)
def test_trajectory_file_is_schema_valid(path):
    with open(path) as handle:
        entries = json.load(handle)
    assert isinstance(entries, list) and entries, f"{path} is not a non-empty array"
    assert len(entries) <= reporting.MAX_ENTRIES
    for i, entry in enumerate(entries):
        problems = reporting.validate_entry(entry)
        assert problems == [], f"{os.path.basename(path)}[{i}]: {problems}"


def _head_commit():
    """``git rev-parse --short HEAD`` at the repo root, or ``None`` where it fails."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=reporting.REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _record_selftest(tmp_path, monkeypatch):
    monkeypatch.setattr(reporting, "REPO_ROOT", str(tmp_path))
    monkeypatch.setenv(reporting.RECORD_ENV, "1")
    entry = reporting.record(
        "schema-selftest", "unit", n=10, d=2, k=3,
        wall_seconds=0.5, throughput=20.0, speedup=2.0, custom="x",
    )
    assert reporting.validate_entry(entry) == []
    assert entry["custom"] == "x"
    (reloaded,) = reporting.load("schema-selftest")
    assert reporting.validate_entry(reloaded) == []
    return entry


def test_record_output_validates(tmp_path, monkeypatch):
    expected = _head_commit()
    reporting._git_commit()  # resolve (and cache) from the real repo root
    entry = _record_selftest(tmp_path, monkeypatch)
    # Where git names the checkout's HEAD, the entry carries that commit;
    # outside a checkout (an exported tree) it carries none.
    if expected is None:
        assert "commit" not in entry
    else:
        assert entry.get("commit") == expected


def test_record_without_git_omits_the_commit(tmp_path, monkeypatch):
    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr(reporting, "_GIT_COMMIT_CACHE", [])
    monkeypatch.setattr(reporting.subprocess, "run", no_git)
    entry = _record_selftest(tmp_path, monkeypatch)
    assert "commit" not in entry


def test_record_without_opt_in_writes_nothing(tmp_path, monkeypatch):
    """A plain test run must not rewrite the tracked trajectory files."""
    monkeypatch.delenv(reporting.RECORD_ENV, raising=False)
    monkeypatch.setattr(reporting, "REPO_ROOT", str(tmp_path))
    path = reporting.bench_path("engine")
    with open(path, "w") as handle:
        handle.write('[{"bench": "old", "recorded_at": "2026-08-08T00:00:00Z"}]\n')
    with open(path, "rb") as handle:
        before = handle.read()
    entry = reporting.record("engine", "unit", n=10, wall_seconds=0.5)
    assert reporting.validate_entry(entry) == []
    with open(path, "rb") as handle:
        assert handle.read() == before
    reporting.record("fresh", "unit", n=10)
    assert not os.path.exists(reporting.bench_path("fresh"))
    assert sorted(os.listdir(tmp_path)) == ["BENCH_engine.json"]


def test_validator_rejects_malformed_entries():
    assert reporting.validate_entry([]) != []
    assert reporting.validate_entry({}) != []
    assert reporting.validate_entry({"bench": "", "recorded_at": "x"}) != []
    assert reporting.validate_entry(
        {"bench": "b", "recorded_at": "2026-08-08T00:00:00Z", "n": "many"}
    ) != []
    assert reporting.validate_entry(
        {"bench": "b", "recorded_at": "2026-08-08T00:00:00Z", "speedup": None}
    ) != []
    assert reporting.validate_entry(
        {"bench": "b", "recorded_at": "not-a-time"}
    ) != []
    assert reporting.validate_entry(
        {"bench": "b", "recorded_at": "2026-08-08T00:00:00Z",
         "wall_seconds": 1.0, "commit": "abc1234"}
    ) == []


def test_validator_checks_recovery_seconds():
    base = {"bench": "b", "recorded_at": "2026-08-08T00:00:00Z"}
    assert reporting.validate_entry({**base, "recovery_seconds": 0.004}) == []
    assert reporting.validate_entry({**base, "recovery_seconds": -0.1}) != []
    assert reporting.validate_entry({**base, "recovery_seconds": "fast"}) != []


def test_validator_checks_wal_fields():
    base = {"bench": "b", "recorded_at": "2026-08-08T00:00:00Z"}
    for sync in ("always", "batch", "none", "off"):
        assert reporting.validate_entry({**base, "wal_sync": sync}) == []
    assert reporting.validate_entry({**base, "wal_sync": "sometimes"}) != []
    assert reporting.validate_entry({**base, "wal_sync": 1}) != []
    assert reporting.validate_entry({**base, "ingest_overhead_x": 1.37}) == []
    assert reporting.validate_entry({**base, "ingest_overhead_x": 1}) == []
    assert reporting.validate_entry({**base, "ingest_overhead_x": 0}) != []
    assert reporting.validate_entry({**base, "ingest_overhead_x": -0.5}) != []
    assert reporting.validate_entry({**base, "ingest_overhead_x": "slow"}) != []
    assert reporting.validate_entry({**base, "ingest_overhead_x": True}) != []
