"""Machine-readable benchmark trajectory files (``BENCH_*.json``).

A benchmark run with ``REPRO_BENCH_RECORD=1`` in the environment appends one
JSON entry per measurement to a trajectory file at the repo root —
``BENCH_engine.json`` for the frequency-engine benchmarks,
``BENCH_transport.json`` for the executor backends — so the performance story
of the codebase is data in the tree, not prose in commit messages.  Without
the variable (every plain ``pytest`` run) :func:`record` still builds and
returns the entry but writes nothing, so a test run leaves the tree clean.
An entry records what was measured (bench name, problem size
``n``/``d``/``k``), the result (wall seconds, throughput, speedup over the
named baseline) and enough environment to interpret it (python / numpy /
numba versions, platform, CPU count).

The files are plain JSON arrays, newest entry last, capped at
:data:`MAX_ENTRIES` so they stay reviewable; writes are atomic
(write-to-temp + rename) so a crashed run cannot corrupt the trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import tempfile
import time
from typing import Any, Dict, List, Optional

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Oldest entries are dropped beyond this many, keeping the files reviewable.
MAX_ENTRIES = 200

#: Environment variable that must be ``"1"`` for :func:`record` to write.
RECORD_ENV = "REPRO_BENCH_RECORD"

_GIT_COMMIT_CACHE: List[Optional[str]] = []


def _git_commit() -> Optional[str]:
    """The repo's short commit hash (cached; ``None`` outside a checkout).

    Recorded in every entry so a trajectory point can be matched to the code
    that produced it — the whole point of keeping the files in the tree.
    """
    if not _GIT_COMMIT_CACHE:
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
        _GIT_COMMIT_CACHE.append(commit)
    return _GIT_COMMIT_CACHE[0]


def bench_path(kind: str) -> str:
    """Repo-root path of the ``kind`` trajectory file (``BENCH_<kind>.json``)."""
    return os.path.join(REPO_ROOT, f"BENCH_{kind}.json")


def _environment() -> Dict[str, Any]:
    try:
        import numba

        numba_version: Optional[str] = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": _git_commit(),
    }


def validate_entry(entry: Any) -> List[str]:
    """Schema-check one trajectory entry; returns the list of violations.

    The shared contract every ``BENCH_*.json`` file in the tree must honour
    (``benchmarks/test_reporting_schema.py`` enforces it for all of them):
    required string fields ``bench`` and ``recorded_at`` (UTC ISO-8601
    ``Z``-suffixed), numeric optionals where :func:`record` writes numbers,
    and no ``None`` values (``record`` omits empty fields entirely).
    """
    problems: List[str] = []
    if not isinstance(entry, dict):
        return [f"entry is {type(entry).__name__}, not an object"]
    for field in ("bench", "recorded_at"):
        value = entry.get(field)
        if not isinstance(value, str) or not value:
            problems.append(f"{field!r} must be a non-empty string, got {value!r}")
    recorded = entry.get("recorded_at")
    if isinstance(recorded, str):
        try:
            time.strptime(recorded, "%Y-%m-%dT%H:%M:%SZ")
        except ValueError:
            problems.append(f"'recorded_at' is not UTC ISO-8601: {recorded!r}")
    for field in ("n", "d", "k", "cpu_count"):
        if field in entry and not isinstance(entry[field], int):
            problems.append(f"{field!r} must be an integer, got {entry[field]!r}")
    for field in ("wall_seconds", "throughput_objects_per_s", "speedup", "recovery_seconds"):
        if field in entry and not isinstance(entry[field], (int, float)):
            problems.append(f"{field!r} must be a number, got {entry[field]!r}")
    if "recovery_seconds" in entry and isinstance(entry["recovery_seconds"], (int, float)):
        if entry["recovery_seconds"] < 0:
            problems.append(
                f"'recovery_seconds' must be >= 0, got {entry['recovery_seconds']!r}"
            )
    if "wal_sync" in entry and entry["wal_sync"] not in (
        "always", "batch", "none", "off"
    ):
        problems.append(
            "'wal_sync' must be one of 'always'/'batch'/'none'/'off', "
            f"got {entry['wal_sync']!r}"
        )
    if "ingest_overhead_x" in entry:
        value = entry["ingest_overhead_x"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
            problems.append(
                f"'ingest_overhead_x' must be a positive number, got {value!r}"
            )
    if "commit" in entry and not isinstance(entry["commit"], str):
        problems.append(f"'commit' must be a string, got {entry['commit']!r}")
    for key, value in entry.items():
        if value is None:
            problems.append(f"{key!r} is null (record() omits empty fields)")
    return problems


def load(kind: str) -> List[Dict[str, Any]]:
    """All recorded entries of a trajectory (oldest first; ``[]`` if none)."""
    try:
        with open(bench_path(kind)) as handle:
            entries = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return []
    return entries if isinstance(entries, list) else []


def record(
    kind: str,
    bench: str,
    *,
    n: Optional[int] = None,
    d: Optional[int] = None,
    k: Optional[int] = None,
    wall_seconds: Optional[float] = None,
    throughput: Optional[float] = None,
    speedup: Optional[float] = None,
    **extra: Any,
) -> Dict[str, Any]:
    """Build one measurement entry; append it to the ``kind`` trajectory.

    ``throughput`` is objects per second of the measured configuration;
    ``speedup`` is relative to whatever baseline the benchmark names in its
    ``extra`` fields.  ``None`` fields are omitted from the entry.  The file
    is written only when :data:`RECORD_ENV` is ``"1"``; the entry is
    returned either way.
    """
    entry: Dict[str, Any] = {
        "bench": bench,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "n": n,
        "d": d,
        "k": k,
        "wall_seconds": None if wall_seconds is None else float(wall_seconds),
        "throughput_objects_per_s": None if throughput is None else float(throughput),
        "speedup": None if speedup is None else float(speedup),
    }
    entry.update(_environment())
    for key, value in extra.items():
        entry[key] = float(value) if isinstance(value, (np.floating,)) else value
    entry = {key: value for key, value in entry.items() if value is not None}
    if os.environ.get(RECORD_ENV) != "1":
        return entry

    entries = load(kind)
    entries.append(entry)
    entries = entries[-MAX_ENTRIES:]

    path = bench_path(kind)
    handle = tempfile.NamedTemporaryFile(
        "w", dir=os.path.dirname(path), prefix=".bench-", suffix=".tmp", delete=False
    )
    try:
        json.dump(entries, handle, indent=2)
        handle.write("\n")
        handle.close()
        os.replace(handle.name, path)
    except BaseException:  # pragma: no cover - leave no temp litter behind
        handle.close()
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return entry
