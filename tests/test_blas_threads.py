"""BLAS threads and block workers per process (:mod:`repro.utils.blas`).

Every case runs in a fresh subprocess, so the pin never touches the pytest
process's own BLAS threads.  Most scripts first raise OpenBLAS to 3 or 4
threads (more than one, whatever the host), so "pinned to 1" and "left
unchanged" are told apart on any machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.utils.blas import THREAD_ENV_VARS, blas_threads, threads_per_process

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

pytestmark = pytest.mark.skipif(
    not blas_threads(), reason="no OpenBLAS loaded: nothing to pin"
)

PRELUDE = """\
import json, sys
from repro.utils.blas import blas_threads, limit_blas_threads


def threads():
    return sorted(set(blas_threads().values()))

"""


def run_script(tmp_path, body: str, **env_overrides) -> dict:
    """Run ``PRELUDE + body`` in a subprocess; return its last stdout line as JSON."""
    script = tmp_path / "probe_script.py"
    script.write_text(PRELUDE + textwrap.dedent(body))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    env.update(env_overrides)
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        cwd=REPO_ROOT, env=env, timeout=240,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_pin_makes_openblas_report_one_thread(tmp_path):
    out = run_script(tmp_path, """
        limit_blas_threads(4)
        before = threads()
        pinned = limit_blas_threads(1)
        print(json.dumps({"before": before, "pinned": pinned, "after": threads()}))
    """)
    assert out["before"] == [4]
    assert out["pinned"] and set(out["pinned"].values()) == {4}
    assert out["after"] == [1]


def test_kernels_are_byte_identical_before_and_after_the_pin(tmp_path):
    # Above the small-matrix cut-off (n * M * k >> 1e6), so the GEMMs really
    # run threaded before the pin.
    out = run_script(tmp_path, """
        import hashlib
        import numpy as np
        from repro.engine import make_engine

        rng = np.random.default_rng(0)
        n, d, c, k = 20_000, 12, 6, 64  # M = d * c = 72
        codes = rng.integers(0, c, size=(n, d))
        labels = rng.integers(0, k, size=n)
        engine = make_engine(codes, [c] * d, k, kind="dense", labels=labels)
        omega = rng.random((d, k))
        u, rho = rng.random(k), 0.5 * rng.random(k)
        blocked = np.zeros(k, dtype=bool)

        def digest():
            h = hashlib.sha256()
            sims = engine.similarity_matrix(feature_weights=omega, exclude_labels=labels)
            h.update(sims.tobytes())
            for part in engine.competitive_sweep(labels, u, rho, omega, blocked):
                h.update(np.ascontiguousarray(part).tobytes())
            return h.hexdigest()

        limit_blas_threads(4)
        many, many_threads = digest(), threads()
        limit_blas_threads(1)
        one, one_threads = digest(), threads()
        print(json.dumps({"many": many, "one": one, "threads": [many_threads, one_threads]}))
    """)
    assert out["threads"] == [[4], [1]]
    assert out["many"] == out["one"]


def test_operator_thread_setting_is_kept(tmp_path):
    out = run_script(tmp_path, """
        pinned = limit_blas_threads(1)
        print(json.dumps({"pinned": pinned, "after": threads()}))
    """, OPENBLAS_NUM_THREADS="2")
    assert out == {"pinned": {}, "after": [2]}


def test_threads_per_process_splits_the_cores_evenly():
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    assert threads_per_process(1) == cores
    assert threads_per_process(cores) == 1
    assert threads_per_process(4 * cores) == 1
    assert threads_per_process(0) == cores


def test_worker_command_pins_its_process(tmp_path):
    out = run_script(tmp_path, """
        from repro.cli import main
        from repro.distributed.rpc import WorkerServer

        WorkerServer.serve_forever = lambda self: None
        limit_blas_threads(4)
        main(["worker", "--listen", "127.0.0.1:0"])
        print(json.dumps({"after": threads()}))
    """)
    assert out["after"] == [1]


def test_in_process_fits_keep_the_callers_threads(tmp_path):
    out = run_script(tmp_path, """
        from repro.data.generators import make_categorical_clusters
        from repro.distributed import ShardedMGCPL
        from repro.distributed.rpc import local_worker_pool

        limit_blas_threads(4)
        data = make_categorical_clusters(
            n_objects=600, n_features=6, n_clusters=3, n_categories=4,
            purity=0.9, random_state=0,
        )
        ShardedMGCPL(n_shards=2, backend="serial", random_state=0).fit(data)
        after_serial = threads()
        with local_worker_pool(2) as hosts:
            ShardedMGCPL(
                n_shards=2, backend="tcp", hosts=hosts, random_state=0
            ).fit(data)
        print(json.dumps({"serial": after_serial, "tcp_threads": threads()}))
    """)
    assert out == {"serial": [4], "tcp_threads": [4]}


FIT_SCRIPT = """
    import threading
    import numpy as np
    from repro import MCDC
    from repro.data.generators import make_categorical_clusters
    from repro.engine import packed

    started, inside = [], set()
    start_thread = threading.Thread.start
    similarity_block = packed.PackedFrequencyEngine._similarity_block

    def counting_start(self):
        started.append(self.name)
        start_thread(self)

    def spy(self, *args, **kwargs):
        # BLAS threads as a block worker sees them.
        if threading.current_thread() is not threading.main_thread():
            inside.update(blas_threads().values())
        return similarity_block(self, *args, **kwargs)

    threading.Thread.start = counting_start
    packed.PackedFrequencyEngine._similarity_block = spy
    data = make_categorical_clusters(
        n_objects=8000, n_features=12, n_clusters=8, n_categories=6,
        purity=0.75, random_state=0,
    )
    {pin}
    before = threads()
    MCDC(n_clusters=8, random_state=0).fit(data)
    print(json.dumps({{
        "before": before, "after": threads(), "started": len(started),
        "inside": sorted(inside),
    }}))
"""


@pytest.mark.parametrize("pin", ["", "limit_blas_threads(3)"])
def test_in_process_fit_gives_the_callers_threads_back(tmp_path, pin):
    # Unpinned, the caller keeps OpenBLAS's own count and its share is every
    # core; pinned to three, both are three.  Either way the block workers
    # run with one BLAS thread each, and the count is given back afterwards.
    if not pin and threads_per_process(1) < 2:
        pytest.skip("one core: an unpinned fit starts no block worker")
    out = run_script(tmp_path, FIT_SCRIPT.format(pin=pin))
    assert out["before"] == out["after"]
    assert out["started"] > 0
    assert out["inside"] == [1]
    if pin:
        assert out["after"] == [3]


def test_process_pinned_to_one_thread_starts_no_block_worker(tmp_path):
    out = run_script(tmp_path, FIT_SCRIPT.format(pin="limit_blas_threads(1)"))
    assert out == {"before": [1], "after": [1], "started": 0, "inside": []}


def test_trial_workers_share_the_cores(tmp_path):
    out = run_script(tmp_path, """
        from repro.experiments.runner import map_trials
        from repro.utils.blas import cpu_share, threads_per_process


        def share(_):
            return [threads(), cpu_share()]


        if __name__ == "__main__":
            limit_blas_threads(4)
            trials = map_trials(share, [0, 1], n_jobs=2)
            print(json.dumps({
                "trials": trials, "expected": threads_per_process(2), "caller": threads(),
            }))
    """)
    expected = out["expected"]
    assert out["trials"] == [[[expected], expected]] * 2
    assert out["caller"] == [4]
