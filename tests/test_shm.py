"""Lifecycle and equivalence tests for the ``"shm"`` shared-memory backend.

Three properties matter beyond producing the right numbers:

* **Equivalence** — a sharded fit over shm workers is bit-identical to the
  in-process ``"serial"`` executor (the shards see the same rows, the merge
  is the same exact integer-count merge).
* **No leaks on the happy path** — ``close()`` unlinks the segment and the
  resident worker pools hold no mapping afterwards, so ``/dev/shm`` is
  clean after every fit.
* **No leaks on crashes** — if the coordinator process dies without calling
  ``close()`` (SIGKILL, no exit hook), the segment is still reclaimed within a
  few seconds by the worker watchdog / resource-tracker safety net.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from functools import partial
from multiprocessing import resource_tracker, shared_memory
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.mgcpl import cluster_weight_from_delta, winning_ratio
from repro.core.sync import SweepBroadcast
from repro.data.dataset import CategoricalDataset
from repro.distributed import ShardedMGCPL, shm
from repro.distributed.transport import (
    TransportError,
    available_backends,
    get_backend_spec,
    make_executor,
)
from repro.experiments.runner import map_trials

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module", autouse=True)
def _reclaim_resident_pools():
    """Leave no idle worker processes behind for the rest of the suite."""
    yield
    shm.shutdown()


@pytest.fixture(scope="module")
def dataset() -> CategoricalDataset:
    rng = np.random.default_rng(8)
    codes = rng.integers(0, 5, size=(600, 7)).astype(np.int64)
    codes[rng.random(codes.shape) < 0.05] = -1
    return CategoricalDataset.from_codes(codes, n_categories=[5] * 7)


def segment_exists(name: str) -> bool:
    """Portable probe: can the segment still be attached by name?

    The probe must not *adopt* the segment into this process's resource
    tracker (that would unlink it at interpreter exit and mask leaks), so
    the registration is withdrawn right after a successful attach.
    """
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass
    segment.close()
    return True


def test_backend_registered():
    assert "shm" in available_backends()
    spec = get_backend_spec("sharedmem")
    assert spec.name == "shm"
    assert "mp_context" in spec.options


def test_process_alias_fits_on_shm(dataset):
    """Saved configs and calls naming the folded ``process`` backend run on shm."""
    model = ShardedMGCPL(
        k0=4, n_shards=2, backend="process", random_state=0, max_epochs=1
    ).fit(dataset)
    assert isinstance(model.last_executor_, shm.ShmExecutor)
    assert ShardedMGCPL().backend == "shm"


def test_sweep_matches_serial(dataset):
    codes, cats = dataset.codes, dataset.n_categories
    k, d = 6, dataset.n_features
    rng = np.random.default_rng(0)
    labels = rng.integers(0, k, size=dataset.n_objects)
    omega = rng.random((d, k))

    def run(executor):
        state = executor.begin_epoch(k, labels)
        outs = []
        for _ in range(2):
            broadcast = SweepBroadcast(
                state=state,
                u=cluster_weight_from_delta(np.ones(k)),
                rho=winning_ratio(np.zeros(k)),
                omega=omega,
                blocked=(state.sizes <= 0),
            )
            out = executor.sweep(broadcast)
            state = out.state
            outs.append(out)
        return outs

    with make_executor("serial", codes, cats, shards=3) as serial_ex:
        serial_outs = run(serial_ex)
    with make_executor("shm", codes, cats, shards=3) as shm_ex:
        shm_outs = run(shm_ex)
    for a, b in zip(serial_outs, shm_outs):
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.state.packed, b.state.packed)
        assert np.array_equal(a.win_counts, b.win_counts)
        assert np.array_equal(a.win_sim_total, b.win_sim_total)


def test_sharded_fit_matches_serial(dataset):
    serial = ShardedMGCPL(
        k0=5, n_shards=3, backend="serial", random_state=0, max_epochs=3
    ).fit(dataset)
    shm_fit = ShardedMGCPL(
        k0=5, n_shards=3, backend="shm", random_state=0, max_epochs=3
    ).fit(dataset)
    assert np.array_equal(serial.labels_, shm_fit.labels_)
    assert np.array_equal(serial.encoding_, shm_fit.encoding_)


def test_scattered_shard_indices(dataset):
    """Non-contiguous shards work: the segment layout is shard-permuted."""
    rng = np.random.default_rng(4)
    assignments = rng.integers(0, 3, size=dataset.n_objects)
    codes, cats = dataset.codes, dataset.n_categories
    labels = rng.integers(0, 4, size=dataset.n_objects)
    with make_executor("serial", codes, cats, shards=assignments) as ex:
        want = ex.begin_epoch(4, labels)
    with make_executor("shm", codes, cats, shards=assignments) as ex:
        got = ex.begin_epoch(4, labels)
    assert np.array_equal(want.packed, got.packed)
    assert np.array_equal(want.sizes, got.sizes)


def test_close_unlinks_segment(dataset):
    executor = make_executor("shm", dataset.codes, dataset.n_categories, shards=2)
    name = executor._segment.name
    assert name.startswith("repro_shm_")
    assert segment_exists(name)
    executor.close()
    assert not segment_exists(name)
    executor.close()  # idempotent
    with pytest.raises(TransportError):
        executor.begin_epoch(3, None)


def test_fit_leaves_no_segment(dataset):
    ShardedMGCPL(k0=4, n_shards=2, backend="shm", random_state=1, max_epochs=2).fit(
        dataset
    )
    pid = os.getpid()
    if os.path.isdir("/dev/shm"):
        leaked = [
            entry
            for entry in os.listdir("/dev/shm")
            if entry.startswith(f"repro_shm_{pid}_")
        ]
        assert leaked == []


def test_resident_pools_reused(dataset):
    shm.shutdown()
    codes, cats = dataset.codes, dataset.n_categories
    with make_executor("shm", codes, cats, shards=2) as executor:
        executor.begin_epoch(3, None)
    assert shm.resident_pool_size() >= 2
    before = shm.resident_pool_size()
    with make_executor("shm", codes, cats, shards=2) as executor:
        # The two resident pools were taken back out of the free list.
        assert shm.resident_pool_size() == before - 2
        executor.begin_epoch(3, None)
    assert shm.resident_pool_size() == before
    shm.shutdown()
    assert shm.resident_pool_size() == 0


def test_worker_death_raises_transport_error(dataset):
    codes, cats = dataset.codes, dataset.n_categories
    executor = make_executor("shm", codes, cats, shards=2)
    try:
        executor.begin_epoch(3, None)
        pool = executor._transports[0]._pool
        for worker in pool._processes.values():
            os.kill(worker.pid, signal.SIGKILL)
        with pytest.raises(TransportError):
            for _ in range(5):
                executor.begin_epoch(3, None)
                time.sleep(0.1)
    finally:
        name = executor._segment.name
        executor.close()
    # The broken pool was discarded, not recycled, and the segment is gone.
    assert not segment_exists(name)


def test_idle_worker_death_does_not_fail_the_next_fit(dataset):
    """A worker SIGKILLed while its pool sits on the free list is skipped.

    The next executor must not pick the broken pool up (its attach would
    fail with ``TransportError``); it shuts it down and spawns a fresh one.
    """
    shm.shutdown()
    codes, cats = dataset.codes, dataset.n_categories
    with make_executor("shm", codes, cats, shards=2) as executor:
        want = executor.begin_epoch(3, None)
    pool = next(iter(shm._FREE_POOLS.values()))[0]
    (worker,) = pool._processes.values()
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(timeout=10)  # dead and reaped, by us or the pool's manager
    with make_executor("shm", codes, cats, shards=2) as executor:
        got = executor.begin_epoch(3, None)
        assert all(t._pool is not pool for t in executor._transports)
    assert np.array_equal(want.packed, got.packed)
    assert shm.resident_pool_size() == 2
    shm.shutdown()


def test_partial_construction_cleans_up(monkeypatch, dataset):
    """A transport failing mid-construction closes the earlier transports
    and unlinks the segment before the error propagates."""
    created, closed, segments = [], [], []
    real_transport, real_segment = shm.ShmTransport, shm._Segment
    original_close = real_transport.close

    class Flaky(real_transport):
        def __init__(self, *args, **kwargs):
            if created:
                raise OSError("no more processes")
            super().__init__(*args, **kwargs)
            created.append(self)

    class Recorded(real_segment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            segments.append(self.name)

    def tracking_close(self):
        closed.append(self)
        original_close(self)

    monkeypatch.setattr(real_transport, "close", tracking_close)
    monkeypatch.setattr(shm, "ShmTransport", Flaky)
    monkeypatch.setattr(shm, "_Segment", Recorded)
    with pytest.raises(OSError, match="no more processes"):
        make_executor("shm", dataset.codes, dataset.n_categories, shards=2)
    assert len(created) == 1
    assert created[0] in closed
    assert len(segments) == 1
    assert not segment_exists(segments[0])


def test_segment_larger_than_free_shm_space_is_refused(monkeypatch, dataset):
    """A full ``/dev/shm`` raises a clear error instead of a SIGBUS on write."""
    before = shm.resident_pool_size()
    monkeypatch.setattr(
        shm.os, "statvfs", lambda path: SimpleNamespace(f_bavail=1, f_frsize=4096)
    )
    with pytest.raises(TransportError, match=r"4096 bytes free.*backend='serial'"):
        make_executor("shm", dataset.codes, dataset.n_categories, shards=2)
    assert shm.resident_pool_size() == before
    assert not shm._LIVE_SEGMENTS


def _sharded_fit_labels(seed: int, dataset: CategoricalDataset, backend: str):
    return ShardedMGCPL(
        k0=4, n_shards=2, backend=backend, random_state=seed, max_epochs=2
    ).fit(dataset).labels_


@pytest.mark.timeout(120)
def test_sharded_fits_inside_trial_workers_return(dataset):
    """``map_trials(n_jobs=2)`` over shm fits returns, with serial's labels.

    Each trial worker keeps resident pools of its own.  They must be shut
    down when the worker exits, before it joins its children, or the exit
    blocks forever.  The fit here in the parent first leaves resident pools
    and the exit hook behind, which the forked workers must not take as
    their own.
    """
    _sharded_fit_labels(0, dataset, "shm")
    assert shm.resident_pool_size() >= 2
    got = map_trials(
        partial(_sharded_fit_labels, dataset=dataset, backend="process"), [1, 2], n_jobs=2
    )
    want = [_sharded_fit_labels(seed, dataset, "serial") for seed in (1, 2)]
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_too_many_shards_rejected(dataset):
    with pytest.raises(ValueError, match="resident worker pools"):
        make_executor(
            "shm",
            np.zeros((shm.MAX_SHM_SHARDS + 1, 2), dtype=np.int64),
            [1, 1],
            shards=shm.MAX_SHM_SHARDS + 1,
        )


def test_unknown_option_rejected(dataset):
    with pytest.raises(ValueError, match="does not accept option"):
        make_executor("shm", dataset.codes, dataset.n_categories, shards=2, hosts=["x"])


def test_coordinator_crash_reclaims_segment():
    """SIGKILL the coordinator mid-fit: the segment must still disappear.

    The coordinator never runs ``close()`` or its exit hook.  Reclamation
    comes from the worker watchdog (orphaned workers unlink and exit) backed
    by the coordinator's resource tracker.
    """
    child = (
        "import os, signal, sys\n"
        "sys.path.insert(0, 'src')\n"
        "import numpy as np\n"
        "from repro.distributed.transport import make_executor\n"
        "codes = np.random.default_rng(0).integers(0, 4, size=(400, 5)).astype(np.int64)\n"
        "ex = make_executor('shm', codes, [4]*5, shards=2)\n"
        "ex.begin_epoch(3, None)\n"
        "print(ex._segment.name, flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", child],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        cwd=REPO_ROOT,
    )
    try:
        name = proc.stdout.readline().strip()
        proc.wait(timeout=30)
    finally:
        proc.stdout.close()
        if proc.poll() is None:  # pragma: no cover - hung child
            proc.kill()
    assert name.startswith("repro_shm_")
    assert proc.returncode == -signal.SIGKILL
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        if not segment_exists(name):
            return
        time.sleep(0.25)
    pytest.fail("shared-memory segment leaked after coordinator SIGKILL")
