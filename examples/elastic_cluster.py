"""Fault-tolerant cluster demo: SIGKILL a worker mid-fit, finish the fit anyway.

The ``tcp`` backend's recovery (``repro.distributed.resilience``) turns a
worker death from a fatal ``TransportError`` into a recovered shard:

1. three plain ``repro worker`` processes are spawned on loopback;
2. a ``ShardedMGCPL(backend="tcp", ...)`` fit starts with one shard per
   worker and a reconnect budget passed as ``backend_options``;
3. a timer ``kill -9``-s one worker while the sweeps are running.  The
   coordinator detects the broken connection, re-places the lost shard on a
   surviving worker (re-shipping its codes in a fresh handshake), replays
   the epoch state, and the fit completes **bit-identical** to the serial
   MGCPL on the same data;
4. the executor's ``recovery_events`` show what happened and how long the
   re-placement took.

Run with ``PYTHONPATH=src python examples/elastic_cluster.py``.
"""

import os
import signal
import subprocess
import sys
import threading

import numpy as np

from repro.core import MGCPL
from repro.data.generators import make_categorical_clusters


def spawn_worker() -> subprocess.Popen:
    """One killable `repro worker` on a free loopback port."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE, text=True, env=env,
    )


def worker_address(process: subprocess.Popen) -> str:
    # First stdout line: "repro worker listening on HOST:PORT"
    return process.stdout.readline().strip().rsplit(" ", 1)[-1]


def main() -> None:
    from repro.distributed import ShardedMGCPL

    dataset = make_categorical_clusters(
        n_objects=6_000, n_features=10, n_clusters=4, n_categories=6,
        purity=0.8, random_state=7, name="elastic-demo",
    )

    workers = [spawn_worker() for _ in range(3)]
    try:
        hosts = [worker_address(worker) for worker in workers]
        print(f"workers up on {hosts}")

        model = ShardedMGCPL(
            n_shards=3, backend="tcp", hosts=hosts, random_state=0,
            backend_options={"max_retries": 3},  # reconnect budget per lost shard
        )

        # The chaos: kill -9 one worker 0.3s into the fit, mid-sweep.
        victim = workers[0]
        killer = threading.Timer(0.3, lambda: os.kill(victim.pid, signal.SIGKILL))
        killer.start()
        try:
            model.fit(dataset)
        finally:
            killer.cancel()

        assert victim.poll() is not None, "the victim survived — rerun"
        print(f"worker {hosts[0]} was SIGKILLed mid-fit; the fit finished")

        events = model.last_executor_.recovery_events
        assert events, "no shard was recovered"
        for event in events:
            print(
                f"  shard {event['shard']} re-placed "
                f"{event['from_host']} -> {event['to_host']} during "
                f"{event['method']!r} in {event['recovery_seconds'] * 1e3:.1f} ms "
                f"({event['attempts']} attempt(s))"
            )

        # The contract: recovery changed nothing about the math.
        serial = MGCPL(random_state=0, update_mode="batch").fit(dataset)
        identical = bool(np.array_equal(model.labels_, serial.labels_))
        print(f"labels bit-identical to serial MGCPL: {identical}")
        assert identical
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.terminate()
            worker.wait(timeout=15)
            worker.stdout.close()
    print("workers torn down")


if __name__ == "__main__":
    main()
