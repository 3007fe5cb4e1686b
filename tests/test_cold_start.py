"""Cold start: a process that loads, saves or serves a model imports only
what that model needs.

``networkx`` (ADC's value graph), the baselines and the sharded runtime cost
a fresh process about 200 ms and 14 MB before its first answer, and an MCDC
model needs none of them.  Each case runs in a fresh subprocess, since the
pytest process has long imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import numpy as np

from repro.core import MCDC
from repro.data.generators import make_categorical_clusters
from repro.persistence import save_model

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Modules a load/save/serve of an MCDC model must never import.
HEAVY = ("networkx", "repro.baselines")


def run_script(body: str, *args: str) -> dict:
    """Run ``body`` in a fresh interpreter; return its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body), *args], capture_output=True,
        text=True, cwd=REPO_ROOT, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_load_save_serve_mcdc_imports_no_graph_library_or_baselines(tmp_path):
    data = make_categorical_clusters(
        n_objects=400, n_features=6, n_clusters=3, random_state=3, name="cold-start",
    )
    model = MCDC(n_clusters=3, random_state=0).fit(data)
    archive = save_model(model, tmp_path / "model.npz")
    row = np.ascontiguousarray(data.codes[:1], dtype=np.int64)

    out = run_script("""
        import json, sys
        import numpy as np
        import repro.cli
        from repro import load_model, save_model

        WATCHED = ("networkx", "repro.baselines", "repro.distributed.runtime")

        def loaded():
            return sorted(name for name in WATCHED if name in sys.modules)

        model = load_model(sys.argv[1])
        save_model(model, sys.argv[2])
        after_persistence = loaded()

        from repro.serving import ServingClient, serve_model

        server = serve_model(sys.argv[1])
        try:
            with ServingClient(server.address) as client:
                label = client.predict(np.array([json.loads(sys.argv[3])])).tolist()
        finally:
            stopped = server.stop(timeout=15)
        print(json.dumps({
            "after_persistence": after_persistence, "after_serving": loaded(),
            "label": label, "stopped": stopped,
        }))
    """, str(archive), str(tmp_path / "resaved.npz"), json.dumps(row[0].tolist()))

    assert out["after_persistence"] == []
    assert not set(HEAVY) & set(out["after_serving"])
    assert out["label"] == model.predict(row).tolist()
    assert out["stopped"]


def test_adc_and_graph_distances_still_import_networkx_where_used():
    out = run_script("""
        import json, sys
        from repro.baselines import ADC
        from repro.data.generators import make_categorical_clusters
        from repro.distance.graph_based import graph_value_distances

        before = "networkx" in sys.modules
        data = make_categorical_clusters(
            n_objects=120, n_features=4, n_clusters=2, random_state=1, name="adc",
        )
        labels = ADC(n_clusters=2, random_state=0).fit(data).labels_
        distances = graph_value_distances(data.codes)
        print(json.dumps({
            "before": before, "after": "networkx" in sys.modules,
            "n_labels": len(set(labels.tolist())), "shapes": [d.shape for d in distances],
        }))
    """)
    assert out["before"] is False
    assert out["after"] is True
    assert out["n_labels"] == 2
    assert len(out["shapes"]) == 4
    assert all(rows == cols for rows, cols in out["shapes"])
