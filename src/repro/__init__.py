"""repro — reproduction of "Robust Categorical Data Clustering Guided by
Multi-Granular Competitive Learning" (ICDCS 2024).

Public API highlights
---------------------
* :func:`repro.make_clusterer` — build any registered method by name
  (``"mcdc"``, ``"kmodes"``, ``"mcdc@sharded"``, the paper's ``"MCDC+G."``
  aliases, ...); see :mod:`repro.registry`.
* :class:`repro.core.MCDC` — the full clustering pipeline (MGCPL + CAME).
* :class:`repro.core.MGCPL` — multi-granular competitive penalization learning.
* :class:`repro.core.CAME` — aggregation of the multi-granular encoding.
* :class:`repro.core.MCDCEncoder` — expose the encoding to other clusterers.
* The v2 estimator contract on every method: ``fit`` / ``predict`` (out-of-
  sample weighted-Hamming assignment), ``partial_fit`` (exact streaming) /
  ``ingest`` (constant-time streaming), ``get_params`` / ``set_params`` /
  ``clone``, and ``save`` / :func:`repro.load_model` persistence through
  ``EngineState`` snapshots (:mod:`repro.persistence`).
* :mod:`repro.engine` — the packed similarity engine every layer runs on
  (``"auto"``/``"dense"``, the vectorised backend, and ``"loop"``, the
  reference; ``"chunked"`` and ``"compiled"`` are aliases of ``"dense"``).
* :mod:`repro.baselines` — k-modes, ROCK, WOCIL, GUDMM, FKMAWCW, ADC.
* :mod:`repro.data` — data set container, generators and the UCI benchmarks.
* :mod:`repro.metrics` — ACC, ARI, AMI, FM validity indices.
* :mod:`repro.distributed` — sharded runtime and MCDC-guided pre-partitioning.
* :mod:`repro.serving` — the long-lived serving tier: ``ModelServer`` loads
  a model archive once and answers ``predict``/``ingest`` over TCP with
  atomic snapshots back to disk; ``ServingClient`` is the connection handle
  (``repro serve`` / ``repro predict --server`` on the CLI).
* :mod:`repro.experiments` — reproduction of every table and figure.

Quick start::

    from repro import make_clusterer, load_model

    model = make_clusterer("mcdc", n_clusters=4, random_state=0).fit(train)
    model.save("model.npz")
    ...
    server = load_model("model.npz")
    labels = server.predict(new_batch)

Or served long-lived over the network::

    from repro.serving import ServingClient, serve_model

    server = serve_model("model.npz", listen="0.0.0.0:9100", snapshot_every=100)
    with ServingClient(server.address) as client:
        labels = client.predict(new_batch)   # bit-identical to in-process
"""

from repro.core import CAME, MCDC, MCDCEncoder, MGCPL
from repro.data import CategoricalDataset
from repro.persistence import load_model, save_model
from repro.registry import available_clusterers, make_clusterer

__version__ = "1.2.0"

__all__ = [
    "MCDC",
    "MGCPL",
    "CAME",
    "MCDCEncoder",
    "CategoricalDataset",
    "make_clusterer",
    "available_clusterers",
    "load_model",
    "save_model",
    "__version__",
]
