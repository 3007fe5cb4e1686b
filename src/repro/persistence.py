"""Model persistence: round-trip fitted clusterers through EngineState snapshots.

A fitted clusterer is fully described by three things, all of which serialise
without pickle:

* its **constructor parameters** (``get_params``), stored as JSON — nested
  estimators (e.g. ``MCDC(final_clusterer=GUDMM(...))``) recurse through the
  registry;
* its **assignment model** — the :class:`~repro.engine.state.EngineState`
  sufficient statistics of the fitted partition plus the optional per-level
  weights; modes and Eqs. 15-18 feature weights are *recomputed* from the
  counts on load, so a loaded model predicts bit-identically;
* a small set of **fitted attributes** (``labels_``, ``n_clusters_`` and the
  per-class ``_persisted_attributes`` whitelist).

The on-disk format is a compressed ``.npz`` archive (plain arrays plus one
JSON metadata string; ``allow_pickle=False`` end to end), so models written
by one host can be shipped to and served from any other — the gateway for
the multi-host follow-ups on the roadmap.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from repro.core.assignment import AssignmentModel
from repro.core.base import BaseClusterer
from repro.engine.state import EngineState
from repro.registry import make_clusterer, spec_for_instance
from repro.utils.log import get_logger

__all__ = ["save_model", "load_model", "FORMAT", "FORMAT_VERSION"]

FORMAT = "repro-clusterer"
FORMAT_VERSION = 1

PathLike = Union[str, Path]
_NESTED_KEY = "__clusterer__"

#: Constructor parameters the ``Sharded*`` estimators no longer take (the
#: folded single-host process backend's multiprocessing context).  Saved
#: models still carry them, always ``null``; loading drops them with a
#: warning.
RETIRED_PARAMETERS = ("mp_context",)

_logger = get_logger(__name__)


# ---------------------------------------------------------------------- #
# Parameter (de)serialisation
# ---------------------------------------------------------------------- #
def _encode_param(name: str, value: Any) -> Any:
    if isinstance(value, BaseClusterer):
        spec = spec_for_instance(value)
        return {
            _NESTED_KEY: spec.name,
            "params": _encode_params(value.get_params()),
        }
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_encode_param(name, item) for item in value]
    if isinstance(value, dict):
        # Plain option mappings (e.g. backend_options={"max_retries": 3}).
        # The nested-clusterer sentinel key is reserved for _decode_param.
        if any(not isinstance(key, str) or key == _NESTED_KEY for key in value):
            raise ValueError(
                f"parameter {name!r}: only string-keyed dicts (without the "
                f"reserved {_NESTED_KEY!r} key) can be persisted"
            )
        return {key: _encode_param(name, item) for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValueError(
        f"parameter {name!r} of type {type(value).__name__} cannot be persisted; "
        "use an int seed for random_state, not a generator"
    )


def _encode_params(params: Dict[str, Any]) -> Dict[str, Any]:
    return {name: _encode_param(name, value) for name, value in params.items()}


def _decode_param(value: Any) -> Any:
    if isinstance(value, dict) and _NESTED_KEY in value:
        return make_clusterer(value[_NESTED_KEY], **_decode_params(value["params"]))
    if isinstance(value, dict):
        return {key: _decode_param(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_param(item) for item in value]
    return value


def _decode_params(params: Dict[str, Any]) -> Dict[str, Any]:
    retired = sorted(set(params) & set(RETIRED_PARAMETERS))
    if retired:
        _logger.warning("ignoring retired parameter(s) %s", ", ".join(retired))
    return {
        name: _decode_param(value)
        for name, value in params.items()
        if name not in RETIRED_PARAMETERS
    }


# ---------------------------------------------------------------------- #
# Fitted-attribute (de)serialisation
# ---------------------------------------------------------------------- #
def _pack_extra(value: Any):
    """Return ``(kind, array)`` for one whitelisted fitted attribute."""
    if isinstance(value, np.ndarray):
        return "array", value
    if isinstance(value, (bool, np.bool_)):
        return "int", np.asarray(int(value))
    if isinstance(value, (int, np.integer)):
        return "int", np.asarray(int(value))
    if isinstance(value, (float, np.floating)):
        return "float", np.asarray(float(value))
    if isinstance(value, (list, tuple)):
        return "list", np.asarray(value)
    raise ValueError(f"cannot persist fitted attribute of type {type(value).__name__}")


def _unpack_extra(kind: str, array: np.ndarray) -> Any:
    if kind == "array":
        return array
    if kind == "int":
        return int(array)
    if kind == "float":
        return float(array)
    if kind == "list":
        return [item.item() if isinstance(item, np.generic) else item for item in array]
    raise ValueError(f"unknown persisted attribute kind {kind!r}")


# ---------------------------------------------------------------------- #
# Save / load
# ---------------------------------------------------------------------- #
def save_model(model: BaseClusterer, path: PathLike) -> Path:
    """Write a fitted clusterer to ``path`` (a compressed ``.npz`` archive).

    The model class must be registered (:mod:`repro.registry`) and fitted;
    its parameters must be JSON-serialisable (integer seeds, no live
    generators).  Returns the path written.
    """
    if not isinstance(model, BaseClusterer):
        raise TypeError(f"save_model expects a BaseClusterer, got {type(model).__name__}")
    model._check_fitted()
    if model.assignment_model_ is None:
        raise RuntimeError(
            f"{type(model).__name__} has labels but no assignment model; "
            "was fit() bypassed?"
        )
    spec = spec_for_instance(model)
    state = model.assignment_model_.state

    arrays: Dict[str, np.ndarray] = {
        "labels": np.asarray(model.labels_, dtype=np.int64),
        "state_packed": state.packed,
        "state_valid_counts": state.valid_counts,
        "state_sizes": state.sizes,
        "state_n_categories": np.asarray(state.n_categories, dtype=np.int64),
    }
    if model.assignment_model_.feature_weights is not None:
        arrays["feature_weights"] = model.assignment_model_.feature_weights

    extras: Dict[str, str] = {}
    for attr in type(model)._persisted_attributes:
        if not hasattr(model, attr):
            continue
        kind, array = _pack_extra(getattr(model, attr))
        extras[attr] = kind
        arrays[f"extra_{attr}"] = array

    meta = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "clusterer": spec.name,
        "class": type(model).__name__,
        "params": _encode_params(model.get_params()),
        "n_clusters": int(model.n_clusters_),
        "extras": extras,
        "has_feature_weights": model.assignment_model_.feature_weights is not None,
    }

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        np.savez_compressed(fh, __meta__=np.asarray(json.dumps(meta)), **arrays)
    return path


def load_model(path: PathLike) -> BaseClusterer:
    """Load a clusterer saved by :func:`save_model`.

    The instance is rebuilt through the registry with its saved parameters,
    then its fitted state is restored; modes and feature weights are derived
    from the persisted counts, so ``loaded.predict(X)`` is bit-identical to
    the original model's.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if "__meta__" not in archive:
            raise ValueError(f"{path} is not a {FORMAT} archive")
        meta = json.loads(str(archive["__meta__"]))
        if meta.get("format") != FORMAT:
            raise ValueError(f"{path} is not a {FORMAT} archive")
        if meta.get("version", 0) > FORMAT_VERSION:
            raise ValueError(
                f"{path} was written by a newer format (v{meta['version']}); "
                f"this build reads up to v{FORMAT_VERSION}"
            )

        model = make_clusterer(meta["clusterer"], **_decode_params(meta["params"]))
        if type(model).__name__ != meta["class"]:
            raise ValueError(
                f"{path} was saved as {meta['class']} but {meta['clusterer']!r} "
                f"builds {type(model).__name__}"
            )

        state = EngineState(
            archive["state_packed"],
            archive["state_valid_counts"],
            archive["state_sizes"],
            tuple(int(m) for m in archive["state_n_categories"]),
        )
        feature_weights = (
            archive["feature_weights"] if meta.get("has_feature_weights") else None
        )
        model.assignment_model_ = AssignmentModel(state, feature_weights)
        model.labels_ = np.asarray(archive["labels"], dtype=np.int64)
        model.n_clusters_ = int(meta["n_clusters"])
        for attr, kind in meta.get("extras", {}).items():
            setattr(model, attr, _unpack_extra(kind, archive[f"extra_{attr}"]))
    return model
