"""Experiment configuration.

The paper averages every Table III entry over 50 runs; doing that for 9
methods on 8 data sets is expensive, so the harness ships two presets:

* ``FAST_CONFIG`` — few restarts, a subset of data sets for the slowest
  methods, reduced synthetic sizes for Fig. 6; finishes on a laptop in
  minutes and is what the pytest-benchmark targets use by default.
* ``PAPER_CONFIG`` — the paper's settings (50 restarts, full sizes).

Select with the environment variable ``REPRO_EXPERIMENT_PRESET=paper``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the table/figure reproduction entry points."""

    n_restarts: int = 3
    random_state: int = 2024
    # Process-parallelism of repeated trials (1 = serial).  Seeds are drawn
    # up front, so results are identical for any value; see
    # ``repro.experiments.runner.map_trials``.
    n_jobs: int = 1
    # Shard-executor backend for the methods that support sharding (currently
    # MCDC): None keeps the serial estimators; "serial"/"tcp" route them
    # through the sharded runtime (repro.distributed.transport; the names of
    # folded backends resolve as aliases of "serial" and "tcp", so saved
    # configs keep loading).  With "tcp", ``hosts`` lists the `repro worker`
    # addresses.
    backend: Optional[str] = None
    hosts: Tuple[str, ...] = ()
    # Extra backend options as sorted (key, value) pairs (kept hashable for
    # the frozen dataclass) — e.g. the tcp backend's max_retries / timeout.
    backend_options: Tuple[Tuple[str, object], ...] = ()
    datasets: Tuple[str, ...] = ("Car", "Con", "Che", "Mus", "Tic", "Vot", "Bal", "Nur")
    learning_rate: float = 0.03
    wilcoxon_alpha: float = 0.1
    # Fig. 6 sweeps (kept small in the fast preset; the paper sweeps up to
    # n=200000, k=5000 and d=1000).
    fig6_n_values: Tuple[int, ...] = (2000, 5000, 10000, 20000)
    fig6_k_values: Tuple[int, ...] = (50, 100, 200, 400)
    fig6_d_values: Tuple[int, ...] = (50, 100, 200, 400)
    fig6_base_n: int = 5000
    fig6_base_d: int = 10
    # Methods that are quadratic (ROCK) or heavy (GUDMM/ADC on wide data) can
    # be skipped on the largest data sets in the fast preset.
    max_objects_slow_methods: int = 4000


FAST_CONFIG = ExperimentConfig()

PAPER_CONFIG = ExperimentConfig(
    n_restarts=50,
    fig6_n_values=(20000, 60000, 100000, 140000, 200000),
    fig6_k_values=(500, 1000, 2000, 3500, 5000),
    fig6_d_values=(100, 200, 400, 700, 1000),
    fig6_base_n=200000,
    fig6_base_d=1000,
    max_objects_slow_methods=20000,
)


def active_config() -> ExperimentConfig:
    """Return the preset selected by ``REPRO_EXPERIMENT_PRESET`` (default fast)."""
    preset = os.environ.get("REPRO_EXPERIMENT_PRESET", "fast").lower()
    if preset == "paper":
        return PAPER_CONFIG
    return FAST_CONFIG
