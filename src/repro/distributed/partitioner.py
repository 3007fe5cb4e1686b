"""MCDC-guided pre-partitioning of categorical data for distributed processing.

Implements use case 1 of paper Sec. III-D: the multi-granular clusters found
by MGCPL are used to split a data set into compact partitions that can be
placed on compute nodes, so that parallel processing does not destroy the
local correlation structure of the data.  The partitioner picks the MGCPL
granularity level that best matches the requested number of partitions and
balances the partitions by splitting over-sized micro-clusters only as a last
resort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.base import ArrayOrDataset, coerce_codes
from repro.core.mgcpl import MGCPL, MGCPLResult
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive_int


@dataclass
class PartitionPlan:
    """Assignment of data objects to partitions (one partition per target node)."""

    assignments: np.ndarray           # (n,) partition index per object
    n_partitions: int
    granularity_used: int             # which MGCPL level the plan came from
    kappa: List[int] = field(default_factory=list)

    def partition_indices(self, partition: int) -> np.ndarray:
        """Object indices placed in ``partition``."""
        return np.flatnonzero(self.assignments == partition)

    def sizes(self) -> np.ndarray:
        """Partition sizes."""
        return np.bincount(self.assignments, minlength=self.n_partitions)


class MultiGranularPartitioner:
    """Pre-partition a categorical data set with MGCPL's multi-granular clusters.

    Parameters
    ----------
    n_partitions:
        Number of partitions (usually the number of compute nodes).
    balance_tolerance:
        Maximum allowed ratio between the largest partition and the ideal
        size before over-sized micro-clusters are split.
    engine:
        Frequency-table backend handed to MGCPL (``"auto"``, ``"dense"``,
        ``"compiled"`` or ``"loop"``).  Pre-partitioning targets large data
        sets; the dense engine stops caching its one-hot above 2**26 cells,
        so its memory stays bounded; see :mod:`repro.engine`.
    random_state:
        Seed or generator (passed to MGCPL and to the balancing step).
    """

    def __init__(
        self,
        n_partitions: int,
        balance_tolerance: float = 1.5,
        engine: str = "auto",
        random_state: RandomState = None,
    ) -> None:
        self.n_partitions = check_positive_int(n_partitions, "n_partitions")
        if balance_tolerance < 1.0:
            raise ValueError(f"balance_tolerance must be >= 1, got {balance_tolerance}")
        self.balance_tolerance = float(balance_tolerance)
        self.engine = engine
        self.random_state = random_state

    def fit(self, X: ArrayOrDataset) -> "MultiGranularPartitioner":
        codes, _ = coerce_codes(X)
        n = codes.shape[0]
        rng = ensure_rng(self.random_state)

        mgcpl = MGCPL(engine=self.engine, random_state=int(rng.integers(0, 2**31 - 1)))
        mgcpl.fit(X)
        self.mgcpl_result_: MGCPLResult = mgcpl.result_

        level = self.mgcpl_result_.level_for_k(self.n_partitions)
        micro_labels = level.labels
        assignments = self._pack_micro_clusters(micro_labels, n, rng)
        self.plan_ = PartitionPlan(
            assignments=assignments,
            n_partitions=self.n_partitions,
            granularity_used=level.n_clusters,
            kappa=self.mgcpl_result_.kappa,
        )
        return self

    def fit_partition(self, X: ArrayOrDataset) -> PartitionPlan:
        """Fit and return the partition plan."""
        return self.fit(X).plan_

    # ------------------------------------------------------------------ #
    def _pack_micro_clusters(
        self, micro_labels: np.ndarray, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Pack micro-clusters into ``n_partitions`` bins (largest-first greedy).

        Whole micro-clusters are kept together whenever possible; a
        micro-cluster is split only when it alone exceeds the balance
        tolerance, or — when there are fewer micro-clusters than partitions —
        to guarantee that every partition receives at least one object
        (otherwise a target node would sit idle).
        """
        p = self.n_partitions
        ideal = n / p
        max_size = self.balance_tolerance * ideal

        cluster_ids, counts = np.unique(micro_labels, return_counts=True)
        units: List[np.ndarray] = []
        for cluster, count in zip(cluster_ids, counts):
            member_idx = np.flatnonzero(micro_labels == cluster)
            if count > max_size and p > 1:
                # Split an oversized micro-cluster into tolerance-sized chunks.
                shuffled = member_idx[rng.permutation(member_idx.size)]
                units.extend(np.array_split(shuffled, int(np.ceil(count / max_size))))
            else:
                units.append(member_idx)

        # Fewer units than partitions (n_partitions > number of micro-
        # clusters): halve the largest unit until every bin can be fed.
        while len(units) < p and max(unit.size for unit in units) > 1:
            units.sort(key=lambda unit: unit.size, reverse=True)
            largest = units.pop(0)
            half = largest.size // 2
            units.extend([largest[:half], largest[half:]])

        units.sort(key=lambda unit: unit.size, reverse=True)
        loads = np.zeros(p, dtype=np.float64)
        assignments = np.empty(n, dtype=np.int64)
        for unit in units:
            target = int(np.argmin(loads))
            assignments[unit] = target
            loads[target] += unit.size
        return assignments
