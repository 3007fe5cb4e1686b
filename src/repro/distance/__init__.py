"""Distance and similarity measures for categorical data."""

from repro.distance.hamming import hamming_distance, hamming_matrix, pairwise_hamming
from repro.distance.value_cooccurrence import (
    cooccurrence_value_distances,
    mutual_information_matrix,
)
from repro.distance.graph_based import graph_value_distances

__all__ = [
    "hamming_distance",
    "hamming_matrix",
    "pairwise_hamming",
    "cooccurrence_value_distances",
    "mutual_information_matrix",
    "graph_value_distances",
]
