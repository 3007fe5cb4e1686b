"""Graph-based value dissimilarity (substrate for the ADC baseline).

ADC ("graph-based dissimilarity measurement for cluster analysis of any-type-
attributed data", Zhang & Cheung 2022) represents every possible categorical
value as a node of a graph whose edges connect values that frequently
co-occur on the same object; the dissimilarity of two values is derived from
the similarity of their connection patterns (shared neighbourhood structure),
so that values that behave alike in the data are close even though they never
match literally.  This module builds that value graph with ``networkx`` and
produces per-feature value distance matrices in the same format as
:func:`repro.distance.value_cooccurrence.cooccurrence_value_distances`.

``networkx`` is imported inside the two functions that use it, not at module
level: ``repro.distance`` and the baselines import this module, and a process
that only loads, saves or serves an MCDC model should not pay for a graph
library only ADC needs.  (The clusterer registry imports the baselines only
when a lookup misses, see :mod:`repro.registry`.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.utils.validation import check_array_2d

if TYPE_CHECKING:
    import networkx as nx


def build_value_graph(codes, n_categories: Optional[List[int]] = None) -> Tuple[nx.Graph, List[int]]:
    """Build the co-occurrence value graph.

    Nodes are (feature, value) pairs flattened to global indices; an edge
    between two values of *different* features is weighted by the empirical
    joint frequency of the two values appearing on the same object.

    Returns
    -------
    graph:
        The weighted value graph.
    offsets:
        ``offsets[r]`` is the global node index of value 0 of feature ``r``.
    """
    import networkx as nx

    codes = check_array_2d(codes, "codes", dtype=np.int64)
    n, d = codes.shape
    if n_categories is None:
        n_categories = [int(codes[:, r].max()) + 1 for r in range(d)]
    offsets = list(np.concatenate([[0], np.cumsum(n_categories)[:-1]]).astype(int))

    graph = nx.Graph()
    for r in range(d):
        for t in range(n_categories[r]):
            graph.add_node(offsets[r] + t, feature=r, value=t)

    for r in range(d):
        for s in range(r + 1, d):
            col_r, col_s = codes[:, r], codes[:, s]
            mask = (col_r >= 0) & (col_s >= 0)
            if not mask.any():
                continue
            joint = np.zeros((n_categories[r], n_categories[s]), dtype=np.float64)
            np.add.at(joint, (col_r[mask], col_s[mask]), 1.0)
            joint /= mask.sum()
            rows, cols = np.nonzero(joint)
            for a, b in zip(rows, cols):
                graph.add_edge(offsets[r] + int(a), offsets[s] + int(b), weight=float(joint[a, b]))
    return graph, offsets


def graph_value_distances(codes, n_categories: Optional[List[int]] = None) -> List[np.ndarray]:
    """Per-feature value distance matrices derived from the value graph.

    The distance between two values of the same feature is one minus the
    cosine similarity of their weighted adjacency (connection) vectors in the
    value graph.  Values that co-occur with the same values of other features
    therefore obtain a small distance.
    """
    import networkx as nx

    codes = check_array_2d(codes, "codes", dtype=np.int64)
    n, d = codes.shape
    if n_categories is None:
        n_categories = [int(codes[:, r].max()) + 1 for r in range(d)]
    graph, offsets = build_value_graph(codes, n_categories)
    total_nodes = int(offsets[-1] + n_categories[-1]) if d > 0 else 0
    adjacency = nx.to_numpy_array(graph, nodelist=range(total_nodes), weight="weight")

    distances: List[np.ndarray] = []
    for r in range(d):
        m = n_categories[r]
        block = adjacency[offsets[r]: offsets[r] + m]  # (m, total_nodes)
        norms = np.linalg.norm(block, axis=1)
        D = np.ones((m, m), dtype=np.float64)
        for a in range(m):
            for b in range(a, m):
                if a == b:
                    D[a, b] = 0.0
                    continue
                if norms[a] > 0 and norms[b] > 0:
                    cos = float(block[a] @ block[b] / (norms[a] * norms[b]))
                    D[a, b] = D[b, a] = 1.0 - max(min(cos, 1.0), 0.0)
                else:
                    D[a, b] = D[b, a] = 1.0
        distances.append(D)
    return distances
