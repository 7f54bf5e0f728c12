"""Independent exhaustive reference solver.

Deliberately simple and structurally unrelated to the branch-and-bound
solver: nu_k is computed by enumerating edge subsets in decreasing size
and testing k-edge-colorability of each subset with plain first-fit
backtracking.  Intended for graphs with at most ~15 edges.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BadParameter, TooLarge
from .exact import _searchable
from .graph import MultiGraph

DEFAULT_MAX_EDGES = 12


def _subset_colorable(g: MultiGraph, subset: tuple[int, ...], k: int) -> bool:
    """Can the given edge ids be partitioned into k matchings?"""
    used = [0] * g.n  # bitmask of colors present at each vertex

    def place(i: int) -> bool:
        if i == len(subset):
            return True
        u, v = g.edges[subset[i]]
        taken = used[u] | used[v]
        for c in range(k):
            bit = 1 << c
            if taken & bit:
                continue
            used[u] |= bit
            used[v] |= bit
            if place(i + 1):
                return True
            used[u] &= ~bit
            used[v] &= ~bit
        return False

    return place(0)


def nu_k_oracle(g: MultiGraph, k: int, max_edges: int = DEFAULT_MAX_EDGES) -> int:
    """Exhaustive nu_k: largest k-edge-colorable edge subset."""
    if k < 1:
        raise BadParameter("k must be positive")
    m = g.m
    if m > max_edges:
        raise TooLarge(f"oracle limited to {max_edges} edges, got {m}")
    if not _searchable(g):  # the backtrack takes one frame per edge
        raise TooLarge(f"a backtrack over {m} edges exceeds the recursion limit")
    # quick cap: a vertex of degree d contributes at most min(d, k) slots
    cap = sum(min(d, k) for d in g.degrees()) // 2
    all_ids = range(m)
    for size in range(min(m, cap), -1, -1):
        for subset in combinations(all_ids, size):
            if _subset_colorable(g, subset, k):
                return size
    return 0


def max_matching_oracle(g: MultiGraph, max_edges: int = DEFAULT_MAX_EDGES) -> int:
    """Exhaustive maximum matching size (nu_1)."""
    return nu_k_oracle(g, 1, max_edges=max_edges)
