"""Maximum matching, perfect matching enumeration, 2-factors and o(G).

Maximum matching delegates to networkx's blossom-based
max_weight_matching (exact for cardinality); everything built on top of
perfect matchings is exhaustive and deterministic, which is what the
inequality engine needs at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from .errors import NoTwoFactor, NotCubic, NotPerfect
from .graph import MultiGraph


@dataclass(frozen=True)
class Matching:
    edge_ids: frozenset[int]

    def __len__(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class TwoFactor:
    edge_ids: frozenset[int]
    cycles: tuple[tuple[int, ...], ...]  # each cycle as a tuple of edge ids
    odd_cycle_count: int


def max_matching(g: MultiGraph) -> Matching:
    """A maximum-cardinality matching (parallel edges collapse; the
    lowest edge id is reported for each matched pair)."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(set(g.edges))
    mate = nx.max_weight_matching(h, maxcardinality=True)
    first_id: dict[tuple[int, int], int] = {}
    for eid, e in enumerate(g.edges):
        first_id.setdefault(e, eid)
    ids = frozenset(first_id[(min(u, v), max(u, v))] for u, v in mate)
    return Matching(ids)


def enumerate_perfect_matchings(g: MultiGraph, limit: int = 10**9) -> list[Matching]:
    """All perfect matchings, lexicographic by sorted edge-id tuple.

    Parallel twins yield distinct matchings.  Empty list when none exist.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if g.n % 2 == 1:
        return []
    out: list[tuple[int, ...]] = []
    covered = [False] * g.n
    chosen: list[int] = []

    def extend(start: int) -> bool:
        """Returns False once the limit is reached."""
        v = start
        while v < g.n and covered[v]:
            v += 1
        if v == g.n:
            out.append(tuple(sorted(chosen)))
            return len(out) < limit
        for eid, w in g.incident(v):
            if covered[w]:
                continue
            covered[v] = covered[w] = True
            chosen.append(eid)
            ok = extend(v + 1)
            chosen.pop()
            covered[v] = covered[w] = False
            if not ok:
                return False
        return True

    extend(0)
    out.sort()
    return [Matching(frozenset(t)) for t in out]


def two_factor_from_pm(g: MultiGraph, pm: Matching) -> TwoFactor:
    """Decompose the complement of a perfect matching of a cubic graph
    into its cycles."""
    if g.n == 0 or any(g.degree(v) != 3 for v in range(g.n)):
        raise NotCubic("2-factor complement requires a cubic graph")
    covered = [0] * g.n
    for eid in pm.edge_ids:
        u, v = g.endpoints(eid)
        covered[u] += 1
        covered[v] += 1
    if len(pm.edge_ids) != g.n // 2 or any(c != 1 for c in covered):
        raise NotPerfect("matching does not cover every vertex exactly once")
    rest = [eid for eid in range(g.m) if eid not in pm.edge_ids]
    cycles = g.walk_cycles(rest)
    odd = sum(1 for c in cycles if len(c) % 2 == 1)
    return TwoFactor(frozenset(rest), tuple(cycles), odd)


def min_odd_two_factor(g: MultiGraph) -> int:
    """o(G): minimum odd-cycle count over all 2-factors of a cubic graph,
    by exhaustive perfect-matching enumeration."""
    pms = enumerate_perfect_matchings(g)
    if not pms:
        raise NoTwoFactor("graph has no perfect matching")
    return min(two_factor_from_pm(g, pm).odd_cycle_count for pm in pms)
