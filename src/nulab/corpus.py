"""Corpus generation: random trees/unicyclic/multigraphs and the
exhaustive small-graph corpora used by the verification suites.

The connected cubic corpus is produced by 2-factor + perfect-matching
enumeration with isomorphism dedup; the per-order counts are validated
against the published census (1, 2, 5, 19, 85 for n = 4..12) in the
test suite.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterator

import networkx as nx

from .errors import BadParameter
from .graph import MultiGraph


def random_tree(n: int, rng: random.Random) -> MultiGraph:
    """Uniform-attachment random tree on n >= 1 vertices."""
    return MultiGraph(n, [(rng.randrange(i), i) for i in range(1, n)])


def random_unicyclic(n: int, rng: random.Random) -> MultiGraph:
    """Random tree plus one extra edge (parallel pairs allowed, so
    2-cycles occur) on n >= 2 vertices."""
    if n < 2:
        raise BadParameter("a unicyclic multigraph needs at least 2 vertices")
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return MultiGraph(n, edges + [_random_pair(n, rng)])


def random_multigraph(n: int, m: int, rng: random.Random) -> MultiGraph:
    """m uniform random loopless edges on n vertices (n >= 2 when m >= 1)."""
    if n < 2 and m >= 1:
        raise BadParameter("a loopless edge needs at least 2 vertices")
    return MultiGraph(n, [_random_pair(n, rng) for _ in range(m)])


def _random_pair(n: int, rng: random.Random) -> tuple[int, int]:
    """Two distinct vertices of 0..n-1 (n >= 2), smaller first."""
    u = rng.randrange(n)
    v = rng.randrange(n)
    while v == u:
        v = rng.randrange(n)
    return min(u, v), max(u, v)


def random_trees(count: int, max_n: int, seed: int) -> Iterator[MultiGraph]:
    rng = random.Random(seed)
    for _ in range(count):
        yield random_tree(rng.randint(2, max_n), rng)


def random_unicyclics(count: int, max_n: int, seed: int) -> Iterator[MultiGraph]:
    rng = random.Random(seed)
    for _ in range(count):
        yield random_unicyclic(rng.randint(2, max_n), rng)


def _to_nx(g: MultiGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _partitions(n: int, min_part: int = 3) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts >= min_part, non-increasing."""

    def rec(rest: int, cap: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield acc
            return
        for p in range(min(cap, rest), min_part - 1, -1):
            if rest - p == 0 or rest - p >= min_part:
                yield from rec(rest - p, p, acc + (p,))

    yield from rec(n, n, ())


def _matchings_avoiding(n: int, banned: set) -> Iterator[list[tuple[int, int]]]:
    """All perfect matchings of the vertex set 0..n-1 whose pairs avoid
    the banned edge set."""
    chosen: list[tuple[int, int]] = []
    free = [True] * n

    def rec(v: int) -> Iterator[list[tuple[int, int]]]:
        while v < n and not free[v]:
            v += 1
        if v == n:
            yield list(chosen)
            return
        free[v] = False
        for w in range(v + 1, n):
            if free[w] and (v, w) not in banned:
                free[w] = False
                chosen.append((v, w))
                yield from rec(v + 1)
                chosen.pop()
                free[w] = True
        free[v] = True

    yield from rec(0)


def connected_cubic_graphs(max_n: int) -> list[MultiGraph]:
    """All connected simple cubic graphs with 4 <= n <= max_n, one per
    isomorphism class.

    Every connected simple cubic graph on at most 14 vertices has a
    perfect matching (the smallest counterexample has 16), so each is a
    2-factor plus a perfect matching: enumerate a canonical labeled
    2-factor per cycle-type partition, all avoiding perfect matchings on
    top of it, and deduplicate by isomorphism.
    """
    if max_n > 14:
        raise BadParameter("PM-based cubic enumeration is valid only up to n = 14")
    out: list[MultiGraph] = []
    for n in range(4, max_n + 1, 2):
        buckets: dict[tuple, list[tuple[MultiGraph, nx.Graph]]] = {}
        for part in _partitions(n):
            cyc_edges: list[tuple[int, int]] = []
            start = 0
            for length in part:
                cyc_edges.extend(
                    (
                        min(start + i, start + (i + 1) % length),
                        max(start + i, start + (i + 1) % length),
                    )
                    for i in range(length)
                )
                start += length
            banned = set(cyc_edges)
            for pm in _matchings_avoiding(n, banned):
                g = MultiGraph(n, cyc_edges + pm)
                if not g.is_connected():
                    continue
                key = _local_invariant(g)
                gx = _to_nx(g)
                seen = buckets.setdefault(key, [])
                if not any(nx.vf2pp_is_isomorphic(gx, ox) for _, ox in seen):
                    seen.append((g, gx))
        out.extend(g for group in buckets.values() for g, _ in group)
    return out


def _local_invariant(g: MultiGraph) -> tuple:
    """Cheap isomorphism invariant (triangle and 4-cycle-style local
    counts), strong enough to keep dedup buckets of regular graphs
    small; 1-WL cannot separate regular graphs at all."""
    nb = [sorted(g.neighbors(v)) for v in range(g.n)]
    nbset = [set(x) for x in nb]
    tri = []
    sq = []
    for v in range(g.n):
        t = 0
        s = 0
        for a, b in combinations(nb[v], 2):
            if b in nbset[a]:
                t += 1
            s += len((nbset[a] & nbset[b]) - {v})
        tri.append(t)
        sq.append(s)
    return (g.n, tuple(sorted(tri)), tuple(sorted(sq)))


def all_trees(n: int) -> list[MultiGraph]:
    """One tree per isomorphism class on n >= 2 vertices."""
    if n == 2:
        return [MultiGraph(2, [(0, 1)])]
    out = []
    for t in nx.nonisomorphic_trees(n):
        nodes = sorted(t.nodes())
        idx = {v: i for i, v in enumerate(nodes)}
        out.append(MultiGraph(n, [(idx[u], idx[v]) for u, v in t.edges()]))
    return out


def all_unicyclic(max_edges: int) -> Iterator[MultiGraph]:
    """Every connected unicyclic multigraph with at most max_edges edges
    (n = m for unicyclic), generated as tree + one extra edge; includes
    2-cycles via parallel pairs.  Covers all isomorphism classes,
    possibly with repetition."""
    for n in range(2, max_edges + 1):
        for t in all_trees(n):
            present = set(t.edges)
            for u, v in combinations(range(n), 2):
                yield MultiGraph(n, list(t.edges) + [(u, v)])
