"""Corpus generation: random trees/unicyclic/multigraphs and the
exhaustive small-graph corpora used by the verification suites.

The connected cubic census (n <= 14) enumerates labelled 2-factor +
perfect-matching candidates, the matchings drawn from the package's one
perfect-matching core (matching.perfect_matchings) on the complement of
each 2-factor, and keeps one per isomorphism class, found by a small
search that maps one cubic graph onto another along a BFS order (no
general-purpose matcher).  The test suite checks its per-order
counts against the published census (1, 2, 5, 19, 85 for n = 4..12) and
its isomorphism answers against networkx.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .errors import BadParameter
from .graph import MultiGraph
from .matching import perfect_matchings


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
    return _random_sizes(random_tree, count, max_n, seed)


def random_unicyclics(count: int, max_n: int, seed: int) -> Iterator[MultiGraph]:
    return _random_sizes(random_unicyclic, count, max_n, seed)


def _random_sizes(
    make: Callable[[int, random.Random], MultiGraph], count: int, max_n: int, seed: int
) -> Iterator[MultiGraph]:
    """count graphs make(n, rng), n uniform in 2..max_n; count and max_n
    are checked at the call, before any graph is drawn."""
    if count < 0:
        raise BadParameter(f"count must be >= 0, got {count}")
    if max_n < 2:
        raise BadParameter(f"max_n must be >= 2, got {max_n}")
    rng = random.Random(seed)
    return (make(rng.randint(2, max_n), rng) for _ in range(count))


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


def connected_cubic_graphs(max_n: int) -> list[MultiGraph]:
    """All connected simple cubic graphs with 4 <= n <= max_n, one per
    isomorphism class.

    Every connected simple cubic graph on at most 14 vertices has a
    perfect matching (the smallest counterexample has 16), so each is a
    2-factor plus a perfect matching: enumerate a canonical labeled
    2-factor per cycle-type partition and every perfect matching of its
    complement in K_n on top of it.  Candidates are bucketed by their
    _Cubic.key and each is kept unless _isomorphic maps a kept member of
    its bucket onto it; the first member of each class found is its
    representative.  A candidate is only its neighbour tuples; the
    MultiGraph is built for representatives alone.
    """
    if max_n > 14:
        raise BadParameter("PM-based cubic enumeration is valid only up to n = 14")
    if max_n < 4:
        raise BadParameter("the smallest cubic graph has n = 4; max_n must be >= 4")
    out: list[MultiGraph] = []
    for n in range(4, max_n + 1, 2):
        buckets: dict[tuple, list[_Cubic]] = {}
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
            cyc_nb: list[tuple[int, ...]] = [()] * n
            for u, v in cyc_edges:
                cyc_nb[u] += (v,)
                cyc_nb[v] += (u,)
            # the complement of the 2-factor in K_n, partners ascending;
            # the pair (v, w) is labelled v ^ w, so v's partner is at[v] ^ v
            free = [
                [(v ^ w, w) for w in range(n) if w != v and w not in cyc_nb[v]]
                for v in range(n)
            ]
            for at in perfect_matchings(free):
                nb = [cyc_nb[v] + (at[v] ^ v,) for v in range(n)]
                if not _connected(nb):
                    continue
                cand = _Cubic(nb)
                seen = buckets.setdefault(cand.key, [])
                if not any(_isomorphic(rep, cand) for rep in seen):
                    pm = [(v, at[v] ^ v) for v in range(n) if v < at[v] ^ v]
                    cand.graph = MultiGraph(n, cyc_edges + pm)
                    seen.append(cand)
        out.extend(c.graph for group in buckets.values() for c in group)
    return out


def _connected(nb: Sequence[tuple[int, ...]]) -> bool:
    """Whether the graph with neighbour tuples nb (n >= 1) is connected."""
    seen = {0}
    stack = [0]
    while stack:
        for w in nb[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nb)


class _Cubic:
    """A connected simple cubic graph prepared for _isomorphic, from a
    MultiGraph or from its neighbour tuples alone (graph is then None).

    nb holds the neighbours of each vertex and loc its (triangle,
    4-cycle) counts: the triangles through v, and for each pair of
    neighbours the other vertices adjacent to both.  key, the sorted
    triangle and 4-cycle counts, is a cheap invariant that keeps the
    census buckets small (1-WL cannot separate regular graphs at all).
    bfs() is computed on first use, since only the graph mapped from
    needs it.
    """

    __slots__ = ("graph", "nb", "loc", "key", "_bfs")

    def __init__(self, g: MultiGraph | Sequence[tuple[int, ...]]):
        if isinstance(g, MultiGraph):
            self.graph = g
            self.nb = [tuple(w for _, w in g.incident(v)) for v in range(g.n)]
        else:
            self.graph = None
            self.nb = list(g)
        sets = [set(ns) for ns in self.nb]
        self.loc = [
            (
                sum(b in sets[a] for a, b in combinations(ns, 2)),
                sum(len(sets[a] & sets[b]) - 1 for a, b in combinations(ns, 2)),
            )
            for ns in self.nb
        ]
        self.key = (
            len(self.nb),
            tuple(sorted(t for t, _ in self.loc)),
            tuple(sorted(s for _, s in self.loc)),
        )
        self._bfs = None

    def bfs(self) -> list[tuple[int, tuple[int, ...]]]:
        """The vertices in BFS order from the first vertex whose loc class
        is rarest, each with its neighbours earlier in that order."""
        if self._bfs is None:
            loc = self.loc
            root = min(range(len(loc)), key=lambda v: (loc.count(loc[v]), v))
            order, pos = [root], {root: 0}
            for v in order:
                for w in self.nb[v]:
                    if w not in pos:
                        pos[w] = len(order)
                        order.append(w)
            self._bfs = [
                (v, tuple(w for w in self.nb[v] if pos[w] < i))
                for i, v in enumerate(order)
            ]
        return self._bfs


def _isomorphic(a: _Cubic, b: _Cubic) -> bool:
    """Whether there is an isomorphism from a onto b, two prepared graphs
    of the same order.

    The root of a's BFS order goes to each vertex of b with its loc;
    each later vertex v goes to an unused vertex c with v's loc that is
    adjacent to the images of v's earlier neighbours (so c is drawn from
    the neighbours of one of them) and to no other used vertex.  Only
    the adjacency to those images decides: a complete edge-preserving
    bijection between cubic graphs is an isomorphism, so the loc and
    used-vertex tests just prune.
    """
    steps = a.bfs()
    n = len(steps)
    image = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        v, back = steps[i]
        for c in b.nb[image[back[0]]] if back else range(n):
            if used[c] or b.loc[c] != a.loc[v]:
                continue
            x, y, z = nbc = b.nb[c]
            if used[x] + used[y] + used[z] != len(back) or not all(
                image[u] in nbc for u in back
            ):
                continue
            image[v], used[c] = c, True
            if extend(i + 1):
                return True
            image[v], used[c] = -1, False
        return False

    return extend(0)


def all_trees(n: int) -> list[MultiGraph]:
    """One tree per isomorphism class on n >= 2 vertices.

    Each tree is a level sequence (the depth of every vertex in preorder,
    children in non-increasing order of their subtrees' sequences) rooted
    at a centre, visited in decreasing lexicographic order by the
    successor rule of Wright, Richmond, Odlyzko and McKay ("Constant time
    generation of free trees", SIAM J. Comput. 1986).  A rooted sequence
    stands for its free tree if the root's first subtree is no taller
    than the rest of the tree and, at equal height, not larger in size
    and then in sequence order (so of the two centres of a bicentral
    tree, one is chosen).  Every later sequence with the same first
    subtree fails the same test, so a failing one jumps past them all.
    Vertex i is the i-th vertex in preorder, and edge i - 1 joins it to
    its parent."""
    if n == 2:
        return [MultiGraph(2, [(0, 1)])]
    out = []
    # the path rooted at its centre: the largest sequence that passes
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        second = next((i for i in range(2, n) if levels[i] == 1), n)
        first = [x - 1 for x in levels[1:second]]
        rest = [0] + levels[second:]
        if (max(rest), len(rest), rest) < (max(first), len(first), first):
            levels = _next_rooted(levels, second - 1)
            continue
        parent_at = [0] * n
        edges = []
        for i in range(1, n):
            edges.append((parent_at[levels[i] - 1], i))
            parent_at[levels[i]] = i
        out.append(MultiGraph(n, edges))
        p = n - 1
        while levels[p] == 1:
            p -= 1
        if p == 0:  # the star, the smallest sequence
            return out
        levels = _next_rooted(levels, p)


def _next_rooted(levels: list[int], p: int) -> list[int]:
    """The next smaller rooted level sequence that keeps positions before
    p (the rule of Beyer and Hedetniemi): vertex p moves up to the
    level of its parent's place, and from p on the sequence repeats the
    subtree that now ends at p."""
    q = max(i for i in range(p) if levels[i] == levels[p] - 1)
    out = levels[:p] + [0] * (len(levels) - p)
    for i in range(p, len(levels)):
        out[i] = out[i - p + q]
    return out


def all_unicyclic(max_edges: int) -> Iterator[MultiGraph]:
    """Every connected unicyclic multigraph with at most max_edges edges
    (n = m for unicyclic), generated as tree + one extra edge; includes
    2-cycles via parallel pairs.  Covers all isomorphism classes,
    possibly with repetition."""
    for n in range(2, max_edges + 1):
        for t in all_trees(n):
            for u, v in combinations(range(n), 2):
                yield MultiGraph(n, list(t.edges) + [(u, v)])
