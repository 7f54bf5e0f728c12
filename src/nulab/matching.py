"""Maximum matching, perfect matching enumeration, 2-factors and o(G).

Maximum matching is Edmonds' blossom algorithm for cardinality, in its
breadth-first form with base contraction; everything built on top of
perfect matchings is exhaustive and deterministic, which is what the
inequality engine needs at desk scale.  One depth-first perfect-matching
core, perfect_matchings, serves the enumeration, o(G) and the cubic
census of nulab.corpus; o(G) walks each complement 2-factor in place and
stops at the first 2-factor with no odd cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

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
    return Matching(frozenset(max_matching_ids(g.n, enumerate(g.edges))))


def max_matching_ids(
    n: int, edges: Iterable[tuple[int, tuple[int, int]]]
) -> list[int]:
    """A maximum-cardinality matching of the edges (id, (u, v)), u < v,
    on vertices 0..n-1: for each matched pair, in the order of its
    smaller vertex, the first id listed for that pair."""
    adj: list[list[int]] = [[] for _ in range(n)]
    first_id: dict[tuple[int, int], int] = {}
    for eid, (u, v) in edges:
        if (u, v) not in first_id:
            first_id[(u, v)] = eid
            adj[u].append(v)
            adj[v].append(u)
    return [first_id[(v, w)] for v, w in enumerate(mate(n, adj)) if v < w]


def mate(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """A maximum-cardinality matching of the loopless graph on vertices
    0..n-1 with neighbour lists adj (parallel entries allowed), as the
    list of each vertex's partner, -1 where it is unmatched.

    Edmonds' blossom algorithm ("Paths, trees, and flowers", 1965) in
    the O(n^3) breadth-first form with base contraction (Gabow, JACM
    1976), started from _greedy_start.  An alternating tree is grown
    from each vertex the start leaves unmatched; a vertex the search
    cannot augment from stays unmatched under every later augmentation,
    so one pass over the roots is enough.  The result depends only on n
    and the order of adj."""
    partner = _greedy_start(n, adj)
    for root in range(n):
        if partner[root] < 0 and adj[root]:
            _augment(root, adj, partner)
    return partner


def _greedy_start(n: int, adj: Sequence[Sequence[int]]) -> list[int]:
    """A maximal matching in the manner of Karp and Sipser: repeatedly
    match the unmatched vertex with the fewest adj entries naming
    unmatched vertices to its unmatched neighbour with the fewest, so a
    vertex with one left is matched first.  Ties go to the lower vertex,
    then to the neighbour first in adj."""
    partner = [-1] * n
    deg = [len(a) for a in adj]  # entries naming an unmatched vertex
    while True:
        v = -1
        for x in range(n):
            if partner[x] < 0 and deg[x] > 0 and (v < 0 or deg[x] < deg[v]):
                v = x
                if deg[x] == 1:
                    break
        if v < 0:
            return partner
        w = -1
        for x in adj[v]:
            if partner[x] < 0 and (w < 0 or deg[x] < deg[w]):
                w = x
        partner[v], partner[w] = w, v
        for x in adj[v]:
            deg[x] -= 1
        for x in adj[w]:
            deg[x] -= 1


def _augment(root: int, adj: Sequence[Sequence[int]], partner: list[int]) -> None:
    """Grow an alternating tree from the unmatched vertex root and, if it
    reaches an unmatched vertex, flip the augmenting path in partner.

    Outer vertices (the root, matched partners of inner vertices, and
    every vertex of a contracted blossom) are scanned in BFS order.
    parent[w] is the outer vertex that first reached the inner vertex w;
    base[v] is the base of the outermost blossom holding v.  Contracting
    a blossom also sets parent on its outer vertices, pointing across
    the closing edge, so that a path through the blossom can be walked
    back to the root along parent and partner alone."""
    n = len(partner)
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    outer[root] = True
    queue = [root]
    for v in queue:
        for w in adj[v]:
            if base[v] == base[w] or partner[v] == w:
                continue
            if outer[w]:
                # an odd cycle: contract it onto the nearest common base
                b = _common_base(v, w, base, parent, partner)
                blossom = [False] * n
                _mark_path(v, w, b, base, parent, partner, blossom)
                _mark_path(w, v, b, base, parent, partner, blossom)
                for x in range(n):
                    if blossom[base[x]]:
                        base[x] = b
                        if not outer[x]:
                            outer[x] = True
                            queue.append(x)
            elif parent[w] < 0:
                parent[w] = v
                if partner[w] < 0:
                    while w >= 0:  # flip the path back to the root
                        u = parent[w]
                        nxt = partner[u]
                        partner[w], partner[u] = u, w
                        w = nxt
                    return
                outer[partner[w]] = True
                queue.append(partner[w])


def _common_base(
    a: int, b: int, base: list[int], parent: list[int], partner: list[int]
) -> int:
    """The base of the smallest blossom holding both outer vertices a
    and b: the first base on b's tree path to the root that also lies on
    a's."""
    on_path = set()
    while True:
        a = base[a]
        on_path.add(a)
        if partner[a] < 0:
            break
        a = parent[partner[a]]
    while base[b] not in on_path:
        b = parent[partner[base[b]]]
    return base[b]


def _mark_path(
    v: int,
    child: int,
    b: int,
    base: list[int],
    parent: list[int],
    partner: list[int],
    blossom: list[bool],
) -> None:
    """Walk from outer v up to the blossom base b, marking the bases met
    and pointing each outer vertex on the way at the vertex below it on
    the cycle (child for v itself)."""
    while base[v] != b:
        blossom[base[v]] = blossom[base[partner[v]]] = True
        parent[v] = child
        child = partner[v]
        v = parent[child]


def perfect_matchings(
    adj: Sequence[Sequence[tuple[int, int]]],
) -> Iterator[list[int]]:
    """Every perfect matching of the loopless multigraph with incidence
    lists adj (adj[v] = the (edge id, other end) pairs at v), depth
    first: the lowest uncovered vertex is matched along each of its
    edges to an uncovered vertex in edge order.  Each matching is
    yielded as one list, at[v] = the id of the matched edge at v; the
    list is reused, so a consumer copies what it keeps.  Ids need only
    be >= 0, not distinct: at[v] < 0 is what marks v uncovered.  An
    explicit stack of (v, w, next index at v) replaces recursion, so the
    depth is bounded by memory, not by the recursion limit."""
    n = len(adj)
    if n % 2 == 1:
        return
    at = [-1] * n
    stack: list[tuple[int, int, int]] = []
    v = i = 0
    while True:
        while v < n and at[v] >= 0:
            v += 1
        if v < n:
            inc = adj[v]
            while i < len(inc) and at[inc[i][1]] >= 0:
                i += 1
            if i < len(inc):
                eid, w = inc[i]
                at[v] = at[w] = eid
                stack.append((v, w, i + 1))
                i = 0
                continue
        else:
            yield at
        if not stack:
            return
        v, w, i = stack.pop()
        at[v] = at[w] = -1


def enumerate_perfect_matchings(g: MultiGraph, limit: int = 10**9) -> list[Matching]:
    """All perfect matchings, lexicographic by sorted edge-id tuple.  With
    limit, only the first limit matchings found depth first are kept,
    sorted the same way.

    Parallel twins yield distinct matchings.  Empty list when none exist.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    pms = perfect_matchings(g.incidence())
    out = [tuple(sorted(set(at))) for at in islice(pms, limit)]
    out.sort()
    return [Matching(frozenset(t)) for t in out]


def two_factor_from_pm(g: MultiGraph, pm: Matching) -> TwoFactor:
    """Decompose the complement of a perfect matching of a cubic graph
    into its cycles."""
    if not g.is_cubic():
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
    """o(G): minimum odd-cycle count over all 2-factors of a cubic graph.

    The complement of each perfect matching is walked in place, and the
    search stops at the first 2-factor with no odd cycle."""
    cubic = g.is_cubic()
    adj = g.incidence()
    best = -1
    for at in perfect_matchings(adj):
        if not cubic:
            raise NotCubic("2-factor complement requires a cubic graph")
        odd = _odd_cycle_count(adj, at, best)
        if best < 0 or odd < best:
            best = odd
            if best == 0:
                return 0
    if best < 0:
        raise NoTwoFactor("graph has no perfect matching")
    return best


def _odd_cycle_count(
    adj: Sequence[Sequence[tuple[int, int]]], at: Sequence[int], cap: int
) -> int:
    """The number of odd cycles of the 2-factor left by the perfect
    matching at (at[v] = matched edge at v) in the cubic graph with
    incidence lists adj; once it reaches cap >= 0, cap is returned."""
    seen = bytearray(len(at))
    odd = 0
    for s in range(len(at)):
        if seen[s]:
            continue
        length, v, came = 0, s, -1
        while True:
            seen[v] = 1
            length += 1
            skip = at[v]
            for eid, w in adj[v]:
                if eid != skip and eid != came:
                    break
            v, came = w, eid
            if v == s:
                break
        if length % 2:
            odd += 1
            if odd == cap:
                return odd
    return odd
