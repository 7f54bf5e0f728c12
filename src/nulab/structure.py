"""Graph-class recognizers and the decomposition of claw-free
bridgeless cubic graphs.

Every simple 2-edge-connected claw-free cubic graph is either K4, a
ring of diamonds, or is built from a smaller 2-edge-connected cubic
graph H by replacing some edges with strings of diamonds and every
vertex with a triangle.  `oum_decompose` recovers that structure and
`r3_via_reduction` exploits the invariance of the resistance under both
replacement operations to evaluate r3 on the smaller H.

Bipartiteness is one BFS 2-colouring that returns an odd cycle; a graph
is nearly bipartite when skipping one vertex of that cycle leaves none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Sequence

from .errors import NotInClass
from .exact import resistance_r3
from .graph import MultiGraph


class OumVariant(Enum):
    IsK4 = "IsK4"
    RingOfDiamonds = "RingOfDiamonds"
    Reduced = "Reduced"


@dataclass(frozen=True)
class OumDecomposition:
    variant: OumVariant
    base_graph: MultiGraph
    #: (edge id in base_graph, diamond count) for every string-replaced edge
    replaced_edges: tuple[tuple[int, int], ...] = ()
    #: base vertex -> the 3 input vertices of its triangle
    triangle_map: dict[int, tuple[int, int, int]] = field(default_factory=dict)

    @property
    def total_diamonds(self) -> int:
        return sum(c for _, c in self.replaced_edges)


def is_claw_free(g: MultiGraph) -> bool:
    """No vertex has three pairwise non-adjacent neighbors."""
    adj = [{w for _, w in inc} for inc in g.incidence()]
    for ns in adj:
        for a, b, c in combinations(sorted(ns), 3):
            if b not in adj[a] and c not in adj[a] and c not in adj[b]:
                return False
    return True


def is_bipartite(g: MultiGraph) -> bool:
    return _odd_cycle(g.incidence()) is None


def is_nearly_bipartite(g: MultiGraph) -> bool:
    """Some single vertex deletion leaves a bipartite graph."""
    return bipartiteness(g)[1]


def bipartiteness(g: MultiGraph) -> tuple[bool, bool]:
    """(is_bipartite(g), is_nearly_bipartite(g)) from one odd cycle.  A
    vertex whose deletion leaves a bipartite graph lies on every odd
    cycle, so only the vertices of that one are tried."""
    adj = g.incidence()
    cycle = _odd_cycle(adj)
    if cycle is None:
        return True, g.n > 0
    return False, any(_odd_cycle(adj, skip=v) is None for v in cycle)


def _odd_cycle(
    adj: Sequence[Sequence[tuple[int, int]]], skip: int = -1
) -> list[int] | None:
    """The vertices of an odd cycle of the graph with incidence lists
    adj, leaving out vertex skip, or None if there is none.

    A breadth-first 2-colouring by depth parity: an edge inside one BFS
    layer closes an odd cycle through the nearest common ancestor of its
    ends, and a graph without such an edge is bipartite."""
    n = len(adj)
    depth = [-1] * n
    parent = [-1] * n
    if skip >= 0:
        depth[skip] = -2  # never matches a depth
    for s in range(n):
        if depth[s] != -1:
            continue
        depth[s] = 0
        queue = [s]
        for v in queue:
            d = depth[v]
            for _, w in adj[v]:
                dw = depth[w]
                if dw == -1:
                    depth[w] = d + 1
                    parent[w] = v
                    queue.append(w)
                elif dw == d:
                    left, right = [v], [w]
                    while v != w:
                        v, w = parent[v], parent[w]
                        left.append(v)
                        right.append(w)
                    return left + right[-2::-1]
    return None


def _find_diamonds(g: MultiGraph) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Diamonds (K4 minus an edge) of a simple cubic graph, as
    ((tip, tip), (center, center)) with centers fully inside."""
    adj = [g.neighbors(v) for v in range(g.n)]
    diamonds = []
    seen: set[frozenset[int]] = set()
    for c1, c2 in set(g.edges):
        common = sorted((adj[c1] & adj[c2]) - {c1, c2})
        if len(common) != 2:
            continue
        a, b = common
        if b in adj[a]:
            continue  # that would be a K4 block, handled separately
        key = frozenset((a, b, c1, c2))
        if key in seen:
            continue
        seen.add(key)
        diamonds.append(((a, b), (min(c1, c2), max(c1, c2))))
    return diamonds


def oum_decompose(g: MultiGraph) -> OumDecomposition:
    """Decompose a simple 2-edge-connected claw-free cubic graph."""
    if len(set(g.edges)) != g.m:
        raise NotInClass("input has parallel edges")
    if not g.is_cubic():
        raise NotInClass("input is not cubic")
    if not g.is_connected() or g.bridges():
        raise NotInClass("input is not 2-edge-connected")
    if not is_claw_free(g):
        raise NotInClass("input is not claw-free")

    if g.n == 4:  # simple cubic on 4 vertices is exactly K4
        return OumDecomposition(OumVariant.IsK4, g)

    diamonds = _find_diamonds(g)
    in_diamond: dict[int, int] = {}
    for i, (tips, centers) in enumerate(diamonds):
        for v in tips + centers:
            if v in in_diamond:
                raise NotInClass("overlapping diamonds")
            in_diamond[v] = i

    if len(in_diamond) == g.n:
        return OumDecomposition(OumVariant.RingOfDiamonds, g)

    # partition the remaining vertices into disjoint triangles
    rest = [v for v in range(g.n) if v not in in_diamond]
    rest_set = set(rest)
    adj = [g.neighbors(v) for v in range(g.n)]
    tri_of: dict[int, int] = {}
    triangles: list[tuple[int, int, int]] = []
    for v in rest:
        if v in tri_of:
            continue
        mates = [
            (x, y)
            for x, y in combinations(sorted(adj[v] & rest_set), 2)
            if y in adj[x] and x not in tri_of and y not in tri_of
        ]
        if len(mates) != 1:
            raise NotInClass("vertices outside diamonds do not form disjoint triangles")
        x, y = mates[0]
        tid = len(triangles)
        triangles.append((v, x, y))
        tri_of[v] = tri_of[x] = tri_of[y] = tid

    # follow each external edge of each triangle to its target, walking
    # through diamond strings tip to tip
    tip_exit: dict[int, int] = {}  # tip -> neighbor outside its diamond
    other_tip: dict[int, int] = {}
    for tips, centers in diamonds:
        a, b = tips
        other_tip[a], other_tip[b] = b, a
        for t in tips:
            inside = {tips[0], tips[1], *centers}
            outs = [w for w in adj[t] if w not in inside]
            if len(outs) != 1:
                raise NotInClass("diamond tip lacks a unique external edge")
            tip_exit[t] = outs[0]

    h_edges: list[tuple[int, int]] = []
    replaced: list[tuple[int, int]] = []
    done_pairs: set[frozenset] = set()
    for tid, tri in enumerate(triangles):
        for v in tri:
            ext = [w for w in adj[v] if w not in tri]
            if len(ext) != 1:
                raise NotInClass("triangle vertex has no unique external edge")
            w = ext[0]
            count = 0
            while w in in_diamond:
                count += 1
                t2 = other_tip[w]
                w = tip_exit[t2]
            if w not in tri_of:
                raise NotInClass("string does not terminate in a triangle")
            # each terminal vertex has a unique external edge, so the
            # endpoint pair identifies the connection from both ends
            key = frozenset((v, w))
            if key in done_pairs:
                continue
            done_pairs.add(key)
            if tri_of[w] == tid:
                raise NotInClass("connection loops back to its own triangle")
            eid = len(h_edges)
            h_edges.append((tid, tri_of[w]))
            if count:
                replaced.append((eid, count))

    # rest is not empty (the vertices are not all in diamonds), so there
    # is a triangle and base.n > 0
    base = MultiGraph(len(triangles), h_edges)
    if not base.is_cubic() or base.bridges() or not base.is_connected():
        raise NotInClass("reduced graph is not 2-edge-connected cubic")
    total = sum(c for _, c in replaced)
    if g.n != 3 * base.n + 4 * total or g.m != base.m + 3 * base.n + 6 * total:
        raise NotInClass("reconstruction counts do not match")
    return OumDecomposition(
        OumVariant.Reduced,
        base,
        tuple(replaced),
        {i: t for i, t in enumerate(triangles)},
    )


def r3_via_reduction(g: MultiGraph) -> int:
    """r3(g) through the decomposition: string and triangle replacements
    leave the resistance unchanged, so the Reduced variant evaluates r3
    on the smaller base graph."""
    dec = oum_decompose(g)
    if dec.variant is OumVariant.Reduced:
        return resistance_r3(dec.base_graph)
    return resistance_r3(g)
