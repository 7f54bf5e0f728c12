"""Exact nu_k for forests and unicyclic graphs in polynomial time.

The workhorse is a two-state tree DP computing a maximum subgraph with
per-vertex degree caps.  For a forest with max degree <= k the chosen
subgraph is always k-edge-colorable; for a unicyclic graph the only
obstruction is a fully chosen odd cycle at k = 2, which is handled by
leaving out a best cycle edge, found in linear time by a DP around the
cycle.

Capacities below k (used by the branch-and-bound front end when pendant
edges have been forced) are supported throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BadParameter, DeficiencyUndefined, NotAForest, NotUnicyclic
from .graph import MultiGraph


@dataclass(frozen=True)
class CycleDeficiency:
    k: int
    x_k: int


@dataclass(frozen=True)
class DegreeBoundedOptimum:
    value: int
    chosen_edges: frozenset[int]


Gains = list[tuple[int, int]]  # (gain, child edge id), best first


def _subtree_gains(
    g: MultiGraph, active: set[int], cap: Sequence[int], roots: Iterable[int]
) -> tuple[list[int], list[list[tuple[int, int]]], list[tuple[int, Gains]]]:
    """Tree DP over the active (forest) edges with deg(v) <= cap[v], each
    tree rooted at its first vertex in roots.

    Returns the root of each tree, each vertex's children as (edge id,
    child), and per vertex (base, gains): base is the best of the
    subtrees below it with no child edge taken, and gains lists each
    child edge whose taking gains, best first, ties by lower id.  A
    vertex with c free slots takes its first c gains."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in active:
        u, v = g.endpoints(eid)
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    children: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    table: list[tuple[int, Gains]] = [(0, [])] * g.n
    seen = [False] * g.n
    tree_roots = []
    for root in roots:
        if seen[root]:
            continue
        tree_roots.append(root)
        order = []
        stack = [(root, -1)]
        seen[root] = True
        while stack:
            v, pe = stack.pop()
            order.append(v)
            for eid, w in adj[v]:
                if eid != pe and not seen[w]:
                    seen[w] = True
                    children[v].append((eid, w))
                    stack.append((w, eid))
        for v in reversed(order):
            base = 0
            gains = []
            for eid, w in children[v]:
                wbase, wgains = table[w]
                base += wbase + sum(t[0] for t in wgains[: cap[w]])
                if cap[w] >= 1:  # else w cannot take its parent edge
                    # the edge takes w's last slot and the gain it held
                    gain = 1 - (wgains[cap[w] - 1][0] if len(wgains) >= cap[w] else 0)
                    if gain > 0:
                        gains.append((gain, eid))
            gains.sort(key=lambda t: (-t[0], t[1]))
            table[v] = (base, gains)
    return tree_roots, children, table


def _forest_dp(
    g: MultiGraph, active: set[int], cap: Sequence[int]
) -> tuple[int, set[int]]:
    """Maximum subgraph of the active (forest) edges with deg(v) <= cap[v].

    Returns (size, chosen edge ids).  Ties prefer excluding an edge.
    """
    roots, children, table = _subtree_gains(g, active, cap, range(g.n))
    chosen: set[int] = set()
    # descend from each root with its free slots: a vertex takes its
    # first gains, and a child whose edge is taken has one slot fewer
    for root in roots:
        stack = [(root, cap[root])]
        while stack:
            v, c = stack.pop()
            take = {eid for _, eid in table[v][1][:c]}
            for eid, w in children[v]:
                if eid in take:
                    chosen.add(eid)
                    stack.append((w, cap[w] - 1))
                else:
                    stack.append((w, cap[w]))
    return len(chosen), chosen


def find_cycle(g: MultiGraph) -> tuple[list[int], list[int]]:
    """Cycle edges and cycle vertices of a graph whose every component
    has cycle rank <= 1: the edges that survive pendant stripping.
    Handles the 2-cycle formed by a parallel pair."""
    _, cyc_edges = g.strip_pendants()
    cyc_vertices = sorted({u for eid in cyc_edges for u in g.endpoints(eid)})
    return cyc_edges, cyc_vertices


def best_degree_bounded(
    g: MultiGraph, k: int, cap: Optional[Sequence[int]] = None
) -> DegreeBoundedOptimum:
    """Maximum k-edge-colorable subgraph of a graph whose components all
    have cycle rank <= 1, with optional per-vertex caps (<= k)."""
    if k < 1:
        raise BadParameter("k must be positive")
    if cap is None:
        cap = [k] * g.n
    parts = [p for p in g.split_components() if p.edge_ids]
    if any(p.cycle_rank > 1 for p in parts):
        raise NotUnicyclic("a component contains more than one cycle")
    value = 0
    chosen: set[int] = set()
    # components are independent, so each is optimized separately
    for p in parts:
        v0, ch = _component_optimum(p.graph, k, [cap[v] for v in p.vertices])
        value += v0
        chosen.update(p.edge_ids[e] for e in ch)
    return DegreeBoundedOptimum(value, frozenset(chosen))


def _component_optimum(
    h: MultiGraph, k: int, cap: Sequence[int]
) -> tuple[int, set[int]]:
    """best_degree_bounded on one connected graph of cycle rank <= 1.

    Unless k = 2 and the cycle is odd, every subgraph within the caps is
    colorable, so two forest DPs on h minus one cycle edge e decide it:
    e left out, or e taken with the caps at its ends lowered by 1.  An
    odd cycle at k = 2 must not be taken whole (_odd_cycle_optimum)."""
    all_edges = set(range(h.m))
    cyc, _ = find_cycle(h)
    if not cyc:
        return _forest_dp(h, all_edges, cap)
    if k == 2 and len(cyc) % 2 == 1:
        return _odd_cycle_optimum(h, cyc, cap)
    e = cyc[0]
    a, b = h.endpoints(e)
    best = _forest_dp(h, all_edges - {e}, cap)
    if cap[a] >= 1 and cap[b] >= 1:
        cap1 = list(cap)
        cap1[a] -= 1
        cap1[b] -= 1
        v1, ch = _forest_dp(h, all_edges - {e}, cap1)
        if v1 + 1 > best[0]:
            best = (v1 + 1, ch | {e})
    return best


def _odd_cycle_optimum(
    h: MultiGraph, cyc: list[int], cap: Sequence[int]
) -> tuple[int, set[int]]:
    """Maximum subgraph within the caps of a connected graph of cycle
    rank 1 that leaves out at least one cycle edge: the forest DP on h
    minus the first edge of cyc (its cycle edges, ascending) whose
    leaving out is best.

    Every cycle edge's value comes from linear work, not one forest DP
    each: one tree DP over the trees hanging off the cycle, rooted at
    their cycle vertices, then for each state of the last cycle edge one
    DP forward and one backward around the cycle."""
    (cycle,) = h.walk_cycles(cyc)
    ring = []  # ring[i] lies between cycle edges i - 1 and i
    v = h.endpoints(cycle[0])[0]
    for eid in cycle:
        ring.append(v)
        a, b = h.endpoints(eid)
        v = b if v == a else a
    all_edges = set(range(h.m))
    _, _, table = _subtree_gains(h, all_edges - set(cycle), cap, ring)

    def at(i: int, before: int, after: int) -> float:
        """The best of ring[i]'s trees with cycle edges i - 1 and i taken
        as given, or -inf if they exceed its cap."""
        c = cap[ring[i]] - before - after
        if c < 0:
            return -math.inf
        base, gains = table[ring[i]]
        return base + sum(t[0] for t in gains[:c])

    n = len(cycle)
    without: dict[int, float] = {}  # cycle edge -> best value without it
    for last in (0, 1):
        # fwd[i][x]: ring[0..i] and cycle edges 0..i-1, with edge i as x;
        # bwd[i][y]: ring[i..] and cycle edges i.., with edge i - 1 as y
        fwd = [[at(0, last, x) for x in (0, 1)]]
        for i in range(1, n):
            fwd.append(
                [max(fwd[-1][y] + y + at(i, y, x) for y in (0, 1)) for x in (0, 1)]
            )
        bwd = [[last + at(n - 1, y, last) for y in (0, 1)]]
        for i in range(n - 2, -1, -1):
            bwd.append(
                [max(x + at(i, y, x) + bwd[-1][x] for x in (0, 1)) for y in (0, 1)]
            )
        bwd.reverse()
        for j in range(n - 1):
            value = fwd[j][0] + bwd[j + 1][0]
            without[cycle[j]] = max(without.get(cycle[j], -math.inf), value)
        if last == 0:
            without[cycle[-1]] = fwd[-1][0]
    best = max(without.values())
    drop = next(e for e in cyc if without[e] == best)
    return _forest_dp(h, all_edges - {drop}, cap)


def nu_k_tree(t: MultiGraph, k: int) -> int:
    """Exact nu_k of a forest."""
    if t.cycle_rank() != 0:
        raise NotAForest("graph contains a cycle")
    return best_degree_bounded(t, k).value


def _connected_unicyclic(g: MultiGraph) -> bool:
    """Connected with cycle rank 1.  A connected graph has cycle rank
    m - n + 1, so the components are counted only where m == n."""
    return g.n > 0 and g.m == g.n and g.is_connected()


def nu_k_unicyclic(g: MultiGraph, k: int) -> int:
    """Exact nu_k of a connected graph with exactly one cycle."""
    if not _connected_unicyclic(g):
        raise NotUnicyclic("graph is not connected with cycle rank 1")
    return best_degree_bounded(g, k).value


def cycle_deficiency(g: MultiGraph, k: int) -> CycleDeficiency:
    """x_k: minimum number of cycle edges whose removal leaves the whole
    remaining graph k-edge-colorable.  Raises DeficiencyUndefined when no
    removal works (some non-cycle degree already exceeds k)."""
    if not _connected_unicyclic(g):
        raise NotUnicyclic("graph is not connected with cycle rank 1")
    cyc_edges, cyc_vertices = find_cycle(g)
    l = len(cyc_edges)
    deg = g.degrees()
    on_cycle = set(cyc_vertices)
    for v in range(g.n):
        need = deg[v] - (2 if v in on_cycle else 0)
        if need > k:
            raise DeficiencyUndefined(
                f"vertex {v} keeps degree {need} > k even with all cycle edges removed"
            )
    # demands: vertex v on C needs at least deg[v] - k incident cycle edges
    # removed; vertex i sits between cycle edges i-1 and i
    (cycle,) = g.walk_cycles(cyc_edges)
    v = g.endpoints(cycle[0])[0]
    demand = []
    for eid in cycle:
        demand.append(max(0, deg[v] - k))
        a, b = g.endpoints(eid)
        v = b if v == a else a
    x = _min_cycle_cover(demand)
    if x == 0 and k == 2 and g.m == g.n and l % 2 == 1 and l == g.m:
        # the graph is itself an odd cycle: 2 colors need one removal
        x = 1
    return CycleDeficiency(k, x)


def _min_cycle_cover(demand: list[int]) -> int:
    """Minimum subset of cycle edges such that each vertex i has at least
    demand[i] chosen incident edges (edges i-1..i and i..i+1, cyclically)."""
    l = len(demand)
    if all(d == 0 for d in demand):
        return 0
    best = l + 1
    # edge i connects vertex i and vertex i+1 (mod l)
    for first in (0, 1):
        # dp over edges 1..l-1; state: previous edge chosen?
        dp = {first: first}
        ok = True
        for i in range(1, l):
            ndp: dict[int, int] = {}
            for prev, cost in dp.items():
                for cur in (0, 1):
                    # vertex i is incident to edges i-1 and i
                    if prev + cur < demand[i]:
                        continue
                    ndp[cur] = min(ndp.get(cur, l + 1), cost + cur)
            dp = ndp
            if not dp:
                ok = False
                break
        if not ok:
            continue
        for last, cost in dp.items():
            # vertex 0 is incident to edges l-1 and 0
            if last + first >= demand[0]:
                best = min(best, cost)
    if best > l:
        raise DeficiencyUndefined("cycle demands cannot be met")
    return best


def color_sparse_subgraph(
    g: MultiGraph, chosen: frozenset[int] | set[int], k: int
) -> dict[int, int]:
    """Proper k-edge-coloring (colors 1..k) of a chosen edge set whose
    components each have at most one cycle, max degree <= k, and no odd
    cycle component when k == 2."""
    sub_inc: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid in chosen:
        u, v = g.endpoints(eid)
        sub_inc[u].append((eid, v))
        sub_inc[v].append((eid, u))
    colors: dict[int, int] = {}
    used: list[set[int]] = [set() for _ in range(g.n)]

    # color each cycle first, alternating, with color 3 closing an odd one
    ordered = sorted(chosen)
    sub = MultiGraph(g.n, [g.endpoints(e) for e in ordered])
    for cycle in sub.walk_cycles(find_cycle(sub)[0]):
        l = len(cycle)
        for i, se in enumerate(cycle):
            c = 3 if i == l - 1 and l % 2 == 1 else 1 + (i % 2)
            eid = ordered[se]
            colors[eid] = c
            u, v = g.endpoints(eid)
            used[u].add(c)
            used[v].add(c)

    # BFS outward, assigning the smallest free color at the parent side
    seen = [False] * g.n
    roots = sorted({u for eid in colors for u in g.endpoints(eid)})
    queue = list(roots) + [v for v in range(g.n) if sub_inc[v]]
    for start in queue:
        if seen[start]:
            continue
        seen[start] = True
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for eid, w in sub_inc[v]:
                if eid in colors:
                    if not seen[w]:
                        seen[w] = True
                        frontier.append(w)
                    continue
                c = next(
                    c for c in range(1, k + 1) if c not in used[v] and c not in used[w]
                )
                colors[eid] = c
                used[v].add(c)
                used[w].add(c)
                if not seen[w]:
                    seen[w] = True
                    frontier.append(w)
    return colors
