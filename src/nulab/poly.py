"""Exact nu_k for forests and unicyclic graphs in polynomial time.

The general route is a two-state tree DP computing a maximum subgraph
with per-vertex degree caps.  For a forest with max degree <= k the
chosen subgraph is always k-edge-colorable; for a unicyclic graph the
only obstruction is a fully chosen odd cycle at k = 2, which is handled
by leaving out a best cycle edge, found in linear time by a DP around
the cycle.

A part of a 2-core with one cycle is a bare cycle, every vertex of
degree 2.  The exact solver hands such parts, walked once in the
graph's core (MultiGraph.core), to ring_optimum, one DP around the ring
(_ring_take) with its own coloring, and not to the tree DP, which stays
as the independent route the tests compare against.  The cycle
deficiency x_k comes from the same ring DP on the same walk: the cycle
edges removed are those it leaves out.  The tree DP's chosen subgraphs are
colored as the solver colors: whole cycles (_whole_cycle) and then
pendant edges newest first (color_pendants).

Capacities below k (used by the branch-and-bound front end when pendant
edges have been forced) are supported throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BadParameter, DeficiencyUndefined, NotAForest, NotUnicyclic
from .graph import Core, MultiGraph


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
    cyc = h.strip_pendants()[1]
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
    ring = h.ring(cycle)
    all_edges = set(range(h.m))
    _, _, table = _subtree_gains(h, all_edges - set(cycle), cap, ring)
    # a total of at() values and cycle edges is at most m, so one that
    # holds this sentinel is below every total that fits the caps
    none = -1 - h.m

    def at(i: int, before: int, after: int) -> int:
        """The best of ring[i]'s trees with cycle edges i - 1 and i taken
        as given, or none if they exceed its cap."""
        c = cap[ring[i]] - before - after
        if c < 0:
            return none
        base, gains = table[ring[i]]
        return base + sum(t[0] for t in gains[:c])

    n = len(cycle)
    without: dict[int, int] = {}  # cycle edge -> best value without it
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
            without[cycle[j]] = max(without.get(cycle[j], none), value)
        if last == 0:
            without[cycle[-1]] = fwd[-1][0]
    best = max(without.values())
    drop = next(e for e in cyc if without[e] == best)
    return _forest_dp(h, all_edges - {drop}, cap)


def cycle_optimum(
    h: MultiGraph, cap: Sequence[int], k: int
) -> tuple[int, dict[int, int]]:
    """Maximum k-edge-colorable subgraph within the caps (each <= k) of a
    bare cycle, a connected graph whose every vertex has degree 2 (a
    parallel pair is a 2-cycle), and a proper coloring of it with colors
    1..k, in linear time: (size, edge id -> color)."""
    (cycle,) = h.walk_cycles(range(h.m))
    return ring_optimum(cycle, [cap[v] for v in h.ring(cycle)], k)


def ring_optimum(
    cycle: Sequence[int], caps: Sequence[int], k: int
) -> tuple[int, dict[int, int]]:
    """cycle_optimum on a walked cycle: its edge ids in walking order and
    the cap of each ring vertex (caps[i] between edges i - 1 and i).

    With every cap at least 2, every edge is taken, except one on an odd
    cycle at k = 2.  Otherwise the chosen edges form paths, found by one
    DP around the ring (_ring_take), and each path is colored 1, 2, 1,
    2, ... from its first edge."""
    l = len(cycle)
    if min(caps) >= 2:
        if k != 2 or l % 2 == 0:
            return l, _whole_cycle(cycle)  # an odd one has k >= 3
        take = [1] * (l - 1) + [0]
    else:
        take = _ring_take(caps)
    colors: dict[int, int] = {}
    # walk once around from just after an edge left out, so that each
    # path is met from its first edge; distinct paths share no vertex
    c = 1
    end = take.index(0) + 1
    for i in range(end - l, end):
        if take[i]:
            colors[cycle[i]] = c
            c = 3 - c
        else:
            c = 1
    return len(colors), colors


def _ring_take(caps: Sequence[int]) -> list[int]:
    """A largest choice x[i] in {0, 1} of the edges of a ring, edge i
    between ring vertices i and i + 1, with x[i - 1] + x[i] <= caps[i] at
    every vertex i (indices mod the length): one DP along the ring for
    each state of edge 0, and a traceback."""
    l = len(caps)
    best = -1
    for first in (0, 1):
        # s0, s1: most edges among 0..i with edge i left out or taken,
        # -1 where no choice fits the caps
        s0, s1 = (0, -1) if first == 0 else (-1, 1)
        back = []  # back[i - 1]: the state of edge i - 1 behind each state of edge i
        for c in caps[1:l]:
            p0 = int(c >= 1 and s1 > s0)
            p1 = int(c >= 2 and s1 > s0)
            t1 = (s1 if p1 else s0) if c >= 1 else -1
            s0, s1 = (s1 if p0 else s0), (t1 + 1 if t1 >= 0 else -1)
            back.append((p0, p1))
        for last, s in ((0, s0), (1, s1)):
            if s > best and last + first <= caps[0]:
                best, x, trace = s, last, back
    take = [0] * l
    for i in range(l - 1, 0, -1):
        take[i] = x
        x = trace[i - 1][x]
    take[0] = x
    return take


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
    x = cycle_deficiencies(g, (k,))
    if k not in x:
        raise DeficiencyUndefined(
            f"a vertex keeps more than {k} edges even with all cycle edges removed"
        )
    return CycleDeficiency(k, x[k])


def cycle_deficiencies(
    g: MultiGraph, ks: Iterable[int], core: Optional[Core] = None
) -> dict[int, int]:
    """x_k (see cycle_deficiency) for every k in ks where it is defined,
    from the walk of the cycle in g's core (core, if the caller has
    g.core()) and one _ring_take per k; a k where a vertex keeps more
    than k edges with every cycle edge removed is left out."""
    if core is None:
        core = g.core()
    if not (g.n > 0 and g.m == g.n and core.component_count == 1):
        raise NotUnicyclic("graph is not connected with cycle rank 1")
    ((cycle, ring),) = core.cycles
    deg = g.degrees()
    left = list(deg)  # degrees once every cycle edge is removed
    for v in ring:
        left[v] -= 2
    most_left = max(left)
    bare_odd = len(cycle) == g.m and g.m % 2 == 1
    out: dict[int, int] = {}
    for k in ks:
        if most_left > k:
            continue
        # ring[i] must lose at least d = deg - k of its 2 cycle edges, so
        # it keeps at most 2 - d; most_left <= k makes d <= 2, so no cap
        # is negative.  x_k is the cycle length less the most edges kept.
        caps = [min(2, k + 2 - deg[v]) for v in ring]
        if min(caps) == 2:
            # no demand: nothing is removed, unless the graph is itself
            # an odd cycle, which 2 colors cover only with one removal
            out[k] = int(k == 2 and bare_odd)
        else:
            out[k] = len(ring) - sum(_ring_take(caps))
    return out


def _whole_cycle(cycle: Sequence[int]) -> dict[int, int]:
    """A proper coloring of every edge of a cycle, given in walking
    order: 1, 2, 1, 2, ..., with color 3 closing an odd one."""
    l = len(cycle)
    return {e: 3 if i == l - 1 and l % 2 else 1 + i % 2 for i, e in enumerate(cycle)}


def color_pendants(g: MultiGraph, forced: list[int], assign: dict[int, int]) -> None:
    """Color pendant edges, given in peeling order, newest first, each
    with the smallest color free at both ends: an edge meets no colored
    edge at its leaf, so one is free in 1..k if no vertex keeps over k."""
    if not forced:
        return
    used = [0] * g.n  # bitmask of colors at each vertex
    for eid, c in assign.items():
        u, v = g.edges[eid]
        used[u] |= 1 << c
        used[v] |= 1 << c
    for eid in reversed(forced):
        u, v = g.edges[eid]
        taken = used[u] | used[v] | 1  # bit 0 is no color
        bit = ~taken & (taken + 1)
        assign[eid] = bit.bit_length() - 1
        used[u] |= bit
        used[v] |= bit


def color_sparse_subgraph(
    g: MultiGraph, chosen: frozenset[int] | set[int], k: int
) -> dict[int, int]:
    """Proper k-edge-coloring (colors 1..k) of a chosen edge set whose
    components each have at most one cycle, max degree <= k, and no odd
    cycle component when k == 2: each cycle of its 2-core whole, then
    the peeled edges by color_pendants."""
    ordered = sorted(chosen)
    sub = MultiGraph(g.n, [g.endpoints(e) for e in ordered])
    peeled, core = sub.strip_pendants()
    colors: dict[int, int] = {}
    for cycle in sub.walk_cycles(core):
        colors.update(_whole_cycle(cycle))
    color_pendants(sub, [eid for eid, _, _ in peeled], colors)
    return {ordered[e]: c for e, c in colors.items()}
