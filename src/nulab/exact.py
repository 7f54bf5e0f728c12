"""Exact nu_k with optimality certificates.

The solver runs one depth-first branch and bound per component: it
starts from a greedy incumbent L and a cheap upper bound U, keeps the
best coloring found so far, and ends when the search space is exhausted
(the incumbent is optimal) or a coloring reaches U.  Every improvement
shrinks the skip budget, the number of edges a coloring that beats the
incumbent may leave uncolored.

The search processes edges in a fixed order, taken from a greedy
vertex layout that keeps the memo's frontier narrow (_static_order),
breaks color symmetry (a new color must be exactly one more than the
maximum used so far), canonicalizes parallel twins (the order puts
them next to each other in id order, and a twin is colored only after
the one before it, so colored twins form an id-prefix), prunes on a
per-vertex capacity bound, and memoizes frontier states that cannot
beat the incumbent, so that structurally repeated subproblems are
refuted once.  A memo key is one int: the position, the skips so far
and a code of the frontier's color masks that is the same for masks
that differ by a renaming of colors (colors are renamed in order of
first appearance, ties resolved by later masks), so renamed states are
refuted once too.  The capacity bound is a running slack, updated in O(1)
per decision, so the work per search node does not grow with the number
of vertices.  The search recurses once per edge: one deeper than the
recursion limit allows raises TooLarge.

Before any search, the graph is reduced once, whatever k is
(MultiGraph.core): pendant edges are peeled one at a time (last in,
first out), the surviving 2-core is split into its connected parts, at
most one per component of the graph, and each part of cycle rank at
most 1, which in a 2-core is a bare cycle, is walked once.  Per k, the
peeled edges are forced into an optimum in peeling order (each
consuming a color slot at both ends), each bare cycle goes to the ring
DP of poly.ring_optimum (if use_poly is set) and every other part to
branch and bound, and the forced edges are colored last, newest first
(poly.color_pendants).  Capacities below k thread through the whole
pipeline.

solve_profile answers several k at once: on a class-1 cubic graph one
3-edge-colouring certifies every nu_k; otherwise it solves its ks in
ascending order as a ladder, each k bounded by the k - 1 below it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import poly
from .errors import BadParameter, NotABridge, NotCubic, TooLarge
from .graph import Core, MultiGraph
from .matching import max_matching_ids


@dataclass(frozen=True)
class ColorClasses:
    """A proper partial edge coloring: colors 1..k, one per colored edge."""

    k: int
    assignment: dict[int, int] = field(default_factory=dict)

    @property
    def colored_count(self) -> int:
        return len(self.assignment)

    def is_proper(self, g: MultiGraph) -> bool:
        seen: dict[tuple[int, int], bool] = {}
        for eid, c in self.assignment.items():
            if not (1 <= c <= self.k):
                return False
            for v in g.endpoints(eid):
                if (v, c) in seen:
                    return False
                seen[(v, c)] = True
        return True


@dataclass(frozen=True)
class NuResult:
    value: int
    certificate: ColorClasses
    node_count: int


# ---------------------------------------------------------------------------
# search


def _static_order(h: MultiGraph) -> list[int]:
    """Processing order from a greedy vertex layout that keeps the memo
    frontier narrow: each placed vertex brings its edges to earlier
    vertices, in the order those were placed, so parallel edges sit next
    to each other and edge ids only order them.

    The next vertex is the candidate (an unplaced neighbour of the
    placed set) c with the least (c joins the frontier) - lonely[c],
    then the largest into[c], then the least fresh[c], then the lowest
    index.  into[c] counts c's edges to placed vertices, lonely[c] the
    placed vertices whose open edges all go to c, which placing c
    retires from the frontier, and fresh[c] c's edges to vertices not
    yet reached, neither placed nor candidates.  With no candidate left,
    the lowest unplaced vertex starts the next component.  The counts
    are kept up to date in O(m) steps in all."""
    n, deg, inc = h.n, h.degrees(), h.incidence()
    pos = [-1] * n  # placement index, -1 while unplaced
    into = [0] * n
    lonely = [0] * n
    fresh = list(deg)
    # the sum and the sum of squares of the far ends of a placed vertex's
    # open edges, which all go to one vertex exactly when
    # open * squares == total * total
    total, squares = [0] * n, [0] * n
    cand: set[int] = set()

    def reach(x: int) -> None:
        cand.add(x)
        for _, y in inc[x]:
            fresh[y] -= 1

    order: list[int] = []
    start = 0
    for i in range(n):
        if not cand:
            while pos[start] >= 0:
                start += 1
            reach(start)
        v = min(
            [((deg[c] > into[c]) - lonely[c], -into[c], fresh[c], c) for c in cand]
        )[3]
        cand.remove(v)
        back = []
        for e, w in inc[v]:
            into[w] += 1
            if pos[w] >= 0:
                back.append((pos[w], e))
                c = deg[w] - into[w]
                s = total[w] = total[w] - v
                q = squares[w] = squares[w] - v * v
                if c and c * q == s * s and s != c * v:  # newly lonely
                    lonely[s // c] += 1
            else:
                total[v] += w
                squares[v] += w * w
                if w not in cand:
                    reach(w)
        c, s = deg[v] - into[v], total[v]
        if c and c * squares[v] == s * s:
            lonely[s // c] += 1
        back.sort()
        order += [e for _, e in back]
        pos[v] = i
    return order


# Stack frames kept free for the callers of a search.
_STACK_RESERVE = 200


def _searchable(h: MultiGraph) -> bool:
    """Whether a search over h, one frame per edge, fits under
    the interpreter's recursion limit."""
    return h.m + _STACK_RESERVE < sys.getrecursionlimit()


def _rename_step(blocks: tuple[int, ...], x: int) -> tuple[int, tuple[int, ...]]:
    """One step of coding a state's frontier masks up to a renaming of
    colors.  The colors in the masks read so far form an ordered
    partition, blocks, into classes of colors that were in the same
    masks.  The next mask x is coded by how many colors it takes from
    each block, set as the lowest bits of the block's range, and by the
    colors it brings in, set above them; every block then splits into
    its colors in x and those not in x, and the new colors form a last
    block.  So two frontiers get equal codes exactly when their masks
    differ by a renaming.

    Returns the code of x and the new partition."""
    y = pos = 0
    split = []
    for b in blocks:
        inside = b & x
        y |= ((1 << inside.bit_count()) - 1) << pos
        pos += b.bit_count()
        if inside:
            split.append(inside)
        if inside != b:
            split.append(b ^ inside)
        x ^= inside
    if x:  # the colors new to the frontier
        y |= ((1 << x.bit_count()) - 1) << pos
        split.append(x)
    return y, tuple(split)


def _search(
    h: MultiGraph,
    cap: Sequence[int],
    k: int,
    lower: int,
    upper: int,
) -> tuple[Optional[dict[int, int]], int]:
    """A proper partial k-coloring of h within the per-vertex capacities,
    and the number of search nodes visited.  The coloring is the first
    one found with upper colored edges, or else a maximum one; it is
    None if no coloring has more than lower colored edges.

    The search recurses once per edge, so an h with too many edges for
    the interpreter's recursion limit raises TooLarge."""
    m = h.m
    if lower >= min(upper, m):
        return None, 0
    if not _searchable(h):
        raise TooLarge(f"a search over {m} edges exceeds the recursion limit")
    order = _static_order(h)
    ends = [h.edges[e] for e in order]
    # twin[i]: the edge at i is parallel to the one before it, which it
    # may follow into a coloring only if that one is colored
    twin = [i > 0 and ends[i - 1] == e for i, e in enumerate(ends)]

    # frontier[i]: the vertices with edges both before and from position
    # i, in order of first appearance
    last_pos = [-1] * h.n
    for i, e in enumerate(ends):
        for v in e:
            last_pos[v] = i
    live: dict[int, None] = {}
    frontier = [()]
    for i, e in enumerate(ends):
        for v in e:
            if last_pos[v] == i:
                live.pop(v, None)
            else:
                live[v] = None
        frontier.append(tuple(live))

    used = [0] * h.n  # bitmask of colors at each vertex
    ndeg = [0] * h.n  # colored-degree
    rem = list(h.degrees())
    assign: dict[int, int] = {}
    # States whose every completion is no better than the incumbent; the
    # incumbent only grows, so an entry stays true for the whole search.
    # A state's key packs its position, its skips and the code of its
    # frontier masks up to a renaming of colors into one int.  Future
    # edges meet only frontier and unvisited vertices, and the maxc + 1
    # rule drops only renamings of colorings the search does explore, so
    # states with equal keys have equal best completions.
    failed: set[int] = set()
    width = m + 1
    # rows[p]: for the partition p of the colors read so far, each next
    # mask's code and the next row and partition (see _rename_step),
    # filled on first use
    rows: dict[tuple[int, ...], dict[int, tuple]] = {(): {}}
    root = rows[()]

    def key_of(i: int, skips: int) -> int:
        row, blocks, code = root, (), 0
        for x in map(used.__getitem__, frontier[i]):
            try:
                y, row, blocks = row[x]
            except KeyError:
                y, blocks = _rename_step(blocks, x)
                nxt = rows.setdefault(blocks, {})
                row[x] = (y, nxt, blocks)
                row = nxt
            code = code << k | y
        return (code * width + i) * width + skips

    best = lower
    budget = m - best - 1  # skips left to a coloring that beats best
    found: Optional[dict[int, int]] = None
    nodes = 0

    # slack = sum over v of min(cap[v] - ndeg[v], rem[v]), the capacity
    # bound's free endpoint slots, carried down the recursion: coloring
    # an edge takes one slot and one remaining edge at both endpoints
    # (slack - 2); skipping it lowers an endpoint's term only where its
    # remaining edges do not exceed its free slots.  rec returns True
    # once a coloring reaches upper.
    def rec(i: int, colored: int, skips: int, maxc: int, slack: int) -> bool:
        nonlocal best, budget, found, nodes
        nodes += 1
        if colored > best:
            best, budget, found = colored, m - colored - 1, dict(assign)
            if colored >= upper:
                return True
        if i == m or colored + (slack >> 1) <= best:
            return False
        # before the first refuted state there is nothing to look up, and
        # the key is made on leaving, where the masks are the same again
        key = key_of(i, skips) if failed else None
        if key in failed:
            return False
        u, v = ends[i]
        skip_slack = (
            slack - (rem[u] <= cap[u] - ndeg[u]) - (rem[v] <= cap[v] - ndeg[v])
        )
        rem[u] -= 1
        rem[v] -= 1
        if (
            ndeg[u] < cap[u]
            and ndeg[v] < cap[v]
            and not (twin[i] and order[i - 1] not in assign)
        ):
            taken = used[u] | used[v]
            eid = order[i]
            for c in range(1, (maxc + 1 if maxc < k else k) + 1):
                bit = 1 << c
                if taken & bit:
                    continue
                used[u] |= bit
                used[v] |= bit
                ndeg[u] += 1
                ndeg[v] += 1
                assign[eid] = c
                if rec(i + 1, colored + 1, skips, c if c > maxc else maxc, slack - 2):
                    return True
                del assign[eid]
                used[u] &= ~bit
                used[v] &= ~bit
                ndeg[u] -= 1
                ndeg[v] -= 1
        if skips < budget and rec(i + 1, colored, skips + 1, maxc, skip_slack):
            return True
        rem[u] += 1
        rem[v] += 1
        failed.add(key_of(i, skips) if key is None else key)
        return False

    try:
        rec(0, 0, 0, 0, sum(map(min, cap, rem)))
    finally:
        # rec refers to itself, and a row to itself where a mask leaves the
        # partition as it is: free the memo and the rows now, not at a
        # cyclic GC
        del rec
        for row in rows.values():
            row.clear()
    return found, nodes


def _greedy_peel(h: MultiGraph, cap: Sequence[int], k: int) -> dict[int, int]:
    """Incumbent: k passes of maximum matching on the still-free graph,
    each pass coloring the lowest free edge id of every matched pair."""
    free = list(cap)
    assign: dict[int, int] = {}
    for c in range(1, k + 1):
        live = [
            (eid, (u, v))
            for eid, (u, v) in enumerate(h.edges)
            if eid not in assign and free[u] > 0 and free[v] > 0
        ]
        if not live:
            break
        for eid in max_matching_ids(h.n, live):
            u, v = h.edges[eid]
            assign[eid] = c
            free[u] -= 1
            free[v] -= 1
    return assign


def _solve_bb(
    h: MultiGraph, cap: Sequence[int], k: int, upper: Optional[int] = None
) -> tuple[int, dict[int, int], int]:
    """Exact capped optimum on one residual component: one search that
    starts from the greedy incumbent and stops at the upper bound, or at
    upper if that is given and smaller (it must bound the optimum)."""
    greedy = _greedy_peel(h, cap, k)
    # the peel's first pass, color 1, is a maximum matching of the edges
    # whose ends both have capacity: the one upper_bound takes
    matched = list(greedy.values()).count(1)
    bound = _bound(h, k, cap, matched)
    if upper is not None:
        bound = min(bound, upper)
    found, nodes = _search(h, cap, k, len(greedy), bound)
    best = greedy if found is None else found
    return len(best), best, nodes


# ---------------------------------------------------------------------------
# reductions


def _force(peeled: Sequence[tuple[int, int, int]], cap: list[int]) -> list[int]:
    """The peeled edges forced into an optimum, in peeling order: each one
    whose endpoints both still have a free slot.  Mutates cap."""
    forced: list[int] = []
    for eid, leaf, inner in peeled:
        if cap[leaf] >= 1 and cap[inner] >= 1:
            forced.append(eid)
            cap[leaf] -= 1
            cap[inner] -= 1
    return forced


# ---------------------------------------------------------------------------
# main entry points


def _solve_reduced(
    g: MultiGraph,
    core: Core,
    k: int,
    use_poly: bool,
    upper: Optional[int] = None,
) -> NuResult:
    """nu_k(g) from its core: force the peeled edges, solve each 2-core
    part within the capacities they leave, color the forced edges.

    The bare cycles are solved first and the searched parts after them.
    If upper bounds nu_k(g), the searched part solved last stops at upper
    less the forced edges and the other parts' values."""
    cap = [k] * g.n
    forced = _force(core.peeled, cap)
    value = len(forced)
    assign: dict[int, int] = {}
    searched = core.parts
    if use_poly:
        searched = []
        for p, walk in zip(core.parts, core.cycles):
            if walk is None:
                searched.append(p)
                continue
            cycle, ring = walk
            pvalue, colors = poly.ring_optimum(cycle, [cap[v] for v in ring], k)
            value += pvalue
            assign.update(colors)
    nodes = 0
    for i, p in enumerate(searched, 1):
        room = upper - value if upper is not None and i == len(searched) else None
        pcap = [cap[v] for v in p.vertices]
        pvalue, local, pnodes = _solve_bb(p.graph, pcap, k, room)
        nodes += pnodes
        value += pvalue
        assign.update({p.edge_ids[e]: c for e, c in local.items()})
    poly.color_pendants(g, forced, assign)
    return NuResult(value, ColorClasses(k, assign), nodes)


def nu_k(g: MultiGraph, k: int, use_poly: bool = True) -> NuResult:
    """Exact nu_k(g) with a verifying certificate.  Raises TooLarge if a
    component needs a search deeper than the recursion limit allows."""
    if k < 1:
        raise BadParameter("k must be positive")
    return _solve_reduced(g, g.core(), k, use_poly)


def solve_profile(
    g: MultiGraph, ks: Iterable[int], core: Optional[Core] = None
) -> dict[int, NuResult]:
    """Exact nu_k(g) for every k in ks, each with a verifying certificate.

    A cubic graph whose search fits under the recursion limit is first
    searched for a 3-edge-colouring (one search with k = 3 for every
    edge coloured; on a cubic graph with a bridge it fails, by the
    parity lemma).  If one exists, its colour classes 1..k certify every
    nu_k = min(k, 3) * n / 2, the capacity bound, and each result
    carries the node count of that one search.

    Otherwise, and on every other graph, the ks are solved in ascending
    order from one core of g (core, if the caller has g.core()), as a
    ladder.  Dropping the smallest color class of a k-coloring leaves a
    (k - 1)-coloring, so nu_k <= U_k = floor(k * nu_{k-1} / (k - 1)).
    Where k - 1 is in ks:
    - if nu_{k-1} = m, its coloring is the result for k, with 0 nodes;
    - otherwise k is solved as nu_k would, but with U_k as an upper
      bound, which can only save search nodes.
    Any other k gets exactly the result nu_k gives: values, node counts
    and certificates."""
    ks = sorted(set(ks))
    if not ks:
        return {}
    if ks[0] < 1:
        raise BadParameter("k must be positive")
    if g.is_cubic() and _searchable(g):
        full, nodes = _search(g, [3] * g.n, 3, g.m - 1, g.m)
        if full is not None:
            out = {}
            for k in ks:
                cert = ColorClasses(k, {e: c for e, c in full.items() if c <= k})
                out[k] = NuResult(cert.colored_count, cert, nodes)
            return out
    if core is None:
        core = g.core()
    out = {}
    for k in ks:
        below = out.get(k - 1)
        if below is not None and below.value == g.m:
            out[k] = NuResult(g.m, ColorClasses(k, below.certificate.assignment), 0)
        else:
            upper = None if below is None else k * below.value // (k - 1)
            out[k] = _solve_reduced(g, core, k, True, upper)
    return out


def resistance_r3(g: MultiGraph) -> int:
    """r3(g) = |E| - nu_3(g) for cubic g."""
    if not g.is_cubic():
        raise NotCubic("resistance is defined for cubic graphs")
    return g.m - nu_k(g, 3).value


def _bound(g: MultiGraph, k: int, cap: Sequence[int], matched: int) -> int:
    """The smaller of the capacity bound and k times matched, the size of
    a maximum matching of the edges whose endpoints both have capacity."""
    return min(g.m, sum(map(min, cap, g.degrees())) // 2, k * matched)


def upper_bound(g: MultiGraph, k: int, cap: Optional[Sequence[int]] = None) -> int:
    """Admissible bound on a proper k-coloring in which vertex v takes
    at most cap[v] (default k) colored edges: the smaller of the
    capacity bound and k times a maximum matching of the edges whose
    endpoints both have capacity."""
    if cap is None:
        cap = [k] * g.n
    return _bound(g, k, cap, len(_greedy_peel(g, cap, 1)))


def decompose_bridge(g: MultiGraph, eid: int, k: int) -> int:
    """nu_k via splitting at a bridge:
    max(nu_k(G1)+nu_k(G2), nu_k(G1e)+nu_k(G2e)-1), where Gie re-attaches
    the bridge as a pendant edge."""
    if eid not in g.bridges():
        raise NotABridge(f"edge {eid} is not a bridge")
    u, v = g.endpoints(eid)
    without, with_e, rest = 0, -1, 0  # with_e counts the bridge on both sides
    for comp in g.without_edges([eid]).split_components():
        h = comp.graph
        value = nu_k(h, k).value
        end = next((w for w in (u, v) if w in comp.vertices), None)
        if end is None:  # components not touching the bridge contribute independently
            rest += value
            continue
        pendant = MultiGraph(h.n + 1, h.edges + ((comp.vertices.index(end), h.n),))
        without += value
        with_e += nu_k(pendant, k).value
    return max(without, with_e) + rest
