"""Immutable loopless multigraph with structural queries.

Vertices are dense integers 0..n-1, edges are unordered pairs with dense
stable identifiers 0..m-1 in construction order.  Parallel edges are
first-class; loops are rejected at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import IndexOutOfRange, LoopRejected


@dataclass(frozen=True)
class StructureFlags:
    connected: bool
    cubic: bool
    bridgeless: bool
    max_degree: int
    cycle_rank: int
    is_tree: bool
    is_unicyclic: bool


class Component(NamedTuple):
    """One connected component: its sorted vertices, its edge ids in
    ascending order, and the subgraph relabelled so that vertex i is
    vertices[i] and edge i is edge_ids[i]."""

    vertices: list[int]
    edge_ids: list[int]
    graph: "MultiGraph"

    @property
    def cycle_rank(self) -> int:
        return len(self.edge_ids) - len(self.vertices) + 1


@dataclass
class Core:
    """The pendant peel of a graph and what survives it: the part of a
    solve that does not depend on k (see MultiGraph.core).

    peeled holds the pendant edges as (edge id, leaf, inner endpoint) in
    peeling order (see strip_pendants), and parts the connected parts of
    the surviving 2-core, with vertices and edge ids in the graph.
    component_count is the graph's."""

    graph: MultiGraph
    peeled: list[tuple[int, int, int]]
    parts: list[Component]
    component_count: int

    @cached_property
    def cycles(self) -> list[Optional[tuple[tuple[int, ...], list[int]]]]:
        """For each part that is a bare cycle (cycle rank 1), its walk as
        (cycle edge ids, ring vertices) in the graph's ids (see
        walk_cycles and ring), and None for every other part: one walk,
        on first use."""
        cycles: list = [None] * len(self.parts)
        bare = [i for i, p in enumerate(self.parts) if p.cycle_rank <= 1]
        if bare:
            g = self.graph
            walks = g.walk_cycles([e for i in bare for e in self.parts[i].edge_ids])
            for i, cycle in zip(bare, walks):
                cycles[i] = (cycle, g.ring(cycle))
        return cycles


class MultiGraph:
    """Loopless undirected multigraph.  Immutable after construction."""

    __slots__ = ("n", "edges", "_adj", "_degrees")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        if vertex_count < 0:
            raise IndexOutOfRange("vertex_count must be non-negative")
        edge_list = []
        adj: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
        for eid, (u, v) in enumerate(edges):
            if u == v:
                raise LoopRejected(f"edge {eid} is a loop at vertex {u}")
            if not (0 <= u < vertex_count) or not (0 <= v < vertex_count):
                raise IndexOutOfRange(
                    f"edge {eid} endpoint out of range for n={vertex_count}"
                )
            if u > v:
                u, v = v, u
            edge_list.append((u, v))
            adj[u].append((eid, v))
            adj[v].append((eid, u))
        object.__setattr__(self, "n", vertex_count)
        object.__setattr__(self, "edges", tuple(edge_list))
        object.__setattr__(self, "_adj", tuple(tuple(a) for a in adj))
        object.__setattr__(self, "_degrees", tuple(len(a) for a in adj))

    def __setattr__(self, name, value):
        raise AttributeError("MultiGraph is immutable")

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._degrees[v]

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def max_degree(self) -> int:
        return max(self._degrees, default=0)

    def is_cubic(self) -> bool:
        """Whether the graph has a vertex and every vertex has degree 3."""
        return self.n > 0 and all(d == 3 for d in self._degrees)

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        """(edge_id, other_endpoint) pairs at v, in edge order."""
        self._check_vertex(v)
        return self._adj[v]

    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """incident(v) for every vertex v, in vertex order."""
        return self._adj

    def neighbors(self, v: int) -> set[int]:
        return {w for _, w in self.incident(v)}

    def endpoints(self, eid: int) -> tuple[int, int]:
        if not (0 <= eid < len(self.edges)):
            raise IndexOutOfRange(f"edge id {eid} out of range")
        return self.edges[eid]

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in set(self.edges)  # small graphs only

    def multiplicity(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return sum(1 for e in self.edges if e == (u, v))

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IndexOutOfRange(f"vertex {v} out of range for n={self.n}")

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    # -- structure -----------------------------------------------------

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack = [s]
            seen[s] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for _, w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def split_components(self) -> list[Component]:
        """Components in the order of components(), each relabelled.

        Relabelling is monotone in vertex and edge ids, so orders that
        break ties by id are the same in the subgraph as in the graph.
        A connected graph is its own only component, with identity ids.
        """
        comps = self.components()
        if len(comps) == 1:
            return [Component(comps[0], list(range(self.m)), self)]
        comp_of = [0] * self.n
        index = [0] * self.n
        for ci, comp in enumerate(comps):
            for i, v in enumerate(comp):
                comp_of[v] = ci
                index[v] = i
        ids: list[list[int]] = [[] for _ in comps]
        local: list[list[tuple[int, int]]] = [[] for _ in comps]
        for eid, (u, v) in enumerate(self.edges):
            ids[comp_of[u]].append(eid)
            local[comp_of[u]].append((index[u], index[v]))
        return [
            Component(comp, cids, MultiGraph(len(comp), edges))
            for comp, cids, edges in zip(comps, ids, local)
        ]

    def component_count(self) -> int:
        return len(self.components())

    def is_connected(self) -> bool:
        return self.component_count() <= 1

    def cycle_rank(self) -> int:
        return self.m - self.n + self.component_count()

    def bridges(self) -> set[int]:
        """Edge ids whose removal increases the component count.

        Iterative depth-first low-link pass.  An edge traversed into the
        DFS tree may not be re-used as its own back edge, but a parallel
        twin may be, which is exactly what keeps doubled edges off the
        bridge list.
        """
        disc = [-1] * self.n
        low = [0] * self.n
        result: set[int] = set()
        counter = 0
        for root in range(self.n):
            if disc[root] != -1:
                continue
            # stack entries: (vertex, incoming edge id, iterator index)
            stack = [(root, -1, 0)]
            disc[root] = low[root] = counter
            counter += 1
            while stack:
                v, in_edge, i = stack[-1]
                if i < len(self._adj[v]):
                    stack[-1] = (v, in_edge, i + 1)
                    eid, w = self._adj[v][i]
                    if eid == in_edge:
                        continue
                    if disc[w] == -1:
                        disc[w] = low[w] = counter
                        counter += 1
                        stack.append((w, eid, 0))
                    else:
                        low[v] = min(low[v], disc[w])
                else:
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        low[parent] = min(low[parent], low[v])
                        if low[v] > disc[parent]:
                            result.add(in_edge)
        return result

    def structure_flags(self, component_count: Optional[int] = None) -> StructureFlags:
        """The graph's class flags.  A component count the caller already
        has (Core.component_count) spares a traversal."""
        count = self.component_count() if component_count is None else component_count
        connected = count <= 1
        rank = self.m - self.n + count
        return StructureFlags(
            connected=connected,
            cubic=self.is_cubic(),
            # a leaf's one edge is a bridge, so only graphs without a
            # leaf need the low-link pass
            bridgeless=1 not in self._degrees and not self.bridges(),
            max_degree=self.max_degree(),
            cycle_rank=rank,
            is_tree=connected and rank == 0,
            is_unicyclic=connected and rank == 1,
        )

    def strip_pendants(self) -> tuple[list[tuple[int, int, int]], list[int]]:
        """Iteratively delete degree-1 vertices.

        Returns the stripped edges as (edge id, leaf, inner endpoint) in
        stripping order, and the surviving edge ids in ascending order:
        the edges on or between cycles.  Leaves are taken last in, first
        out, starting from the initial leaves in vertex order.
        """
        deg = list(self._degrees)
        live_xor = [0] * self.n  # XOR of the ids of the live edges at v
        for eid, (u, v) in enumerate(self.edges):
            live_xor[u] ^= eid
            live_xor[v] ^= eid
        alive = [True] * self.m
        peeled: list[tuple[int, int, int]] = []
        queue = [v for v in range(self.n) if deg[v] == 1]
        while queue:
            v = queue.pop()
            if deg[v] != 1:
                continue
            eid = live_xor[v]  # a leaf's one live edge
            a, b = self.edges[eid]
            w = b if a == v else a
            alive[eid] = False
            live_xor[w] ^= eid
            deg[v] = 0
            deg[w] -= 1
            peeled.append((eid, v, w))
            if deg[w] == 1:
                queue.append(w)
        return peeled, [e for e in range(self.m) if alive[e]]

    def walk_cycles(self, edge_ids: Sequence[int]) -> list[tuple[int, ...]]:
        """The cycles of an edge set in which every vertex has degree 0 or
        2, each as a tuple of edge ids in walking order; a parallel pair
        is a 2-cycle.  A cycle starts with its first edge in edge_ids,
        leaving that edge's smaller endpoint, and continues at each vertex
        along the vertex's other edge.
        """
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for eid in edge_ids:
            u, v = self.edges[eid]
            inc[u].append(eid)
            inc[v].append(eid)
        used = [False] * self.m
        cycles: list[tuple[int, ...]] = []
        for start in edge_ids:
            if used[start]:
                continue
            cycle = []
            eid, v = start, self.edges[start][0]
            while not used[eid]:
                used[eid] = True
                cycle.append(eid)
                a, b = self.edges[eid]
                v = b if v == a else a
                e1, e2 = inc[v]
                eid = e2 if e1 == eid else e1
            cycles.append(tuple(cycle))
        return cycles

    def ring(self, cycle: Sequence[int]) -> list[int]:
        """The vertices of a cycle from walk_cycles, in walking order:
        ring[i] lies between cycle edges i - 1 and i."""
        ring = []
        v = self.edges[cycle[0]][0]
        for eid in cycle:
            ring.append(v)
            a, b = self.edges[eid]
            v = b if v == a else a
        return ring

    def core(self) -> Core:
        """The pendant peel and the parts of the 2-core (see Core), from
        one peel and one traversal of the 2-core's components.

        The peel is last in, first out, so each component is peeled in
        the order it would be on its own.  Peeling keeps a component
        connected, so each component has at most one part: its vertices
        that keep an edge."""
        peeled, survivors = self.strip_pendants()
        if not peeled:
            split = self.split_components()
            parts = [p for p in split if p.edge_ids]
            count = len(split)
        else:
            # a peeled edge's leaf is outside the core, so the core's
            # vertices induce exactly the surviving edges; each tree
            # component is peeled down to one vertex, so the components
            # are the parts and the vertices neither peeled nor in the core
            verts = sorted({v for e in survivors for v in self.edges[e]})
            parts = [
                Component(
                    [verts[v] for v in p.vertices],
                    [survivors[e] for e in p.edge_ids],
                    p.graph,
                )
                for p in (self.induced(verts).split_components() if verts else ())
            ]
            count = len(parts) + self.n - len(verts) - len(peeled)
        return Core(self, peeled, parts, count)

    # -- derived graphs ------------------------------------------------

    def without_edges(self, drop: Iterable[int]) -> "MultiGraph":
        """Same vertex set, listed edges removed (edge ids renumbered)."""
        dropped = set(drop)
        return MultiGraph(
            self.n, [e for i, e in enumerate(self.edges) if i not in dropped]
        )

    def without_vertex(self, v: int) -> "MultiGraph":
        """Delete v and its edges; remaining vertices are relabeled densely."""
        self._check_vertex(v)
        relabel = {}
        for w in range(self.n):
            if w != v:
                relabel[w] = len(relabel)
        kept = [
            (relabel[a], relabel[b]) for (a, b) in self.edges if v not in (a, b)
        ]
        return MultiGraph(self.n - 1, kept)

    def induced(self, vertices: Sequence[int]) -> "MultiGraph":
        keep = {v: i for i, v in enumerate(vertices)}
        kept = [
            (keep[a], keep[b]) for (a, b) in self.edges if a in keep and b in keep
        ]
        return MultiGraph(len(keep), kept)


def build(vertex_count: int, edges: Iterable[tuple[int, int]]) -> MultiGraph:
    """Construct an immutable multigraph, rejecting loops and bad endpoints."""
    return MultiGraph(vertex_count, edges)
