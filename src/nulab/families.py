"""Constructors for the named tight examples and replacement operations.

All constructors return plain `MultiGraph` values with documented vertex
layouts; vertex roles are described in comments, not in the data model.
"""

from __future__ import annotations

from .errors import BadParameter, NotCubic
from .graph import MultiGraph, build


def fig1_graph() -> MultiGraph:
    """Two triangles, each with one doubled edge, joined by a bridge.

    Vertices 0,1,2 form the left triangle (edge 0-1 doubled), 3,4,5 the
    right one (edge 4-5 doubled); 2-3 is the bridge.  Cubic, 6 vertices,
    9 edges.
    """
    return build(
        6,
        [
            (0, 1), (0, 1), (0, 2), (1, 2),
            (2, 3),
            (3, 4), (3, 5), (4, 5), (4, 5),
        ],
    )


def _balloon(a: int, b: int, c: int) -> list[tuple[int, int]]:
    # triangle a,b,c with the b-c edge doubled; a is the stem apex
    return [(a, b), (a, c), (b, c), (b, c)]


def sylvester10() -> MultiGraph:
    """Sylvester graph on 10 vertices: three balloons on a central vertex.

    Balloon i occupies vertices 3i..3i+2 (apex 3i); vertex 9 is the hub.
    Cubic with exactly the 3 stem edges as bridges; 15 edges.
    """
    edges: list[tuple[int, int]] = []
    for i in range(3):
        a = 3 * i
        edges.extend(_balloon(a, a + 1, a + 2))
        edges.append((a, 9))
    return build(10, edges)


def fig3_graph12() -> MultiGraph:
    """Three balloons whose stems attach to a central triangle.

    Balloon i occupies vertices 3i..3i+2; vertices 9,10,11 form the core
    triangle.  Cubic, 12 vertices, 18 edges, contains a perfect matching.
    """
    edges: list[tuple[int, int]] = []
    for i in range(3):
        a = 3 * i
        edges.extend(_balloon(a, a + 1, a + 2))
        edges.append((a, 9 + i))
    edges.extend([(9, 10), (10, 11), (9, 11)])
    return build(12, edges)


#: outer 5-cycle, spokes, inner pentagram
_PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
]


def petersen() -> MultiGraph:
    """The Petersen graph: 10 vertices, 15 edges, cubic, bridgeless."""
    return build(10, _PETERSEN_EDGES)


def petersen_minus_vertex() -> MultiGraph:
    """Petersen with vertex 0 deleted: 9 vertices, 12 edges.

    The three old neighbors of vertex 0 become the degree-2 vertices;
    after relabeling they are vertices 0, 3 and 4.
    """
    return petersen().without_vertex(0)


def fig5_graph28() -> MultiGraph:
    """28-vertex bridgeless cubic graph: three Petersen-minus-vertex
    blocks plus a hub vertex, wired rotationally symmetrically.

    Block i occupies vertices 9i..9i+8; within a block the degree-2
    vertices are offsets 0, 3 and 4.  Vertex 27 is the hub.  Block i
    connects: offset 0 to the hub, offset 3 to offset 4 of block i+1.
    The exact wiring is a validated reconstruction; its defining
    invariants (cubic, bridgeless, resistance 3, nu2 = 26) are enforced
    by the test suite.
    """
    block = petersen_minus_vertex()
    edges: list[tuple[int, int]] = []
    for i in range(3):
        off = 9 * i
        edges.extend((off + u, off + v) for (u, v) in block.edges)
        edges.append((off + 0, 27))
    for i in range(3):
        edges.append((9 * i + 3, 9 * ((i + 1) % 3) + 4))
    g = build(28, edges)
    flags = g.structure_flags()
    if not (flags.cubic and flags.bridgeless):
        raise AssertionError("fig5 wiring lost cubicity or 2-edge-connectivity")
    return g


def remark_family(k: int, l: int) -> MultiGraph:
    """Cycle C_l with k-1 pendant edges at every cycle vertex.

    n = |E| = l*k.  l = 2 is rejected: it would degenerate the cycle to a
    doubled edge.
    """
    if k < 2:
        raise BadParameter("remark family needs k >= 2")
    if l < 3:
        raise BadParameter("remark family needs l >= 3 (l = 2 degenerates)")
    edges = [(i, (i + 1) % l) for i in range(l)]
    nxt = l
    for i in range(l):
        for _ in range(k - 1):
            edges.append((i, nxt))
            nxt += 1
    return build(l * k, edges)


def triangle_replace(h: MultiGraph) -> MultiGraph:
    """Replace every vertex of a cubic graph with a triangle.

    Vertex v becomes 3v, 3v+1, 3v+2; the three original edges at v attach
    to the three copies in incidence order.  Output is cubic and
    claw-free with 3|V| vertices and |E| + 3|V| edges.
    """
    if not h.is_cubic():
        raise NotCubic("triangle replacement is defined for cubic graphs")
    edges: list[tuple[int, int]] = []
    for v in range(h.n):
        b = 3 * v
        edges.extend([(b, b + 1), (b, b + 2), (b + 1, b + 2)])
    slot = [0] * h.n
    for (u, w) in h.edges:
        eu = 3 * u + slot[u]
        ew = 3 * w + slot[w]
        slot[u] += 1
        slot[w] += 1
        edges.append((eu, ew))
    return build(3 * h.n, edges)


def _diamond(base: int) -> tuple[list[tuple[int, int]], int, int]:
    """K4 minus an edge on vertices base..base+3.

    Returns (edges, entry tip, exit tip); base and base+3 are the tips,
    base+1 and base+2 the adjacent centers.
    """
    a, c1, c2, b = base, base + 1, base + 2, base + 3
    return [(a, c1), (a, c2), (c1, c2), (c1, b), (c2, b)], a, b


def string_replace(g: MultiGraph, eid: int, count: int) -> MultiGraph:
    """Replace edge `eid` with a string of `count` diamonds.

    Adds 4*count vertices and 6*count edges; preserves cubicity.
    """
    if count < 1:
        raise BadParameter("diamond count must be >= 1")
    u, v = g.endpoints(eid)  # raises IndexOutOfRange for a bad id
    edges = [e for i, e in enumerate(g.edges) if i != eid]
    prev = u
    base = g.n
    for _ in range(count):
        dedges, tin, tout = _diamond(base)
        edges.append((prev, tin))
        edges.extend(dedges)
        prev = tout
        base += 4
    edges.append((prev, v))
    return build(base, edges)


def ring_of_diamonds(r: int) -> MultiGraph:
    """Cyclic chain of r diamonds: 4r vertices, 6r edges, cubic,
    claw-free, bridgeless.
    """
    if r < 2:
        raise BadParameter("ring of diamonds needs r >= 2")
    edges: list[tuple[int, int]] = []
    tips = []
    for i in range(r):
        dedges, tin, tout = _diamond(4 * i)
        edges.extend(dedges)
        tips.append((tin, tout))
    for i in range(r):
        edges.append((tips[i][1], tips[(i + 1) % r][0]))
    return build(4 * r, edges)


def k4() -> MultiGraph:
    return build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def cycle(length: int) -> MultiGraph:
    if length < 2:
        raise BadParameter("cycle needs length >= 2")
    if length == 2:
        return build(2, [(0, 1), (0, 1)])
    return build(length, [(i, (i + 1) % length) for i in range(length)])


def path(vertices: int) -> MultiGraph:
    if vertices < 1:
        raise BadParameter("path needs >= 1 vertex")
    return build(vertices, [(i, i + 1) for i in range(vertices - 1)])


def star(leaves: int) -> MultiGraph:
    return build(leaves + 1, [(0, i + 1) for i in range(leaves)])


def complete_bipartite(a: int, b: int) -> MultiGraph:
    return build(a + b, [(i, a + j) for i in range(a) for j in range(b)])
