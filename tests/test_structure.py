"""Class recognizers and the claw-free bridgeless cubic decomposition."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulab import exact, families, structure
from nulab.errors import NotInClass
from nulab.graph import build
from nulab.structure import OumVariant


def _prism():
    # two triangles joined by a perfect matching (C3 x K2)
    return build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def test_is_claw_free():
    assert structure.is_claw_free(families.k4())
    assert structure.is_claw_free(_prism())
    assert structure.is_claw_free(families.ring_of_diamonds(3))
    assert structure.is_claw_free(families.triangle_replace(families.petersen()))
    assert not structure.is_claw_free(families.star(3))
    assert not structure.is_claw_free(families.petersen())
    assert not structure.is_claw_free(families.complete_bipartite(3, 3))


def test_is_bipartite():
    assert structure.is_bipartite(families.cycle(4))
    assert not structure.is_bipartite(families.cycle(5))
    assert structure.is_bipartite(families.complete_bipartite(3, 3))
    assert structure.is_bipartite(families.path(6))
    assert not structure.is_bipartite(families.k4())


def test_is_nearly_bipartite():
    assert structure.is_nearly_bipartite(families.cycle(5))
    # every vertex deletion of K4 leaves a triangle
    assert not structure.is_nearly_bipartite(families.k4())
    assert not structure.is_nearly_bipartite(families.petersen())
    assert structure.is_nearly_bipartite(families.cycle(4))
    assert not structure.is_nearly_bipartite(build(0, []))
    assert structure.is_nearly_bipartite(build(1, []))


def _bipartite_by_colouring(g):
    colour = [-1] * g.n
    for s in range(g.n):
        if colour[s] < 0:
            colour[s], stack = 0, [s]
            while stack:
                v = stack.pop()
                for _, w in g.incident(v):
                    if colour[w] < 0:
                        colour[w] = 1 - colour[v]
                        stack.append(w)
                    elif colour[w] == colour[v]:
                        return False
    return True


@st.composite
def _multigraphs(draw):
    """n = 0..9 with isolated vertices and parallel pairs."""
    n = draw(st.integers(0, 9))
    if n < 2:
        return build(n, [])
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=16))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return build(n, edges)


@st.composite
def _glued_odd_cycles(draw):
    """Two or three odd cycles through one shared vertex, the only vertex
    whose deletion leaves a bipartite graph, plus pendant edges, with the
    vertices relabelled at random."""
    edges, n = [], 1  # vertex 0 is the shared one
    for _ in range(draw(st.integers(2, 3))):
        length = draw(st.sampled_from((3, 5, 7)))
        cycle = [0] + list(range(n, n + length - 1))
        n += length - 1
        edges += list(zip(cycle, cycle[1:] + [0]))
    for _ in range(draw(st.integers(0, 3))):
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    label = draw(st.permutations(range(n)))
    return build(n, [(label[u], label[v]) for u, v in edges])


@given(st.one_of(_multigraphs(), _glued_odd_cycles()))
@settings(max_examples=400, deadline=None)
def test_bipartite_tests_match_their_definitions(g):
    """is_bipartite against a DFS 2-colouring, and is_nearly_bipartite
    against deleting each vertex in turn on a copy of the graph."""
    assert structure.is_bipartite(g) == _bipartite_by_colouring(g)
    want = any(_bipartite_by_colouring(g.without_vertex(v)) for v in range(g.n))
    assert structure.is_nearly_bipartite(g) == want


def test_decompose_k4():
    dec = structure.oum_decompose(families.k4())
    assert dec.variant is OumVariant.IsK4
    assert dec.base_graph.n == 4
    assert dec.total_diamonds == 0


def test_decompose_ring_of_diamonds():
    for r in (2, 3, 4):
        dec = structure.oum_decompose(families.ring_of_diamonds(r))
        assert dec.variant is OumVariant.RingOfDiamonds


def test_decompose_prism():
    # two triangles triple-connected reduce to the 3-edge theta multigraph
    dec = structure.oum_decompose(_prism())
    assert dec.variant is OumVariant.Reduced
    assert dec.base_graph.n == 2
    assert dec.base_graph.m == 3
    assert dec.replaced_edges == ()
    assert len(dec.triangle_map) == 2


def test_decompose_triangle_replaced_petersen():
    g = families.triangle_replace(families.petersen())
    dec = structure.oum_decompose(g)
    assert dec.variant is OumVariant.Reduced
    assert dec.base_graph.n == 10
    assert dec.base_graph.m == 15
    assert dec.replaced_edges == ()
    assert len(dec.triangle_map) == 10
    # count identities
    assert g.n == 3 * dec.base_graph.n + 4 * dec.total_diamonds
    assert g.m == dec.base_graph.m + 3 * dec.base_graph.n + 6 * dec.total_diamonds


def test_decompose_with_diamond_strings():
    h = families.petersen()
    t = families.triangle_replace(h)
    # the trailing h.m edges of t are the inter-triangle connections
    inter = 3 * h.n  # first inter-triangle edge id
    g = families.string_replace(t, inter, 2)
    dec = structure.oum_decompose(g)
    assert dec.variant is OumVariant.Reduced
    assert dec.base_graph.n == 10
    assert dec.total_diamonds == 2
    assert len(dec.replaced_edges) == 1
    assert g.n == 3 * dec.base_graph.n + 4 * dec.total_diamonds
    assert g.m == dec.base_graph.m + 3 * dec.base_graph.n + 6 * dec.total_diamonds


def test_decompose_rejects_out_of_class():
    with pytest.raises(NotInClass):
        structure.oum_decompose(families.petersen())  # has claws
    with pytest.raises(NotInClass):
        structure.oum_decompose(families.fig1_graph())  # parallel edges
    with pytest.raises(NotInClass):
        structure.oum_decompose(families.cycle(6))  # not cubic
    with pytest.raises(NotInClass):
        structure.oum_decompose(families.sylvester10())  # bridges
    with pytest.raises(NotInClass):
        structure.oum_decompose(families.complete_bipartite(3, 3))  # has claws


def test_r3_via_reduction():
    pet = families.petersen()
    tri = families.triangle_replace(pet)
    assert structure.r3_via_reduction(tri) == exact.resistance_r3(pet) == 2
    assert structure.r3_via_reduction(_prism()) == 0
    assert structure.r3_via_reduction(families.k4()) == 0
    assert structure.r3_via_reduction(families.ring_of_diamonds(3)) == 0
    # with a diamond string spliced into one edge the value is unchanged
    inter = 3 * pet.n
    g = families.string_replace(tri, inter, 1)
    assert structure.r3_via_reduction(g) == 2
