"""Core multigraph model: construction, queries, bridges, derived graphs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulab import families
from nulab.errors import IndexOutOfRange, LoopRejected
from nulab.graph import MultiGraph, build


def test_build_basics():
    g = build(4, [(0, 1), (1, 2), (2, 3), (0, 1)])
    assert g.n == 4
    assert g.m == 4
    assert g.degree(0) == 2
    assert g.degree(1) == 3
    assert g.degrees() == (2, 3, 2, 1)
    assert g.max_degree() == 3
    assert g.endpoints(3) == (0, 1)
    assert g.multiplicity(1, 0) == 2
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    assert g.neighbors(1) == {0, 2}


def test_endpoints_normalized():
    g = build(3, [(2, 0)])
    assert g.endpoints(0) == (0, 2)


def test_incident_reports_edge_ids_in_order():
    g = build(3, [(0, 1), (1, 2), (0, 1)])
    assert g.incident(1) == ((0, 0), (1, 2), (2, 0))


def test_loop_rejected():
    with pytest.raises(LoopRejected):
        build(3, [(1, 1)])


def test_bad_endpoint_rejected():
    with pytest.raises(IndexOutOfRange):
        build(2, [(0, 2)])
    with pytest.raises(IndexOutOfRange):
        build(2, [(-1, 0)])
    g = build(2, [(0, 1)])
    with pytest.raises(IndexOutOfRange):
        g.endpoints(1)
    with pytest.raises(IndexOutOfRange):
        g.degree(5)


def test_immutable():
    g = build(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5


def test_eq_and_hash():
    a = build(3, [(0, 1), (1, 2)])
    b = build(3, [(1, 0), (1, 2)])
    c = build(3, [(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c  # edge ids are part of the identity


def test_components_and_rank():
    g = build(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert g.components() == [[0, 1, 2], [3, 4], [5]]
    assert g.component_count() == 3
    assert not g.is_connected()
    assert g.cycle_rank() == 1


def test_structure_flags():
    tree = build(4, [(0, 1), (1, 2), (1, 3)])
    f = tree.structure_flags()
    assert f.is_tree and not f.is_unicyclic and f.bridgeless is False
    assert f.max_degree == 3 and f.cycle_rank == 0

    cyc = families.cycle(5)
    f = cyc.structure_flags()
    assert f.is_unicyclic and not f.is_tree and f.bridgeless

    pet = families.petersen()
    f = pet.structure_flags()
    assert f.cubic and f.bridgeless and f.connected and f.cycle_rank == 6


def test_bridges_on_named_graphs():
    assert families.path(5).bridges() == {0, 1, 2, 3}
    assert families.cycle(6).bridges() == set()
    # a parallel pair is never a bridge
    assert build(2, [(0, 1), (0, 1)]).bridges() == set()
    # fig1: the single connecting edge is the unique bridge
    assert families.fig1_graph().bridges() == {4}
    # sylvester10: exactly the three balloon stems
    syl = families.sylvester10()
    stems = {eid for eid, (u, v) in enumerate(syl.edges) if v == 9}
    assert syl.bridges() == stems
    assert families.petersen().bridges() == set()


def _bridges_naive(g: MultiGraph) -> set:
    base = g.component_count()
    return {e for e in range(g.m) if g.without_edges([e]).component_count() > base}


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_bridges_match_deletion_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    m = rng.randint(1, 12)
    edges = []
    for _ in range(m):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    g = MultiGraph(n, edges)
    assert g.bridges() == _bridges_naive(g)


def test_without_edges():
    g = build(3, [(0, 1), (1, 2), (0, 2)])
    h = g.without_edges([1])
    assert h.m == 2
    assert h.edges == ((0, 1), (0, 2))


def test_without_vertex_relabels_densely():
    g = families.petersen().without_vertex(0)
    assert g.n == 9
    assert g.m == 12
    assert sorted(d for d in g.degrees()) == [2, 2, 2, 3, 3, 3, 3, 3, 3]


def test_induced():
    g = families.k4()
    h = g.induced([0, 1, 3])
    assert h.n == 3
    assert h.m == 3  # a triangle


def test_empty_graph():
    g = build(0, [])
    assert g.n == 0 and g.m == 0
    assert g.components() == []
    assert g.is_connected()
    assert g.max_degree() == 0


def test_split_components_of_a_connected_graph_is_the_graph():
    g = families.petersen()
    (comp,) = g.split_components()
    assert comp.graph is g
    assert comp.vertices == list(range(g.n)) and comp.edge_ids == list(range(g.m))


def _strip_pendants_by_scan(g: MultiGraph):
    """The peel with each leaf's last live edge found by scanning its
    incidence list: the reference for MultiGraph.strip_pendants."""
    deg = list(g.degrees())
    alive = [True] * g.m
    peeled = []
    queue = [v for v in range(g.n) if deg[v] == 1]
    while queue:
        v = queue.pop()
        if deg[v] != 1:
            continue
        eid, w = next((e, w) for e, w in g.incident(v) if alive[e])
        alive[eid] = False
        deg[v] -= 1
        deg[w] -= 1
        peeled.append((eid, v, w))
        if deg[w] == 1:
            queue.append(w)
    return peeled, [e for e in range(g.m) if alive[e]]


@st.composite
def _leafy_multigraphs(draw):
    """A random forest plus a few extra edges and parallel copies, with
    the edge ids shuffled: many leaves, peeled in chains."""
    n = draw(st.integers(1, 14))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n) if draw(st.booleans())]
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        edges += draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=3))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return build(n, draw(st.permutations(edges)))


@given(_leafy_multigraphs())
@settings(max_examples=300, deadline=None)
def test_strip_pendants_matches_the_scanning_peel(g):
    assert g.strip_pendants() == _strip_pendants_by_scan(g)
