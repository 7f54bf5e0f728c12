"""Maximum matching, perfect matching enumeration, 2-factors, o(G)."""

import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulab import corpus, exact, families, matching, oracle
from nulab.errors import NoTwoFactor, NotCubic, NotPerfect
from nulab.graph import build


def _nx_matching_size(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return len(nx.max_weight_matching(h, maxcardinality=True))


@st.composite
def _multigraphs(draw):
    """Up to 9 vertices, some of them isolated, with parallel pairs and
    the edge ids shuffled."""
    n = draw(st.integers(1, 9))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=16))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    return build(n, draw(st.permutations(edges)))


def test_max_matching_is_a_matching():
    g = families.petersen()
    m = matching.max_matching(g)
    touched = set()
    for eid in m.edge_ids:
        u, v = g.endpoints(eid)
        assert u not in touched and v not in touched
        touched.update((u, v))


def test_max_matching_matches_oracle_on_random_graphs(rng):
    for _ in range(120):
        g = corpus.random_multigraph(rng.randint(2, 7), rng.randint(1, 10), rng)
        assert len(matching.max_matching(g)) == oracle.max_matching_oracle(g)


def test_max_matching_named_values():
    assert len(matching.max_matching(families.petersen())) == 5
    assert len(matching.max_matching(families.path(5))) == 2
    assert len(matching.max_matching(families.star(4))) == 1
    assert len(matching.max_matching(families.fig3_graph12())) == 6


def test_max_matching_size_equals_networkx_on_the_census(cubic_corpus):
    for g in cubic_corpus:
        assert len(matching.max_matching(g)) == _nx_matching_size(g)


@given(_multigraphs())
@settings(max_examples=300, deadline=None)
def test_max_matching_names_lowest_ids_of_a_maximum_matching(g):
    m = matching.max_matching(g)
    assert len(m) == _nx_matching_size(g)
    touched = set()
    for eid in m.edge_ids:
        u, v = g.endpoints(eid)
        assert u not in touched and v not in touched
        touched.update((u, v))
        assert eid == g.edges.index((u, v))


def test_mate_contracts_a_blossom_the_greedy_start_misses(monkeypatch):
    """A 5-cycle 0-1-3-4-2 joined by the edge 4-5 to a triangle 5-6-7:
    the greedy start matches 0-1, 2-4 and 5-6 and leaves 3 and 7
    unmatched.  The only augmenting path, 3-1-0-2-4-5-6-7, leaves the
    cycle at 4, which the search from 3 first reaches as an inner
    vertex, so it is found only after the cycle is contracted."""
    g = build(
        8, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)]
    )
    adj = [sorted(g.neighbors(v)) for v in range(g.n)]
    assert matching._greedy_start(g.n, adj) == [1, 0, 4, -1, 2, 6, 5, -1]
    contractions = []
    mark_path = matching._mark_path
    monkeypatch.setattr(
        matching, "_mark_path", lambda *a: contractions.append(a) or mark_path(*a)
    )
    partner = matching.mate(g.n, adj)
    assert contractions
    assert -1 not in partner
    assert all(partner[partner[v]] == v and partner[v] in adj[v] for v in range(g.n))
    assert len(matching.max_matching(g)) == 4


@given(_multigraphs(), st.integers(1, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_greedy_peel_is_deterministic_proper_and_capped(g, k, data):
    cap = data.draw(st.lists(st.integers(0, k), min_size=g.n, max_size=g.n))
    peel = exact._greedy_peel(g, cap, k)
    assert exact._greedy_peel(g, cap, k) == peel
    assert exact.ColorClasses(k, peel).is_proper(g)
    deg = [0] * g.n
    for eid in peel:
        for v in g.edges[eid]:
            deg[v] += 1
    assert all(deg[v] <= cap[v] for v in range(g.n))


def test_enumerate_perfect_matchings_counts():
    assert len(matching.enumerate_perfect_matchings(families.k4())) == 3
    assert len(matching.enumerate_perfect_matchings(families.cycle(4))) == 2
    assert len(matching.enumerate_perfect_matchings(families.petersen())) == 6
    # odd order: none
    assert matching.enumerate_perfect_matchings(families.path(3)) == []
    # parallel twins give distinct matchings
    twins = build(2, [(0, 1), (0, 1)])
    assert len(matching.enumerate_perfect_matchings(twins)) == 2


def test_enumerate_perfect_matchings_limit():
    pms = matching.enumerate_perfect_matchings(families.petersen(), limit=2)
    assert len(pms) == 2
    with pytest.raises(ValueError):
        matching.enumerate_perfect_matchings(families.k4(), limit=0)


def test_enumerate_perfect_matchings_are_perfect():
    g = families.fig3_graph12()
    pms = matching.enumerate_perfect_matchings(g)
    assert pms
    for pm in pms:
        covered = set()
        for eid in pm.edge_ids:
            u, v = g.endpoints(eid)
            assert u not in covered and v not in covered
            covered.update((u, v))
        assert covered == set(range(g.n))


def test_two_factor_from_pm_k4():
    g = families.k4()
    pm = matching.enumerate_perfect_matchings(g)[0]
    tf = matching.two_factor_from_pm(g, pm)
    assert len(tf.edge_ids) == 4
    assert len(tf.cycles) == 1
    assert tf.odd_cycle_count == 0


def test_two_factor_cycle_partition():
    g = families.petersen()
    for pm in matching.enumerate_perfect_matchings(g):
        tf = matching.two_factor_from_pm(g, pm)
        assert sum(len(c) for c in tf.cycles) == 10
        assert tf.edge_ids.isdisjoint(pm.edge_ids)
        assert tf.odd_cycle_count == sum(1 for c in tf.cycles if len(c) % 2 == 1)


def test_two_factor_errors():
    with pytest.raises(NotCubic):
        matching.two_factor_from_pm(families.cycle(4), matching.Matching(frozenset()))
    g = families.k4()
    with pytest.raises(NotPerfect):
        matching.two_factor_from_pm(g, matching.Matching(frozenset({0})))


def test_min_odd_two_factor_values():
    assert matching.min_odd_two_factor(families.petersen()) == 2
    assert matching.min_odd_two_factor(families.k4()) == 0
    assert matching.min_odd_two_factor(families.ring_of_diamonds(3)) == 0


def test_min_odd_two_factor_requires_pm():
    with pytest.raises(NoTwoFactor):
        matching.min_odd_two_factor(families.sylvester10())


def test_min_odd_two_factor_requires_cubic():
    # a perfect matching exists, so the degree check decides
    with pytest.raises(NotCubic):
        matching.min_odd_two_factor(families.cycle(4))
    with pytest.raises(NotCubic):
        matching.min_odd_two_factor(build(0, []))
    with pytest.raises(NoTwoFactor):
        matching.min_odd_two_factor(families.path(3))


def _min_odd_by_enumeration(g):
    """o(G) as it is defined: the least odd-cycle count over the
    2-factors left by all perfect matchings."""
    pms = matching.enumerate_perfect_matchings(g)
    if not pms:
        raise NoTwoFactor("graph has no perfect matching")
    return min(matching.two_factor_from_pm(g, pm).odd_cycle_count for pm in pms)


def _pairing_cubic(n, rng):
    """Pairing-model random cubic multigraph, redrawn while it has a loop."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = list(zip(points[::2], points[1::2]))
        if all(u != v for u, v in pairs):
            return build(n, pairs)


def test_min_odd_two_factor_matches_enumeration():
    rng = random.Random(20261018)
    graphs = list(corpus.connected_cubic_graphs(10))
    graphs += [_pairing_cubic(rng.choice((4, 6, 8, 10, 12, 14)), rng) for _ in range(60)]
    graphs += [families.fig1_graph(), families.ring_of_diamonds(3), families.petersen()]
    graphs += [families.fig3_graph12(), families.fig5_graph28()]  # o(G) = 4
    values = []
    for g in graphs:
        want = _min_odd_by_enumeration(g)
        assert matching.min_odd_two_factor(g) == want, g.edges
        values.append(want)
    assert {0, 2, 4} <= set(values)
    for route in (_min_odd_by_enumeration, matching.min_odd_two_factor):
        with pytest.raises(NoTwoFactor):
            route(families.sylvester10())


@given(_multigraphs())
@settings(max_examples=150, deadline=None)
def test_enumerate_perfect_matchings_is_every_covering_edge_set(g):
    """The depth-first enumeration against every n/2-subset of the edges;
    with a limit, a sorted subset of that size."""
    want = []
    if g.n % 2 == 0:
        for ids in itertools.combinations(range(g.m), g.n // 2):
            ends = [v for eid in ids for v in g.edges[eid]]
            if len(set(ends)) == g.n:
                want.append(ids)
    got = [tuple(sorted(pm.edge_ids)) for pm in matching.enumerate_perfect_matchings(g)]
    assert got == want
    some = [tuple(sorted(pm.edge_ids)) for pm in matching.enumerate_perfect_matchings(g, limit=2)]
    assert some == sorted(some) and set(some) <= set(want) and len(some) == min(2, len(want))


def test_long_graphs_do_not_hit_the_recursion_limit():
    g = families.ring_of_diamonds(600)  # n = 2400
    t = time.perf_counter()
    assert matching.min_odd_two_factor(g) == 0
    assert len(matching.enumerate_perfect_matchings(g, limit=1)) == 1
    assert time.perf_counter() - t < 5.0
