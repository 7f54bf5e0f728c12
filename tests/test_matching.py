"""Maximum matching, perfect matching enumeration, 2-factors, o(G)."""

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
