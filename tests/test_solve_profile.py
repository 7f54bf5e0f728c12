"""exact.solve_profile: every k from one search on class-1 cubic graphs,
a ladder over one shared core everywhere else."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulab import corpus, exact, families, profiling, structure
from nulab.errors import BadParameter
from nulab.graph import MultiGraph

KS = (1, 2, 3, 4, 5)


def _pairing_cubic(n: int, rng: random.Random) -> MultiGraph:
    """Pairing-model random cubic multigraph: three points per vertex,
    a uniform perfect matching of the points, redrawn while it has a
    loop.  Parallel edges and disconnected results are kept."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = list(zip(points[::2], points[1::2]))
        if all(u != v for u, v in pairs):
            return MultiGraph(n, pairs)


def _bridged_cubic(block: int, rng: random.Random) -> MultiGraph:
    """Two random connected cubic blocks on block vertices each, one edge
    removed from each and its ends joined to a new vertex, the two new
    vertices joined by a bridge: a cubic graph on 2 * block + 2 vertices
    with no 3-edge-colouring."""
    edges = []
    for side in (0, 1):
        while True:
            b = _pairing_cubic(block, rng)
            if b.component_count() == 1:
                break
        base = side * (block + 1)
        (u, v), rest = b.edges[0], b.edges[1:]
        edges += [(base + x, base + y) for x, y in rest]
        edges += [(base + u, base + block), (base + v, base + block)]
    g = MultiGraph(2 * block + 2, edges + [(block, 2 * block + 1)])
    assert g.is_cubic() and g.bridges()
    return g


def _theta() -> MultiGraph:
    return MultiGraph(2, [(0, 1)] * 3)


def _c4_doubled_matching() -> MultiGraph:
    return MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 1), (2, 3)])


def _corpus() -> list[MultiGraph]:
    rng = random.Random(20261018)
    graphs = list(corpus.connected_cubic_graphs(10))
    graphs += [_pairing_cubic(rng.choice((14, 16, 18, 20)), rng) for _ in range(20)]
    graphs += [_theta(), _c4_doubled_matching()]
    graphs += [families.petersen(), families.fig5_graph28()]
    return graphs


def test_solve_profile_matches_nu_k_with_certificates():
    shortcuts = 0
    for g in _corpus():
        got = exact.solve_profile(g, KS)
        assert sorted(got) == list(KS)
        for k in KS:
            res = got[k]
            want = exact.nu_k(g, k)
            assert res.value == want.value, (g, k)
            cert = res.certificate
            assert cert.k == k
            assert cert.is_proper(g)
            assert cert.colored_count == res.value
        if set(g.degrees()) == {3} and got[3].value == g.m:  # class 1
            shortcuts += 1
            assert got[1].value * 2 == got[2].value == g.n
    assert shortcuts >= 20


def _assert_ladder_is_nu_k(graphs, use_poly=True) -> tuple[int, int]:
    """solve_profile(g, KS) against nu_k per k: equal values, proper
    certificates of that size; and, off the class-1 cubic shortcut
    (whose one search is every k's node count), no more search nodes for
    every k, and solve_profile(g, [k]) is exactly nu_k(g, k), node count
    included.  Returns the node counts off the shortcut, summed over
    graphs and ks, the ladder's and nu_k's."""
    ladder = per_k = 0
    for g in graphs:
        got = exact.solve_profile(g, KS, use_poly=use_poly)
        assert sorted(got) == list(KS)
        shortcut = g.is_cubic() and got[3].value == g.m
        for k in KS:
            want = exact.nu_k(g, k, use_poly=use_poly)
            res = got[k]
            assert res.value == want.value, (g, k)
            assert res.certificate.k == k
            assert res.certificate.is_proper(g)
            assert res.certificate.colored_count == res.value
            if not shortcut:
                assert exact.solve_profile(g, [k], use_poly=use_poly) == {k: want}
                assert res.node_count <= want.node_count, (g, k)
                ladder += res.node_count
                per_k += want.node_count
    assert ladder <= per_k
    return ladder, per_k


def test_solve_profile_is_nu_k_off_the_shortcut():
    """Graphs that are not class-1 bridgeless cubic get nu_k's values on
    both routes, and the ladder saves nodes on the class-2 ones."""
    graphs = [
        families.petersen(),  # bridgeless, class 2
        families.sylvester10(),  # has bridges
        families.fig1_graph(),
        families.cycle(5),
        families.remark_family(3, 5),
        MultiGraph(3, []),
    ]
    for use_poly in (True, False):
        ladder, per_k = _assert_ladder_is_nu_k(graphs, use_poly)
        assert ladder < per_k


def test_ladder_closes_class2_nu3():
    """U_3 = floor(3 * nu_2 / 2) is nu_3 on Petersen and the
    triangle-replaced Petersen, so the greedy incumbent closes k = 3
    with no search; on fig5 it cuts the search from 8,484 nodes."""
    cases = [
        (families.petersen(), 13, 0, 584),
        (families.triangle_replace(families.petersen()), 43, 0, 4425),
        (families.fig5_graph28(), 39, 2557, 8484),
    ]
    for g, value, nodes, alone in cases:
        res = exact.solve_profile(g, (2, 3))[3]
        assert (res.value, res.node_count) == (value, nodes)
        assert exact.nu_k(g, 3).node_count == alone
        assert res.certificate.is_proper(g)
        assert res.certificate.colored_count == value


def test_ladder_reuses_a_colouring_of_every_edge(monkeypatch):
    """Once nu_{k-1} = m, each larger k takes that colouring as is: no
    forcing, no search and 0 nodes.  A k whose k - 1 is not asked for is
    solved alone."""
    forced = []
    force = exact._force

    def counted_force(peeled, cap):
        forced.append(max(cap, default=0))
        return force(peeled, cap)

    monkeypatch.setattr(exact, "_force", counted_force)
    tree = MultiGraph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)])
    got = exact.solve_profile(tree, KS)
    assert forced == [1, 2, 3]
    assert [got[k].value for k in KS] == [exact.nu_k(tree, k).value for k in KS]
    assert [got[k].value for k in KS] == [2, 4, 6, 6, 6]
    for k in (4, 5):
        assert got[k].node_count == 0
        assert got[k].certificate == exact.ColorClasses(k, got[3].certificate.assignment)
    forced.clear()
    assert exact.solve_profile(tree, (3, 5))[5] == exact.nu_k(tree, 5)
    assert forced == [3, 5, 5]


def test_ladder_against_nu_k_on_the_census_and_named_graphs():
    rng = random.Random(20261021)
    census = list(corpus.connected_cubic_graphs(10))
    named = [
        families.fig5_graph28(),
        families.triangle_replace(families.petersen()),
        families.petersen(),
    ]
    bridged = [_bridged_cubic(block, rng) for block in (10, 10, 14, 14)]
    for graphs in (census, named, bridged):
        _assert_ladder_is_nu_k(graphs)


def test_solve_profile_shortcut_values():
    for g in (families.k4(), _theta(), _c4_doubled_matching()):
        got = exact.solve_profile(g, (3, 1, 2, 2))
        assert {k: r.value for k, r in got.items()} == {1: g.n // 2, 2: g.n, 3: g.m}


def test_solve_profile_rejects_bad_k():
    with pytest.raises(BadParameter):
        exact.solve_profile(families.k4(), (0, 1))
    assert exact.solve_profile(families.k4(), ()) == {}


def test_compute_profile_on_class2_solves_per_k(monkeypatch):
    """Petersen (class 2) fails the 3-edge-colouring search, then gets one
    exact solve per k from the profile's one core; the ladder's bound
    closes k = 3 before its search.  K4 takes the shortcut."""
    searches, peels = [], []
    search, peel = exact._search, MultiGraph.strip_pendants

    def counted_search(h, cap, k, lower, upper):
        found, nodes = search(h, cap, k, lower, upper)
        searches.append((k, nodes))
        return found, nodes

    def counted_peel(g):
        peels.append(g)
        return peel(g)

    monkeypatch.setattr(exact, "_search", counted_search)
    monkeypatch.setattr(MultiGraph, "strip_pendants", counted_peel)
    profile = profiling.compute_profile(families.petersen())
    # the colouring search, then k = 1..4
    assert [k for k, _ in searches] == [3, 1, 2, 3, 4]
    assert searches[3] == (3, 0)
    assert len(peels) == 1
    assert profile.nu == {1: 5, 2: 9, 3: 13, 4: 15}
    searches.clear()
    peels.clear()
    profile = profiling.compute_profile(families.k4())
    assert [k for k, _ in searches] == [3] and len(peels) == 1
    assert profile.nu == {1: 2, 2: 4, 3: 6, 4: 6}


def _disconnected_multigraph(rng: random.Random) -> MultiGraph:
    """Two or three random multigraphs side by side, vertices shuffled."""
    edges, n = [], 0
    for _ in range(rng.randint(2, 3)):
        size = rng.randint(2, 7)
        g = corpus.random_multigraph(size, rng.randint(1, 2 * size), rng)
        edges += [(n + u, n + v) for u, v in g.edges]
        n += size
    perm = list(range(n))
    rng.shuffle(perm)
    return MultiGraph(n, [(perm[u], perm[v]) for u, v in edges])


@pytest.mark.parametrize("use_poly", [True, False])
def test_solve_profile_is_nu_k_per_k(use_poly):
    """The ladder over one shared core gives each k nu_k's value, a
    proper certificate and no more nodes; each k alone is exactly nu_k."""
    rng = random.Random(8)
    graphs = list(corpus.random_trees(30, 16, 1))
    graphs += list(corpus.random_unicyclics(30, 14, 2))
    graphs += [_disconnected_multigraph(rng) for _ in range(30)]
    graphs += [families.petersen(), families.triangle_replace(families.petersen())]
    graphs += [g for g in corpus.connected_cubic_graphs(10) if g.bridges()]  # class 2
    graphs += [_bridged_cubic(block, rng) for block in (10, 10, 14, 14)]
    _assert_ladder_is_nu_k(graphs, use_poly)


def test_compute_profile_finds_bridges_once(monkeypatch):
    calls = []
    original = MultiGraph.bridges

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(MultiGraph, "bridges", counted)
    for g in (families.k4(), families.petersen(), families.sylvester10()):
        calls.clear()
        profiling.compute_profile(g)
        assert len(calls) == 1


def _count_calls(monkeypatch, owner, name, calls):
    """Replace owner.name by a wrapper that appends its first argument to
    calls."""
    original = getattr(owner, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_compute_profile_finds_each_fact_once(monkeypatch):
    """At most one components of g, one peel and one cycle walk per
    profile, and one odd-cycle search on a bipartite graph."""
    comps, peels, walks, odd = [], [], [], []
    _count_calls(monkeypatch, MultiGraph, "components", comps)
    _count_calls(monkeypatch, MultiGraph, "strip_pendants", peels)
    _count_calls(monkeypatch, MultiGraph, "walk_cycles", walks)
    _count_calls(monkeypatch, structure, "_odd_cycle", odd)
    tree = MultiGraph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)])
    # a 4-cycle with a path and a leaf on it
    unicyclic = MultiGraph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (2, 6)])
    cases = [
        (tree, True),
        (unicyclic, True),
        (families.petersen(), False),
        (families.fig5_graph28(), False),
    ]
    for g, bipartite in cases:
        for calls in (comps, peels, walks, odd):
            calls.clear()
        profile = profiling.compute_profile(g, KS)
        assert profile.flags.bipartite == bipartite
        # a graph with a pendant edge counts its components from the peel
        assert len([h for h in comps if h is g]) == (0 if 1 in g.degrees() else 1)
        assert len(peels) == 1
        if bipartite:
            assert len(odd) == 1
        if profile.flags.is_unicyclic:
            assert len(walks) == 1 and profile.xk


@st.composite
def _pendant_multigraphs(draw):
    """A small random multigraph, possibly disconnected, with pendant
    trees grown onto it, so that most solves peel before they search."""
    n = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=8))
    for _ in range(draw(st.integers(0, 6))):
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    return MultiGraph(n, draw(st.permutations(edges)))


@given(_pendant_multigraphs(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_profile_inequalities_across_k(g, use_poly):
    """Through solve_profile's shared reduction: nu_k is monotone in k,
    nu_{k+1} <= nu_k + nu_1 and nu_k >= ceil(k * nu_{k+1} / (k + 1))."""
    got = exact.solve_profile(g, KS, use_poly=use_poly)
    nu = {k: res.value for k, res in got.items()}
    for k, res in got.items():
        assert res.certificate.is_proper(g) and res.certificate.colored_count == nu[k]
    for k in range(1, 5):
        assert nu[k] <= nu[k + 1] <= nu[k] + nu[1]
        assert nu[k] >= -(-k * nu[k + 1] // (k + 1))
