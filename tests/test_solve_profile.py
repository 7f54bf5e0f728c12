"""exact.solve_profile: every k from one search on class-1 cubic graphs,
one shared reduction everywhere else."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulab import corpus, exact, families, profiling
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


def test_solve_profile_is_nu_k_off_the_shortcut():
    """Graphs that are not class-1 bridgeless cubic get exactly nu_k's
    results: values, certificates and node counts."""
    graphs = [
        families.petersen(),  # bridgeless, class 2
        families.sylvester10(),  # has bridges
        families.fig1_graph(),
        families.cycle(5),
        families.remark_family(3, 5),
        MultiGraph(3, []),
    ]
    for g in graphs:
        got = exact.solve_profile(g, KS)
        assert got == {k: exact.nu_k(g, k) for k in KS}
        assert exact.solve_profile(g, KS, use_poly=False) == {
            k: exact.nu_k(g, k, use_poly=False) for k in KS
        }


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
    exact solve per k from a single reduction; K4 takes the shortcut."""
    searches, reductions = [], []
    search, reduce = exact._search, exact._reduce

    def counted_search(h, cap, k, lower, upper):
        searches.append(k)
        return search(h, cap, k, lower, upper)

    def counted_reduce(g):
        reductions.append(g)
        return reduce(g)

    monkeypatch.setattr(exact, "_search", counted_search)
    monkeypatch.setattr(exact, "_reduce", counted_reduce)
    profile = profiling.compute_profile(families.petersen())
    assert searches == [3, 1, 2, 3, 4]  # the colouring search, then k = 1..4
    assert len(reductions) == 1
    assert profile.nu == {1: 5, 2: 9, 3: 13, 4: 15}
    searches.clear()
    reductions.clear()
    profile = profiling.compute_profile(families.k4())
    assert searches == [3] and reductions == []
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
    """One shared reduction gives each k exactly what nu_k gives alone:
    value, node count and certificate."""
    rng = random.Random(8)
    graphs = list(corpus.random_trees(30, 16, 1))
    graphs += list(corpus.random_unicyclics(30, 14, 2))
    graphs += [_disconnected_multigraph(rng) for _ in range(30)]
    graphs += [families.petersen(), families.triangle_replace(families.petersen())]
    graphs += [g for g in corpus.connected_cubic_graphs(10) if g.bridges()]  # class 2
    graphs += [_bridged_cubic(block, rng) for block in (10, 10, 14, 14)]
    for g in graphs:
        got = exact.solve_profile(g, KS, use_poly=use_poly)
        assert got == {k: exact.nu_k(g, k, use_poly=use_poly) for k in KS}, g


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
