"""Named constructions: sizes, structure, parameter validation, and the
exhaustive cubic corpus census."""

import networkx as nx
import pytest

from nulab import corpus, families, structure
from nulab.errors import BadParameter, NotCubic


def _counts(g):
    return g.n, g.m


def test_fig1():
    g = families.fig1_graph()
    assert _counts(g) == (6, 9)
    f = g.structure_flags()
    assert f.cubic and f.connected and not f.bridgeless
    assert len(g.bridges()) == 1


def test_sylvester10():
    g = families.sylvester10()
    assert _counts(g) == (10, 15)
    f = g.structure_flags()
    assert f.cubic and f.connected
    assert len(g.bridges()) == 3


def test_fig3_graph12():
    g = families.fig3_graph12()
    assert _counts(g) == (12, 18)
    assert g.structure_flags().cubic


def test_petersen():
    g = families.petersen()
    assert _counts(g) == (10, 15)
    f = g.structure_flags()
    assert f.cubic and f.bridgeless
    # girth 5 in particular means triangle-free
    for v in range(10):
        for w in g.neighbors(v):
            assert not (g.neighbors(v) & g.neighbors(w))


def test_petersen_minus_vertex():
    g = families.petersen_minus_vertex()
    assert _counts(g) == (9, 12)
    assert sorted(g.degrees()).count(2) == 3


def test_fig5_graph28():
    g = families.fig5_graph28()
    assert _counts(g) == (28, 42)
    f = g.structure_flags()
    assert f.cubic and f.bridgeless


def test_remark_family_structure():
    for k in (2, 3, 4):
        for l in (3, 5, 8):
            g = families.remark_family(k, l)
            assert _counts(g) == (l * k, l * k)
            f = g.structure_flags()
            assert f.is_unicyclic
            assert f.max_degree == k + 1
    with pytest.raises(BadParameter):
        families.remark_family(1, 5)
    with pytest.raises(BadParameter):
        families.remark_family(3, 2)


def test_triangle_replace():
    h = families.petersen()
    g = families.triangle_replace(h)
    assert _counts(g) == (30, 45)
    f = g.structure_flags()
    assert f.cubic and f.bridgeless
    assert structure.is_claw_free(g)
    with pytest.raises(NotCubic):
        families.triangle_replace(families.cycle(5))


def test_string_replace():
    h = families.petersen()
    g = families.string_replace(h, 0, 2)
    # 4 vertices and 6 edges per diamond
    assert _counts(g) == (10 + 8, 15 + 12)
    assert g.structure_flags().cubic
    with pytest.raises(BadParameter):
        families.string_replace(h, 0, 0)


def test_ring_of_diamonds():
    for r in (2, 3, 5):
        g = families.ring_of_diamonds(r)
        assert _counts(g) == (4 * r, 6 * r)
        f = g.structure_flags()
        assert f.cubic and f.bridgeless
        assert structure.is_claw_free(g)
    with pytest.raises(BadParameter):
        families.ring_of_diamonds(1)


def test_small_constructors():
    assert _counts(families.k4()) == (4, 6)
    assert _counts(families.cycle(2)) == (2, 2)
    assert families.cycle(2).multiplicity(0, 1) == 2
    assert _counts(families.cycle(7)) == (7, 7)
    assert _counts(families.path(1)) == (1, 0)
    assert _counts(families.path(5)) == (5, 4)
    assert _counts(families.star(4)) == (5, 4)
    assert _counts(families.complete_bipartite(2, 3)) == (5, 6)
    with pytest.raises(BadParameter):
        families.cycle(1)
    with pytest.raises(BadParameter):
        families.path(0)


def test_tree_catalogue_counts():
    # OEIS A000055, n = 2..14
    want = [1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]
    for n, count in enumerate(want, start=2):
        trees = corpus.all_trees(n)
        assert len(trees) == count
        assert all(t.m == n - 1 and t.is_connected() for t in trees)


def test_tree_catalogue_matches_networkx():
    """One-to-one up to isomorphism with networkx's catalogue."""
    for n in range(2, 11):
        theirs = list(nx.nonisomorphic_trees(n))
        partners = [
            [i for i, r in enumerate(theirs) if nx.is_isomorphic(nx.Graph(t.edges), r)]
            for t in corpus.all_trees(n)
        ]
        assert sorted(p for ps in partners for p in ps) == list(range(len(theirs)))
        assert all(len(ps) == 1 for ps in partners)


def test_random_generators_respect_class(rng):
    for _ in range(30):
        t = corpus.random_tree(rng.randint(2, 15), rng)
        assert t.structure_flags().is_tree
        u = corpus.random_unicyclic(rng.randint(2, 15), rng)
        assert u.structure_flags().is_unicyclic


def test_random_generators_reject_too_few_vertices(rng):
    for n in (0, 1):
        with pytest.raises(BadParameter):
            corpus.random_unicyclic(n, rng)
        with pytest.raises(BadParameter):
            corpus.random_multigraph(n, 1, rng)
        assert corpus.random_multigraph(n, 0, rng).m == 0
        for many in (corpus.random_trees, corpus.random_unicyclics):
            with pytest.raises(BadParameter):  # at the call, before iterating
                many(3, n, 0)
    assert corpus.random_multigraph(2, 3, rng).edges == ((0, 1),) * 3


def test_all_unicyclic_members_are_unicyclic():
    seen = 0
    for g in corpus.all_unicyclic(6):
        assert g.structure_flags().is_unicyclic
        seen += 1
    assert seen > 0


def test_cubic_census(cubic_corpus):
    """Counts per order match the published census of connected simple
    cubic graphs: 1, 2, 5, 19, 85 for n = 4..12."""
    by_n = {}
    for g in cubic_corpus:
        assert g.structure_flags().cubic
        assert g.is_connected()
        assert len(set(g.edges)) == g.m  # simple
        by_n[g.n] = by_n.get(g.n, 0) + 1
    assert by_n == {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}


def test_cubic_generator_size_cap():
    with pytest.raises(ValueError):
        corpus.connected_cubic_graphs(16)
