"""Polynomial solver for forests and unicyclic graphs, cycle deficiency."""

import itertools
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nulab import corpus, exact, families, oracle, poly
from nulab.errors import DeficiencyUndefined, NotAForest, NotUnicyclic
from nulab.graph import MultiGraph, build


def test_tree_oracle_equivalence_exhaustive():
    for n in range(2, 9):
        for t in corpus.all_trees(n):
            for k in (1, 2, 3, 4):
                assert poly.nu_k_tree(t, k) == oracle.nu_k_oracle(t, k)


def test_unicyclic_oracle_equivalence_random(rng):
    for _ in range(120):
        g = corpus.random_unicyclic(rng.randint(2, 9), rng)
        for k in (1, 2, 3, 4):
            assert poly.nu_k_unicyclic(g, k) == oracle.nu_k_oracle(g, k)


def test_wrong_class_rejected():
    with pytest.raises(NotAForest):
        poly.nu_k_tree(families.cycle(4), 2)
    with pytest.raises(NotUnicyclic):
        poly.nu_k_unicyclic(families.path(4), 2)
    with pytest.raises(NotUnicyclic):
        poly.nu_k_unicyclic(families.k4(), 2)
    with pytest.raises(NotUnicyclic):
        poly.best_degree_bounded(families.petersen(), 3)


def test_unicyclic_means_connected_with_m_equal_n():
    # m == n but disconnected (a triangle beside an edge and a loose
    # vertex), and the empty graph (m == n == 0, rank 0)
    for g in (build(6, [(0, 1), (1, 2), (0, 2), (3, 4)]), build(0, [])):
        for check in (poly.nu_k_unicyclic, poly.cycle_deficiency):
            with pytest.raises(NotUnicyclic):
                check(g, 2)
        flags = g.structure_flags()
        assert not flags.is_unicyclic
        assert flags.cycle_rank == g.m - g.n + len(g.components())
    g = build(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert poly.nu_k_unicyclic(g, 2) == 3
    assert poly.cycle_deficiency(g, 2).x_k == 1
    assert g.structure_flags().is_unicyclic


def test_best_degree_bounded_respects_caps(rng):
    for _ in range(60):
        g = corpus.random_unicyclic(rng.randint(3, 10), rng)
        k = rng.randint(1, 4)
        cap = [rng.randint(0, k) for _ in range(g.n)]
        opt = poly.best_degree_bounded(g, k, cap)
        deg = [0] * g.n
        for eid in opt.chosen_edges:
            u, v = g.endpoints(eid)
            deg[u] += 1
            deg[v] += 1
        assert all(deg[v] <= cap[v] for v in range(g.n))
        assert opt.value == len(opt.chosen_edges)


def _graft_trees(g, rng):
    """g with a random tree of 0..3 edges hung from each of its leaves."""
    edges, n = list(g.edges), g.n
    for v in range(g.n):
        if g.degree(v) == 1:
            tree = [v]
            for _ in range(rng.randint(0, 3)):
                edges.append((rng.choice(tree), n))
                tree.append(n)
                n += 1
    return MultiGraph(n, edges)


def test_color_sparse_subgraph_proper(rng):
    """Every best_degree_bounded choice, with or without a cycle, gets a
    proper coloring of exactly its edges."""
    cases = []
    for _ in range(60):
        g = corpus.random_unicyclic(rng.randint(3, 10), rng)
        cases += [(g, k) for k in range(1, 6)]
    for _ in range(30):
        t = corpus.random_tree(rng.randint(1, 12), rng)
        cases += [(t, k) for k in range(1, 6)]
        # a tree with one edge doubled: the cycle is a parallel pair
        t = corpus.random_tree(rng.randint(2, 9), rng)
        doubled = MultiGraph(t.n, t.edges + (rng.choice(t.edges),))
        cases += [(doubled, k) for k in range(1, 6)]
    # odd cycles with pendant trees at k = 3, taken whole (color 3 closes
    # the cycle) with one pendant per cycle vertex, cut with two
    for l in (3, 5, 7):
        for k in (2, 3):
            cases.append((_graft_trees(families.remark_family(k, l), rng), 3))
    for g, k in cases:
        opt = poly.best_degree_bounded(g, k)
        colors = poly.color_sparse_subgraph(g, opt.chosen_edges, k)
        assert set(colors) == set(opt.chosen_edges)
        cc = exact.ColorClasses(k, colors)
        assert cc.is_proper(g)


def test_find_cycle():
    """The cycle edges are those that survive pendant stripping."""
    assert families.cycle(5).strip_pendants()[1] == [0, 1, 2, 3, 4]
    # parallel pair forms a 2-cycle
    assert build(3, [(0, 1), (0, 1), (1, 2)]).strip_pendants()[1] == [0, 1]
    # forest has no cycle
    assert families.path(4).strip_pendants()[1] == []


def test_forest_components_with_caps():
    # two disjoint paths; cap 1 at every vertex -> one edge per path
    g = build(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    opt = poly.best_degree_bounded(g, 2, [1] * 6)
    assert opt.value == 2


def test_odd_cycle_k2_obstruction():
    # the only class-2 unicyclic graphs are the odd cycles themselves
    for l in (3, 5, 7, 9):
        assert poly.nu_k_unicyclic(families.cycle(l), 2) == l - 1
    for l in (4, 6, 8):
        assert poly.nu_k_unicyclic(families.cycle(l), 2) == l


def test_cycle_deficiency_bare_cycles():
    assert poly.cycle_deficiency(families.cycle(5), 2).x_k == 1
    assert poly.cycle_deficiency(families.cycle(6), 2).x_k == 0
    assert poly.cycle_deficiency(families.cycle(5), 3).x_k == 0
    # with k = 1 every vertex needs one incident cycle edge removed
    assert poly.cycle_deficiency(families.cycle(5), 1).x_k == 3
    assert poly.cycle_deficiency(families.cycle(6), 1).x_k == 3


def test_cycle_deficiency_remark_family():
    # cycle with k-1 pendants per vertex: x_k = ceil(l/2), x_{k-1} = l
    for k in (2, 3, 4):
        for l in (3, 4, 5, 6):
            g = families.remark_family(k, l)
            assert poly.cycle_deficiency(g, k).x_k == (l + 1) // 2
            assert poly.cycle_deficiency(g, k - 1).x_k == l


def test_cycle_deficiency_undefined():
    # triangle with three pendants at one vertex: off-cycle degree stays 5-2=3 > 2
    g = build(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (0, 5)])
    with pytest.raises(DeficiencyUndefined):
        poly.cycle_deficiency(g, 2)
    assert poly.cycle_deficiency(g, 3).x_k == 2
    with pytest.raises(NotUnicyclic):
        poly.cycle_deficiency(families.path(4), 2)


def test_deficiency_consistent_with_nu(rng):
    """When x_k is defined, removing x_k cycle edges leaves a k-colorable
    subgraph, so nu_k >= m - x_k; within the degree regime (cycle degrees
    <= k+1) this is exact."""
    for _ in range(80):
        g = corpus.random_unicyclic(rng.randint(3, 10), rng)
        on_cycle = {v for e in g.strip_pendants()[1] for v in g.edges[e]}
        for k in (1, 2, 3, 4):
            try:
                x = poly.cycle_deficiency(g, k).x_k
            except DeficiencyUndefined:
                continue
            nu = poly.nu_k_unicyclic(g, k)
            assert nu >= g.m - x
            if all(g.degree(v) <= k + 1 for v in on_cycle):
                assert nu == g.m - x


def test_odd_cycle_optimum_is_the_best_single_drop(rng):
    """The DP around an odd cycle gives what the forest DP gives after
    leaving out the first best cycle edge: value and chosen edges."""
    checked = 0
    while checked < 60:
        g = corpus.random_unicyclic(rng.randint(3, 14), rng)
        cyc = g.strip_pendants()[1]
        if len(cyc) % 2 == 0:
            continue
        checked += 1
        cap = [rng.randint(0, 2) for _ in range(g.n)]
        every = set(range(g.m))
        want = max((poly._forest_dp(g, every - {e}, cap) for e in cyc), key=lambda t: t[0])
        assert poly._odd_cycle_optimum(g, cyc, cap) == want


def test_long_odd_cycle_at_k2_is_linear():
    """Not one forest DP per cycle edge, which is quadratic and takes
    seconds at this length: the DP around the cycle (tree-DP route) and
    the ring DP (exact route) are linear."""
    g = families.cycle(1201)
    start = time.perf_counter()
    assert poly.nu_k_unicyclic(g, 2) == 1200
    res = exact.nu_k(g, 2)
    assert time.perf_counter() - start < 1.0
    assert res.value == 1200 and res.certificate.is_proper(g)


def _capped_colorable_maximum(g, cap, k):
    """The largest edge set within the caps that oracle's first-fit
    backtracking can k-edge-color: every subset, largest first."""
    for size in range(g.m, -1, -1):
        for subset in itertools.combinations(range(g.m), size):
            deg = [0] * g.n
            for eid in subset:
                for v in g.edges[eid]:
                    deg[v] += 1
            if all(d <= c for d, c in zip(deg, cap)) and oracle._subset_colorable(
                g, subset, k
            ):
                return size


@st.composite
def _bare_cycles(draw):
    """A cycle of length 2..12 (2 is a parallel pair) with shuffled
    vertex labels and edge order, k in 1..5 and caps in 0..k."""
    l = draw(st.integers(2, 12))
    label = draw(st.permutations(range(l)))
    ring = [(label[i], label[(i + 1) % l]) for i in range(l)]
    k = draw(st.integers(1, 5))
    cap = draw(st.lists(st.integers(0, k), min_size=l, max_size=l))
    return build(l, draw(st.permutations(ring))), cap, k


@given(_bare_cycles())
@example((families.cycle(5), [2] * 5, 2))  # every cap 2: one edge left out
@example((families.cycle(5), [3] * 5, 3))  # the whole odd cycle, color 3
@example((build(2, [(0, 1), (0, 1)]), [2, 2], 2))
@example((families.cycle(4), [2] * 4, 2))
@settings(max_examples=300, deadline=None)
def test_cycle_optimum_matches_tree_dp_and_brute_force(inst):
    h, cap, k = inst
    value, colors = poly.cycle_optimum(h, cap, k)
    assert value == poly.best_degree_bounded(h, k, cap).value
    assert value == _capped_colorable_maximum(h, cap, k)
    assert len(colors) == value
    assert exact.ColorClasses(k, colors).is_proper(h)
    deg = [0] * h.n
    for eid in colors:
        for v in h.edges[eid]:
            deg[v] += 1
    assert all(deg[v] <= cap[v] for v in range(h.n))


def _disjoint_union(graphs, rng):
    """The graphs side by side, vertices relabelled at random and all
    edges shuffled."""
    n = sum(g.n for g in graphs)
    label = list(range(n))
    rng.shuffle(label)
    edges, base = [], 0
    for g in graphs:
        edges += [(label[base + u], label[base + v]) for u, v in g.edges]
        base += g.n
    rng.shuffle(edges)
    return MultiGraph(n, edges)


def test_routes_agree_beside_a_part_of_higher_rank(rng):
    """Several cycle parts (2-cycles and odd cycles among them) in one
    2-core next to a part of cycle rank >= 2: the ring DP on the cycle
    parts and branch and bound on the whole agree, and both certify."""
    for _ in range(40):
        dense = corpus.random_multigraph(rng.randint(4, 7), rng.randint(8, 11), rng)
        sparse = [corpus.random_unicyclic(rng.randint(2, 7), rng) for _ in range(3)]
        sparse += [families.cycle(rng.choice((3, 5))), build(2, [(0, 1), (0, 1)])]
        g = _disjoint_union([dense] + sparse, rng)
        ranks = sorted(len(p.edge_ids) - len(p.vertices) + 1 for p in g.core().parts)
        assert ranks[:5] == [1] * 5 and ranks[-1] >= 2
        for k in (1, 2, 3, 4):
            fast, slow = exact.nu_k(g, k), exact.nu_k(g, k, use_poly=False)
            assert fast.value == slow.value
            for res in (fast, slow):
                assert res.certificate.colored_count == res.value
                assert res.certificate.is_proper(g)


def _brute_deficiency(g, k):
    """x_k by definition: the fewest cycle edges whose removal leaves a
    k-edge-colorable graph, or None if no removal does."""
    _, cyc = g.strip_pendants()
    for size in range(len(cyc) + 1):
        for drop in itertools.combinations(cyc, size):
            rest = tuple(e for e in range(g.m) if e not in drop)
            if oracle._subset_colorable(g, rest, k):
                return size
    return None


def test_cycle_deficiencies_match_per_k_and_the_definition(rng):
    graphs = [corpus.random_unicyclic(rng.randint(2, 9), rng) for _ in range(150)]
    graphs += [families.cycle(l) for l in (3, 4, 5, 7)]
    graphs += [build(2, [(0, 1), (0, 1)]), build(3, [(0, 1), (0, 1), (1, 2)])]
    graphs.append(build(6, [(0, 1), (1, 2), (0, 2), (0, 3), (0, 4), (0, 5)]))
    # every ring vertex must lose 2, then 1, then 0 cycle edges as k grows
    graphs += [families.remark_family(k, l) for k, l in ((2, 3), (2, 4), (2, 5), (3, 3))]
    # a 4-cycle whose vertices have degrees 4, 3, 2, 2: demands 2, 1, 0, 0 at k = 2
    graphs.append(build(7, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (0, 5), (1, 6)]))
    ks = range(1, 6)
    undefined = 0
    for g in graphs:
        got = poly.cycle_deficiencies(g, ks)
        for k in ks:
            want = _brute_deficiency(g, k)
            if want is None:
                undefined += 1
                assert k not in got
                with pytest.raises(DeficiencyUndefined):
                    poly.cycle_deficiency(g, k)
            else:
                assert got[k] == want == poly.cycle_deficiency(g, k).x_k
    assert undefined > 0
    assert any(g.m == 2 for g in graphs)
    with pytest.raises(NotUnicyclic):
        poly.cycle_deficiencies(families.path(4), ks)
