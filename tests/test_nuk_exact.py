"""Branch-and-bound solver: oracle equivalence, certificates, bounds,
pendant and bridge reductions."""

import functools
import gc
import itertools
import random
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nulab import corpus, exact, families, oracle
from nulab.errors import NotABridge, NotCubic, TooLarge
from nulab.graph import build


def _check(g, k, expected=None, use_poly=True):
    res = exact.nu_k(g, k, use_poly=use_poly)
    if expected is None:
        expected = oracle.nu_k_oracle(g, k)
    assert res.value == expected
    assert res.certificate.colored_count == res.value
    assert res.certificate.is_proper(g)
    return res


def test_oracle_equivalence_random_multigraphs(rng):
    for _ in range(80):
        g = corpus.random_multigraph(rng.randint(2, 7), rng.randint(1, 9), rng)
        for k in (1, 2, 3, 4):
            want = oracle.nu_k_oracle(g, k)
            _check(g, k, want, use_poly=True)
            _check(g, k, want, use_poly=False)


def test_monotonicity(rng):
    for _ in range(40):
        g = corpus.random_multigraph(rng.randint(3, 8), rng.randint(2, 12), rng)
        nu = {k: exact.nu_k(g, k).value for k in (1, 2, 3, 4)}
        for k in (1, 2, 3):
            assert nu[k] <= nu[k + 1] <= nu[k] + nu[1]


def test_named_small_values():
    _check(families.fig1_graph(), 2, 5)
    _check(families.fig1_graph(), 3, 7)
    _check(families.k4(), 3, 6)
    _check(families.cycle(5), 2, 4)
    _check(families.cycle(5), 3, 5)
    _check(families.cycle(2), 1, 1)
    _check(families.cycle(2), 2, 2)


def test_edge_cases():
    empty = build(0, [])
    assert exact.nu_k(empty, 3).value == 0
    single = build(2, [(0, 1)])
    assert exact.nu_k(single, 1).value == 1
    with pytest.raises(ValueError):
        exact.nu_k(single, 0)


def test_cubic_high_k_colours_every_edge():
    # every multigraph with max degree 3 is 4-edge-colorable
    for g in [families.petersen(), families.fig1_graph(), families.sylvester10()]:
        res = exact.nu_k(g, 4)
        assert res.value == g.m
        assert res.certificate.is_proper(g)
        assert res.certificate.colored_count == g.m


def test_vizing_simple_colours_every_edge():
    # a simple graph of maximum degree d is (d + 1)-edge-colorable
    k4_tailed = build(6, list(families.k4().edges) + [(0, 4), (4, 5)])
    for g in [families.petersen_minus_vertex(), k4_tailed]:
        k = g.max_degree() + 1
        res = exact.nu_k(g, k)
        assert res.value == g.m
        assert res.certificate.is_proper(g)
        assert res.certificate.colored_count == g.m


def test_trees_solve_without_search():
    """A tree peels away whole, so pendant forcing solves it at every k,
    also above its maximum degree, and no tree reaches the search."""
    for g in corpus.random_trees(60, 10, 3):
        for k in range(1, 6):
            want = oracle.nu_k_oracle(g, k)
            for use_poly in (True, False):
                assert _check(g, k, want, use_poly).node_count == 0


def test_disconnected_input():
    # fig1 plus a disjoint triangle
    fig1 = families.fig1_graph()
    edges = list(fig1.edges) + [(6, 7), (7, 8), (6, 8)]
    g = build(9, edges)
    assert exact.nu_k(g, 2).value == 5 + 2
    assert exact.nu_k(g, 3).value == 7 + 3


def _forced(g, k):
    return set(exact._force(g.strip_pendants()[0], [k] * g.n))


def test_reduce_pendant():
    star = families.star(5)
    assert len(_forced(star, 1)) == 1
    assert len(_forced(star, 2)) == 2
    path = families.path(6)
    forced = _forced(path, 3)
    assert forced == set(range(5))  # whole path collapses
    assert _forced(families.cycle(5), 2) == set()


def test_resistance_r3():
    assert exact.resistance_r3(families.petersen()) == 2
    assert exact.resistance_r3(families.k4()) == 0
    assert exact.resistance_r3(families.fig1_graph()) == 2
    with pytest.raises(NotCubic):
        exact.resistance_r3(families.cycle(4))


def test_upper_bound_admissible(rng):
    for _ in range(30):
        g = corpus.random_multigraph(rng.randint(2, 7), rng.randint(1, 9), rng)
        for k in (1, 2, 3):
            res = exact.nu_k(g, k)
            assert exact.upper_bound(g, k) >= res.value


def test_decompose_bridge_matches_direct():
    fig1 = families.fig1_graph()
    for k in (1, 2, 3, 4):
        assert exact.decompose_bridge(fig1, 4, k) == exact.nu_k(fig1, k).value
    syl = families.sylvester10()
    stem = next(iter(syl.bridges()))
    for k in (2, 3):
        assert exact.decompose_bridge(syl, stem, k) == exact.nu_k(syl, k).value


def test_decompose_bridge_random(rng):
    for _ in range(25):
        a = corpus.random_multigraph(rng.randint(2, 5), rng.randint(1, 5), rng)
        b = corpus.random_multigraph(rng.randint(2, 5), rng.randint(1, 5), rng)
        edges = list(a.edges)
        edges += [(a.n + u, a.n + v) for u, v in b.edges]
        bridge_id = len(edges)
        edges.append((rng.randrange(a.n), a.n + rng.randrange(b.n)))
        g = build(a.n + b.n, edges)
        k = rng.randint(1, 3)
        assert exact.decompose_bridge(g, bridge_id, k) == exact.nu_k(g, k).value


@st.composite
def _bridged_multigraphs(draw):
    """Two random parts (possibly disconnected inside, with parallel
    pairs) joined by one edge, which is a bridge; returns (g, its id)."""
    parts = []
    for _ in range(2):
        size = draw(st.integers(1, 5))
        pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        part = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=7))
        if part and draw(st.booleans()):
            part.append(part[0])
        parts.append((size, part))
    (a, left), (b, right) = parts
    edges = left + [(a + u, a + v) for u, v in right]
    bridge = draw(st.integers(0, len(edges)))
    edges.insert(bridge, (draw(st.integers(0, a - 1)), a + draw(st.integers(0, b - 1))))
    return build(a + b, edges), bridge


@given(_bridged_multigraphs(), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_decompose_bridge_identity(gb, k):
    g, bridge = gb
    assert exact.decompose_bridge(g, bridge, k) == exact.nu_k(g, k).value


def test_decompose_bridge_rejects_non_bridge():
    with pytest.raises(NotABridge):
        exact.decompose_bridge(families.cycle(4), 0, 2)


def test_node_count_reported():
    res = exact.nu_k(families.petersen(), 3)
    assert res.value == 13
    assert res.node_count >= 0


# The tight cubic examples: fig5 is equality in C52/53.
_TIGHT = {
    "fig5": families.fig5_graph28,
    "triangle-replaced Petersen": lambda: families.triangle_replace(
        families.petersen()
    ),
}


@pytest.mark.parametrize(
    "name, k, value, nodes",
    [
        pytest.param("fig5", 2, 26, 5265, id="fig5-k2"),
        pytest.param("fig5", 3, 39, 8484, id="fig5-k3"),
        pytest.param("triangle-replaced Petersen", 2, 29, 1146, id="trp-k2"),
        pytest.param("triangle-replaced Petersen", 3, 43, 4425, id="trp-k3"),
    ],
)
def test_search_tree_pinned(name, k, value, nodes):
    """The search's node counts on the tight cubic examples: a
    change to pruning, ordering or memoization moves them."""
    res = _check(_TIGHT[name](), k, value)
    assert res.node_count == nodes


def test_long_path_and_cycle_solve():
    path, cycle = families.path(1201), families.cycle(1200)
    assert path.m == cycle.m == 1200
    _check(path, 3, 1200)
    _check(cycle, 3, 1200)
    assert exact.solve_profile(path, [3])[3].value == 1200


def test_search_deeper_than_the_recursion_limit_is_too_large():
    g = families.cycle(1200)
    with pytest.raises(TooLarge):
        exact._search(g, [2] * g.n, 2, g.m - 1, g.m)


def test_search_frees_its_memo_on_return():
    """The search's tables and memo are freed by reference counting when
    it returns, not left for the cyclic collector to find later."""
    g = families.petersen()
    gc.collect()
    gc.disable()
    try:
        exact._search(g, [3] * g.n, 3, 0, g.m)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _within_caps_maximum(g, cap, k):
    """The most colored edges of a proper partial k-coloring with at
    most cap[v] colored edges at each v: plain backtracking over
    'uncolored or color c' for each edge, memoized on the colors at
    every vertex."""
    edges = g.edges

    @functools.lru_cache(maxsize=None)
    def rec(i, used):
        if i == len(edges):
            return 0
        best = rec(i + 1, used)
        u, v = edges[i]
        if len(used[u]) < cap[u] and len(used[v]) < cap[v]:
            for c in range(1, k + 1):
                if c not in used[u] and c not in used[v]:
                    after = list(used)
                    after[u] |= {c}
                    after[v] |= {c}
                    best = max(best, 1 + rec(i + 1, tuple(after)))
        return best

    return rec(0, (frozenset(),) * g.n)


@st.composite
def _capped_instances(draw):
    """A multigraph with at most 12 edges (parallel pairs and triples
    likely), k, per-vertex caps in 0..k, lower in 0..m and upper in
    lower+1..m+1."""
    n = draw(st.integers(2, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=8))
    if edges:
        twins = st.lists(st.sampled_from(edges), max_size=2)
        edges += [e for e in draw(twins) for _ in range(draw(st.integers(1, 2)))]
    g = build(n, draw(st.permutations(edges)))
    k = draw(st.integers(1, 4))
    cap = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    lower = draw(st.integers(0, g.m))
    return g, k, cap, lower, draw(st.integers(lower + 1, g.m + 1))


@given(_capped_instances())
@settings(max_examples=300, deadline=None)
def test_solve_bb_bound_is_upper_bound(inst):
    """The upper bound _solve_bb takes from its greedy peel's first pass
    is the one upper_bound computes."""
    g, k, cap, _, _ = inst
    handed = []
    search = exact._search

    def spy(h, cap, k, lower, upper):
        handed.append(upper)
        return search(h, cap, k, lower, upper)

    with mock.patch.object(exact, "_search", spy):
        exact._solve_bb(g, cap, k)
    assert handed == [exact.upper_bound(g, k, cap)]


@given(_capped_instances())
@settings(max_examples=500, deadline=None)
def test_search_matches_brute_force_within_caps(inst):
    g, k, cap, lower, upper = inst
    found, _ = exact._search(g, cap, k, lower, upper)
    best = _within_caps_maximum(g, cap, k)
    assert (found is None) == (best <= lower)
    if found is not None:
        assert len(found) == min(best, upper)
        assert exact.ColorClasses(k, found).is_proper(g)
        deg = [0] * g.n
        for eid in found:
            for v in g.edges[eid]:
                deg[v] += 1
        assert all(deg[v] <= cap[v] for v in range(g.n))


@pytest.mark.parametrize(
    "n, edges, k, value",
    [
        (6, [(0, 2), (1, 3), (4, 5), (3, 4), (3, 4), (3, 4)], 1, 3),
        (5, [(0, 3), (0, 1), (3, 4), (0, 2), (3, 4)], 2, 4),
        (8, [(1, 2), (1, 7), (1, 3), (1, 7), (2, 3), (0, 6)], 1, 3),
    ],
)
def test_search_memo_keys_stay_apart(n, edges, k, value):
    """Instances on which a memo key that did not keep the position,
    the skips and the frontier code apart lost the optimum."""
    g = build(n, edges)
    found, _ = exact._search(g, [k] * n, k, -1, g.m)
    assert len(found) == value == _within_caps_maximum(g, [k] * n, k)
    assert exact.ColorClasses(k, found).is_proper(g)


def test_search_at_many_colors_stays_small():
    """A triangle of 8-fold edges at k = 20: each color takes one edge,
    so the optimum is 20 of 24.  The renaming tables grow only with the
    masks the search meets, never with 2^k."""
    g = build(3, [(0, 1)] * 8 + [(1, 2)] * 8 + [(0, 2)] * 8)
    start = time.perf_counter()
    found, nodes = exact._search(g, [20] * 3, 20, -1, g.m)
    assert len(found) == 20
    assert exact.ColorClasses(20, found).is_proper(g)
    assert nodes < 1000
    assert time.perf_counter() - start < 1.0


def _codes(masks):
    """The symbols _rename_step gives masks read as one frontier."""
    blocks = ()
    out = []
    for x in masks:
        y, blocks = exact._rename_step(blocks, x)
        out.append(y)
    return out


def _renamed(masks, perm):
    """masks with color c renamed to perm[c - 1]."""
    return [sum(1 << p for c, p in enumerate(perm, 1) if x >> c & 1) for x in masks]


@given(
    st.lists(st.integers(0, 2**5 - 1).map(lambda x: 2 * x), max_size=6),
    st.permutations(range(1, 6)),
)
@settings(max_examples=200, deadline=None)
def test_rename_code_is_invariant_under_renaming(masks, perm):
    assert _codes(_renamed(masks, perm)) == _codes(masks)


def _frontier_pairs(n):
    masks = st.lists(st.sampled_from(range(0, 16, 2)), min_size=n, max_size=n)
    return st.tuples(masks, masks)


@given(st.integers(1, 4).flatmap(_frontier_pairs))
@settings(max_examples=300, deadline=None)
def test_rename_code_tells_apart_what_no_renaming_joins(pair):
    """Over colors 1..3, two frontiers get equal codes exactly when a
    renaming joins them."""
    a, b = pair
    joined = any(_renamed(a, p) == b for p in itertools.permutations(range(1, 4)))
    assert joined == (_codes(a) == _codes(b))


@st.composite
def _split_multigraphs(draw):
    """Several components (possibly disconnected inside), isolated
    vertices and parallel pairs, with the edges of all parts shuffled."""
    n = 0
    edges = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(2, 5))
        pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
        part = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=6))
        if part and draw(st.booleans()):
            part.append(part[0])
        edges += [(n + u, n + v) for u, v in part]
        n += size
    n += draw(st.integers(0, 2))
    return build(n, draw(st.permutations(edges)))


@given(_split_multigraphs(), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_routes_agree_on_split_multigraphs(g, k):
    poly_res, bb_res = (exact.nu_k(g, k, use_poly=p) for p in (True, False))
    assert poly_res.value == bb_res.value
    for res in (poly_res, bb_res):
        assert res.certificate.colored_count == res.value
        assert res.certificate.is_proper(g)
    if g.m <= 10:
        assert poly_res.value == oracle.nu_k_oracle(g, k, max_edges=10)


@given(_split_multigraphs())
@settings(max_examples=80, deadline=None)
def test_nu_k_inequalities_across_k(g):
    """nu_k is monotone in k, nu_{k+1} <= nu_k + nu_1 and
    nu_k >= ceil(k * nu_{k+1} / (k + 1)), on the search route."""
    nu = {k: exact.nu_k(g, k, use_poly=False).value for k in range(1, 6)}
    for k in range(1, 5):
        assert nu[k] <= nu[k + 1] <= nu[k] + nu[1]
        assert nu[k] >= -(-k * nu[k + 1] // (k + 1))


@st.composite
def _layout_inputs(draw):
    """_split_multigraphs with its vertices relabelled, so that
    components interleave, and possibly one edge tripled."""
    g = draw(_split_multigraphs())
    perm = draw(st.permutations(range(g.n)))
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    if edges and draw(st.booleans()):
        edges += [draw(st.sampled_from(edges))] * 2
    return build(g.n, draw(st.permutations(edges)))


@given(_layout_inputs())
@example(build(0, []))
@example(build(3, []))
@settings(max_examples=300, deadline=None)
def test_static_order_is_a_permutation_of_the_edges(g):
    assert sorted(exact._static_order(g)) == list(range(g.m))


def _frontier_width(g, order):
    """The most vertices with edges both before and from one position of
    order: the frontier whose colour masks a memo key codes."""
    last = {v: i for i, e in enumerate(order) for v in g.edges[e]}
    live, width = set(), 0
    for i, e in enumerate(order):
        for v in g.edges[e]:
            if last[v] == i:
                live.discard(v)
            else:
                live.add(v)
        width = max(width, len(live))
    return width


@pytest.mark.parametrize("name", list(_TIGHT))
def test_search_frontier_stays_narrow_under_relabelling(name):
    """The search order keeps the frontier of the tight cubic examples at
    most 7 wide whatever their vertex and edge ids.  An edge order that
    breaks ties by id reached 10-13 on such shuffles, and up to millions
    of nodes; this test orders, it does not solve."""
    g = _TIGHT[name]()
    rng = random.Random(20261020)
    for _ in range(30):
        assert _frontier_width(g, exact._static_order(g)) <= 7
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in g.edges]
        rng.shuffle(edges)
        g = build(g.n, edges)
