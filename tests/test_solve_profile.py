"""exact.solve_profile: every k from one search on class-1 cubic graphs,
nu_k per k everywhere else."""

import random

import pytest

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


def test_compute_profile_on_class2_calls_nu_k_per_k(monkeypatch):
    calls = []
    original = exact.nu_k

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(exact, "nu_k", counted)
    profile = profiling.compute_profile(families.petersen())
    assert sorted(calls) == [1, 2, 3, 4]
    assert profile.nu == {1: 5, 2: 9, 3: 13, 4: 15}
    calls.clear()
    profiling.compute_profile(families.k4())
    assert calls == []


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
