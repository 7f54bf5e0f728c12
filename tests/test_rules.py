"""Rule registry semantics: guards, relations, tightness, hunting."""

from fractions import Fraction

import pytest

from nulab import corpus, families, rules
from nulab.errors import BadParameter, MissingProfileField, NuLabError
from nulab.profiling import compute_profile, profile_as_dict, profile_from_dict
from nulab.rules import GraphProfile, ProfileFlags


def _flags(**overrides):
    base = dict(
        connected=True,
        cubic=False,
        bridgeless=False,
        max_degree=3,
        cycle_rank=0,
        is_tree=False,
        is_unicyclic=False,
        claw_free=False,
        bipartite=False,
        nearly_bipartite=False,
        has_perfect_matching=False,
    )
    base.update(overrides)
    return ProfileFlags(**base)


def _report(reports, rule_id, k=None):
    found = [r for r in reports if r.rule_id == rule_id and (k is None or r.k == k)]
    assert found, f"no report for {rule_id} (k={k})"
    assert len(found) == 1
    return found[0]


def test_registry_covers_every_rule_once():
    assert len(rules.RULE_IDS) == len(set(rules.RULE_IDS))
    assert set(rules.CONJECTURE_IDS) == {"C52/53", "C164/165", "C1.1", "C1.2"}
    kinds = {r.kind for r in rules.REGISTRY}
    assert kinds == {
        "theorem",
        "proposition",
        "lemma-bound",
        "conjecture",
        "external-cited",
    }


def test_guards_skip_inapplicable():
    profile = GraphProfile(n=5, m=4, nu={1: 2, 2: 4, 3: 4}, flags=_flags())
    reports = rules.evaluate_all(profile, ["T2.2.1", "NO-R1", "CO4.7"])
    assert all(not r.applicable for r in reports)


def test_petersen_profile_rules():
    profile = compute_profile(families.petersen(), ks=(1, 2, 3, 4))
    assert profile.nu == {1: 5, 2: 9, 3: 13, 4: 15}
    assert profile.r3 == 2
    assert profile.oG == 2
    reports = rules.evaluate_all(profile)
    # 4*nu2 = 36 = n + 2*nu3: the r3 <= 2 equality case
    rep = _report(reports, "P2.6.1")
    assert rep.applicable and rep.holds and rep.tight
    assert rep.lhs == Fraction(36) and rep.rhs == Fraction(36)
    rep = _report(reports, "NO-R1")
    assert rep.applicable and rep.holds and not rep.tight
    rep = _report(reports, "T16/17")
    assert rep.applicable and rep.holds
    assert rep.rhs == Fraction(16, 17) * Fraction(10 + 26, 4)
    # odd-resistance strict inequality is inapplicable (r3 = 2 is even)
    rep = _report(reports, "P2.6.2")
    assert not rep.applicable


def test_fig1_tightness():
    profile = compute_profile(families.fig1_graph(), ks=(2, 3))
    rep = _report(rules.evaluate_all(profile, ["T2.2.2"]), "T2.2.2")
    assert rep.applicable and rep.holds and rep.tight
    assert rep.lhs == rep.rhs == Fraction(42)


def test_k4_holds_not_tight():
    profile = compute_profile(families.k4(), ks=(2, 3))
    rep = _report(rules.evaluate_all(profile, ["T2.2.2"]), "T2.2.2")
    assert rep.holds and not rep.tight


def test_missing_field_raises():
    profile = GraphProfile(n=4, m=6, nu={2: 4}, flags=_flags(cubic=True))
    with pytest.raises(MissingProfileField):
        rules.evaluate_all(profile, ["P2.1"])
    # per-k rules need three consecutive nu values
    profile = GraphProfile(n=4, m=3, nu={2: 3}, flags=_flags(is_tree=True))
    with pytest.raises(MissingProfileField):
        rules.evaluate_all(profile, ["T4.3"])


def test_per_k_floor_and_averaged_forms():
    flags = _flags(is_tree=True, bipartite=True)
    profile = GraphProfile(n=8, m=7, nu={1: 3, 2: 5, 3: 7, 4: 7}, flags=flags)
    reports = rules.evaluate_all(profile, ["T4.3", "T4.6"])
    # k=2: 2*5 = 10 >= 3+7-1 and >= 3+7
    assert _report(reports, "T4.3", k=2).holds
    assert _report(reports, "T4.6", k=2).holds
    assert _report(reports, "T4.6", k=2).tight
    # floor tightness: nu2 == (nu1+nu3)//2
    assert _report(reports, "T4.3", k=2).tight
    # k=3: 2*7 = 14 >= 5+7
    assert _report(reports, "T4.6", k=3).holds


def test_xk_rule_on_remark_family():
    for k in (2, 3):
        profile = compute_profile(families.remark_family(k, 5), ks=(1, 2, 3, 4, 5))
        reports = rules.evaluate_all(profile, ["XK"])
        rep = _report(reports, "XK", k=k)
        # x_k = ceil(l/2) = ceil(x_{k-1}/2) with x_{k-1} = l: tight
        assert rep.holds and rep.tight


def test_conjectures_on_fig5():
    profile = compute_profile(families.fig5_graph28(), ks=(2, 3))
    rep = _report(rules.evaluate_all(profile, ["C52/53"]), "C52/53")
    assert rep.applicable and rep.holds and rep.tight
    assert rep.lhs == Fraction(26)
    assert rep.rhs == Fraction(52, 53) * Fraction(28 + 78, 4)


def test_external_cited_notes_present():
    by_id = {r.rule_id: r for r in rules.REGISTRY}
    assert "corpus/solver inconsistency" in by_id["S11/12"].note
    assert by_id["T29/30"].note == "no-published-proof"


def test_profile_dict_round_trip():
    profile = compute_profile(families.petersen(), ks=(1, 2, 3))
    d = profile_as_dict(profile)
    back = profile_from_dict(d)
    assert back.n == profile.n and back.m == profile.m
    assert back.nu == profile.nu
    assert back.r3 == profile.r3
    assert back.oG == profile.oG
    assert back.flags == profile.flags
    # string-serialized integers are accepted
    d2 = {k: (str(v) if isinstance(v, int) and not isinstance(v, bool) else v) for k, v in d.items()}
    assert profile_from_dict(d2).nu == profile.nu


def test_hunt_clean_corpus():
    graphs = [families.cycle(6), families.path(5), families.k4()]
    assert list(rules.hunt(graphs, budget=10)) == []


def test_hunt_rejects_theorem_ids():
    with pytest.raises(ValueError):
        rules.hunt([families.k4()], rule_ids=["T2.2.1"])
    with pytest.raises(BadParameter):
        rules.evaluate_all(compute_profile(families.k4()), ["T2.2.l"])


def test_hunt_budget_and_error_skip():
    calls = []

    def profiler(g):
        calls.append(g)
        if g.m == 0:
            raise NuLabError("synthetic failure")
        return compute_profile(g, ks=(1, 2, 3))

    graphs = [families.path(1), families.cycle(4), families.cycle(5), families.cycle(6)]
    results = list(rules.hunt(graphs, budget=3, profiler=profiler))
    assert len(calls) == 3  # budget respected; the failing graph was skipped
    assert len(results) == 1 and isinstance(results[0], rules.HuntError)
    assert results[0].graph is graphs[0]
    assert str(results[0].error) == "synthetic failure"


def test_hunt_yields_an_error_for_a_rule_it_cannot_evaluate():
    """A profile without nu_2 leaves a hunted rule unevaluable: each such
    graph yields a HuntError and the scan goes on."""
    graphs = [families.petersen(), families.k4()]
    results = list(rules.hunt(graphs, profiler=lambda g: compute_profile(g, ks=(3,))))
    assert [type(r) for r in results] == [rules.HuntError] * 2
    assert [r.graph for r in results] == graphs
    assert all(isinstance(r.error, MissingProfileField) for r in results)


CROSS_ROUTE_IDS = ("R3-LE-OG", "R3-0-IFF-OG-0", "OG-EVEN")


def test_cross_route_rules_hold_on_census():
    checked = 0
    for g in corpus.connected_cubic_graphs(10):
        profile = compute_profile(g)
        for rep in rules.evaluate_all(profile, CROSS_ROUTE_IDS):
            assert rep.kind == "theorem"
            assert rep.applicable and rep.holds, (g, rep)
            checked += 1
    assert checked == 3 * 27


def test_cross_route_rules_flag_inconsistent_profile():
    flags = _flags(cubic=True, bridgeless=True)
    made_up = GraphProfile(n=10, m=15, nu={1: 5, 2: 10, 3: 15}, flags=flags, r3=0, oG=2)
    reports = rules.evaluate_all(made_up, CROSS_ROUTE_IDS)
    assert not _report(reports, "R3-0-IFF-OG-0").holds
    assert _report(reports, "R3-LE-OG").holds and _report(reports, "OG-EVEN").holds
    odd = GraphProfile(n=10, m=15, nu={3: 13}, flags=flags, r3=2, oG=1)
    reports = rules.evaluate_all(odd, CROSS_ROUTE_IDS)
    assert not _report(reports, "R3-LE-OG").holds
    assert not _report(reports, "OG-EVEN").holds
    no_o = GraphProfile(n=10, m=15, nu={3: 15}, flags=flags, r3=0)
    assert not any(r.applicable for r in rules.evaluate_all(no_o, CROSS_ROUTE_IDS))
