"""Acceptance suite.

One test per criterion; with `pytest -v` each test contributes exactly
one PASSED/FAILED line, and on success each also prints a
"criterion N: PASS" line into the captured output.  All comparisons are
exact; no tolerances.
"""

import json
import random
from fractions import Fraction

from nulab import cli, corpus, exact, families, gio, matching, oracle, poly, rules, structure
from nulab.profiling import compute_profile
from nulab.rules import CONJECTURE_IDS

THEOREM_KINDS = {"theorem", "proposition", "lemma-bound", "external-cited"}


def _small_family_graphs():
    """Every named-family instance with at most 12 edges."""
    return [
        families.fig1_graph(),
        families.k4(),
        families.petersen_minus_vertex(),
        families.ring_of_diamonds(2),
        families.remark_family(2, 3),
        families.remark_family(2, 4),
        families.remark_family(2, 5),
        families.remark_family(2, 6),
        families.remark_family(3, 3),
        families.remark_family(3, 4),
        families.remark_family(4, 3),
        families.cycle(2),
        families.cycle(5),
        families.cycle(6),
        families.path(6),
        families.star(4),
        families.complete_bipartite(2, 3),
        families.complete_bipartite(3, 3),
    ]


def test_criterion_1_oracle_equivalence():
    """solve = oracle for k in 1..4 on small family graphs and 200
    random loopless multigraphs with <= 9 edges."""
    for g in _small_family_graphs():
        assert g.m <= 12
        for k in (1, 2, 3, 4):
            assert exact.nu_k(g, k).value == oracle.nu_k_oracle(g, k)
    rng = random.Random(20260101)
    for _ in range(200):
        g = corpus.random_multigraph(rng.randint(2, 7), rng.randint(1, 9), rng)
        for k in (1, 2, 3, 4):
            assert exact.nu_k(g, k).value == oracle.nu_k_oracle(g, k)
    print("criterion 1 (oracle equivalence): PASS")


def test_criterion_2_named_values():
    """Frozen landmark values, re-derived by the independent oracle where
    it is feasible and by the solver beyond its size cap."""
    pet = families.petersen()
    assert oracle.nu_k_oracle(pet, 1, max_edges=15) == 5
    assert oracle.nu_k_oracle(pet, 2, max_edges=15) == 9
    assert oracle.nu_k_oracle(pet, 3, max_edges=15) == 13
    assert exact.resistance_r3(pet) == 2
    assert matching.min_odd_two_factor(pet) == 2

    fig1 = families.fig1_graph()
    assert oracle.nu_k_oracle(fig1, 2) == exact.nu_k(fig1, 2).value == 5
    assert oracle.nu_k_oracle(fig1, 3) == exact.nu_k(fig1, 3).value == 7
    # the tightness arithmetic behind the value: 7 = (7/6) * 6
    assert Fraction(7, 6) * fig1.n == 7

    syl = families.sylvester10()
    assert oracle.nu_k_oracle(syl, 2, max_edges=15) == exact.nu_k(syl, 2).value == 8
    assert oracle.nu_k_oracle(syl, 3, max_edges=15) == exact.nu_k(syl, 3).value == 12

    fig3 = families.fig3_graph12()
    assert oracle.nu_k_oracle(fig3, 2, max_edges=18) == exact.nu_k(fig3, 2).value == 10
    assert oracle.nu_k_oracle(fig3, 3, max_edges=18) == exact.nu_k(fig3, 3).value == 15

    p_tri = families.triangle_replace(families.petersen())
    assert exact.nu_k(p_tri, 3).value == 43
    assert exact.resistance_r3(p_tri) == 2
    print("criterion 2 (named values): PASS")


def _single_report(profile, rule_id, k=None):
    reports = [
        r
        for r in rules.evaluate_all(profile, [rule_id])
        if k is None or r.k == k
    ]
    assert len(reports) == 1
    return reports[0]


def test_criterion_3_tightness_reproduction():
    """The named graphs achieve equality in their designated rules, and
    the pendant-cycle family reproduces its three closed forms."""
    rep = _single_report(compute_profile(families.fig1_graph(), ks=(2, 3)), "T2.2.2")
    assert rep.applicable and rep.holds and rep.tight

    rep = _single_report(compute_profile(families.sylvester10(), ks=(2, 3)), "T16/17")
    assert rep.applicable and rep.holds and rep.tight

    rep = _single_report(compute_profile(families.fig3_graph12(), ks=(2, 3)), "T20/21")
    assert rep.applicable and rep.holds and rep.tight

    fig5_profile = compute_profile(families.fig5_graph28(), ks=(2, 3))
    assert fig5_profile.nu[2] == 26
    assert fig5_profile.nu[3] == 39
    assert fig5_profile.r3 == 3
    rep = _single_report(fig5_profile, "C52/53")
    assert rep.applicable and rep.holds and rep.tight

    for k in (2, 3, 4):
        for l in range(3, 9):
            g = families.remark_family(k, l)
            nu = {j: exact.nu_k(g, j).value for j in (k - 1, k, k + 1)}
            assert nu[k - 1] == l * (k - 1)
            assert nu[k] == l * (k - 1) + l // 2
            assert nu[k + 1] == l * k
            if l % 2 == 0:
                # even cycle length: equality in the averaged form
                profile = compute_profile(g, ks=(k - 1, k, k + 1))
                assert profile.flags.bipartite
                rep = _single_report(profile, "T4.6", k=k)
                assert rep.applicable and rep.holds and rep.tight
    print("criterion 3 (tightness reproduction): PASS")


def test_criterion_4_theorem_suite(cubic_profiles, tree_profiles, unicyclic_profiles):
    """Zero theorem-kind violations over the cubic census (ingested as
    graph6) and the random tree/unicyclic corpora."""
    violations = []
    for profile in cubic_profiles:
        for rep in rules.evaluate_all(profile):
            if rep.kind in THEOREM_KINDS and rep.applicable and rep.holds is False:
                violations.append(rep)
    for profile in tree_profiles + unicyclic_profiles:
        for rep in rules.evaluate_all(profile, ["T4.3", "T4.6", "CO4.7", "XK"]):
            if rep.applicable and rep.holds is False:
                violations.append(rep)
    assert violations == []
    print("criterion 4 (theorem suite): PASS")


def test_criterion_5_poly_exact_equivalence(
    tree_corpus, tree_profiles, unicyclic_corpus, unicyclic_profiles
):
    """The polynomial route agrees with the branch-and-bound route
    (use_poly disabled) on the criterion-4 corpora and exhaustively on
    all unicyclic graphs with <= 10 edges."""
    for g, profile in zip(tree_corpus, tree_profiles):
        for k, value in profile.nu.items():
            assert exact.nu_k(g, k, use_poly=False).value == value
    for g, profile in zip(unicyclic_corpus, unicyclic_profiles):
        for k, value in profile.nu.items():
            assert exact.nu_k(g, k, use_poly=False).value == value
    for g in corpus.all_unicyclic(10):
        for k in (1, 2, 3, 4):
            assert poly.nu_k_unicyclic(g, k) == exact.nu_k(g, k, use_poly=False).value
    print("criterion 5 (poly/exact equivalence): PASS")


def test_criterion_6_invariance_and_decomposition(cubic_corpus):
    """Resistance invariance under diamond-string and triangle
    replacement on 50 corpus graphs each; reconstruction count identities
    on all generated claw-free instances."""
    bridgeless = [g for g in cubic_corpus if not g.bridges()]
    assert len(bridgeless) >= 50
    rng = random.Random(20260606)

    sample = bridgeless[:50]
    base_r3 = {i: exact.resistance_r3(g) for i, g in enumerate(sample)}
    for i, g in enumerate(sample):
        eid = rng.randrange(g.m)
        replaced = families.string_replace(g, eid, rng.randint(1, 2))
        assert exact.resistance_r3(replaced) == base_r3[i]
    for i, g in enumerate(sample):
        assert exact.resistance_r3(families.triangle_replace(g)) == base_r3[i]

    instances = [families.k4()]
    instances += [families.ring_of_diamonds(r) for r in (2, 3, 4, 5)]
    for g in bridgeless[:20]:
        tri = families.triangle_replace(g)
        instances.append(tri)
        # splice a diamond string into one inter-triangle edge
        instances.append(families.string_replace(tri, 3 * g.n, rng.randint(1, 2)))
    for g in instances:
        dec = structure.oum_decompose(g)
        if dec.variant is structure.OumVariant.Reduced:
            d = dec.total_diamonds
            assert g.n == 3 * dec.base_graph.n + 4 * d
            assert g.m == dec.base_graph.m + 3 * dec.base_graph.n + 6 * d
        else:
            assert dec.base_graph is g
    print("criterion 6 (invariance lemmas): PASS")


def test_criterion_7_conjecture_hunt(
    capsys,
    tmp_path,
    cubic_corpus_g6,
    cubic_profiles,
    tree_corpus,
    tree_profiles,
    unicyclic_corpus,
    unicyclic_profiles,
):
    """hunt over the criterion-4 corpora finds no conjecture
    counterexample; the CLI run exits 0 and documents the desk-scale
    corpus substitution in its report header."""
    cache = {}
    for g, p in zip(cubic_corpus_g6, cubic_profiles):
        cache[g] = p
    for g, p in zip(tree_corpus, tree_profiles):
        cache[g] = p
    for g, p in zip(unicyclic_corpus, unicyclic_profiles):
        cache[g] = p
    hunted = ["C1.1", "C1.2", "C52/53", "C164/165"]
    assert sorted(hunted) == sorted(CONJECTURE_IDS)
    hits = rules.hunt(list(cache), rule_ids=hunted, profiler=lambda g: cache[g])
    assert list(hits) == []

    # CLI pass over a slice of the same corpus: exit 0, documented header
    path = tmp_path / "corpus.s6"
    slice_graphs = cubic_corpus_g6[:10] + tree_corpus[:10] + unicyclic_corpus[:10]
    path.write_text("".join(gio.emit_sparse6(g) + "\n" for g in slice_graphs))
    argv = ["hunt", str(path)]
    for rid in hunted:
        argv += ["--rule", rid]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    header = json.loads(out.splitlines()[0])
    assert header["header"] is True
    assert "desk-scale" in header["note"]
    print("criterion 7 (conjecture hunt): PASS")
