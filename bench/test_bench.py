"""Tests of the benchmark's own inputs and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import networkx as nx  # noqa: E402

from common import DATA, import_nulab  # noqa: E402

import_nulab()

import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _nx(g) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def test_census_file_is_the_n12_cubic_census():
    graphs = inputs.census12()
    assert len(graphs) == 112
    assert Counter(g.n for g in graphs) == {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}  # OEIS A002851
    for g in graphs:
        assert len(set(g.edges)) == g.m, "simple"
        assert set(g.degrees()) == {3}, "cubic"
        assert g.is_connected()
    by_n: dict[int, list] = {}
    for g in graphs:
        by_n.setdefault(g.n, []).append(_nx(g))
    for same_n in by_n.values():
        for a, b in combinations(same_n, 2):
            assert not nx.vf2pp_is_isomorphic(a, b)


def test_n50_file_is_connected_cubic_in_networkx_order():
    g = inputs.n50_nx_seed0()
    obj = json.loads(inputs.N50_FILE.read_text())
    assert [list(e) for e in g.edges] == [sorted(e) for e in obj["edges"]]
    assert (g.n, g.m, set(g.degrees())) == (50, 75, {3})
    assert g.is_connected()


def test_random_cubic_is_seeded_simple_connected_cubic():
    for n in (14, 28, 50):
        a = inputs.random_connected_cubic(n, random.Random(7))
        b = inputs.random_connected_cubic(n, random.Random(7))
        assert a == b
        assert set(a.degrees()) == {3} and len(set(a.edges)) == a.m and a.is_connected()


def test_reference_covers_every_item():
    ref = json.loads((DATA / "reference.json").read_text())
    cs, ss, hs = (workloads.WORKLOADS[name](ref["reference_seed"], ref)
                  for name in ("cubic_scan", "sparse_scan", "hard_solve"))
    for w in (cs, ss, hs):
        w.build()
        w.close()
    assert len(cs.want) == len(cs.stream) and None not in cs.want
    assert len(ss.want) == len(ss.stream) and None not in ss.want
    assert None not in [want for *_, want in hs.instances]
    assert ref["hard_solve"]["pinned"]["fig5"] == {"2": 26, "3": 39}
    assert ref["hard_solve"]["pinned"]["trp"]["3"] == 43


def test_tracer_self_time_and_restore():
    from nulab import exact, families, matching, profiling

    original = matching.max_matching
    t = tracer.Tracer()
    t.install()
    try:
        assert exact.max_matching is not original and profiling.max_matching is not original
        profiling.compute_profile(families.petersen())
    finally:
        t.uninstall()
    assert exact.max_matching is original and profiling.max_matching is original
    m = t.layer_metrics(0.0)
    assert m["profiling.compute_profile.calls"] == 1
    assert m["exact.nu_k.calls"] == 4
    assert m["matching.max_matching.calls"] >= 1
    assert m["networkx.max_weight_matching.calls"] >= m["matching.max_matching.calls"]
    assert m["matching.perfect_matchings"] == 6  # Petersen has six perfect matchings
    total = sum(end - start for sid, parent, _, start, end in t.spans if parent == -1)
    self_sum = sum(m[f"{label}.self_s"] for label, _, _ in tracer.TARGETS)
    assert abs(self_sum - total / 1e9) < 1e-6
