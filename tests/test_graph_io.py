"""graph6/sparse6 codecs (cross-checked against networkx bit for bit)
and JSON-Lines report emission."""

import io
import json
import random
from collections import Counter
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nulab import families, gio
from nulab.errors import LoopRejected, MalformedGraph6, MalformedSparse6, SinkWriteError
from nulab.graph import MultiGraph


def _nx_graph6(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, header=False).decode().strip()


def _nx_sparse6(g: MultiGraph) -> str:
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx.to_sparse6_bytes(h, header=False).decode().strip()


def test_parse_graph6_small():
    # path on 3 vertices
    gx = nx.path_graph(3)
    g = gio.parse_graph6(_nx_graph6(gx))
    assert g.n == 3
    assert sorted(g.edges) == [(0, 1), (1, 2)]


def test_parse_graph6_random_matches_networkx():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 12)
        p = rng.random()
        gx = nx.gnp_random_graph(n, p, seed=rng.randint(0, 10**9))
        g = gio.parse_graph6(_nx_graph6(gx))
        assert g.n == n
        assert sorted(g.edges) == sorted(tuple(sorted(e)) for e in gx.edges())


def test_parse_graph6_header_accepted():
    line = ">>graph6<<" + _nx_graph6(nx.complete_graph(4))
    assert gio.parse_graph6(line).m == 6


def test_parse_graph6_errors():
    with pytest.raises(MalformedGraph6):
        gio.parse_graph6("D\x1f")  # character below the printable range
    with pytest.raises(MalformedGraph6):
        gio.parse_graph6("D")  # missing adjacency words for n=5
    with pytest.raises(MalformedGraph6):
        gio.parse_graph6("C" + "??")  # too many words for n=4
    # nonzero padding bits: n=2 with the non-edge bit pattern 011111
    with pytest.raises(MalformedGraph6):
        gio.parse_graph6("A" + chr(0b011111 + 63))
    err = None
    try:
        gio.parse_graph6("")
    except MalformedGraph6 as exc:
        err = exc
    assert err is not None and err.offset == 0


def test_sparse6_requires_colon():
    with pytest.raises(MalformedSparse6):
        gio.parse_sparse6("D??")


def test_sparse6_round_trip_families():
    for g in [
        families.fig1_graph(),
        families.sylvester10(),
        families.fig3_graph12(),
        families.petersen(),
        families.fig5_graph28(),
        families.ring_of_diamonds(3),
        families.cycle(2),
        MultiGraph(1, []),
        MultiGraph(0, []),
    ]:
        line = gio.emit_sparse6(g)
        h = gio.parse_sparse6(line)
        assert h.n == g.n
        assert sorted(h.edges) == sorted(g.edges)


@st.composite
def _sparse6_multigraphs(draw):
    """Multigraphs with parallel edges and isolated vertices, n on both
    sides of the 1-byte/4-byte size boundary at 62/63."""
    n = draw(st.one_of(st.integers(0, 12), st.integers(60, 66)))
    if n < 2:
        return MultiGraph(n, [])
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=20))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    return MultiGraph(n, draw(st.permutations(edges)))


@given(_sparse6_multigraphs())
@settings(max_examples=200, deadline=None)
def test_sparse6_round_trips_multigraphs(g):
    h = gio.parse_sparse6(gio.emit_sparse6(g))
    assert h.n == g.n
    assert Counter(map(frozenset, h.edges)) == Counter(map(frozenset, g.edges))


def test_emit_sparse6_matches_networkx():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 13)
        m = rng.randint(0, 18)
        edges = []
        for _ in range(m):
            u, v = rng.sample(range(n), 2)
            edges.append((min(u, v), max(u, v)))
        g = MultiGraph(n, edges)
        assert gio.emit_sparse6(g) == _nx_sparse6(g)


def test_emit_sparse6_power_of_two_padding():
    # n = 4 and n = 8 exercise the nauty corner-case padding rule
    for n in (4, 8):
        for extra in ([], [(0, 1)], [(0, 1), (0, 1)]):
            g = MultiGraph(n, extra)
            assert gio.emit_sparse6(g) == _nx_sparse6(g)
            h = gio.parse_sparse6(gio.emit_sparse6(g))
            assert h.n == n and sorted(h.edges) == sorted(g.edges)


def test_sparse6_rejects_loops():
    h = nx.MultiGraph()
    h.add_nodes_from(range(3))
    h.add_edge(1, 1)
    line = nx.to_sparse6_bytes(h, header=False).decode().strip()
    with pytest.raises(LoopRejected):
        gio.parse_sparse6(line)


def test_sparse6_large_n_header():
    g = MultiGraph(100, [(0, 99)])
    h = gio.parse_sparse6(gio.emit_sparse6(g))
    assert h.n == 100 and h.edges == ((0, 99),)


def test_sparse6_rejects_vertex_count_beyond_four_words():
    """A few bytes may name any vertex count; one past the largest 4-word
    count is refused before a vertex is allocated."""
    assert gio.parse_sparse6(":" + gio._emit_n(62)).n == 62
    with pytest.raises(MalformedSparse6):
        gio.parse_sparse6(":" + gio._emit_n(gio.MAX_SPARSE6_N + 1))


def test_serialize_rational():
    assert gio.serialize_rational(Fraction(7, 6)) == "7/6"
    assert gio.serialize_rational(Fraction(4, 2)) == "2"
    assert gio.serialize_rational(5) == "5"
    assert gio.serialize_rational(Fraction(-3, 9)) == "-1/3"


def test_emit_report_integers_as_strings():
    rec = {
        "graph_id": "g0",
        "format": "sparse6",
        "profile": {"n": 10, "nu2": 9, "ratio": Fraction(16, 17), "flags": {"cubic": True}},
        "rule_reports": (),
        "runtime_ms": 3,
    }
    sink = io.StringIO()
    gio.write_record(sink, rec)
    lines = sink.getvalue().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["profile"]["nu2"] == "9"
    assert obj["profile"]["ratio"] == "16/17"
    assert obj["profile"]["flags"]["cubic"] is True
    assert obj["graph_id"] == "g0"


class _BrokenSink(io.StringIO):
    def write(self, s):
        raise OSError("disk full")


def test_emit_report_sink_error():
    rec = {"graph_id": "g", "format": "sparse6", "profile": {"n": 1}}
    with pytest.raises(SinkWriteError):
        gio.write_record(_BrokenSink(), rec)
