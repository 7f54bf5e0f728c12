"""The cubic census: its isomorphism test against networkx, and the
n <= 12 census against the pinned benchmark file."""

import random
from collections import defaultdict
from itertools import combinations
from pathlib import Path

import networkx as nx

from nulab import corpus, gio
from nulab.graph import MultiGraph

CENSUS12 = Path(__file__).resolve().parents[1] / "bench" / "data" / "census12.s6"


def _nx(g: MultiGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _agree(g: MultiGraph, h: MultiGraph) -> bool:
    """_isomorphic in both directions, checked against networkx."""
    got = corpus._isomorphic(corpus._Cubic(g), corpus._Cubic(h))
    assert corpus._isomorphic(corpus._Cubic(h), corpus._Cubic(g)) == got
    assert nx.vf2pp_is_isomorphic(_nx(g), _nx(h)) == got
    return got


def test_isomorphic_accepts_relabellings(cubic_corpus):
    rng = random.Random(20261018)
    for g in cubic_corpus:
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in g.edges]
            rng.shuffle(edges)
            assert _agree(g, MultiGraph(g.n, edges))


def test_isomorphic_rejects_classes_with_the_same_key(cubic_corpus):
    """Distinct census classes that share a bucket key are the hard
    negatives: the key cannot tell them apart."""
    buckets = defaultdict(list)
    for g in cubic_corpus:
        buckets[corpus._Cubic(g).key].append(g)
    pairs = [p for group in buckets.values() for p in combinations(group, 2)]
    assert len(pairs) == 45
    for g, h in pairs:
        assert not _agree(g, h)


def test_census_equals_pinned_file(cubic_corpus):
    """Same graphs in the same order as bench/data/census12.s6 (sparse6
    sorts the edges, so edge sets are compared)."""
    lines = CENSUS12.read_text(encoding="ascii").split()
    pinned = [gio.parse_sparse6(line) for line in lines]
    assert len(pinned) == len(cubic_corpus) == 112
    for got, want in zip(cubic_corpus, pinned):
        assert got.n == want.n
        assert sorted(got.edges) == sorted(want.edges)
