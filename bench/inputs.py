"""Benchmark inputs: pinned files and graphs generated from the workload seed.

Random cubic graphs come from the pairing (configuration) model with
rejection, driven by random.Random(seed), so the inputs do not change when
networkx changes its generators.
"""

from __future__ import annotations

import json
import random

from common import DATA

CENSUS_FILE = DATA / "census12.s6"
N50_FILE = DATA / "n50_nx_seed0.json"


def random_connected_cubic(n: int, rng: random.Random):
    """A uniformly random connected simple cubic graph on n vertices
    (pairing model; pairings with a loop, a parallel pair or more than one
    component are rejected).  Edges are sorted."""
    from nulab.graph import MultiGraph

    if n < 4 or n % 2:
        raise ValueError("cubic graphs need an even n >= 4")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, 3 * n, 2):
            u, v = points[i], points[i + 1]
            e = (min(u, v), max(u, v))
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            g = MultiGraph(n, sorted(edges))
            if g.is_connected():
                return g


def derived_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def census12():
    from nulab import gio

    lines = CENSUS_FILE.read_text(encoding="ascii").split()
    return [gio.parse_sparse6(line) for line in lines]


def n50_nx_seed0():
    from nulab.graph import MultiGraph

    obj = json.loads(N50_FILE.read_text(encoding="ascii"))
    return MultiGraph(obj["n"], [tuple(e) for e in obj["edges"]])
