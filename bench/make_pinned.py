"""Write the pinned benchmark inputs under bench/data/.

Run once from the repository root:

    python3 bench/make_pinned.py

- census12.s6: every connected simple cubic graph with n <= 12 (112 lines,
  one per isomorphism class), produced by the package's own generator.
  Generating it takes about 90 s, so no benchmark run does.
- n50_nx_seed0.json: networkx's random_regular_graph(3, 50, seed=0) as an
  ordered edge list.  The solver's node count depends on edge order, and
  sparse6 sorts edges, so this graph is stored as JSON.
"""

from __future__ import annotations

import json

import networkx as nx

from common import DATA, import_nulab


def main() -> None:
    nulab = import_nulab()
    from nulab import corpus, gio

    census = corpus.connected_cubic_graphs(12)
    (DATA / "census12.s6").write_text(
        "".join(gio.emit_sparse6(g) + "\n" for g in census), encoding="ascii"
    )
    g = nx.random_regular_graph(3, 50, seed=0)
    (DATA / "n50_nx_seed0.json").write_text(
        json.dumps(
            {"n": 50, "source": "networkx.random_regular_graph(3, 50, seed=0)",
             "networkx": nx.__version__, "edges": [list(e) for e in g.edges()]}
        ) + "\n",
        encoding="ascii",
    )
    print(f"wrote {len(census)} census graphs and the n = 50 graph ({nulab.__file__})")


if __name__ == "__main__":
    main()
