"""Compute data/reference.json: the expected values the benchmark checks.

Run from the repository root after make_pinned.py (a few minutes):

    python3 bench/make_reference.py

Values come from the package at the time of writing and are each
cross-checked once by a route outside the branch-and-bound solver:
- the exhaustive oracle (nulab.oracle) for the census (m <= 18) and for
  sparse graphs with m <= 14, and a brute-force perfect-matching scan
  (itertools, not nulab.matching) for o(G).  The oracle's colouring
  backtrack explodes on larger trees at k >= 3, so larger sparse graphs are
  checked against branch and bound with the poly route switched off;
- frozen landmark values from the paper for the named graphs;
- for cubic graphs, a verified certificate that meets the trivial bound
  (nu1 = n/2, nu2 = n, nu3 = nu4 = m); a 3-edge-colouring also gives an even
  2-factor, so r3 = oG = 0.  nu2 = n - 1 is certified for class-2 graphs,
  which have no even 2-factor.
The reference seed is 0; other seeds are checked without reference values.
"""

from __future__ import annotations

import json
from itertools import combinations

from common import DATA, import_nulab

REFERENCE_SEED = 0
CENSUS_ORACLE_MAX_EDGES = 18
SPARSE_ORACLE_MAX_EDGES = 14
LANDMARKS = {"fig5": {2: 26, 3: 39}, "trp": {3: 43}}


def brute_o(g) -> int:
    """o(G) of a cubic graph by scanning every n/2-edge subset."""
    best = None
    for pm in combinations(range(g.m), g.n // 2):
        ends = [v for e in pm for v in g.edges[e]]
        if len(set(ends)) != g.n:
            continue
        chosen = set(pm)
        adj = {v: [] for v in range(g.n)}
        for e, (u, v) in enumerate(g.edges):
            if e not in chosen:
                adj[u].append(v)
                adj[v].append(u)
        seen, odd = set(), 0
        for s in range(g.n):
            if s in seen:
                continue
            stack, size = [s], 0
            seen.add(s)
            while stack:
                v = stack.pop()
                size += 1
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            odd += size % 2
        best = odd if best is None else min(best, odd)
    return best


def certified_cubic(g, nu: dict, class2: bool) -> None:
    """Raise unless each nu_k meets the trivial cubic bound with a
    verified certificate (nu2 = n - 1 when the graph is known class 2)."""
    from nulab import exact

    bound = {1: g.n // 2, 2: g.n - 1 if class2 else g.n, 3: g.m, 4: g.m}
    for k, value in nu.items():
        if class2 and k >= 3:
            continue
        res = exact.nu_k(g, k)
        if not (res.value == value == bound[k] == res.certificate.colored_count
                and res.certificate.is_proper(g)):
            raise SystemExit(f"nu{k}={value} of {g!r} is not certified by the trivial bound")


def profile_entry(g, ks) -> dict:
    from nulab import profiling

    p = profiling.compute_profile(g, ks=ks)
    out = {f"nu{k}": v for k, v in p.nu.items()}
    if p.flags.cubic:
        out["r3"], out["oG"] = p.r3, p.oG
    return out


def oracle_checked(g, entry: dict, ks, max_edges: int) -> None:
    """Oracle where g.m <= max_edges, else branch and bound without poly."""
    from nulab import exact, oracle

    for k in ks:
        if g.m <= max_edges:
            want = oracle.nu_k_oracle(g, k, max_edges=max_edges)
        else:
            want = exact.nu_k(g, k, use_poly=False).value
        if entry[f"nu{k}"] != want:
            raise SystemExit(f"nu{k} of {g!r}: profile {entry[f'nu{k}']}, cross-check {want}")


def cubic_scan_section(workloads) -> dict:
    cs = workloads.CubicScan(REFERENCE_SEED, None)
    cs.build()
    cs.close()
    census = []
    for g in cs.census:
        e = profile_entry(g, workloads.CUBIC_KS)
        oracle_checked(g, e, workloads.CUBIC_KS, CENSUS_ORACLE_MAX_EDGES)
        if e["oG"] != brute_o(g) or e["r3"] != g.m - e["nu3"]:
            raise SystemExit(f"o(G) or r3 of {g!r} disagrees with the brute-force scan")
        census.append(e)
    rand = []
    for g in cs.random:
        e = profile_entry(g, workloads.CUBIC_KS)
        certified_cubic(g, {k: e[f"nu{k}"] for k in workloads.CUBIC_KS}, class2=False)
        if (e["r3"], e["oG"]) != (0, 0):
            raise SystemExit(f"3-edge-colourable {g!r} has r3={e['r3']} oG={e['oG']}")
        rand.append(e)
    print(f"cubic_scan: {len(census)} census + {len(rand)} random graphs checked", flush=True)
    return {"seed": REFERENCE_SEED, "census12": census, "random": rand,
            "checked_by": "census: oracle + brute-force o(G); random: certificates"}


def sparse_scan_section(workloads) -> dict:
    ss = workloads.SparseScan(REFERENCE_SEED, None)
    ss.build()
    graphs = []
    for g in ss.stream:
        e = profile_entry(g, workloads.SPARSE_KS)
        oracle_checked(g, e, workloads.SPARSE_KS, SPARSE_ORACLE_MAX_EDGES)
        graphs.append(e)
    print(f"sparse_scan: {len(graphs)} graphs checked", flush=True)
    return {"seed": REFERENCE_SEED, "graphs": graphs,
            "checked_by": f"oracle for m <= {SPARSE_ORACLE_MAX_EDGES}, else branch and bound"}


def hard_solve_section(workloads) -> dict:
    from nulab import exact

    hs = workloads.HardSolve(REFERENCE_SEED, None)
    hs.build()
    pinned: dict = {}
    rand_vals = []
    class2 = {name for name, lm in LANDMARKS.items() if 3 in lm}
    for name, g, k, _ in hs.instances:
        value = exact.nu_k(g, k).value
        landmark = LANDMARKS.get(name, {}).get(k)
        if landmark is not None:
            if value != landmark:
                raise SystemExit(f"{name} nu{k}={value}, landmark {landmark}")
        else:
            certified_cubic(g, {k: value}, class2=name in class2)
        if name.startswith("random"):
            rand_vals.append(value)
        else:
            pinned.setdefault(name, {})[str(k)] = value
    print(f"hard_solve: {pinned} random {rand_vals}", flush=True)
    return {"seed": REFERENCE_SEED, "pinned": pinned, "random": rand_vals,
            "checked_by": "landmarks + certificates"}


def main() -> None:
    import_nulab()
    import workloads

    sections = {"cubic_scan": cubic_scan_section, "sparse_scan": sparse_scan_section,
                "hard_solve": hard_solve_section}
    ref = {"reference_seed": REFERENCE_SEED,
           **{name: section(workloads) for name, section in sections.items()}}
    (DATA / "reference.json").write_text(json.dumps(ref, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
