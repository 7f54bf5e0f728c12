"""Build a GraphProfile for a graph: nu values, r3, o(G), class flags.

This is the single place where solvers are invoked on behalf of the
rule engine, keeping rule evaluation itself a pure function of the
profile.
"""

from __future__ import annotations

import re
from typing import Iterable

from . import exact, poly, structure
from .graph import Core, MultiGraph
from .matching import max_matching, min_odd_two_factor
from .rules import GraphProfile, ProfileFlags


def profile_flags(g: MultiGraph, core: Core) -> ProfileFlags:
    """g's class flags; core is g.core(), whose component count spares
    counting g's components again."""
    bipartite, nearly_bipartite = structure.bipartiteness(g)
    return ProfileFlags(
        **vars(g.structure_flags(core.component_count)),
        claw_free=structure.is_claw_free(g),
        bipartite=bipartite,
        nearly_bipartite=nearly_bipartite,
        has_perfect_matching=g.n % 2 == 0 and 2 * len(max_matching(g)) == g.n,
    )


def compute_profile(
    g: MultiGraph,
    ks: Iterable[int] = (1, 2, 3, 4),
    include_o: bool = True,
) -> GraphProfile:
    """Exact profile with nu_k for every requested k.  The flags, the
    solve and x_k read one core of g (MultiGraph.core)."""
    core = g.core()
    flags = profile_flags(g, core)
    nu = {k: res.value for k, res in exact.solve_profile(g, ks, core=core).items()}
    r3 = g.m - nu[3] if flags.cubic and 3 in nu else None
    # a cubic graph has a 2-factor exactly when it has a perfect matching
    oG = (
        min_odd_two_factor(g)
        if include_o and flags.cubic and flags.has_perfect_matching
        else None
    )
    xk = (
        poly.cycle_deficiencies(g, range(1, max(nu, default=1) + 1), core)
        if flags.is_unicyclic
        else {}
    )
    return GraphProfile(n=g.n, m=g.m, nu=nu, flags=flags, r3=r3, oG=oG, xk=xk)


def profile_as_dict(p: GraphProfile) -> dict:
    """Flat JSON-friendly view used by reports (nu values keyed nu1..)."""
    out: dict = {"n": p.n, "m": p.m}
    for k in sorted(p.nu):
        out[f"nu{k}"] = p.nu[k]
    if p.r3 is not None:
        out["r3"] = p.r3
    if p.oG is not None:
        out["oG"] = p.oG
    for k in sorted(p.xk):
        out[f"x{k}"] = p.xk[k]
    out["flags"] = dict(vars(p.flags))
    return out


def profile_from_dict(d: dict) -> GraphProfile:
    """Inverse of profile_as_dict.  A number is an int or a decimal
    integer string; anything else (a bool, a float, "2.7") raises
    ValueError.  A flag is a JSON boolean, missing means false; anything
    else ("false", 0, null) raises ValueError."""

    def num(x):
        if isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
            return int(x)
        if isinstance(x, int) and not isinstance(x, bool):
            return x
        raise ValueError(f"not an integer: {x!r}")

    def flag(x):
        if isinstance(x, bool):
            return x
        raise ValueError(f"not a boolean: {x!r}")

    nu = {
        int(key[2:]): num(val)
        for key, val in d.items()
        if key.startswith("nu") and key[2:].isdigit()
    }
    xk = {
        int(key[1:]): num(val)
        for key, val in d.items()
        if key.startswith("x") and key[1:].isdigit()
    }
    raw_flags = d.get("flags", {})
    flags = ProfileFlags(
        **{
            name: (
                flag(raw_flags.get(name, False))
                if name != "max_degree" and name != "cycle_rank"
                else num(raw_flags.get(name, 0))
            )
            for name in ProfileFlags.__dataclass_fields__
        }
    )
    return GraphProfile(
        n=num(d["n"]),
        m=num(d["m"]),
        nu=nu,
        flags=flags,
        r3=num(d["r3"]) if "r3" in d else None,
        oG=num(d["oG"]) if "oG" in d else None,
        xk=xk,
    )
