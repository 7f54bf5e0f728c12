"""The inequality registry: every bound as an executable rule.

Rules evaluate a GraphProfile in exact arithmetic.  Each rule carries a
stable id, a kind (theorem / proposition / lemma-bound / conjecture /
external-cited), a conjunctive applicability guard over the profile's
structure flags, and a relation between two exact sides: ints, except
the alpha rules' right sides, which are Fractions.
"Tight" means exact equality (for floor/ceiling forms, equality of the
rounded expression).  Rules never run solvers themselves; they only
read the profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .errors import BadParameter, MissingProfileField, NuLabError
from .graph import MultiGraph


@dataclass(frozen=True)
class ProfileFlags:
    connected: bool
    cubic: bool
    bridgeless: bool
    max_degree: int
    cycle_rank: int
    is_tree: bool
    is_unicyclic: bool
    claw_free: bool
    bipartite: bool
    nearly_bipartite: bool
    has_perfect_matching: bool


@dataclass(frozen=True)
class GraphProfile:
    n: int
    m: int
    nu: dict[int, int]
    flags: ProfileFlags
    r3: Optional[int] = None
    oG: Optional[int] = None
    xk: dict[int, int] = field(default_factory=dict)

    def nu_at(self, k: int) -> int:
        if k not in self.nu:
            raise MissingProfileField(f"nu[{k}]")
        return self.nu[k]

    def r3_value(self) -> int:
        if self.r3 is None:
            raise MissingProfileField("r3")
        return self.r3


Side = Union[int, Fraction]


class RuleReport(NamedTuple):
    rule_id: str
    kind: str
    applicable: bool
    holds: Optional[bool] = None
    tight: Optional[bool] = None
    lhs: Optional[Side] = None
    rhs: Optional[Side] = None
    k: Optional[int] = None
    note: Optional[str] = None


@dataclass(frozen=True)
class Rule:
    rule_id: str
    kind: str
    guard: Callable[[GraphProfile], bool]
    body: Callable[[GraphProfile], list[RuleReport]]
    note: Optional[str] = None

    @cached_property
    def _not_applicable(self) -> RuleReport:
        """The report for a profile outside the guard: one per rule, shared,
        since reports are immutable."""
        return RuleReport(self.rule_id, self.kind, False, note=self.note)


def _cmp(op: str, lhs: Side, rhs: Side) -> tuple[bool, bool]:
    """(holds, tight) for the relation lhs op rhs."""
    if op == "ge":
        return lhs >= rhs, lhs == rhs
    if op == "le":
        return lhs <= rhs, lhs == rhs
    if op == "eq":
        return lhs == rhs, lhs == rhs
    if op == "lt":
        return lhs < rhs, False
    if op == "ne":
        return lhs != rhs, False
    raise ValueError(op)


def _simple(
    rule_id: str,
    kind: str,
    guard: Callable[[GraphProfile], bool],
    op: str,
    lhs_fn: Callable[[GraphProfile], Side],
    rhs_fn: Callable[[GraphProfile], Side],
    note: Optional[str] = None,
) -> Rule:
    def body(p: GraphProfile) -> list[RuleReport]:
        lhs = lhs_fn(p)
        rhs = rhs_fn(p)
        holds, tight = _cmp(op, lhs, rhs)
        return [RuleReport(rule_id, kind, True, holds, tight, lhs, rhs, None, note)]

    return Rule(rule_id, kind, guard, body, note)


def _per_k(
    rule_id: str,
    kind: str,
    guard: Callable[[GraphProfile], bool],
    form: str,
    note: Optional[str] = None,
) -> Rule:
    """The second-difference rules, one report per evaluable k >= 2.

    form 'floor':    2*nu_k >= nu_{k-1} + nu_{k+1} - 1
    form 'averaged': 2*nu_k >= nu_{k-1} + nu_{k+1}
    """

    def body(p: GraphProfile) -> list[RuleReport]:
        out = []
        ks = sorted(k for k in p.nu if k >= 2 and k - 1 in p.nu and k + 1 in p.nu)
        if not ks:
            raise MissingProfileField(f"nu[k-1..k+1] for {rule_id}")
        for k in ks:
            s = p.nu[k - 1] + p.nu[k + 1]
            lhs = 2 * p.nu[k]
            if form == "floor":
                rhs = s - 1
                tight = p.nu[k] == s // 2
            else:
                rhs = s
                tight = lhs == s
            holds = lhs >= rhs
            out.append(RuleReport(rule_id, kind, True, holds, tight, lhs, rhs, k, note))
        return out

    return Rule(rule_id, kind, guard, body, note)


def _xk_rule() -> Rule:
    rule_id, kind = "XK", "lemma-bound"

    def guard(p: GraphProfile) -> bool:
        return p.flags.is_unicyclic and any(
            k in p.xk and k - 1 in p.xk for k in range(2, 10)
        )

    def body(p: GraphProfile) -> list[RuleReport]:
        out = []
        for k in sorted(p.xk):
            if k - 1 not in p.xk:
                continue
            lhs = p.xk[k]
            rhs = -(-p.xk[k - 1] // 2)
            holds = lhs <= rhs
            out.append(
                RuleReport(rule_id, kind, True, holds, lhs == rhs, lhs, rhs, k)
            )
        return out

    return Rule(rule_id, kind, guard, body)


def _cubic(p: GraphProfile) -> bool:
    return p.flags.cubic


def _cubic_pm(p: GraphProfile) -> bool:
    return p.flags.cubic and p.flags.has_perfect_matching


def _bridgeless_cubic(p: GraphProfile) -> bool:
    return p.flags.cubic and p.flags.bridgeless and p.flags.connected


def _cf_bridgeless_cubic(p: GraphProfile) -> bool:
    return _bridgeless_cubic(p) and p.flags.claw_free


def _cubic_with_o(p: GraphProfile) -> bool:
    return p.flags.cubic and p.oG is not None


def _alpha_rule(rule_id: str, kind: str, guard, num: int, den: int, note=None) -> Rule:
    """nu2 >= (num/den) * (n + 2*nu3) / 4."""
    return _simple(
        rule_id,
        kind,
        guard,
        "ge",
        lambda p: p.nu_at(2),
        lambda p: Fraction(num * (p.n + 2 * p.nu_at(3)), 4 * den),
        note,
    )


REGISTRY: tuple[Rule, ...] = (
    # exact.solve_profile bounds nu_3 by floor(3 * nu_2 / 2) (its ladder),
    # so the profiles it makes satisfy P2.1 by construction; the
    # independent check of the ladder is nu_k solved alone (the
    # benchmark's branch-and-bound phase, the tests)
    _simple(
        "P2.1",
        "proposition",
        lambda p: True,
        "ge",
        lambda p: 3 * p.nu_at(2),
        lambda p: 2 * p.nu_at(3),
    ),
    _simple(
        "T2.2.1", "theorem", _cubic, "ge",
        lambda p: 5 * p.nu_at(2), lambda p: 4 * p.n,
    ),
    _simple(
        "T2.2.2", "theorem", _cubic, "ge",
        lambda p: 6 * p.nu_at(3), lambda p: 7 * p.n,
    ),
    _simple(
        "T2.2.3", "theorem", _cubic, "ge",
        lambda p: p.nu_at(2) + p.nu_at(3), lambda p: 2 * p.n,
    ),
    _simple(
        "T2.2.4", "theorem", _cubic, "le",
        lambda p: 4 * p.nu_at(2), lambda p: p.n + 2 * p.nu_at(3),
    ),
    _alpha_rule("T16/17", "theorem", _cubic, 16, 17),
    _simple(
        "L5/6", "lemma-bound", _cubic_pm, "ge",
        lambda p: 6 * p.nu_at(2), lambda p: 5 * p.n,
    ),
    _alpha_rule("T20/21", "theorem", _cubic_pm, 20, 21),
    _simple(
        "P2.6.1",
        "proposition",
        lambda p: _bridgeless_cubic(p) and p.r3_value() <= 2,
        "eq",
        lambda p: 4 * p.nu_at(2),
        lambda p: p.n + 2 * p.nu_at(3),
    ),
    _simple(
        "P2.6.2",
        "proposition",
        lambda p: _bridgeless_cubic(p) and p.r3_value() % 2 == 1,
        "lt",
        lambda p: 4 * p.nu_at(2),
        lambda p: p.n + 2 * p.nu_at(3),
    ),
    _simple(
        "NO-R1", "proposition", _bridgeless_cubic, "ne",
        lambda p: p.r3_value(), lambda p: 1,
    ),
    _alpha_rule("T44/45", "theorem", _bridgeless_cubic, 44, 45),
    _alpha_rule("C52/53", "conjecture", _bridgeless_cubic, 52, 53),
    _simple(
        "S11/12",
        "external-cited",
        lambda p: _bridgeless_cubic(p) and p.n >= 12,
        "ge",
        lambda p: 12 * p.nu_at(2),
        lambda p: 11 * p.n,
        note="external-cited: a violation signals corpus/solver inconsistency",
    ),
    _simple(
        "T-CF5/6",
        "theorem",
        lambda p: p.flags.cubic and p.flags.claw_free,
        "ge",
        lambda p: 6 * p.nu_at(2),
        lambda p: 5 * p.n,
    ),
    _simple(
        "T29/30", "theorem", _cf_bridgeless_cubic, "ge",
        lambda p: 30 * p.nu_at(2), lambda p: 29 * p.n,
        note="no-published-proof",
    ),
    _simple(
        "T43/45", "theorem", _cf_bridgeless_cubic, "ge",
        lambda p: 45 * p.nu_at(3), lambda p: 43 * p.m,
    ),
    _simple(
        "L-n/8",
        "external-cited",
        lambda p: _bridgeless_cubic(p) and p.n >= 16,
        "le",
        lambda p: 8 * p.r3_value(),
        lambda p: p.n,
        note="external-cited: a violation signals corpus/solver inconsistency",
    ),
    _simple(
        "L-n/24",
        "lemma-bound",
        lambda p: _cf_bridgeless_cubic(p) and p.n >= 48,
        "le",
        lambda p: 24 * p.r3_value(),
        lambda p: p.n,
    ),
    _simple(
        "T35/36",
        "theorem",
        lambda p: _cf_bridgeless_cubic(p) and p.n >= 48,
        "ge",
        lambda p: 36 * p.nu_at(2),
        lambda p: 35 * p.n,
    ),
    _alpha_rule(
        "T140/141",
        "theorem",
        lambda p: _cf_bridgeless_cubic(p) and p.n >= 48,
        140,
        141,
    ),
    _alpha_rule("C164/165", "conjecture", _cf_bridgeless_cubic, 164, 165),
    _per_k(
        "T4.3", "theorem",
        lambda p: p.flags.is_tree or p.flags.is_unicyclic,
        "floor",
    ),
    _per_k(
        "T4.6", "theorem",
        lambda p: (p.flags.is_tree or p.flags.is_unicyclic) and p.flags.bipartite,
        "averaged",
    ),
    _per_k("C1.1", "conjecture", lambda p: p.flags.nearly_bipartite, "floor"),
    _per_k("C1.2", "conjecture", lambda p: p.flags.bipartite, "averaged"),
    _simple(
        "CO4.7",
        "theorem",
        lambda p: p.flags.is_tree
        and p.flags.has_perfect_matching
        and p.flags.max_degree == 3,
        "ge",
        lambda p: 4 * p.nu_at(2),
        lambda p: 3 * p.n - 2,
    ),
    _xk_rule(),
    # Cross-route checks of branch and bound (r3) against 2-factor
    # enumeration (oG); Steffen, Discrete Math. 2004.  Deleting one edge
    # per odd cycle of a 2-factor leaves a 3-edge-colourable graph, and a
    # cubic graph has an even number of vertices, so a 2-factor has an
    # even number of odd cycles.
    _simple(
        "R3-LE-OG", "theorem", _cubic_with_o, "le",
        lambda p: p.r3_value(), lambda p: p.oG,
    ),
    _simple(
        "R3-0-IFF-OG-0", "theorem", _cubic_with_o, "eq",
        lambda p: int(p.r3_value() == 0),
        lambda p: int(p.oG == 0),
    ),
    _simple(
        "OG-EVEN", "theorem", _cubic_with_o, "eq",
        lambda p: p.oG % 2, lambda p: 0,
    ),
)

RULE_IDS: tuple[str, ...] = tuple(r.rule_id for r in REGISTRY)
CONJECTURE_IDS: tuple[str, ...] = tuple(
    r.rule_id for r in REGISTRY if r.kind == "conjecture"
)
# kinds whose violation signals a solver or corpus bug, not mathematics
THEOREM_KINDS: frozenset[str] = frozenset(
    r.kind for r in REGISTRY if r.kind != "conjecture"
)


def check_rule_ids(
    rule_ids: Iterable[str],
    allowed: Iterable[str] = RULE_IDS,
    what: str = "unknown rule ids",
) -> set[str]:
    """rule_ids as a set; BadParameter names every id not in allowed."""
    ids = set(rule_ids)
    bad = ids.difference(allowed)
    if bad:
        raise BadParameter(f"{what}: {sorted(bad)}")
    return ids


def evaluate_all(
    profile: GraphProfile, rule_ids: Optional[Iterable[str]] = None
) -> list[RuleReport]:
    """One or more reports per registered (or selected) rule; an unknown
    rule id raises BadParameter."""
    wanted = check_rule_ids(rule_ids) if rule_ids is not None else None
    out: list[RuleReport] = []
    for rule in REGISTRY:
        if wanted is not None and rule.rule_id not in wanted:
            continue
        if rule.guard(profile):
            out += rule.body(profile)
        else:
            out.append(rule._not_applicable)
    return out


@dataclass(frozen=True)
class HuntHit:
    graph: MultiGraph
    profile: GraphProfile
    report: RuleReport


@dataclass(frozen=True)
class HuntError:
    graph: MultiGraph
    error: NuLabError


def hunt(
    corpus: Iterable[MultiGraph],
    rule_ids: Optional[Iterable[str]] = None,
    budget: Optional[int] = None,
    profiler: Optional[Callable[[MultiGraph], GraphProfile]] = None,
) -> Iterator[HuntHit | HuntError]:
    """Scan a corpus for conjecture counterexamples.

    Only conjecture-kind rules are hunted, and at most budget graphs are
    profiled.  Bad rule ids or a negative budget raise BadParameter at
    the call; the scan itself runs as the result is iterated.  It yields
    a HuntHit per violating report, and a HuntError, without ending the
    scan, for a graph the profiler fails on or whose profile a hunted
    rule cannot evaluate (a nu_k the profile lacks).  Every result for
    one graph is yielded before the next graph is drawn from corpus.  No
    hit is the expected outcome.
    """
    ids = check_rule_ids(
        CONJECTURE_IDS if rule_ids is None else rule_ids,
        CONJECTURE_IDS,
        "not conjecture rules",
    )
    if budget is not None and budget < 0:
        raise BadParameter(f"budget must be >= 0, got {budget}")
    if profiler is None:
        from .profiling import compute_profile

        profiler = compute_profile

    def scan() -> Iterator[HuntHit | HuntError]:
        for g in islice(corpus, budget):
            try:
                profile = profiler(g)
                reports = evaluate_all(profile, ids)
            except NuLabError as exc:
                yield HuntError(g, exc)
                continue
            for rep in reports:
                if rep.applicable and rep.holds is False:
                    yield HuntHit(g, profile, rep)

    return scan()
