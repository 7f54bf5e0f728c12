"""Command-line interface.

Subcommands: gen, solve, profile, verify, hunt, decompose, oracle.
Graphs stream one per line (sparse6 or graph6, auto-detected by the
leading ':'), results stream as JSON-Lines.  Exit codes: 0 clean, 2 a
conjecture counterexample was found, 3 a theorem-kind rule was violated
(a solver-bug signal), 1 usage or I/O errors.  Results are
deterministic and ordered by input line.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from typing import Callable, Iterator, Optional, TextIO

from . import corpus, exact, families, gio, oracle, rules, structure
from .errors import (
    BadParameter,
    MalformedProfile,
    NuLabError,
    SinkWriteError,
    UnknownFamily,
)
from .graph import MultiGraph
from .profiling import compute_profile, profile_as_dict, profile_from_dict
from .rules import GraphProfile

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONJECTURE = 2
EXIT_THEOREM = 3


# ---------------------------------------------------------------------------
# input and output


def _open_input(path: Optional[str]) -> TextIO:
    """The input as UTF-8 text.  A byte that does not decode becomes a
    lone surrogate, so only the line holding it fails to parse."""
    if path not in (None, "-"):
        return open(path, "r", encoding="utf-8", errors="surrogateescape")
    if isinstance(sys.stdin, io.TextIOWrapper):
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    return sys.stdin


def _graph(line: str) -> tuple[str, MultiGraph]:
    """(format, graph) of a sparse6 or graph6 line, told apart by the
    leading ':' or '>>sparse6<<'."""
    line = line.strip()
    if line.startswith(":") or line.startswith(">>sparse6<<"):
        return "sparse6", gio.parse_sparse6(line)
    return "graph6", gio.parse_graph6(line)


def _profile(line: str) -> GraphProfile:
    """The profile of a JSON line: a bare profile or an object with a
    "profile" field."""
    try:
        obj = json.loads(line)
        return profile_from_dict(obj.get("profile", obj))
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise MalformedProfile(f"bad profile: {exc!r}") from exc


def _per_line(stream: TextIO, work: Callable[[str], dict]) -> Iterator[dict]:
    """One record per non-blank line of stream, in order: the fields
    work(line) returns for the line as read, or the error of any
    NuLabError it raises."""
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            fields = work(line)
        except NuLabError as exc:
            yield {"line": lineno, "error": str(exc)}
            continue
        yield {"line": lineno, "graph_id": f"line{lineno}", **fields}


def _write_per_line(path: Optional[str], work: Callable[[str], dict]) -> int:
    """Write one record per non-blank line of the input at path."""
    with _open_input(path) as stream:
        for rec in _per_line(stream, work):
            gio.write_record(sys.stdout, rec)
    return EXIT_OK


def _timed(solve: Callable[[MultiGraph, str], dict]) -> Callable[[str], dict]:
    """The work for a graph line: the fields solve(graph, format)
    returns, with the time they took as runtime_us and runtime_ms, both
    truncated from one clock reading."""

    def work(line: str) -> dict:
        fmt, g = _graph(line)
        start = time.perf_counter_ns()
        fields = solve(g, fmt)
        us = (time.perf_counter_ns() - start) // 1000
        return fields | {"runtime_us": us, "runtime_ms": us // 1000}

    return work


# ---------------------------------------------------------------------------
# gen

# family -> (required parameters, constructor taking them in order)
_FAMILIES: dict[str, tuple[tuple[str, ...], Callable]] = {
    "fig1": ((), families.fig1_graph),
    "sylvester10": ((), families.sylvester10),
    "fig3": ((), families.fig3_graph12),
    "petersen": ((), families.petersen),
    "petersen-minus-vertex": ((), families.petersen_minus_vertex),
    "fig5": ((), families.fig5_graph28),
    "k4": ((), families.k4),
    "remark": (("k", "l"), families.remark_family),
    "ring": (("r",), families.ring_of_diamonds),
    "cycle": (("l",), families.cycle),
    "triangle-replace-petersen": (
        (),
        lambda: families.triangle_replace(families.petersen()),
    ),
    "random-trees": (("count", "max_n", "seed"), corpus.random_trees),
    "random-unicyclic": (("count", "max_n", "seed"), corpus.random_unicyclics),
    "cubic": (("max_n",), corpus.connected_cubic_graphs),
}


# the gen parameters that have a default where a family takes them
_GEN_DEFAULTS = {"count": 10, "max_n": 10, "seed": 0}


def _gen_graphs(args: argparse.Namespace) -> list[MultiGraph]:
    if args.family not in _FAMILIES:
        raise UnknownFamily(args.family)
    params, build = _FAMILIES[args.family]
    given = {p: getattr(args, p) for p in ("k", "l", "r", *_GEN_DEFAULTS)}
    for p, value in given.items():
        if p not in params and value is not None:
            raise BadParameter(f"{args.family} does not take --{p.replace('_', '-')}")
    values = [_GEN_DEFAULTS.get(p) if given[p] is None else given[p] for p in params]
    if None in values:
        flags = " and ".join(f"--{p}" for p in params)
        raise BadParameter(f"{args.family} requires {flags}")
    out = build(*values)
    return [out] if isinstance(out, MultiGraph) else list(out)


def _cmd_gen(args: argparse.Namespace) -> int:
    graphs = _gen_graphs(args)
    sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for g in graphs:
            sink.write(gio.emit_sparse6(g) + "\n")
    finally:
        if args.out:
            sink.close()
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve / oracle


# the most values an --all-k range may hold
MAX_ALL_K = 64


def _parse_all_k(spec: str) -> list[int]:
    """A range 'lo..hi' with 1 <= lo <= hi and at most MAX_ALL_K values."""
    lo, sep, hi = spec.partition("..")
    try:
        ks = range(int(lo), int(hi) + 1)
    except ValueError:
        ks = range(0)
    if not sep or not ks or ks[0] < 1:
        raise BadParameter(f"--all-k expects a range like 1..4, got {spec!r}")
    if ks.stop - ks.start > MAX_ALL_K:
        raise BadParameter(f"--all-k takes at most {MAX_ALL_K} values, got {spec!r}")
    return list(ks)


def _cmd_solve(args: argparse.Namespace) -> int:
    ks = _parse_all_k(args.all_k) if args.all_k else None
    if ks and args.certificate:
        raise BadParameter("--certificate needs a single --k, not --all-k")
    if ks and args.k is not None:
        raise BadParameter("--k and --all-k exclude each other")
    one_k = 3 if args.k is None else args.k
    if not ks and one_k < 1:
        raise BadParameter(f"--k must be >= 1, got {one_k}")

    @_timed
    def solve(g: MultiGraph, _: str) -> dict:
        if ks:
            return {f"nu{k}": r.value for k, r in exact.solve_profile(g, ks).items()}
        res = exact.nu_k(g, one_k)
        rec = {"k": one_k, "nu": res.value}
        if args.certificate:
            rec["certificate"] = {
                str(e): c for e, c in sorted(res.certificate.assignment.items())
            }
        return rec

    return _write_per_line(args.input, solve)


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise BadParameter(f"--k must be >= 1, got {args.k}")
    if args.max_edges < 0:
        raise BadParameter(f"--max-edges must be >= 0, got {args.max_edges}")

    @_timed
    def solve(g: MultiGraph, _: str) -> dict:
        nu = oracle.nu_k_oracle(g, args.k, max_edges=args.max_edges)
        return {"k": args.k, "nu": nu}

    return _write_per_line(args.input, solve)


# ---------------------------------------------------------------------------
# profile / verify / hunt / decompose


def _cmd_profile(args: argparse.Namespace) -> int:
    ks = _parse_all_k(args.all_k)

    @_timed
    def profile(g: MultiGraph, fmt: str) -> dict:
        prof = profile_as_dict(compute_profile(g, ks=ks))
        return {"format": fmt, "profile": prof, "rule_reports": ()}

    return _write_per_line(args.input, profile)


def _report_dict(rep: rules.RuleReport) -> dict:
    return {name: v for name, v in rep._asdict().items() if v is not None}


def _cmd_verify(args: argparse.Namespace) -> int:
    rule_ids = rules.check_rule_ids(args.rules.split(",")) if args.rules else None
    if args.profiles and args.all_k is not None:
        raise BadParameter("--profiles reads profiles; it does not take --all-k")
    ks = _parse_all_k(args.all_k or "1..4")
    worst = EXIT_OK

    def verify(line: str) -> dict:
        nonlocal worst
        if args.profiles:
            profile = _profile(line)
        else:
            profile = compute_profile(_graph(line)[1], ks=ks)
        reports = rules.evaluate_all(profile, rule_ids)
        for rep in reports:
            if rep.applicable and rep.holds is False:
                if rep.kind in rules.THEOREM_KINDS:
                    worst = EXIT_THEOREM
                elif worst == EXIT_OK:
                    worst = EXIT_CONJECTURE
        return {"rule_reports": [_report_dict(r) for r in reports]}

    _write_per_line(args.input, verify)
    return worst


def _cmd_hunt(args: argparse.Namespace) -> int:
    ks = _parse_all_k(args.all_k)
    lineno = 0

    def graphs(stream: TextIO) -> Iterator[MultiGraph]:
        # a line that does not parse gets its error record when drawn
        nonlocal lineno
        for rec in _per_line(stream, lambda line: {"graph": _graph(line)[1]}):
            lineno = rec["line"]
            if "error" in rec:
                gio.write_record(sys.stdout, rec)
            else:
                yield rec["graph"]

    with _open_input(args.input) as stream:
        # hunt yields every result for a graph before drawing the next
        # one, so lineno is the line of the graph each result is about
        results = rules.hunt(
            graphs(stream), args.rule, args.budget, lambda g: compute_profile(g, ks=ks)
        )
        gio.write_record(
            sys.stdout,
            {
                "header": True,
                "rules": sorted(args.rule or rules.CONJECTURE_IDS),
                "note": (
                    "desk-scale corpus; the full-scale verification "
                    "(e.g. all bridgeless cubic graphs up to n = 26) is not reproduced"
                ),
            },
        )
        found = False
        for res in results:
            if isinstance(res, rules.HuntError):
                gio.write_record(sys.stdout, {"line": lineno, "error": str(res.error)})
                continue
            found = True
            gio.write_record(
                sys.stdout,
                {
                    "line": lineno,
                    "counterexample": gio.emit_sparse6(res.graph),
                    "profile": profile_as_dict(res.profile),
                    "rule_report": _report_dict(res.report),
                },
            )
            if args.fail_on_violation:
                return EXIT_CONJECTURE
    return EXIT_CONJECTURE if found else EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    @_timed
    def decompose(g: MultiGraph, _: str) -> dict:
        dec = structure.oum_decompose(g)
        rec = {
            "variant": dec.variant.value,
            "base_n": dec.base_graph.n,
            "base_m": dec.base_graph.m,
            "diamonds": dec.total_diamonds,
        }
        if args.r3:
            rec["r3"] = structure.r3_via_reduction(g)
        return rec

    return _write_per_line(args.input, decompose)


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="nulab")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="emit family/corpus graphs as sparse6")
    p.add_argument("family")
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--count", type=int, help="default 10")
    p.add_argument("--max-n", type=int, help="default 10")
    p.add_argument("--seed", type=int, help="default 0")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="exact nu_k per input graph")
    p.add_argument("input", nargs="?")
    p.add_argument("--k", type=int, help="default 3")
    p.add_argument("--all-k", default=None, help="range like 1..4")
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("profile", help="full exact profile per input graph")
    p.add_argument("input", nargs="?")
    p.add_argument("--all-k", default="1..4")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("verify", help="evaluate the rule registry")
    p.add_argument("input", nargs="?")
    p.add_argument("--rules", default=None, help="comma-separated rule ids")
    p.add_argument("--all-k", help="default 1..4; not with --profiles")
    p.add_argument(
        "--profiles",
        action="store_true",
        help="input lines are JSON profiles instead of graphs",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("hunt", help="scan a corpus for conjecture counterexamples")
    p.add_argument("input", nargs="?")
    p.add_argument("--rule", action="append", default=None)
    p.add_argument("--all-k", default="1..4")
    p.add_argument(
        "--budget", type=int, default=None, help="profile at most this many graphs"
    )
    p.add_argument("--fail-on-violation", action="store_true")
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("decompose", help="claw-free cubic decomposition")
    p.add_argument("input", nargs="?")
    p.add_argument("--r3", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("oracle", help="independent exhaustive nu_k")
    p.add_argument("input", nargs="?")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--max-edges", type=int, default=oracle.DEFAULT_MAX_EDGES)
    p.set_defaults(func=_cmd_oracle)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BadParameter, UnknownFamily) as exc:
        print(f"{args.subcommand}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, SinkWriteError) as exc:
        print(f"nulab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
