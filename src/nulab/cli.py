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
import json
import sys
import time
from typing import Callable, Iterator, Optional, TextIO

from . import corpus, exact, families, gio, oracle, rules, structure
from .errors import (
    BadParameter,
    MalformedGraph6,
    MalformedSparse6,
    LoopRejected,
    MissingProfileField,
    NotInClass,
    SinkWriteError,
    TooLarge,
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


def _read_graphs(stream: TextIO) -> Iterator[tuple[int, str, MultiGraph]]:
    """(line number, format, graph) per graph line; a line that does not
    parse gets an error record instead."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        sparse = line.startswith(":") or line.startswith(">>sparse6<<")
        try:
            g = gio.parse_sparse6(line) if sparse else gio.parse_graph6(line)
        except (MalformedGraph6, MalformedSparse6, LoopRejected) as exc:
            gio.write_record(sys.stdout, {"line": lineno, "error": str(exc)})
            continue
        yield lineno, "sparse6" if sparse else "graph6", g


def _read_profiles(stream: TextIO) -> Iterator[tuple[int, GraphProfile]]:
    """(line number, profile) per JSON profile line (a bare profile or an
    object with a "profile" field); a line that does not parse gets an
    error record instead."""
    for lineno, raw in enumerate(stream, start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
            profile = profile_from_dict(obj.get("profile", obj))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            error = f"bad profile: {exc!r}"
            gio.write_record(sys.stdout, {"line": lineno, "error": error})
            continue
        yield lineno, profile


def _computed_profiles(
    stream: TextIO, ks: list[int]
) -> Iterator[tuple[int, GraphProfile]]:
    """(line number, profile) per graph line; a graph too large to
    profile gets an error record instead."""
    for lineno, _, g in _read_graphs(stream):
        try:
            profile = compute_profile(g, ks=ks)
        except TooLarge as exc:
            gio.write_record(sys.stdout, {"line": lineno, "error": str(exc)})
            continue
        yield lineno, profile


def _open_input(path: Optional[str]) -> TextIO:
    if path in (None, "-"):
        return sys.stdin
    return open(path, "r", encoding="utf-8")


def _runtime(start_ns: int) -> dict[str, int]:
    """runtime_us and runtime_ms since start_ns (a perf_counter_ns
    reading), both truncated from one clock reading."""
    us = (time.perf_counter_ns() - start_ns) // 1000
    return {"runtime_us": us, "runtime_ms": us // 1000}


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


def _gen_graphs(args: argparse.Namespace) -> list[MultiGraph]:
    if args.family not in _FAMILIES:
        raise UnknownFamily(args.family)
    params, build = _FAMILIES[args.family]
    values = [getattr(args, p) for p in params]
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


def _write_per_line(
    path: Optional[str], solve: Callable[[MultiGraph, str], dict]
) -> int:
    """One record per graph line of the input: the fields solve(graph,
    format) returns, with the time they took.  A graph outside the
    solver's class or too large for it gets an error record instead."""
    with _open_input(path) as stream:
        for lineno, fmt, g in _read_graphs(stream):
            start = time.perf_counter_ns()
            try:
                fields = solve(g, fmt)
            except (NotInClass, TooLarge) as exc:
                gio.write_record(sys.stdout, {"line": lineno, "error": str(exc)})
                continue
            rec = {"line": lineno, "graph_id": f"line{lineno}", **fields}
            gio.write_record(sys.stdout, rec | _runtime(start))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    ks = _parse_all_k(args.all_k) if args.all_k else None
    if ks and args.certificate:
        raise BadParameter("--certificate needs a single --k, not --all-k")
    if not ks and args.k < 1:
        raise BadParameter(f"--k must be >= 1, got {args.k}")

    def solve(g: MultiGraph, _: str) -> dict:
        if ks:
            return {f"nu{k}": r.value for k, r in exact.solve_profile(g, ks).items()}
        res = exact.nu_k(g, args.k)
        rec = {"k": args.k, "nu": res.value}
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
    return _write_per_line(
        args.input,
        lambda g, _: {
            "k": args.k,
            "nu": oracle.nu_k_oracle(g, args.k, max_edges=args.max_edges),
        },
    )


# ---------------------------------------------------------------------------
# profile / verify / hunt / decompose


def _cmd_profile(args: argparse.Namespace) -> int:
    ks = _parse_all_k(args.all_k)
    return _write_per_line(
        args.input,
        lambda g, fmt: {
            "format": fmt,
            "profile": profile_as_dict(compute_profile(g, ks=ks)),
            "rule_reports": (),
        },
    )


def _report_dict(rep: rules.RuleReport) -> dict:
    return {name: v for name, v in rep._asdict().items() if v is not None}


def _cmd_verify(args: argparse.Namespace) -> int:
    rule_ids = rules.check_rule_ids(args.rules.split(",")) if args.rules else None
    ks = _parse_all_k(args.all_k)
    worst = EXIT_OK
    with _open_input(args.input) as stream:
        items = (
            _read_profiles(stream) if args.profiles else _computed_profiles(stream, ks)
        )
        for lineno, profile in items:
            try:
                reports = rules.evaluate_all(profile, rule_ids)
            except MissingProfileField as exc:
                gio.write_record(sys.stdout, {"line": lineno, "error": str(exc)})
                continue
            for rep in reports:
                if rep.applicable and rep.holds is False:
                    if rep.kind in rules.THEOREM_KINDS:
                        worst = EXIT_THEOREM
                    elif worst == EXIT_OK:
                        worst = EXIT_CONJECTURE
            gio.write_record(
                sys.stdout,
                {
                    "line": lineno,
                    "graph_id": f"line{lineno}",
                    "rule_reports": [_report_dict(r) for r in reports],
                },
            )
    return worst


def _cmd_hunt(args: argparse.Namespace) -> int:
    ks = _parse_all_k(args.all_k)
    lineno = 0

    def graphs(stream: TextIO) -> Iterator[MultiGraph]:
        nonlocal lineno
        for lineno, _, g in _read_graphs(stream):
            yield g

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
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="exact nu_k per input graph")
    p.add_argument("input", nargs="?")
    p.add_argument("--k", type=int, default=3)
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
    p.add_argument("--all-k", default="1..4")
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
