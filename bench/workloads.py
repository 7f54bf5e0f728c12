"""The three workloads: inputs from the seed, one timed pass, correctness checks.

cubic_scan   the paper's main use: census generation, exact profiles plus rule
             verdicts over the n <= 12 census and random cubic graphs, and the
             census through the `nulab verify` CLI.  The only workload that
             runs corpus, o(G) enumeration and the CLI/gio path.  The random
             graphs stay out of the CLI phase: sparse6 sorts edges, and in that
             order one of 12 random n = 28 graphs took 120 s, while in sorted
             order none of them took over 0.15 s.
sparse_scan  the criterion-4/5 corpora: random trees and unicyclic multigraphs,
             profiled on the polynomial route, then re-solved by branch and
             bound (thousands of tiny solves; the decision search does little).
hard_solve   a few deep branch-and-bound solves at k = 2 and 3; poly, corpus,
             o(G) and the CLI never run, so it is the no-change workload for
             those layers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import inputs
from common import SRC, WORK

# Per-graph profile times have a heavy tail that grows with n (500 graphs
# per n: p99/median is 3 at n = 14, 8 at n = 18, 29 at n = 22), and
# graph_tail_ms is the 11th-largest time, so it is set by the few slowest
# random graphs.  With 16 graphs for each n = 14..20 its ten-seed spread was
# 0.23; with 48 for each n = 14, 16 it is about 0.1 from the inputs alone.
CUBIC_RANDOM_NS = (14, 16)
CUBIC_RANDOM_PER_N = 48
CUBIC_KS = (1, 2, 3, 4)
CENSUS_MAX_N = 10
CENSUS_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19}  # OEIS A002851

SPARSE_TREES = (500, 20)  # (count, max n)
SPARSE_UNICYCLICS = (500, 18)
SPARSE_KS = (1, 2, 3, 4, 5)

HARD_PINNED_KS = (2, 3)
# Random graphs are solved at k = 2 only.  Over 40 seeds, random n = 32 at
# k = 3 needed more search nodes than the pinned triangle-replaced Petersen
# (14,622) in 8 seeds, up to 129k; random n = 50 took 4 ms to 22 s at k = 3.
# Such seeds would move wall_s by more than any bound.
HARD_RANDOM = ((32, (2,)), (40, (2,)))  # (n, ks), one graph per n
# The n50 solve at k = 3 (735,071 nodes, 8-17 s) runs only in the traced run,
# where exact.nodes counts it.  With it in every pass, a pass took 15-20 s,
# only two fit in a run, and the short solves were sampled in a few seconds of
# it: graph_p50_ms spread by 0.21-0.25 over ten seeds on a shared 2-vCPU host.
# Without it a pass takes about 2 s and every solve is timed in each of 15-20
# passes spread over the run.
HARD_TRACED_ONLY = {("n50", 3)}


now = time.perf_counter


@dataclass
class PassResult:
    phases: dict[str, float] = field(default_factory=dict)  # phase -> seconds
    item_s: list[float] = field(default_factory=list)  # API loop, one per item
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    nodes: dict[str, int] = field(default_factory=dict)  # hard_solve: search nodes per instance

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {'; '.join(errors)}")

    @property
    def wall_s(self) -> float:
        return sum(self.phases.values())


# ---------------------------------------------------------------------------
# shared checks


def check_certificate(g, k: int, res) -> list[str]:
    errs = []
    cert = res.certificate
    if cert.k != k or not cert.is_proper(g):
        errs.append(f"k={k} certificate is not a proper {k}-colouring")
    if cert.colored_count != res.value:
        errs.append(f"k={k} certificate colours {cert.colored_count} edges, value {res.value}")
    trivial = min(g.m, sum(min(d, k) for d in g.degrees()) // 2)
    if res.value > trivial:
        errs.append(f"k={k} value {res.value} exceeds the trivial bound {trivial}")
    return errs


def compare(got: dict, want: dict | None) -> list[str]:
    if want is None:
        return []
    return [f"{key}={got.get(key)} expected {val}" for key, val in want.items()
            if got.get(key) != val]


def profile_values(p) -> dict:
    out = {f"nu{k}": v for k, v in p.nu.items()}
    if p.r3 is not None:
        out["r3"] = p.r3
    if p.oG is not None:
        out["oG"] = p.oG
    return out


def profile_errors(p, reps) -> list[str]:
    errs = [f"theorem-kind rule {r.rule_id} violated" for r in reps
            if r.kind != "conjecture" and r.applicable and r.holds is False]
    ks = sorted(p.nu)
    if any(p.nu[a] > p.nu[b] for a, b in zip(ks, ks[1:])):
        errs.append("nu_k not monotone in k")
    if p.flags.cubic and p.oG is not None and p.r3 is not None and (p.r3 == 0) != (p.oG == 0):
        errs.append(f"r3={p.r3} but oG={p.oG}: r3 = 0 iff an even 2-factor exists")
    return errs


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def __init__(self, seed: int, reference: dict | None):
        """reference is the parsed data/reference.json; None leaves every
        expected value unset (used when the reference is being made)."""
        self.seed = seed
        self.reference = reference

    def expected(self, key: str, seeded: int) -> tuple[dict, list]:
        """(this workload's reference section, expected values of its
        `seeded` seed-dependent items: known only for the reference seed)."""
        ref = (self.reference or {}).get(self.name, {})
        if ref.get("seed") == self.seed:
            return ref, ref[key]
        return ref, [None] * seeded

    def build(self) -> None:
        raise NotImplementedError

    def run_pass(self, traced: bool) -> PassResult:
        """One pass over the inputs.  traced is True in the traced run: there
        the CLI runs in-process, so its spans nest, and hard_solve adds the
        solves in HARD_TRACED_ONLY."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class CubicScan(Workload):
    name = "cubic_scan"

    def build(self) -> None:
        self.census = inputs.census12()
        rng = random.Random(self.seed)
        self.random = [inputs.random_connected_cubic(n, rng)
                       for n in CUBIC_RANDOM_NS for _ in range(CUBIC_RANDOM_PER_N)]
        self.stream = self.census + self.random
        ref, random_want = self.expected("random", len(self.random))
        self.want = ref.get("census12", [None] * len(self.census)) + random_want
        WORK.mkdir(exist_ok=True)
        self.stream_file = WORK / f"cubic_scan-{self.seed}-{os.getpid()}.s6"

    def close(self) -> None:
        self.stream_file.unlink(missing_ok=True)

    def run_pass(self, traced: bool) -> PassResult:
        from nulab import corpus, profiling, rules

        res = PassResult()
        t = now()
        census = corpus.connected_cubic_graphs(CENSUS_MAX_N)
        res.phases["census"] = now() - t
        got = dict(sorted(Counter(g.n for g in census).items()))
        res.record("census", [] if got == CENSUS_COUNTS else [f"per-order counts {got}"])

        for i, (g, want) in enumerate(zip(self.stream, self.want)):
            t = now()
            try:
                p = profiling.compute_profile(g, ks=CUBIC_KS, include_o=True)
                reps = rules.evaluate_all(p)
            except Exception as exc:  # a failing graph is counted, the scan goes on
                res.item_s.append(now() - t)
                res.record(f"graph {i}", [repr(exc)])
                continue
            res.item_s.append(now() - t)
            res.record(f"graph {i}", profile_errors(p, reps) + compare(profile_values(p), want))
        res.phases["api"] = sum(res.item_s)

        t = now()
        code, out = self._cli(in_process=traced)
        res.phases["cli"] = now() - t
        self._check_cli(res, code, out)
        return res

    def _cli(self, in_process: bool) -> tuple[int, str]:
        from nulab import gio

        self.stream_file.write_text("".join(gio.emit_sparse6(g) + "\n" for g in self.census),
                                    encoding="ascii")
        argv = ["verify", str(self.stream_file)]
        if in_process:
            from nulab import cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("NU_LAB_THREADS", None)
        proc = subprocess.run([sys.executable, "-m", "nulab.cli", *argv], env=env,
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def _check_cli(self, res: PassResult, code: int, out: str) -> None:
        records = {}
        for line in out.splitlines():
            try:
                rec = json.loads(line)
                records[int(rec["line"])] = rec
            except (ValueError, KeyError, TypeError):
                continue
        for lineno in range(1, len(self.census) + 1):
            rec = records.get(lineno)
            if rec is None or "rule_reports" not in rec:
                res.record(f"cli line {lineno}", ["no rule_reports record"])
                continue
            bad = [r["rule_id"] for r in rec["rule_reports"]
                   if r.get("kind") != "conjecture" and r.get("applicable") and r.get("holds") is False]
            res.record(f"cli line {lineno}", [f"theorem-kind rules violated: {bad}"] if bad else [])
        extra = set(records) - set(range(1, len(self.census) + 1))
        res.record("cli exit", ([f"exit code {code}"] if code != 0 else [])
                   + ([f"unexpected records {sorted(extra)}"] if extra else []))


class SparseScan(Workload):
    name = "sparse_scan"

    def build(self) -> None:
        from nulab import corpus

        tree_seed, uni_seed = inputs.derived_seeds(self.seed, 2)
        self.stream = (list(corpus.random_trees(*SPARSE_TREES, tree_seed))
                       + list(corpus.random_unicyclics(*SPARSE_UNICYCLICS, uni_seed)))
        self.want = self.expected("graphs", len(self.stream))[1]

    def run_pass(self, traced: bool) -> PassResult:
        from nulab import exact, profiling, rules

        res = PassResult()
        profiles = []
        for i, (g, want) in enumerate(zip(self.stream, self.want)):
            t = now()
            try:
                p = profiling.compute_profile(g, ks=SPARSE_KS)
                reps = rules.evaluate_all(p)
            except Exception as exc:  # a failing graph is counted, the scan goes on
                res.item_s.append(now() - t)
                res.record(f"graph {i}", [repr(exc)])
                profiles.append(None)
                continue
            res.item_s.append(now() - t)
            profiles.append(p)
            res.record(f"graph {i}", profile_errors(p, reps) + compare(profile_values(p), want))
        res.phases["poly"] = sum(res.item_s)

        bb_s = 0.0
        for i, (g, p) in enumerate(zip(self.stream, profiles)):
            errs = []
            for k in SPARSE_KS:
                t = now()
                try:
                    r = exact.nu_k(g, k, use_poly=False)
                except Exception as exc:  # a failing graph is counted, the scan goes on
                    bb_s += now() - t
                    errs.append(f"k={k}: {exc!r}")
                    continue
                bb_s += now() - t
                errs += check_certificate(g, k, r)
                if p is not None and r.value != p.nu[k]:
                    errs.append(f"k={k}: branch and bound {r.value} != poly {p.nu[k]}")
            res.record(f"bb graph {i}", errs)
        res.phases["bb"] = bb_s
        return res


class HardSolve(Workload):
    name = "hard_solve"

    def build(self) -> None:
        from nulab import families

        pinned = {"fig5": families.fig5_graph28(),
                  "trp": families.triangle_replace(families.petersen()),
                  "n50": inputs.n50_nx_seed0()}
        ref, random_want = self.expected("random", sum(len(ks) for _, ks in HARD_RANDOM))
        pinned_want = ref.get("pinned", {})
        self.instances = [(name, g, k, pinned_want.get(name, {}).get(str(k)))
                          for name, g in pinned.items() for k in HARD_PINNED_KS]
        rng = random.Random(self.seed)
        wants = iter(random_want)
        for n, ks in HARD_RANDOM:
            g = inputs.random_connected_cubic(n, rng)
            self.instances += [(f"random n={n}", g, k, next(wants)) for k in ks]

    def run_pass(self, traced: bool) -> PassResult:
        from nulab import exact

        res = PassResult()
        start = now()
        for name, g, k, want in self.instances:
            if not traced and (name, k) in HARD_TRACED_ONLY:
                continue
            t = now()
            try:
                r = exact.nu_k(g, k)
            except Exception as exc:  # a failing instance is counted, the run goes on
                dt = now() - t
                res.record(f"{name} k={k}", [repr(exc)])
            else:
                dt = now() - t
                res.nodes[f"{name} k={k}"] = r.node_count
                errs = check_certificate(g, k, r)
                if want is not None and r.value != want:
                    errs.append(f"nu{k}={r.value} expected {want}")
                res.record(f"{name} k={k}", errs)
            # A random solve that lands between the pinned ones would move
            # graph_p50_ms by half, so the per-solve metrics use pinned solves.
            if not name.startswith("random"):
                res.item_s.append(dt)
        res.phases["solve"] = now() - start
        return res


WORKLOADS = {w.name: w for w in (CubicScan, SparseScan, HardSolve)}
