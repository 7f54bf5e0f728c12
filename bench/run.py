"""nulab benchmark: one workload per process, or every workload with --all.

    python3 bench/run.py --workload cubic_scan --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --all --seed 0 --seconds 36 [--out bench/baseline/seed_state.json]

A run builds its inputs from --seed, repeats whole passes over them until
--seconds is used up (at least two passes), checks every output, prints every
metric with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced and
one traced pass and reports the per-layer metrics from the traced one.
The package is imported from src/ of the checkout the script sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import DATA, WORK, MissingPackage, import_nulab

SETUP_PROBES = 9
# Every timed item is measured at least twice.
MIN_PASSES = 2
END_TO_END = (  # name, unit
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("graphs_per_s", "1/s"),
    ("graph_p50_ms", "ms"),
    ("graph_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)
EXTRA_UNITS = {"census_s": "s", "cli_graphs_per_s": "1/s", "bb_graphs_per_s": "1/s",
               "failed_frac": "frac", "graph_tail_pct": "%", "graph_samples": "count",
               "passes": "count"}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def per_item_median(passes) -> list[float]:
    return [statistics.median(ts) for ts in zip(*(p.item_s for p in passes))]


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import nulab and build
    the workload's inputs.  No timeout: with one, subprocess polls the child
    in steps of up to 50 ms, which would quantise the result."""
    times = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, env=_env())
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _env() -> dict:
    env = dict(os.environ)
    env.pop("NU_LAB_THREADS", None)
    return env


def load_workload(name: str, seed: int):
    import_nulab()
    import workloads

    reference = json.loads((DATA / "reference.json").read_text(encoding="utf-8"))
    w = workloads.WORKLOADS[name](seed, reference)
    w.build()
    return w


def run_passes(w, seconds: float) -> list:
    """At least MIN_PASSES whole passes, then more while the next one is
    expected to end within `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(w.run_pass(traced=False))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end(w, passes, setup_s: float) -> tuple[dict, dict]:
    items = per_item_median(passes)
    tail_ms, tail_pct = tail(items)

    def med(phase: str) -> float:
        return statistics.median(p.phases[phase] for p in passes)

    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "graphs_per_s": len(items) / statistics.median(sum(p.item_s) for p in passes),
        "graph_p50_ms": 1000 * statistics.median(items),
        "graph_tail_ms": 1000 * tail_ms,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"graph_tail_pct": tail_pct, "graph_samples": len(items), "passes": len(passes)}
    if "census" in passes[0].phases:
        extra["census_s"] = med("census")
    if "cli" in passes[0].phases:
        extra["cli_graphs_per_s"] = len(w.census) / med("cli")
    if "bb" in passes[0].phases:
        extra["bb_graphs_per_s"] = len(w.stream) / med("bb")
    return metrics, extra


def traced(w) -> tuple[dict, dict, list]:
    from tracer import Tracer

    plain = w.run_pass(traced=True)
    tracer = Tracer()
    tracer.install()
    try:
        t = time.perf_counter()
        traced_pass = w.run_pass(traced=True)
        traced_s = time.perf_counter() - t
    finally:
        tracer.uninstall()
    overhead = traced_pass.wall_s / plain.wall_s - 1
    tracer.write_spans(WORK / f"spans-{w.name}-{w.seed}.jsonl")
    extra = {"traced_pass_s": traced_s, "spans": len(tracer.spans)}
    return tracer.layer_metrics(overhead), extra, [plain, traced_pass]


def run_one(args) -> int:
    from tracer import metric_specs

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    w = load_workload(args.workload, args.seed)
    try:
        if args.trace:
            metrics, extra, passes = traced(w)
            units = {name: unit for name, unit, _ in metric_specs()}
        else:
            passes = run_passes(w, args.seconds)
            metrics, extra = end_to_end(w, passes, setup_s)
            units = dict(END_TO_END)
    finally:
        w.close()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    extra["failed_frac"] = failed / attempted
    if passes[0].nodes:
        extra["nodes"] = passes[0].nodes
    header = env_info(args.seed)
    print(" ".join(f"{k}={v}" for k, v in header.items()) + f" workload={w.name} trace={args.trace}")
    for name, value in {**metrics, **extra}.items():
        if isinstance(value, dict):
            print(f"{name} {json.dumps(value)}")
        else:
            print(f"{name} {value:.6g} {units.get(name, EXTRA_UNITS.get(name, ''))}")
    for p in passes:
        for err in p.errors:
            print(f"FAILED {err}")
    print("detail " + json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace,
                                  "env": header, "extra": extra}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def env_info(seed: int) -> dict:
    import networkx

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "networkx": networkx.__version__, "seed": seed,
            "NU_LAB_THREADS": os.environ.get("NU_LAB_THREADS", "unset")}


def run_all(args) -> int:
    """Every workload, end to end then traced, one child process at a time."""
    import workloads

    out = {"env": None, "seconds": args.seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        row = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, env=_env(), timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            lines = proc.stdout.splitlines()
            detail = json.loads(next(l for l in lines if l.startswith("detail "))[7:])
            result = json.loads(lines[-1])
            out["env"] = detail["env"]
            row[f"trace{trace}"] = {**result, "extra": detail["extra"]}
        out["workloads"][name] = row
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("cubic_scan", "sparse_scan", "hard_solve"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, both modes")
    ap.add_argument("--out", help="with --all: write the combined results here")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    os.environ.pop("NU_LAB_THREADS", None)
    try:
        import_nulab()
        if not (DATA / "reference.json").is_file():
            raise MissingPackage(f"missing {DATA / 'reference.json'}")
    except MissingPackage as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    if args.setup_probe:
        load_workload(args.workload, args.seed).close()
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
