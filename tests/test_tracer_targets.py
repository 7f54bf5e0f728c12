"""Every function the benchmark's tracer wraps must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for label, modname, attr in tracer.TARGETS:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), label
