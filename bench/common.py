"""Paths and the import of the package under test, shared by the bench scripts."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"
WORK = ROOT / ".bench_work"


class MissingPackage(RuntimeError):
    pass


def import_nulab():
    """Import nulab from this checkout's src/, never from anywhere else."""
    if not (SRC / "nulab" / "__init__.py").is_file():
        raise MissingPackage(f"no package at {SRC / 'nulab'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import nulab

    if Path(nulab.__file__).resolve().parent != (SRC / "nulab").resolve():
        raise MissingPackage(f"nulab imported from {nulab.__file__}, not {SRC}")
    return nulab
