"""Locate and import the condsym sources of the checkout the benchmark sits in.

The package is imported from ``<checkout>/src`` and nowhere else, so an
installed copy can never stand in for the code under test.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODULES = ("jet2", "_kernels", "fields", "operators", "symmetry", "solutions", "verify", "cli")


class MissingProgram(RuntimeError):
    pass


def load():
    """Import condsym from the checkout; a namespace of its modules."""
    if not (SRC / "condsym" / "__init__.py").is_file():
        raise MissingProgram(f"no condsym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("condsym")
    if Path(pkg.__file__).resolve().parent != SRC / "condsym":
        raise MissingProgram(f"condsym imported from {pkg.__file__}, not {SRC}")
    ns = SimpleNamespace(
        **{m: importlib.import_module(f"condsym.{m}") for m in MODULES}
    )
    ns.Point = pkg.Point
    ns.ModelParams = pkg.ModelParams
    ns.DomainError = pkg.DomainError
    return ns
