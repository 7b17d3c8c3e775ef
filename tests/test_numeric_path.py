"""A point and a batch take one numeric path: no module of the package
picks ``math`` for a float and numpy for a batch, and the jet and field
layers compute elementary functions through numpy alone, so that a batch
row is bit for bit its own point.  Every library field writes
``evaluate_many`` alone, so that no field evaluates point by point."""

import ast
from pathlib import Path

import condsym

SRC = Path(condsym.__file__).resolve().parent

# the elementary functions whose ``math`` and numpy forms can differ in
# the last bit
_ELEMENTARY = {"exp", "log", "sqrt", "sin", "cos", "atan", "atan2", "pow"}
# the modules that build jets and field values
_NUMERIC = ("jet2.py", "fields.py")


def _names_mathlib(node):
    name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
    return name == "mathlib"


def _math_elementary(node):
    """Whether ``node`` calls ``math.<f>`` or imports ``<f>`` from ``math``
    for an elementary function ``f``, or imports ``math`` into jet2."""
    if isinstance(node, ast.Call):
        f = node.func
        return (isinstance(f, ast.Attribute) and f.attr in _ELEMENTARY
                and isinstance(f.value, ast.Name) and f.value.id == "math")
    if isinstance(node, ast.ImportFrom):
        return node.module == "math" and any(a.name in _ELEMENTARY for a in node.names)
    return False


def two_paths(src=SRC):
    """(file name, line) of each name ``mathlib`` in the modules of
    ``src``, and of each ``math`` elementary function called or imported
    in its jet and field modules."""
    out = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if _names_mathlib(node) or (path.name in _NUMERIC and _math_elementary(node)):
                out.append((path.name, node.lineno))
    return sorted(out)


def imports_math(path):
    """Whether the module at ``path`` imports ``math`` or from it."""
    return any(
        isinstance(node, ast.Import) and any(a.name == "math" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "math"
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_a_point_and_a_batch_take_one_numeric_path():
    assert two_paths() == []
    assert not imports_math(SRC / "jet2.py")


def test_the_scan_flags_each_second_path(tmp_path):
    # a negative control: a definition, a call and an attribute named
    # mathlib anywhere, and a math elementary function called or imported
    # in jet2.py or fields.py, are flagged; math.isfinite there, and
    # math.exp in another module, are not
    (tmp_path / "jet2.py").write_text(
        "import math\n"
        "def mathlib(v):\n"
        "    return math\n"
        "def f(v):\n"
        "    return math.exp(v) + mathlib(v).sin(v)\n"
    )
    (tmp_path / "fields.py").write_text(
        "import math\n"
        "from math import atan2\n"
        "def g(v):\n"
        "    return math.sqrt(v) if math.isfinite(v) else jet2.mathlib\n"
    )
    (tmp_path / "verify.py").write_text(
        "import math\n"
        "def h(v):\n"
        "    return math.exp(v)\n"
    )
    assert two_paths(tmp_path) == [
        ("fields.py", 2), ("fields.py", 4), ("fields.py", 4),
        ("jet2.py", 2), ("jet2.py", 5), ("jet2.py", 5),
    ]
    assert imports_math(tmp_path / "jet2.py") and imports_math(tmp_path / "fields.py")
    (tmp_path / "numpy_only.py").write_text("import numpy as np\n")
    assert not imports_math(tmp_path / "numpy_only.py")


def scalar_fields(src=SRC):
    """{class name: (file name, names of its methods)} of each subclass of
    ``ScalarField`` in the modules of ``src``, direct or through another."""
    classes = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = {getattr(b, "id", None) or getattr(b, "attr", None) for b in node.bases}
                methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                classes[node.name] = (path.name, bases, methods)
    fields = {"ScalarField"}
    while new := {n for n, (_, bases, _) in classes.items() if bases & fields} - fields:
        fields |= new
    return {n: (classes[n][0], classes[n][2]) for n in fields - {"ScalarField"}}


def field_faults(src=SRC):
    """(file name, class name, fault) of each field in the modules of
    ``src`` that defines ``evaluate``, or does not define ``evaluate_many``."""
    out = []
    for name, (file, methods) in scalar_fields(src).items():
        if "evaluate" in methods:
            out.append((file, name, "defines evaluate"))
        if "evaluate_many" not in methods:
            out.append((file, name, "lacks evaluate_many"))
    return sorted(out)


def test_library_fields_write_evaluate_many_only():
    assert set(scalar_fields()) == {"PushforwardField", "RandomPolynomialField", "SolutionField"}
    assert field_faults() == []


def test_the_scan_flags_each_field_that_writes_evaluate(tmp_path):
    # a negative control: a field that defines evaluate, one that defines
    # neither method, and one that inherits a field, are flagged; a field
    # that writes evaluate_many alone, and a class that is no field, are not
    (tmp_path / "fields.py").write_text(
        "class ScalarField:\n"
        "    def evaluate(self, params, point): ...\n"
        "    def evaluate_many(self, params, coords): ...\n"
        "class Good(ScalarField):\n"
        "    def evaluate_many(self, params, coords): ...\n"
        "class Both(ScalarField):\n"
        "    def evaluate(self, params, point): ...\n"
        "    def evaluate_many(self, params, coords): ...\n"
    )
    (tmp_path / "other.py").write_text(
        "from . import fields\n"
        "class PointOnly(fields.ScalarField):\n"
        "    def evaluate(self, params, point): ...\n"
        "class Derived(Good):\n"
        "    pass\n"
        "class NoField:\n"
        "    def evaluate(self, params, point): ...\n"
    )
    assert set(scalar_fields(tmp_path)) == {"Good", "Both", "PointOnly", "Derived"}
    assert field_faults(tmp_path) == [
        ("fields.py", "Both", "defines evaluate"),
        ("other.py", "Derived", "lacks evaluate_many"),
        ("other.py", "PointOnly", "defines evaluate"),
        ("other.py", "PointOnly", "lacks evaluate_many"),
    ]
