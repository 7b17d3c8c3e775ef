"""No module of the package walks a batch row by row in Python: a loop
over ``.tolist()`` is the shape such a loop takes, and a batch goes
through numpy instead."""

import ast
from pathlib import Path

import condsym

SRC = Path(condsym.__file__).resolve().parent


def _over_tolist(node):
    """Whether ``node`` is a ``for`` statement or a comprehension clause
    that iterates over a ``.tolist()`` call."""
    if not isinstance(node, (ast.For, ast.comprehension)):
        return False
    it = node.iter
    return isinstance(it, ast.Call) and getattr(it.func, "attr", None) == "tolist"


def row_loops(src=SRC):
    """(file name, line of the iterated call) of each loop over
    ``.tolist()`` in the modules of ``src``."""
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if _over_tolist(node):
                out.append((path.name, node.iter.lineno))
    return sorted(out)


def test_no_module_loops_over_the_rows_of_a_batch():
    assert row_loops() == []


def test_the_row_loop_scan_flags_each_loop_over_tolist(tmp_path):
    # a negative control: a for statement and a comprehension over
    # ``.tolist()`` are flagged; a call of ``.tolist()`` that is not
    # iterated, and a loop over ``range``, are not
    (tmp_path / "a.py").write_text(
        "def f(base):\n"
        "    out = []\n"
        "    for b in base.tolist():\n"
        "        out.append(b ** 2)\n"
        "    return out\n"
        "\n"
        "def g(base):\n"
        "    return [b ** 2 for b in base.tolist()]\n"
    )
    (tmp_path / "b.py").write_text(
        "def h(base):\n"
        "    rows = tuple(base.tolist())\n"
        "    for i in range(3):\n"
        "        rows += (i,)\n"
        "    return rows\n"
    )
    assert row_loops(tmp_path) == [("a.py", 3), ("a.py", 8)]
