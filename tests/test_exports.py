"""Every name a module exports is reached: from the library itself, or
as the package's own API; and every module-level private name is read."""

import ast
from pathlib import Path

import condsym

SRC = Path(condsym.__file__).resolve().parent


def _bound(stmt):
    """The names that the top-level statement ``stmt`` binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _defines(stmt, name):
    return name in _bound(stmt)


def _reads(stmt):
    """The names that ``stmt`` reads, bare or as an attribute; an import,
    a docstring or a string in ``__all__`` reads none."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _trees(src):
    return {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}


def _exports(tree):
    for stmt in tree.body:
        if _defines(stmt, "__all__"):
            return [elt.value for elt in stmt.value.elts]
    return []


def unreachable_exports(src=SRC):
    """(module, name) for each ``__all__`` name of a module of ``src``
    that no statement of the package reads, apart from the statement
    that defines it, and that the package's own ``__all__`` does not
    list.  Importing a name into ``__init__.py`` is not a use."""
    trees = _trees(src)
    api = set(_exports(trees.pop("__init__")))
    out = []
    for module, tree in trees.items():
        for name in _exports(tree):
            used = name in api or any(
                name in _reads(stmt)
                for other, body in trees.items()
                for stmt in body.body
                if not (other == module and _defines(stmt, name))
            )
            if not used:
                out.append((module, name))
    return out


def dead_private_names(src=SRC):
    """(module, name) for each private name (one leading underscore) that
    a top-level statement of a module of ``src`` defines and that no other
    statement of the package reads."""
    trees = _trees(src)
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    out = []
    for module, tree in trees.items():
        for stmt in tree.body:
            for name in sorted(_bound(stmt)):
                private = name.startswith("_") and not name.startswith("__")
                if private and not any(name in _reads(other) for other in statements
                                       if other is not stmt):
                    out.append((module, name))
    return out


def test_every_exported_name_is_reached():
    assert unreachable_exports() == []


def test_the_export_scan_flags_a_name_nothing_reaches(tmp_path):
    # a negative control: an exported function that only calls itself, is
    # imported into __init__.py and named in a docstring is flagged; one a
    # sibling module reads, or one the package's __all__ lists, is not
    (tmp_path / "__init__.py").write_text(
        '"""lonely"""\nfrom .a import api, lonely, shared\n\n__all__ = ["api"]\n'
    )
    (tmp_path / "a.py").write_text(
        "def lonely():\n    return lonely\n\n"
        "def shared():\n    return 1\n\n"
        "def api():\n    return 2\n\n"
        '__all__ = ["api", "lonely", "shared"]\n'
    )
    (tmp_path / "b.py").write_text("from . import a\n\nX = a.shared()\n")
    assert unreachable_exports(tmp_path) == [("a", "lonely")]


def test_every_private_name_is_read():
    assert dead_private_names() == []


def test_the_private_name_scan_flags_a_helper_left_behind(tmp_path):
    # a negative control: a private helper that only calls itself and a
    # constant that nothing reads are flagged; a helper that a sibling
    # module reads, one read in its own module and a dunder name are not
    (tmp_path / "__init__.py").write_text('__version__ = "1"\n')
    (tmp_path / "a.py").write_text(
        "_UNREAD = 1\n_READ = 2\n\n"
        "def _rel(x):\n    return _rel(x)\n\n"
        "def _shared():\n    return _READ\n"
    )
    (tmp_path / "b.py").write_text("from .a import _shared\n\nX = _shared()\n")
    assert dead_private_names(tmp_path) == [("a", "_UNREAD"), ("a", "_rel")]
