"""Every module-level function and class of the library modules, public or
private, has a caller in the package itself or in the acceptance criteria;
code that only tests call does not belong in ``src``.  Every name a library
module imports is read there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rmgflow"
MODULES = ("manifold", "flow", "net", "metrics", "motion", "errors")
# Imported to be called as ``module.name`` (acceptance criterion 9), not read.
REEXPORTS = {"flow.reference_point"}


def _used_names(node) -> set[str]:
    """Names read under ``node``, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unused_public(package=PACKAGE, acceptance=ROOT / "tests" / "test_acceptance.py"):
    """``module.name`` of each module-level function or class of ``MODULES``,
    public or private, that no other top-level statement of the package, and
    nothing in the acceptance tests, refers to: a private helper left behind
    by its last caller is named too."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    used = _used_names(ast.parse(acceptance.read_text()))
    names = []
    for stem, tree in trees.items():
        for stmt in tree.body:
            defined = getattr(stmt, "name", None)
            if stem in MODULES and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.append((stem, defined))
            used |= {name for name in _used_names(stmt) if name != defined}
    return [f"{stem}.{name}" for stem, name in names if name not in used]


def test_every_public_name_has_a_caller():
    assert unused_public() == []


def unused_imports(package=PACKAGE):
    """``module.name`` of each name that a module of the package other than
    ``__init__`` imports and never reads, ``REEXPORTS`` aside."""
    names = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import) or (isinstance(stmt, ast.ImportFrom)
                                                and stmt.module != "__future__"):
                names += [f"{path.stem}.{name}" for name in
                          ((a.asname or a.name).split(".")[0] for a in stmt.names)
                          if name not in read]
    return [name for name in names if name not in REEXPORTS]


def test_every_import_is_read():
    assert unused_imports() == []


def test_unused_import_is_named(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\nimport os.path\nfrom json import dumps, loads\n"
        "import numpy as np\nnp.zeros(os.sep)\nloads('1')\n")
    assert unused_imports(tmp_path) == ["mod.dumps"]
