"""Every module-level function and class of the library modules, public or
private, has a caller in the package itself or in the acceptance criteria;
code that only tests call does not belong in ``src``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rmgflow"
MODULES = ("manifold", "flow", "net", "metrics", "motion", "errors")


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
