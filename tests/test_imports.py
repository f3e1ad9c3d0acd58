"""Every imported name and every private helper is used: standard-library stand-ins for a linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The package __init__ imports only to re-export.
FILES = sorted(p for p in (ROOT / "src" / "dqc1sim").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "dqc1sim").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom math import pi, tau\n__all__ = ['tau']\nprint(pi)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: system"]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (defs, classes, constants) that no module reads outside their own definition."""
    defined = {}  # name -> (file, line, defining statement)
    reads = []  # (name, top-level statement that reads it)
    for label, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                nodes = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                targets = []
            for name in targets:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = (label, stmt.lineno, stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.append((node.id, stmt))
                elif isinstance(node, ast.Attribute):
                    reads.append((node.attr, stmt))
    read = {name for name, stmt in reads if name in defined and stmt is not defined[name][2]}
    unread = sorted((f, line, name) for name, (f, line, _) in defined.items() if name not in read)
    return [f"{f} line {line}: {name}" for f, line, name in unread]


def test_no_private_name_only_tests_read():
    """A private helper, class or constant is read by the package itself; tests and the bench do not count."""
    assert unread_private_names({p.name: p.read_text() for p in PACKAGE}) == []


def test_the_scan_finds_an_unread_private_name():
    a = "def _used():\n    return 1\n\ndef _dead(n):\n    return _dead(n - 1)\n\n_K, _J = 1, 2\n__all__ = []\n"
    b = "from a import _used, _J\nprint(_used(), _J)\n"
    assert unread_private_names({"a.py": a, "b.py": b}) == ["a.py line 4: _dead", "a.py line 7: _K"]
