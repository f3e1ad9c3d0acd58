"""Every imported name, private helper and private keyword is used: standard-library stand-ins for a linter."""

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


def name_resolver(label: str, tree: ast.Module):
    """A function from a Name or Attribute node read in module ``label`` to the (module, name) it refers to.

    ``from .x import _a as _b`` makes ``_b`` refer to ``("x.py", "_a")``, and ``x._a`` on a module ``x``
    imported whole refers to ``("x.py", "_a")``.  Any other attribute (a method, say) may be defined in
    any module, so it refers to ``("*", name)``.
    """
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                names[alias.asname or alias.name] = (f"{node.module.rpartition('.')[2]}.py", alias.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                modules[alias.asname or alias.name] = f"{alias.name.rpartition('.')[2]}.py"

    def resolve(node) -> tuple[str, str]:
        if isinstance(node, ast.Name):
            return names.get(node.id, (label, node.id))
        if isinstance(node.value, ast.Name) and node.value.id in modules:
            return (modules[node.value.id], node.attr)
        return ("*", node.attr)

    return resolve


def private_names(stmt: ast.stmt) -> list[str]:
    """The private names (of a def, a class or assigned constants) that a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        nodes = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (defs, classes, constants) that no module reads outside their own definition.

    Each definition is keyed by (module, name), so a name defined in two modules is read only where it resolves.
    """
    defined = {}  # (file, name) -> (line, defining statement)
    reads = []  # ((file, name), top-level statement that reads it)
    for label, source in sources.items():
        tree = ast.parse(source)
        resolve = name_resolver(label, tree)
        for stmt in tree.body:
            for name in private_names(stmt):
                defined[label, name] = (stmt.lineno, stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute):
                    reads.append((resolve(node), stmt))
    read = {
        key
        for (where, name), stmt in reads
        for key in defined
        if key[1] == name and where in (key[0], "*") and stmt is not defined[key][1]
    }
    unread = sorted((f, line, name) for (f, name), (line, _) in defined.items() if (f, name) not in read)
    return [f"{f} line {line}: {name}" for f, line, name in unread]


def test_no_private_name_only_tests_read():
    """A private helper, class or constant is read by the package itself; tests and the bench do not count."""
    assert unread_private_names({p.name: p.read_text() for p in PACKAGE}) == []


def test_the_scan_finds_an_unread_private_name():
    a = "def _used():\n    return 1\n\ndef _dead(n):\n    return _dead(n - 1)\n\n_K, _J = 1, 2\n__all__ = []\n"
    b = "from a import _used, _J\nprint(_used(), _J)\n"
    assert unread_private_names({"a.py": a, "b.py": b}) == ["a.py line 4: _dead", "a.py line 7: _K"]


def simulator_reach(sources: dict[str, str], privates: set[str]) -> dict[str, list[str]]:
    """Where the sources reach each of ``privates``, the private names of simulator.py: {name: ["file line N"]}.

    A reach is an attribute of the module (``sim._x``), a name imported from it and each read of that
    name, or a string constant that spells the name, as ``monkeypatch.setattr(sim, "_x", ...)`` passes.
    """
    reach: dict[str, list[str]] = {}
    for label, source in sources.items():
        tree = ast.parse(source)
        resolve = name_resolver(label, tree)
        for node in ast.walk(tree):
            found = []
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("simulator"):
                found = [alias.name for alias in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                where, name = resolve(node)
                module = isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                if where == "simulator.py" or (module and resolve(node.value)[1] == "simulator"):
                    found = [name]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found = [node.value]
            for name in found:
                if name in privates:
                    reach.setdefault(name, []).append((label, node.lineno))
    return {name: [f"{f} line {line}" for f, line in sorted(where)] for name, where in sorted(reach.items())}


# The private names of simulator.py that tests may reach, each with what it
# checks that no public output shows.  Every other check goes through the
# public entry points (tests/test_corpus.py), so a new plan or pass shape
# does not start by rewriting tests.
SIMULATOR_REACH = {
    "_CHUNK_ENTRIES": "a tuning constant: patched to show that no output byte depends on it",
    "_MIN_CHUNK_ENTRIES": "a tuning constant: patched for the bytes, and the floor of the chunk splits for threads",
    "_TEMP_ENTRIES": "a tuning constant: patched to show that no output byte depends on it",
    "_ROW_BITS": "a tuning constant: patched to show that no output byte depends on it",
    "_compile": "chunk splits, the compile's memory, the layout's read-only arrays and the complement rows",
    "_run_plan": "one column per embedding, chunks per thread, no run at all, and the ceiling self-check's fault",
    "_butterfly": "block reach and the plan's own ufunc buffer",
    "_contract": "the last H layer of an embedding computes one half per gate",
    "_activate": "the leading H layer of an embedding copies nothing",
    "_layout": "one compiled layout per ensemble",
    "_negate": "the workaround for numpy's negative on 64-byte strides",
    "_sq_norm": "the fault behind f_value's self-check",
    "_single_pass": "the plan never runs the pass, and the deferral digests hash the pass's own buffer",
}
# The most reaches of those names that the tests may make in all.
MAX_SIMULATOR_REACHES = 50


def test_tests_reach_only_the_listed_simulator_names():
    source = (ROOT / "src" / "dqc1sim" / "simulator.py").read_text()
    privates = {name for stmt in ast.parse(source).body for name in private_names(stmt)}
    tests = {p.name: p.read_text() for p in sorted((ROOT / "tests").glob("*.py")) if p.name != "test_imports.py"}
    reach = simulator_reach(tests, privates)
    assert {name: where for name, where in reach.items() if name not in SIMULATOR_REACH} == {}
    assert sum(map(len, reach.values())) <= MAX_SIMULATOR_REACHES


def test_the_reach_scan_finds_every_form():
    a = "import dqc1sim.simulator as sim\nsim._run(1)\nmonkeypatch.setattr(sim, '_K', 2)\nsim.public(x._run)\n"
    b = "from dqc1sim.simulator import _run as go\ngo()\nprint('_other', _K)\n"
    assert simulator_reach({"a.py": a, "b.py": b}, {"_run", "_K"}) == {
        "_K": ["a.py line 3"],
        "_run": ["a.py line 2", "b.py line 1", "b.py line 2"],
    }


# numpy routines that may hand a product or a sum to BLAS, whose order of
# addition depends on the CPU kernel and the thread count.
BLAS_CALLS = frozenset({"vdot", "dot", "inner", "matmul", "tensordot", "einsum"})


def blas_products(source: str) -> list[str]:
    """Calls of BLAS_CALLS or of ``linalg.*``, and ``@`` products, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = ast.unparse(node.func)
            if func.rpartition(".")[2] in BLAS_CALLS or "linalg." in func:
                found.append((node.lineno, func))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "oracles.py"], ids=lambda p: p.name)
def test_no_blas_product(path):
    """Output bytes must not depend on the BLAS library; the dense oracles may use it."""
    assert blas_products(path.read_text()) == []


def test_the_scan_finds_a_blas_product():
    source = (
        "import numpy as np\nfrom numpy import vdot\n"
        "a = np.vdot(x, x)\nb = x.dot(y)\nc = x @ y\nx @= y\n"
        "d = np.linalg.norm(x)\ne = vdot(x, y)\nf = np.add.reduce(x)\n"
    )
    assert blas_products(source) == [
        "line 3: np.vdot", "line 4: x.dot", "line 5: @", "line 6: @",
        "line 7: np.linalg.norm", "line 8: vdot",
    ]


def unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """Defaulted parameters of private functions that no call passes, by keyword or by position.

    Functions are keyed by (module, name), and a call reaches the definition its name resolves to; a
    method call, whose receiver's module is unknown, reaches every function of that name.  A call with
    ``*args`` or ``**kwargs`` counts as passing every parameter.
    """
    defaults = {}  # (file, function name) -> (line, [(parameter, position among the call's arguments)])
    passed = {}  # (file or "*", function name) -> the positions and keywords some call passes
    for label, source in sources.items():
        tree = ast.parse(source)
        resolve = name_resolver(label, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__"):
                a = node.args
                positional = a.posonlyargs + a.args
                bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
                first = len(positional) - len(a.defaults)
                found = [(p.arg, i - bound) for i, p in enumerate(positional) if i >= first]
                found += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                if found:
                    defaults[label, node.name] = (node.lineno, found)
            elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                got = passed.setdefault(resolve(node.func), set())
                got.update(range(len(node.args)), (k.arg for k in node.keywords))
                if None in got or any(isinstance(arg, ast.Starred) for arg in node.args):
                    got.add("*")
    return [
        f"{label} line {line}: {func}({param}=)"
        for (label, func), (line, found) in sorted(defaults.items())
        for param, pos in found
        if not {param, pos, "*"} & (passed.get((label, func), set()) | passed.get(("*", func), set()))
    ]


def test_no_keyword_only_tests_pass():
    """A keyword the package never passes is dead in the package; tests do not count."""
    assert unpassed_defaults({p.name: p.read_text() for p in PACKAGE}) == []


def test_the_scan_finds_an_unpassed_default():
    source = (
        "def _f(a, b=1, *, c=2, d=3):\n    return a\n"
        "class K:\n    def _m(self, x, y=0):\n        return x\n"
        "def _g(u=1, v=2):\n    return u\n"
        "def public(e=1):\n    return e\n"
        "_f(0, 5, d=1)\nK()._m(1, 2)\n_g(*args)\npublic()\n"
    )
    assert unpassed_defaults({"a.py": source}) == ["a.py line 1: _f(c=)"]


def test_the_unread_scan_keys_names_by_module():
    """A private name defined in two modules does not hide the definition that no module reads."""
    assert unread_private_names({"a.py": "def _h(x): ...", "b.py": "def _h(y): ...\nprint(_h(1))"}) == [
        "a.py line 1: _h"
    ]
    c = "from .a import _h as _g\nprint(_g(1))\n"
    assert unread_private_names({"a.py": "def _h(x): ...", "b.py": "def _h(y): ...\n_h", "c.py": c}) == []


def test_the_unpassed_scan_keys_functions_by_module():
    """A call reaches the function its name resolves to, not every function of that name."""
    assert unpassed_defaults({"a.py": "def _f(a, b=1): ...", "b.py": "def _f(a, b=1): ...\n_f(0, 2)"}) == [
        "a.py line 1: _f(b=)"
    ]
    c = "from .a import _f as _g\n_g(0, b=2)\n"
    assert unpassed_defaults({"a.py": "def _f(a, b=1): ...", "b.py": "def _f(a, b=1): ...\n_f(0, 2)", "c.py": c}) == []
