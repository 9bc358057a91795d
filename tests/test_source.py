"""Static checks of the package source."""

import ast
import builtins
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mfkrig"
# Where a package function may be used: the package and the benchmark, not their tests.
CALLERS = sorted(SRC.glob("*.py")) + [
    p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")
]


def unused_module_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads.

    A name listed in `__all__` counts as read (a re-export).
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detector_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\n__all__ = ['tau']\nsys.exit(pi)\n"
    assert unused_module_imports(source) == ["os (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_module_imports(path.read_text()) == []


def unreferenced_defs(source: str, others: str) -> list[str]:
    """Functions and methods defined in `source` whose name, as a whole word, appears
    neither in `source` outside their own `def` line nor in `others`.

    A plain word search: a call, an import, a mention in a docstring and a string
    in `__all__` all count. Dunders and click commands and groups (decorated with
    `<name>.command(...)` or `<name>.group(...)`) are exempt.
    """
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if any(
            isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
            and d.func.attr in ("command", "group")
            for d in node.decorator_list
        ):
            continue
        rest = "\n".join(line for i, line in enumerate(lines, 1) if i != node.lineno)
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not (word.search(rest) or word.search(others)):
            found.append(f"{name} (line {node.lineno})")
    return found


def test_detector_finds_an_unreferenced_def():
    source = (
        "import click\n"
        "def used(): pass\n"
        "def unused(): pass\n"
        "def exported(): pass\n"
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def method(self): return used()\n"
        "@click.group()\n"
        "def main(): pass\n"
        "@main.command('run')\n"
        "def run_cmd(): pass\n"
        "__all__ = ['exported']\n"
    )
    assert unreferenced_defs(source, "A().method()") == ["unused (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_def_is_referenced(path):
    others = "\n".join(p.read_text() for p in CALLERS if p != path)
    assert unreferenced_defs(path.read_text(), others) == []


BUILTIN_EXCEPTIONS = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def builtin_raises(source: str) -> list[str]:
    """`raise` statements that name a builtin exception class, called or not.

    A bare `raise` and `raise exc` of a caught exception name no class, and
    translating a caught builtin into a package error names a package class, so
    neither is reported.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS:
            found.append((node.lineno, exc.id))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_detector_finds_a_builtin_raise():
    source = (
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise ValueError('negative')\n"
        "    try:\n"
        "        return {}[x]\n"
        "    except KeyError as exc:\n"
        "        if x:\n"
        "            raise\n"
        "        if x > 1:\n"
        "            raise exc\n"
        "        raise InvalidConfig(str(exc)) from exc\n"
        "    raise TypeError\n"
    )
    assert builtin_raises(source) == ["ValueError (line 3)", "TypeError (line 12)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_raises_only_package_errors(path):
    """Every error the package raises is an MfkrigError, so callers and the CLI can
    tell a bad input from a bug."""
    assert builtin_raises(path.read_text()) == []


def unfrozen_dataclasses(source: str) -> list[str]:
    """Classes decorated with `dataclass` or `dataclasses.dataclass`, bare or called,
    without `frozen=True`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for d in node.decorator_list:
            target = d.func if isinstance(d, ast.Call) else d
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name != "dataclass":
                continue
            frozen = isinstance(d, ast.Call) and any(
                k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
                for k in d.keywords
            )
            if not frozen:
                found.append(f"{node.name} (line {node.lineno})")
    return found


def test_detector_finds_an_unfrozen_dataclass():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "@dataclass(frozen=True)\n"
        "class B:\n"
        "    x: int\n"
        "@dataclass(eq=False)\n"
        "class C:\n"
        "    x: int\n"
        "@dataclasses.dataclass(frozen=False)\n"
        "class D:\n"
        "    x: int\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class E:\n"
        "    x: int\n"
        "class F:\n"
        "    pass\n"
    )
    assert unfrozen_dataclasses(source) == ["A (line 4)", "C (line 10)", "D (line 13)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_dataclass_is_frozen(path):
    """Records are immutable: a model's construction-time caches stay true to its fields."""
    assert unfrozen_dataclasses(path.read_text()) == []


# A name, attribute or import that reaches a Cholesky factorization routine.
CHOLESKY_ROUTINE = re.compile(r"potrf|cholesky|cho_factor")


def cholesky_uses(source: str) -> list[str]:
    """Every name, attribute or imported name matching CHOLESKY_ROUTINE, as
    "<innermost enclosing function> (line n)", or "<module> (line n)" outside any."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        else:
            names = []
        found.extend(f"{owner} (line {node.lineno})" for n in names if CHOLESKY_ROUTINE.search(n))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_detector_finds_a_cholesky_use():
    source = (
        "import numpy as np\n"
        "from scipy.linalg import cho_factor, lapack\n"
        "def chol_factor(m):\n"
        "    '''The cholesky factor, by dpotrf.'''\n"
        "    return lapack.dpotrf(m)\n"
        "def other(m):\n"
        "    def inner():\n"
        "        return np.linalg.cholesky(m)\n"
        "    return inner\n"
    )
    assert cholesky_uses(source) == [
        "<module> (line 2)", "chol_factor (line 5)", "inner (line 8)"
    ]


def test_one_cholesky_entry_point():
    """Every factorization goes through `numerics.chol_factor`, so its jitter
    escalation and non-finite checks, and a trace of it, see them all."""
    uses = [f"{p.name}: {use}" for p in sorted(SRC.glob("*.py"))
            for use in cholesky_uses(p.read_text())]
    inside = [use for use in uses if use.startswith("numerics.py: chol_factor (")]
    assert inside and uses == inside
