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


def without_exports(source: str) -> str:
    """`source` with its import statements and `__all__` assignments blanked out."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            for i in range(node.lineno - 1, node.end_lineno):
                lines[i] = ""
    return "\n".join(lines)


def unreferenced_defs(source: str, others: str) -> list[str]:
    """Functions and methods defined in `source` whose name, as a whole word, appears
    neither in `source` outside their own `def` line nor in `others`.

    A plain word search: a call and a mention in a docstring count, but an import
    or a string in `__all__` does not, so a function only re-exported by the
    package's `__init__` has no caller. Dunders and click commands and groups
    (decorated with `<name>.command(...)` or `<name>.group(...)`) are exempt.
    """
    lines = without_exports(source).splitlines()
    others = without_exports(others)
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
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def method(self): return used()\n"
        "@click.group()\n"
        "def main(): pass\n"
        "@main.command('run')\n"
        "def run_cmd(): pass\n"
    )
    assert unreferenced_defs(source, "A().method()") == ["unused (line 3)"]


def test_detector_finds_a_def_that_is_only_re_exported():
    source = "def exported(): pass\ndef called(): pass\n"
    package_init = (
        "from .m import (\n"
        "    called,\n"
        "    exported,\n"
        ")\n"
        "__all__ = [\n"
        "    'called',\n"
        "    'exported',\n"
        "]\n"
    )
    others = package_init + "from mfkrig import called\ncalled()\n"
    assert unreferenced_defs(source, others) == ["exported (line 1)"]


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


# StopIteration is no error: it is how a callback halts scipy.optimize.minimize,
# which catches it. One is raised, by the distance filter's callback on the path
# for an unsupported L-BFGS-B core.
CALLBACK_HALTS = {"optimize.py": 1}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_raises_only_package_errors(path):
    """Every error the package raises is an MfkrigError, so callers and the CLI can
    tell a bad input from a bug."""
    found = builtin_raises(path.read_text())
    halts = [raised for raised in found if raised.startswith("StopIteration ")]
    assert len(halts) == CALLBACK_HALTS.get(path.name, 0)
    assert [raised for raised in found if raised not in halts] == []


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
INVERSE_ROUTINE = re.compile(r"trtri|lauum|potri")
SOLVE_ROUTINE = re.compile(r"potrs|cho_solve|trtrs|solve_triangular")
# A name, attribute or import that starts threads, or worker processes.
THREAD_START = re.compile(r"^(Thread|ThreadPoolExecutor)$")
PROCESS_POOL = re.compile(r"^ProcessPoolExecutor$")


def name_uses(source: str, pattern: re.Pattern) -> list[str]:
    """Every name, attribute or imported name matching `pattern`, as
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
        found.extend(f"{owner} (line {node.lineno})" for n in names if pattern.search(n))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def package_uses(pattern: re.Pattern) -> list[str]:
    """`name_uses` of every package module, each prefixed by its file name."""
    return [f"{p.name}: {use}" for p in sorted(SRC.glob("*.py"))
            for use in name_uses(p.read_text(), pattern)]


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
    assert name_uses(source, CHOLESKY_ROUTINE) == [
        "<module> (line 2)", "chol_factor (line 5)", "inner (line 8)"
    ]


def test_one_cholesky_entry_point():
    """Every factorization goes through `numerics.chol_factor`, so its jitter
    escalation and non-finite checks, and a trace of it, see them all."""
    uses = package_uses(CHOLESKY_ROUTINE)
    inside = [use for use in uses if use.startswith("numerics.py: chol_factor (")]
    assert inside and uses == inside


def test_detector_finds_an_inverse_routine():
    source = (
        "from scipy.linalg.lapack import dpotri\n"
        "from scipy.linalg import lapack\n"
        "def inv_spd(f):\n"
        "    u, info = lapack.dtrtri(f.T, lower=0)\n"
        "    return lapack.dlauum(u)\n"
        "def solve(f, b):\n"
        "    return lapack.dpotrs(f, b)\n"
    )
    assert name_uses(source, INVERSE_ROUTINE) == [
        "<module> (line 1)", "inv_spd (line 4)", "inv_spd (line 5)"
    ]


def test_one_inverse_module():
    """Triangular and SPD inverses are formed only in `numerics`, so the package
    has one place that decides which triangle of an inverse is stored and how the
    LAPACK error codes are checked. There is one call site, the inverse factor a
    factorization caches, so `inv_spd` and `whiten` read the same U^-1."""
    uses = package_uses(INVERSE_ROUTINE)
    assert len(uses) == 1 and uses[0].startswith("numerics.py: upper_inverse (")


def test_detector_finds_a_solve_routine():
    source = (
        "from scipy.linalg import cho_solve, lapack\n"
        "import scipy.linalg as sl\n"
        "def solve_spd(f, b):\n"
        "    '''Two triangular solves, as cho_solve makes them.'''\n"
        "    return lapack.dpotrs(f, b, lower=1)[0]\n"
        "def whiten(f, b):\n"
        "    return sl.solve_triangular(f, b, lower=True), lapack.dtrtrs(f, b)\n"
    )
    assert name_uses(source, SOLVE_ROUTINE) == [
        "<module> (line 1)", "solve_spd (line 5)", "whiten (line 7)", "whiten (line 7)"
    ]


def test_one_solve_module():
    """Linear systems with a cached factor are solved only in `numerics`, so every
    solve of the package takes one routine, with the same bits and shape checks."""
    uses = package_uses(SOLVE_ROUTINE)
    assert uses and all(use.startswith("numerics.py: ") for use in uses)


def test_detector_finds_thread_and_process_starts():
    source = (
        "import threading\n"
        "from concurrent import futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def in_blocks():\n"
        "    with futures.ThreadPoolExecutor(2) as pool:\n"
        "        return threading.Thread, threading.Lock, pool\n"
        "def run():\n"
        "    return futures.ProcessPoolExecutor(max_workers=2)\n"
    )
    assert name_uses(source, THREAD_START) == [
        "<module> (line 3)", "in_blocks (line 5)", "in_blocks (line 6)"
    ]
    assert name_uses(source, PROCESS_POOL) == ["run (line 8)"]


def test_pools_live_only_inside_one_call():
    """Threads start only inside `gp.in_blocks` and worker processes only inside
    `bench.run_benchmark`, each pool shut down before its call returns, so no
    thread is alive when a campaign forks its workers."""
    threads = package_uses(THREAD_START)
    assert threads and all(use.startswith("gp.py: in_blocks (") for use in threads)
    processes = package_uses(PROCESS_POOL)
    assert processes and all(use.startswith("bench.py: run_benchmark (") for use in processes)


def imports_of(source: str, module: str) -> list[str]:
    """Every import statement, at any depth, of `module` or of one of its
    submodules, as "line n"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


def test_detector_finds_a_ctypes_import():
    source = (
        "import ctypes\n"
        "import ctypeslib, os\n"
        "import sys, ctypes.util as cu\n"
        "from ctypes import CDLL\n"
        "from . import ctypes_helpers\n"
        "def f():\n"
        "    from ctypes.util import find_library\n"
        "    return ctypes, cu, CDLL, find_library\n"
    )
    assert imports_of(source, "ctypes") == ["line 1", "line 3", "line 4", "line 7"]


def test_one_foreign_call_boundary():
    """No module but `numerics` may call native code through ctypes, so the package
    has at most one place where a wrong pointer or argument type can corrupt memory
    instead of raising. Today none does: every native call goes through NumPy's or
    scipy's own wrappers."""
    importers = [p.name for p in sorted(SRC.glob("*.py")) if imports_of(p.read_text(), "ctypes")]
    assert importers in ([], ["numerics.py"])


# scipy's private L-BFGS-B modules and their reverse-communication core.
PRIVATE_LBFGSB = re.compile(r"_lbfgsb|setulb")


def text_mentions(source: str, pattern: re.Pattern) -> list[str]:
    """Every line of `source` on which `pattern` matches anywhere, code, string or
    comment, as "line n": a plain text search, so a name built by `getattr` or
    `importlib` from a string is found too."""
    return [f"line {i}" for i, line in enumerate(source.splitlines(), 1) if pattern.search(line)]


def test_detector_finds_a_private_lbfgsb_use():
    source = (
        "import importlib\n"
        "from scipy.optimize import minimize, _lbfgsb\n"
        "core = importlib.import_module('scipy.optimize._lbfgsb_py')\n"
        "def run(x):\n"
        "    '''One L-BFGS-B start through minimize.'''\n"
        "    return getattr(core, 'setulb')(x)\n"
    )
    assert text_mentions(source, PRIVATE_LBFGSB) == ["line 2", "line 3", "line 6"]


def test_one_lbfgsb_core_driver():
    """Only `optimize` reaches scipy's private L-BFGS-B core, whose signature may
    change in any scipy release, so one module checks that signature and falls
    back to `scipy.optimize.minimize` when it differs."""
    users = [p.name for p in CALLERS if text_mentions(p.read_text(), PRIVATE_LBFGSB)]
    assert users == ["optimize.py"]


# Shape rules for array inputs: making a vector of a number, or reading a 1-D
# array as points.
SHAPE_RULE = re.compile(r"atleast_1d|\.reshape\(-1,|\.reshape\(1, -1\)")


def test_detector_finds_a_shape_rule():
    source = (
        "import numpy as np\n"
        "def read(x, beta):\n"
        "    '''Points as rows: x.reshape(1, -1) for one point.'''\n"
        "    x = x.reshape(-1, 2) if x.ndim == 1 else x\n"
        "    grid = np.linspace(0, 1, 5)[:, None]\n"
        "    return x, np.atleast_1d(beta), grid.reshape(-1), x.reshape(x.shape[1], -1)\n"
    )
    assert text_mentions(source, SHAPE_RULE) == ["line 3", "line 4", "line 6"]


def test_one_array_reader_module():
    """Only `optimize`, home of `as_points` and `as_vector`, decides what a number
    or a 1-D array means as points or as a vector, so every public boundary reads
    array inputs by the same rule and refuses the same shapes."""
    users = [p.name for p in sorted(SRC.glob("*.py")) if text_mentions(p.read_text(), SHAPE_RULE)]
    assert users == ["optimize.py"]


def package_error_classes() -> set[str]:
    """The names of the classes the package's exceptions module defines."""
    tree = ast.parse((SRC / "exceptions.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def caught_errors(source: str, errors: set[str]) -> list[str]:
    """Every `except` clause that names one of `errors`, by name or attribute, alone
    or in a tuple, as "<innermost enclosing function> (line n)", or "<module>
    (line n)" outside any."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", "")
                     for t in types}
            if names & errors:
                found.append(f"{owner} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_detector_finds_a_caught_package_error():
    source = (
        "from . import exceptions\n"
        "try:\n"
        "    import fast\n"
        "except ImportError:\n"
        "    fast = None\n"
        "def run(body):\n"
        "    try:\n"
        "        body()\n"
        "    except (ValueError, exceptions.InvalidConfig):\n"
        "        pass\n"
        "    except:\n"
        "        raise\n"
        "    def inner():\n"
        "        try:\n"
        "            body()\n"
        "        except MfkrigError as exc:\n"
        "            return exc\n"
        "    return inner\n"
    )
    errors = {"MfkrigError", "InvalidConfig"}
    assert caught_errors(source, errors) == ["run (line 9)", "inner (line 16)"]


# Where a package error may be caught: two boundaries turn one into a failed
# campaign row or an exit code, and two functions translate one into another.
PACKAGE_ERROR_CATCHERS = {
    "bench.py: run_replication",
    "cli.py: _run",
    "cli.py: model_from_dict",
    "design.py: eval_testfn",
}


def test_package_errors_are_not_control_flow():
    """A package error ends a call: inside the package it is caught only to
    report it at a boundary or to translate it, never to steer a computation, so an
    outcome such as a failed optimizer start travels as a value."""
    errors = package_error_classes()
    catches = [f"{p.name}: {use}" for p in sorted(SRC.glob("*.py"))
               for use in caught_errors(p.read_text(), errors)]
    assert catches
    assert [c for c in catches if c.split(" (line ")[0] not in PACKAGE_ERROR_CATCHERS] == []


def dataclass_fields(source: str) -> list[str]:
    """Every field of every class decorated with `dataclass` or `dataclasses.dataclass`,
    bare or called, as "<class>.<field> (line n)"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        targets = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(t, "attr", getattr(t, "id", "")) == "dataclass" for t in targets):
            continue
        found.extend(f"{node.name}.{stmt.target.id} (line {stmt.lineno})" for stmt in node.body
                     if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name))
    return found


def read_names(source: str) -> set[str]:
    """Every name `source` reads: an attribute load, or a string constant (as
    `getattr(obj, "name")` reads a field), but not the name argument of a `setattr`
    or `__setattr__` call, which writes one."""
    tree = ast.parse(source)
    written = {
        id(node.args[1]) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and len(node.args) > 1
        and getattr(node.func, "attr", getattr(node.func, "id", "")) in ("setattr", "__setattr__")
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in written:
            names.add(node.value)
    return names


def unread_fields(sources: list[str]) -> list[str]:
    """`dataclass_fields` of `sources` whose name none of them reads (`read_names`)."""
    read = set().union(*(read_names(source) for source in sources))
    return [f for source in sources for f in dataclass_fields(source)
            if f.split(" (")[0].split(".")[1] not in read]


def test_detector_finds_an_unread_field():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    read: int\n"
        "    by_name: int\n"
        "    unread: int\n"
        "    cached: int = field(init=False)\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'cached', self.read)\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    written: int\n"
        "    LIMIT = 3\n"
        "class C:\n"
        "    plain: int\n"
        "def f(a, b, which='by_name'):\n"
        "    b.written = a.unread_too\n"
        "    return getattr(a, which)\n"
    )
    assert unread_fields([source]) == [
        "A.unread (line 7)", "A.cached (line 8)", "B.written (line 13)"
    ]


# The fields no package code reads: observability hooks, each for its reader.
OBSERVABILITY_FIELDS = {
    # The record of each start of a search (ROADMAP item 2's start record).
    "StartResult.start", "StartResult.converged", "StartResult.merged_into",
    # perfbench's jitter-escalation counter.
    "SpdFactorization.jitter_used",
}


def test_every_dataclass_field_is_read():
    """Every field the package declares is read by the package, or is an observability
    hook: a field, wrapper or recorder that only a test reads is dead weight."""
    unread = unread_fields([p.read_text() for p in sorted(SRC.glob("*.py"))])
    assert sorted(f.split(" (")[0] for f in unread) == sorted(OBSERVABILITY_FIELDS)
