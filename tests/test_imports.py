"""Every module of the package, other than ``__init__``, uses each name it
imports and imports no underscore name from another module of the package;
every module-level private name is used somewhere in the package; no code
outside ``GaussianMixture``'s methods reads the private attributes of its
density kernel; importing the package loads no module it does not need."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symentropy

PACKAGE = Path(symentropy.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _private_imports(source):
    tree = ast.parse(source)
    return sorted(
        (alias.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "symentropy")
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_check_finds_an_unused_import():
    source = "import math\nfrom os import path, sep as separator\nprint(path)\n"
    assert _unused_imports(source) == [(1, "math"), (2, "separator")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_check_finds_a_private_import():
    source = (
        "from os import _exit\n"
        "from .streams import CHUNK_SIZE, _hash\n"
        "from symentropy.mixtures import (\n"
        "    _rounded,\n"
        ")\n"
    )
    assert _private_imports(source) == [(2, "_hash"), (4, "_rounded")]


@pytest.mark.parametrize("module", MODULES)
def test_no_private_imports(module):
    assert _private_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _orphans(sources):
    """(module, line, name) of every module-level private function, class
    or constant that no code in ``sources`` names outside its own
    definition; ``sources`` maps module names to their text."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    uses = [
        (id(node), node.id if isinstance(node, ast.Name) else node.attr)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    orphans = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            inside = {id(node) for node in ast.walk(stmt)}
            orphans += [
                (module, stmt.lineno, name)
                for name in names
                if _private(name)
                and not any(used == name and node not in inside for node, used in uses)
            ]
    return sorted(orphans)


def test_check_finds_an_orphan():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def _countdown(n):\n"
            "    return _countdown(n - 1) if n else _LIMIT\n"
            "def _helper():\n"
            "    return 1\n"
            "class _Box:\n"
            "    pass\n"
            "def public():\n"
            "    return _Box\n"
        ),
        "b.py": "import a\nprint(a._helper())\n",
    }
    assert _orphans(sources) == [("a.py", 2, "_UNUSED"), ("a.py", 3, "_countdown")]


def test_no_orphaned_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _orphans(sources) == []


# The private attributes of a mixture that any code may read: its grouping.
GROUPING = {"_group_of", "_heads"}


def _mixture_kernel_attributes():
    # every private method and attribute that GaussianMixture defines,
    # other than its grouping
    tree = ast.parse((PACKAGE / "mixtures.py").read_text(encoding="utf-8"))
    cls = next(
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GaussianMixture"
    )
    names = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    names |= {
        n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
    }
    return {n for n in names if n.startswith("_") and not n.startswith("__")} - GROUPING


def _kernel_reads(source, kernel):
    """(line, name) of every use of an attribute in ``kernel`` outside
    the body of a class ``GaussianMixture``."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "GaussianMixture"
        for node in ast.walk(cls)
    }
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in kernel and id(node) not in inside
    )


def test_check_finds_a_kernel_read():
    source = (
        "class GaussianMixture:\n"
        "    def heads(self):\n"
        "        return self._order[[g.span.start for g in self._groups]]\n"
        "def heads(mix):\n"
        "    return mix._order[[g.span.start for g in mix._groups]], mix._group_of\n"
    )
    assert _kernel_reads(source, {"_groups", "_order"}) == [(5, "_groups"), (5, "_order")]


def test_kernel_attributes_found():
    kernel = _mixture_kernel_attributes()
    assert {"_kernel", "_blocks", "_center", "_block_rows"} <= kernel
    assert not kernel & GROUPING


@pytest.mark.parametrize("module", MODULES)
def test_only_the_mixture_reads_its_kernel(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert _kernel_reads(source, _mixture_kernel_attributes()) == []


def test_import_leaves_numpy_polynomial_unloaded():
    # the quadratures need no Gauss-Legendre table at import time
    code = "import sys, symentropy; print('numpy.polynomial' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert result.stdout.strip() == "False"
