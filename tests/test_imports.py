"""Every name a `solvgeom` module imports is used in it or listed in its `__all__`,
and every module-level private name is read somewhere in the package."""

import ast
from pathlib import Path

import pytest

import solvgeom

MODULES = sorted(Path(solvgeom.__file__).parent.glob("*.py"))


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                # `import a.b` binds a
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_package_init_only_re_exports():
    # the package's imports are its public namespace, so the scan above skips it:
    # each must re-export a name of a submodule
    tree = ast.parse(Path(solvgeom.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert isinstance(node, ast.ImportFrom) and node.level == 1


def test_the_scan_finds_an_unused_import():
    source = "import math\nfrom numpy import linalg, pi\nx = pi\n"
    assert _unused_imports(source) == [(1, "math"), (2, "linalg")]
    assert _unused_imports("import math\n__all__ = ['math']\n") == []


def _dead_private_names(sources):
    """(module, name) for each module-level private function, class or assignment
    in sources (module name -> source) that no other statement of the package reads,
    by name, as an attribute or in an import."""
    defined, read = [], set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = {statement.name}
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = (statement.targets if isinstance(statement, ast.Assign)
                           else [statement.target])
                names = {n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            else:
                names = set()
            names = {n for n in names if n.startswith("_") and not n.startswith("__")}
            refs = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs.add(node.id)
                elif isinstance(node, ast.Attribute):
                    refs.add(node.attr)
                elif isinstance(node, ast.alias):
                    refs.add(node.name)
            # a statement's reads of the names it defines (recursion) do not count
            read |= refs - names
            defined += [(module, n) for n in sorted(names)]
    return [(module, name) for module, name in defined if name not in read]


def test_every_private_name_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert _dead_private_names(sources) == []


def test_the_scan_finds_a_left_behind_private_name():
    sources = {p.stem: p.read_text() for p in MODULES}
    sources["algebra"] += "\n_SUBSET_BLOCK = 4096\n"
    assert _dead_private_names(sources) == [("algebra", "_SUBSET_BLOCK")]
    # recursion alone is no reader; a read from another module, or an import, is one
    assert _dead_private_names({"m": "def _f(n):\n    return _f(n - 1)\n"}) == [("m", "_f")]
    assert _dead_private_names({"m": "_X = 1\n", "k": "from .m import _X\n"}) == []
    assert _dead_private_names({"m": "_X = 1\n", "k": "y = m._X\n"}) == []
