"""Every name a `solvgeom` module imports is used in it or listed in its `__all__`."""

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
