"""Every name a `solvgeom` module imports is used in it or listed in its `__all__`,
the package namespace is the union of those lists, every module-level private
name is read somewhere in the package, every public function, class and
method is read somewhere in the package, the demos or the benchmark harness,
and every defaulted parameter is set by some call there."""

import ast
import importlib
import math
from pathlib import Path

import pytest

import solvgeom

MODULES = sorted(Path(solvgeom.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


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
    # each module's `__all__` is the one list of its public names
    exported = set()
    for path in MODULES:
        if path.name not in ("__init__.py", "cli.py"):
            names = set(importlib.import_module(f"solvgeom.{path.stem}").__all__)
            assert not names & exported
            exported |= names | {path.stem}
    # the package binds `cli` only once something imports solvgeom.cli
    public = {n for n in vars(solvgeom) if not n.startswith("_")}
    assert public - {"cli"} == exported


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


def _unread_public_names(sources, readers):
    """(module, name) for each public top-level function or class, and each public
    method, in sources (module name -> source) that nothing reads outside its own
    definition: no other statement of the package, and no source of readers, reads
    it by name, as an attribute or in an import."""
    defined, sites = [], {}
    for module, source in {**sources, **readers}.items():
        for i, statement in enumerate(ast.parse(source).body):
            parts = [((module, i), statement)]
            if isinstance(statement, ast.ClassDef):
                # each method is its own site, so a method read by a sibling is read
                methods = [m for m in statement.body if isinstance(m, ast.FunctionDef)]
                parts = [((module, i), n) for n in (*statement.decorator_list, *statement.bases,
                                                    *statement.keywords, *statement.body)
                         if n not in methods]
                parts += [((module, i, j), m) for j, m in enumerate(methods)]
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) and module in sources:
                defined.append(((module, i), statement.name))
                defined += [(site, part.name) for site, part in parts if len(site) == 3]
            for site, part in parts:
                for node in ast.walk(part):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        sites.setdefault(node.id, set()).add(site)
                    elif isinstance(node, ast.Attribute):
                        sites.setdefault(node.attr, set()).add(site)
                    elif isinstance(node, ast.alias):
                        sites.setdefault(node.name, set()).add(site)

    def read_outside(site, name):
        # a read inside the definition (recursion, a class's own methods) does not count
        return any(s[:len(site)] != site for s in sites.get(name, ()))

    return [(site[0], name) for site, name in defined
            if not name.startswith("_") and not read_outside(site, name)]


def _package_and_readers():
    # re-exports in __init__ read nothing; the demos and the benchmark harness do
    sources = {p.stem: p.read_text() for p in MODULES if p.name != "__init__.py"}
    readers = {str(p.relative_to(ROOT)): p.read_text()
               for d in ("demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))}
    return sources, readers


# ROADMAP item 4 (the Carnot table by constructions) gives it its first caller:
# the complement s <-> dim so(r) - s of a uniform family is uniform
UNREAD_BUT_KEPT = [("carnot", "complement_uniform")]


def test_every_public_name_is_read_outside_the_tests():
    # a name only the tests call belongs in tests/oracles.py
    assert _unread_public_names(*_package_and_readers()) == UNREAD_BUT_KEPT


def test_the_scan_finds_a_public_name_only_the_tests_call():
    sources, readers = _package_and_readers()
    sources["algebra"] += "\n\ndef unit_vector(alg, i):\n    return unit_vector(alg, i)\n"
    assert _unread_public_names(sources, readers) == [("algebra", "unit_vector")] + UNREAD_BUT_KEPT
    # a method read by a sibling or from outside is read; a class read only by its methods
    # and a method read only by itself are not
    cls = ("class A:\n    def f(self):\n        return self.g()\n\n"
           "    def g(self):\n        return A, self.g\n\n    def h(self):\n        return self.h()\n")
    assert _unread_public_names({"m": cls}, {}) == [("m", "A"), ("m", "f"), ("m", "h")]
    assert _unread_public_names({"m": cls}, {"demo.py": "A().f().h()\n"}) == []
    assert _unread_public_names({"m": "def f():\n    pass\n", "k": "from .m import f\n"}, {}) == []


def _unset_knobs(sources, callers):
    """(module, function, parameter) for each defaulted parameter of a function
    or method in sources (module name -> source) that no call in callers (name ->
    source) sets, by keyword or by position; a call that splats *args or
    **kwargs sets every parameter it could reach."""
    calls = {}
    for source in callers.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(
                    (math.inf if starred else len(node.args),
                     None if None in keywords else keywords))
    unset = []
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = {id(m) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for m in c.body if isinstance(m, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            spec = fn.args
            positional = spec.posonlyargs + spec.args
            # a method's first parameter is bound by the attribute call
            offset = int(id(fn) in methods and not any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list))
            knobs = [(i - offset, p.arg) for i, p in enumerate(positional)
                     if i >= len(positional) - len(spec.defaults)]
            knobs += [(math.inf, p.arg) for p, d in zip(spec.kwonlyargs, spec.kw_defaults)
                      if d is not None]
            for index, param in knobs:
                if not any(n > index or kw is None or param in kw
                           for n, kw in calls.get(fn.name, ())):
                    unset.append((module, fn.name, param))
    return unset


def _package_and_callers():
    sources = {p.stem: p.read_text() for p in MODULES}
    callers = {str(p.relative_to(ROOT)): p.read_text()
               for d in ("src", "demos", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))}
    return sources, callers


# the tests drive the iteration cap of the descent through it
UNSET_BUT_KEPT = [("carnot", "_descend", "max_iter")]


def test_every_knob_is_set_outside_the_tests():
    # a default that no caller changes is a constant, not a parameter
    assert _unset_knobs(*_package_and_callers()) == UNSET_BUT_KEPT


def test_the_scan_finds_a_knob_no_caller_sets():
    sources, callers = _package_and_callers()
    planted = "\n\ndef unit_vector(alg, i, scale=1.0, *, dtype=None):\n    return i\n"
    sources["algebra"] += planted
    callers["src/solvgeom/algebra.py"] += planted + "\nunit_vector(None, 0)\n"
    assert _unset_knobs(sources, callers) == [
        ("algebra", "unit_vector", "scale"), ("algebra", "unit_vector", "dtype")] + UNSET_BUT_KEPT
    # a call sets a knob by position, by keyword or through a splat
    for call in ("unit_vector(None, 0, 2.0, dtype=int)", "x.unit_vector(*args, **kwargs)"):
        assert _unset_knobs({"m": planted}, {"k": call}) == []
    assert _unset_knobs({"m": planted}, {"k": "unit_vector(None, 0, 2.0)"}) == [
        ("m", "unit_vector", "dtype")]
    # a method's self is bound by the call
    method = "class A:\n    def f(self, x=1):\n        return x\n"
    assert _unset_knobs({"m": method}, {"k": "A().f()"}) == [("m", "f", "x")]
    assert _unset_knobs({"m": method}, {"k": "A().f(2)"}) == []
