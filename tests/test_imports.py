"""No module of the package keeps an import that its code never names,
no module-level private name or private attribute stored on ``self``
goes unread across the package, every error class of ``errors.py`` is
raised by some other module, and every parameter of every function is
read in its body.  Every public function, method and property is named
somewhere in the package or kept, with its reason, in ``UNNAMED_BUT_KEPT``.
No module stores an attribute on a name ``plant``: only
``ProbePlant.align`` writes the plant.

``__init__.py`` is left out of the import and public-name checks: its
imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

import palpsim

PACKAGE = Path(palpsim.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports in ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - read)


def test_the_check_finds_an_unused_import():
    source = ("from itertools import chain\nimport numpy as np\nimport os.path\n"
              "from .search import gp_fit, next_cell_bo\nnp.zeros(next_cell_bo)\n")
    assert unused_imports(source) == ["chain", "gp_fit", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_has_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unread_private_names(sources: list[str]) -> list[str]:
    """Private names bound at the top level of any of ``sources`` that no
    expression or ``from`` import in any of them reads."""
    trees = [ast.parse(source) for source in sources]
    bound, read = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(n for n in bound - read if n.startswith("_") and not n.startswith("__"))


def test_the_check_finds_an_unread_private_name():
    sources = ["_A = 1\n_B: int = 2\n_C, _D = 3, 4\ndef _f():\n    return _A + _C\n"
               "class _G:\n    _h = 5\n__all__ = []\n",
               "from .m import _f\n_f()\n"]
    assert unread_private_names(sources) == ["_B", "_D", "_G"]


def test_every_module_level_private_name_is_read():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


def unread_private_attributes(sources: list[str]) -> list[str]:
    """Private attributes that some method stores on ``self`` (``self._a = ...``,
    ``self._a += ...``) and no expression in any of ``sources`` reads."""
    stored, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name)
                  and node.value.id == "self"):
                stored.add(node.attr)
    return sorted(n for n in stored - read
                  if n.startswith("_") and not (n.startswith("__") and n.endswith("__")))


def test_the_check_finds_an_unread_private_attribute():
    sources = ["class A:\n    def __init__(self):\n        self._a = 1\n"
               "        self._b, self.c = 2, 3\n        self._d = self._e = 4\n"
               "        self.__f = 5\n        self.__dict__ = {}\n"
               "    def m(self, o):\n        self._e += 1\n        return self._a + o._g\n",
               "def f(x):\n    x._h = 1\n    return x._d\n"]
    assert unread_private_attributes(sources) == ["__f", "_b", "_e"]


def test_every_private_attribute_stored_on_self_is_read():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_attributes(sources) == []


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """Exception classes of ``errors_source``, other than the base
    ``PalpSimError``, that no ``raise`` statement in ``sources`` names."""
    defined = {node.name for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef)} - {"PalpSimError"}
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return sorted(defined - raised)


def test_the_check_finds_an_unraised_error():
    errors = ("class PalpSimError(Exception):\n    pass\nclass A(PalpSimError):\n    pass\n"
              "class B(PalpSimError):\n    pass\nclass C(PalpSimError):\n    pass\n")
    sources = ["def f():\n    raise A('x')\n",
               "try:\n    pass\nexcept B:\n    raise\nraise C from None\nB('not raised')\n"]
    assert unraised_errors(errors, sources) == ["B"]


def test_every_error_class_is_raised_outside_errors_py():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "errors.py"]
    assert unraised_errors((PACKAGE / "errors.py").read_text(), sources) == []


def unread_parameters(source: str) -> list[str]:
    """``Qual.name/param`` for each parameter of a ``def`` in ``source``
    that no expression in its body (nested functions included) reads."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}."
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg,
                                          a.kwarg) if p is not None]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.extend(f"{prefix}{child.name}/{p}" for p in params if p not in read)
            visit(child, name)

    visit(ast.parse(source), "")
    return found


def test_the_check_finds_an_unread_parameter():
    source = ("def f(a, b=1, *args, c, **kw):\n    return a + c\n"
              "class K:\n    def m(self, x):\n        def g(y):\n            return x\n"
              "        return g\n"
              "    @staticmethod\n    def s(z=lambda: 0):\n        z = 1\n")
    assert unread_parameters(source) == ["f/b", "f/args", "f/kw", "K.m/self", "K.m.g/y",
                                         "K.s/z"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_parameter_is_read(module):
    assert unread_parameters((PACKAGE / module).read_text()) == []


def plant_attribute_stores(source: str) -> list[str]:
    """``plant.<attr>`` for each attribute that ``source`` stores on a name
    ``plant``: assignment targets, tuple targets and augmented assignments."""
    return sorted(f"plant.{node.attr}" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "plant")


def test_the_check_finds_a_plant_attribute_store():
    source = ("def f(plant, other, self):\n    plant.px = 1.0\n"
              "    plant.py, [plant.pz, a] = 2, [3, 4]\n    plant.vx += 1.0\n"
              "    plant.w: float = 0.0\n    other.px = plant.px\n"
              "    self.vy = plant.vy\n    plant.axis[0] = 1.0\n")
    assert plant_attribute_stores(source) == ["plant.px", "plant.py", "plant.pz", "plant.vx",
                                              "plant.w"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_writes_a_plant_attribute(module):
    assert plant_attribute_stores((PACKAGE / module).read_text()) == []


def unnamed_public_functions(sources: list[str]) -> list[str]:
    """``name`` or ``Class.name`` for each public function, method and
    property defined at module or class level in ``sources`` whose name no
    expression in any of them reads, as a name or as an attribute."""
    defined, read = [], set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not child.name.startswith("_")):
                defined.append((f"{prefix}{child.name}", child.name))

    for source in sources:
        tree = ast.parse(source)
        visit(tree, "")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(qual for qual, name in defined if name not in read)


# Public functions that no other code of the package names, and why each stays.
_ACCEPTANCE = "tests/test_acceptance.py checks the paper's claims with it"
_PERFBENCH = "perfbench times or counts it by name"
_HELPER = "tests and demos build or check scenes with it"
UNNAMED_BUT_KEPT = {
    "gp_fit": _ACCEPTANCE,
    "GPModel.predict_many": _ACCEPTANCE,
    "impedance_force": _ACCEPTANCE,
    "compensate_tip_weight": _ACCEPTANCE,
    "table1_matrix": _ACCEPTANCE,
    "PalpationTrajectory.terminal_xy": _ACCEPTANCE,
    "PalpationTrajectory.duration": _ACCEPTANCE,
    "Phantom.contact_force": _PERFBENCH,
    "Phantom.surface_normal": _PERFBENCH,
    "remove_z_offset": _PERFBENCH,
    "Phantom.z_skin": _HELPER,
    "Phantom.h_tumor": _HELPER,
    "flat_profile": _HELPER,
    "gauss_bump": _HELPER,
    "_Triangulation.transform": "scipy's CloughTocher2DInterpolator reads it",
}


def test_the_check_finds_an_unnamed_public_function():
    sources = ["def used():\n    def nested():\n        pass\n    return helper.run()\n"
               "def unused():\n    pass\n"
               "def _private():\n    pass\n"
               "class K:\n    def run(self):\n        pass\n    @property\n"
               "    def size(self):\n        return 1\n    def __len__(self):\n"
               "        return 0\n    def stored(self):\n        self.stored = 1\n",
               "from .m import used\nused()\n"]
    assert unnamed_public_functions(sources) == ["K.size", "K.stored", "unused"]


def test_every_public_function_is_named_in_the_package_or_kept_for_a_reason():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert unnamed_public_functions(sources) == sorted(UNNAMED_BUT_KEPT)
