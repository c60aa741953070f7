"""Every top-level definition in `src` is reached from `bcvgeo.cli.main`, or
it is pinned below with the ROADMAP item that decides where it goes;
every defaulted parameter in `src` is passed at some `src` call, or it is
pinned below with the reason no `src` call can pass it; and every name that
an import binds in `src` or `tests` is read there.

A stdlib `ast` walk stands in for a call graph.  A definition reaches each
top-level definition, in any module, whose name it reads as a name or as an
attribute; a class reaches what its methods read, and a module-level
assignment what its value reads.  Matching by name over-approximates the
graph, so a definition this walk does not reach is dead for every
subcommand.  In the same way, a call passes a parameter of every function
or method of the called name, and a call of a class passes the parameters
of its `__init__`; a default that no call passes is a constant.
"""

import ast
import pathlib
from collections import defaultdict

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bcvgeo"

# the definitions that no subcommand reaches, with their destinations
UNREACHED = {
    # item 8: constant-angle surfaces as test objects
    "QuarticReport",
    "constant_angle_quartic_coeffs",
    "constant_angle_suite",
    "constant_angle_codazzi_residual",
    "constant_angle_datum_residual",
    # item 13: the frame-system route of the tangential bitension
    "frame_system_residual",
    # item 10: the biharmonic suite
    "normal_bitension",
    # items 4 and 5: the geometry class in reports and in the sweep
    "GeometryClass",
    "classify_space",
    # item 1: the names that perfbench/tracer.py wraps; refine_sign_change
    # also serves criterion 07, since theorem52 checks its zeros row by row
    "surface_jet",
    "shape_operator",
    "tangential_bitension",
    "refine_sign_change",
}


# the defaulted parameters that no src call passes, with the reason
UNPASSED = {
    # perfbench and the tests pass argv; the console script passes none
    "cli.main(argv)",
    # called through spline instances, which a walk by name cannot see
    "_spline.CubicSpline.__call__(nu)",
}


def _bound(node):
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unreached(sources, root_module="cli", root="main"):
    """{name: line count} of the top-level functions and classes of
    `sources`, {module: source text}, that the walk from the definition
    `root` of `root_module` does not reach."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defs = defaultdict(list)
    for tree in trees.values():
        for node in tree.body:
            for name in _bound(node):
                defs[name].append(node)
    seen = {root}
    todo = [n for n in trees[root_module].body if root in _bound(n)]
    while todo:
        for sub in ast.walk(todo.pop()):
            name = (sub.id if isinstance(sub, ast.Name)
                    else sub.attr if isinstance(sub, ast.Attribute) else None)
            if name in defs and name not in seen:
                seen.add(name)
                todo += defs[name]
    return {node.name: node.end_lineno - node.lineno + 1
            for tree in trees.values() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in seen}


def test_unreached_definitions_are_pinned():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert set(unreached(sources)) == UNREACHED


def test_walk_on_a_toy_source():
    sources = {
        "cli": "from . import m\n"
               "def main():\n"
               "    return m.helper(LIMIT)\n"
               "def dead():\n"
               "    return m.Unused()\n",
        "m": "LIMIT = len(TABLE)\n"
             "TABLE = (1, 2)\n"
             "def helper(n):\n"
             "    return Used().run(n)\n"
             "class Used:\n"
             "    def run(self, n):\n"
             "        return _inner(n)\n"
             "def _inner(n):\n"
             "    return n\n"
             "class Unused:\n"
             "    def run(self):\n"
             "        return 0\n",
    }
    assert unreached(sources) == {"dead": 2, "Unused": 3}


def _defaulted(fn):
    """The names of the parameters of `fn` that have a default."""
    positional = fn.args.posonlyargs + fn.args.args
    names = [a.arg for a in positional[len(positional) - len(fn.args.defaults):]]
    return names + [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]


def unpassed(sources):
    """The defaulted parameters, as "module.qualname(param)", of the top-level
    functions and methods of `sources`, {module: source text}, that no call
    in them passes by keyword or by position."""
    targets = defaultdict(list)   # called name -> [(label, fn, skips self)]
    for mod, tree in ((m, ast.parse(t)) for m, t in sources.items()):
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                targets[node.name].append((f"{mod}.{node.name}", node, False))
            elif isinstance(node, ast.ClassDef):
                for fn in (f for f in node.body if isinstance(f, ast.FunctionDef)):
                    label = f"{mod}.{node.name}.{fn.name}"
                    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                    targets[fn.name].append((label, fn, not static))
                    if fn.name == "__init__":
                        targets[node.name].append((label, fn, True))
    passed = set()
    for text in sources.values():
        for call in (n for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for label, fn, skips_self in targets.get(name, ()):
                params = [a.arg for a in fn.args.posonlyargs + fn.args.args][skips_self:]
                names = []
                for i, arg in enumerate(call.args):
                    # a starred argument may fill every later position
                    names += params[i:] if isinstance(arg, ast.Starred) else params[i:i + 1]
                for kw in call.keywords:
                    # a ** argument may pass any parameter
                    names += [kw.arg] if kw.arg else params + [a.arg for a in fn.args.kwonlyargs]
                passed.update(f"{label}({p})" for p in names)
    return {f"{label}({p})" for entries in targets.values() for label, fn, _ in entries
            for p in _defaulted(fn)} - passed


def test_every_default_is_passed_or_pinned():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unpassed(sources) == UNPASSED


def test_option_walk_on_a_toy_source():
    sources = {
        "cli": "from . import m\n"
               "def main(argv=None):\n"
               "    m.run(1, 2, scale=3.0)\n"
               "    m.Box(4)\n"
               "    m.Box.make(*argv)\n"
               "    return m.Box(4).get(5)\n",
        "m": "def run(a, b=0, scale=1.0, tol=1e-12):\n"
             "    return a\n"
             "class Box:\n"
             "    def __init__(self, w=1, h=1):\n"
             "        self.w = w\n"
             "    def get(self, i, fill=None):\n"
             "        return i\n"
             "    @staticmethod\n"
             "    def make(x, y=2):\n"
             "        return Box(x, y)\n",
    }
    assert unpassed(sources) == {"cli.main(argv)", "m.run(tol)", "m.Box.get(fill)"}


TESTS = SRC.parents[1] / "tests"


def unused_imports(text):
    """The names that the imports of the module source `text` bind and that
    it never reads; a name listed in `__all__` counts as read."""
    tree = ast.parse(text)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if "__all__" in _bound(node):
            used.update(ast.literal_eval(node.value))
    return bound - used


def test_no_unused_imports():
    unused = {p.relative_to(SRC.parents[1]).as_posix(): sorted(unused_imports(p.read_text()))
              for p in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    assert {path: names for path, names in unused.items() if names} == {}


def test_import_walk_on_a_toy_source():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import warnings\n"
              "import numpy as np\n"
              "from . import ambient as amb, immersion\n"
              "from .errors import DomainError, BcvError\n"
              "__all__ = ['BcvError']\n"
              "def f(x):\n"
              "    import math\n"
              "    return os.path.join(np.sqrt(x), amb.EPS_F)\n")
    assert unused_imports(source) == {"warnings", "immersion", "DomainError", "math"}
