"""Every top-level definition in `src` is reached from `bcvgeo.cli.main`, or
it is pinned below with the ROADMAP item that decides where it goes;
every defaulted parameter in `src` is passed at some `src` call, or it is
pinned below with the reason no `src` call can pass it; every parameter of
every `src` function, nested functions included, is read in its body, or it
is pinned below with the contract that requires it; and every name that an
import binds in `src` or `tests` is read there.

A stdlib `ast` walk stands in for a call graph.  A definition reaches each
top-level definition, in any module, whose name it reads as a name or as an
attribute; a class reaches what its bases, decorators and class-level
statements read, and a module-level assignment what its value reads.  A
method of a reached class is reached when reached code reads its name, as
an attribute or as a string (`getattr(obj, name)`), and a dunder when its
class is; a reached method reaches what it reads.  Matching by name
over-approximates the graph, so a definition this walk does not reach is
dead for every subcommand.  In the same way, a call passes a parameter of
every function or method of the called name, and a call of a class passes
the parameters of its `__init__`; a default that no call passes is a
constant.
"""

import ast
import pathlib
from collections import defaultdict

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bcvgeo"

# the definitions and the methods that no subcommand reaches, with their
# destinations
UNREACHED = {
    # item 8: constant-angle surfaces as test objects
    "QuarticReport",
    "constant_angle_quartic_coeffs",
    "constant_angle_suite",
    "constant_angle_codazzi_residual",
    "constant_angle_datum_residual",
    # item 13: the frame-system route of the tangential bitension, and the
    # stage that only it reads
    "frame_system_residual",
    "Stages.lam_e2",
    # item 10: the biharmonic suite, and the stage that only it reads
    "normal_bitension",
    "Stages.laplacian",
    "_laplacian",
    # items 4 and 5: the geometry class in reports and in the sweep
    "GeometryClass",
    "classify_space",
    # item 1: the names that perfbench/tracer.py wraps; refine_sign_change
    # also serves criterion 07, since theorem52 checks its zeros row by row
    "surface_jet",
    "refine_sign_change",
}


# the defaulted parameters that no src call passes, with the reason
UNPASSED = {
    # perfbench and the tests pass argv; the console script passes none
    "cli.main(argv)",
    # called through spline instances, which a walk by name cannot see
    "_spline.CubicSpline.__call__(nu)",
}


# the parameters that their function never reads, with the contract
UNREAD = {
    # the suite registry calls every suite as fn(params, rng), or the three
    # surface suites as fn(their report's _SurfacePass, rng)
    "suites._suite_gauss_codazzi(rng)",
    "suites._suite_biconservative(rng)",
    "suites._suite_theorem44(rng)",
    # a chart's partials take (u, v); a vertical cylinder's do not vary with v
    "rotation.hopf_tube.partials(v)",
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
    `root` of `root_module` does not reach, and of the methods, named
    "Class.method", of the classes that it does reach."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defs = defaultdict(list)   # name -> the statements that a read of it reaches
    methods = {}               # "Class.method" -> its definition
    for tree in trees.values():
        for node in tree.body:
            parts = [node]
            if isinstance(node, ast.ClassDef):
                own = [f for f in node.body if isinstance(f, ast.FunctionDef)]
                methods.update((f"{node.name}.{f.name}", f) for f in own)
                parts = node.decorator_list + node.bases + [b for b in node.body if b not in own]
            for name in _bound(node):
                defs[name] += parts
    seen = {root}
    attrs = set()   # the attribute names and the strings that reached code reads
    todo = [n for n in trees[root_module].body if root in _bound(n)]
    while todo:
        for sub in ast.walk(todo.pop()):
            name = (sub.id if isinstance(sub, ast.Name)
                    else sub.attr if isinstance(sub, ast.Attribute) else None)
            if name in defs and name not in seen:
                seen.add(name)
                todo += defs[name]
            if isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                attrs.add(sub.value)
        if not todo:
            # a method of a reached class is reached by a read of its name,
            # a dunder by the class itself
            for qualname, fn in methods.items():
                cls, _, name = qualname.partition(".")
                dunder = name.startswith("__") and name.endswith("__")
                if cls in seen and qualname not in seen and (dunder or name in attrs):
                    seen.add(qualname)
                    todo.append(fn)
    tops = [(n.name, n) for tree in trees.values() for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
    members = [(q, f) for q, f in methods.items() if q.partition(".")[0] in seen]
    return {q: node.end_lineno - node.lineno + 1 for q, node in tops + members if q not in seen}


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


def test_method_walk_on_a_toy_source():
    sources = {
        "cli": "from . import m\n"
               "def main():\n"
               "    box, grow = m.Box(), 2\n"
               "    return box.size + grow, getattr(box, 'label')\n",
        "m": "class Box:\n"
             "    def __init__(self):\n"
             "        self.n = 1\n"
             "    def __repr__(self):\n"
             "        return _shown(self)\n"
             "    @property\n"
             "    def size(self):\n"
             "        return self.n\n"
             "    def label(self):\n"
             "        return 'box'\n"
             "    def grow(self):\n"
             "        return _grown(self)\n"
             "def _shown(box):\n"
             "    return str(box.n)\n"
             "def _grown(box):\n"
             "    return box\n",
    }
    assert unreached(sources) == {"Box.grow": 2, "_grown": 2}


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


def unread(sources):
    """The parameters, as "module.qualname(param)", of the functions and
    lambdas of `sources`, {module: source text}, nested ones included, that
    their body never reads; a read in a nested function counts."""
    found = set()

    def visit(node, mod, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                qualname = prefix + getattr(child, "name", "<lambda>")
                a = child.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                          + [p for p in (a.vararg, a.kwarg) if p]]
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                found.update(f"{mod}.{qualname}({p})" for p in params if p not in read)
                visit(child, mod, qualname + ".")
            else:
                visit(child, mod, prefix + child.name + "." if isinstance(child, ast.ClassDef)
                      else prefix)

    for mod, text in sources.items():
        visit(ast.parse(text), mod, "")
    return found


def test_every_parameter_is_read_or_pinned():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread(sources) == UNREAD


def test_parameter_walk_on_a_toy_source():
    sources = {
        "m": "def run(params, u, v, *args, scale=1.0, **opts):\n"
             "    def inner(a, b):\n"
             "        return a + scale\n"
             "    return inner(u, args) + max(opts, key=lambda k, d=0: 1)\n"
             "class Box:\n"
             "    def get(self, i):\n"
             "        return [params := i]\n",
    }
    assert unread(sources) == {"m.run(params)", "m.run(v)", "m.run.inner(b)",
                               "m.run.<lambda>(k)", "m.run.<lambda>(d)", "m.Box.get(self)"}


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
