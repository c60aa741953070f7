"""Every top-level definition in `src` is reached from `bcvgeo.cli.main`, or
it is pinned below with the ROADMAP item that decides where it goes.

A stdlib `ast` walk stands in for a call graph.  A definition reaches each
top-level definition, in any module, whose name it reads as a name or as an
attribute; a class reaches what its methods read, and a module-level
assignment what its value reads.  Matching by name over-approximates the
graph, so a definition this walk does not reach is dead for every
subcommand.
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
    # item 12: read in gauss-codazzi, or it leaves src
    "surface_connection_residual",
    # item 1: the names that perfbench/tracer.py wraps
    "surface_jet",
    "shape_operator",
    "tangential_bitension",
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
