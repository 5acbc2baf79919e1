"""Dead-API gate: every exported name has a caller in the package or a reason.

Each name in a module's __all__ must be defined in that module and be
reached from code that runs: a module's top-level statements (the CLI's
`__main__` block among them), or the body of a function or class that is
itself reached.  A reference is a name read in the defining module, or in
another module through `from .module import name` or `module.name`.  So a
chain of helpers whose head has no caller is dead as a whole, and a
function's calls to itself do not count.  Names kept as API without such a
caller are listed in KEPT_API with a one-line reason; their own callees
count as reached.  verify, the entry point of the checks, imports no private
name from another module.  The gate reads the source with the standard
library's ast only; docstrings and doctests do not count as callers.
"""

import ast
from pathlib import Path

import crystaltiles

PACKAGE = Path(crystaltiles.__file__).resolve().parent

KEPT_API = {
    "bz.trop_chamber_ansatz": "the tropical Chamber Ansatz: Lusztig data read off BZ data",
    "lusztig.star_datum": "the Kashiwara involution on Lusztig data",
    "lusztig.transition": "the transition map between words; the BZ route is checked against it",
    "lusztig.weight": "the weight of a Lusztig datum over the simple roots",
    "potentials.tropical_cone": "the min-plus shadow of a positive Laurent polynomial",
    "potentials.eval_cluster_mutation": "the benchmark's potentials workload calls it",
    "strings.string_op_f": "the string operator on StringDatum; polar_duality_check runs its body",
}


def _modules():
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _imports(tree):
    """{local alias: (module, name)} for `from .module import name`, and
    the local names of modules imported as `from . import module`."""
    names, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    return names, modules


def _targets(node):
    """The names a top-level assignment binds."""
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _graph(trees):
    """Every top-level function, class and assigned name as a node
    (module, name), with the package names that a function or class body
    refers to as its edges, and as roots the names referred to by the
    statements that run at import."""
    defined = set()
    for home, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((home, node.name))
            defined.update((home, name) for name in _targets(node))
    edges, roots = {}, set()
    for home, tree in trees.items():
        imported, modules = _imports(tree)

        def refs(node, home=home, imported=imported, modules=modules):
            out = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    out.add(imported.get(sub.id, (home, sub.id)))
                elif (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id in modules
                ):
                    out.add((sub.value.id, sub.attr))
            return out & defined

        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                edges[home, node.name] = refs(node) - {(home, node.name)}
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= refs(node)
    return edges, roots


def dead_exports(trees, kept=()):
    """Exported names, as "module.name", that are not defined in their module
    or are not reached from code that runs at import or from the names in
    kept."""
    edges, roots = _graph(trees)
    stack = list(roots) + [tuple(name.split(".")) for name in kept]
    live = set()
    while stack:
        node = stack.pop()
        if node not in live:
            live.add(node)
            stack.extend(edges.get(node, ()))
    return sorted(
        f"{home}.{name}"
        for home, tree in trees.items()
        for name in _exported(tree)
        if (home, name) not in live
    )


def test_every_export_has_a_caller_or_a_reason():
    assert dead_exports(_modules(), KEPT_API) == []


def test_kept_api_lists_only_names_without_a_caller():
    trees = _modules()
    for name in KEPT_API:
        assert name in dead_exports(trees, set(KEPT_API) - {name}), name


def test_verify_imports_no_private_name():
    imported, _ = _imports(_modules()["verify"])
    private = sorted(f"{m}.{name}" for m, name in imported.values() if name.startswith("_"))
    assert private == []


def test_gate_catches_an_uncalled_export():
    """A synthetic package: an export whose only callers are itself or an
    uncalled export is dead, down to the constant its dead callee reads; a
    kept name, or a call from a function that a sibling module's top level
    reaches, revives the chain."""
    words = ast.parse(
        '__all__ = ["walk", "step", "used", "LIMIT"]\n'
        "LIMIT = 3\n"
        "def walk(n):\n    return walk(step(n))\n"
        "def step(n):\n    return n - LIMIT\n"
        "def used():\n    pass\n"
    )
    cli = ast.parse("from .words import used\nused()\n")
    dead = ["words.LIMIT", "words.step", "words.walk"]
    assert dead_exports({"words": words, "cli": cli}) == dead
    assert dead_exports({"words": words, "cli": cli}, {"words.walk"}) == []
    revived = ast.parse(
        "from . import words\n"
        "from .words import used\n"
        "def main():\n    used()\n    return words.walk(3)\n"
        "main()\n"
    )
    assert dead_exports({"words": words, "cli": revived}) == []
