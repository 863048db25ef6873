"""Every module-level definition in the package is reached from the CLI,
a north-star entry point or the benchmark, or is named library API."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "inducta").glob("*.py"))
ROOTS = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "src" / "inducta" / "cli.py"]
ENTRY_POINTS = {
    "berge_alpha_omega", "color_berge", "k_in_a_tree", "recognize_unique_chord_free",
    "three_color_chordless", "color_weakly_triangulated", "detect_prism_pyramid_free",
    "hole_through_two", "find_realization",
}
# library API that only the tests call
LIBRARY_API = {
    "oracle.isomorphic", "oracle.ISO_BOUND", "sgraph.pyramid_sgraph", "sgraph.theta_sgraph",
    "bienstock.assignment_hole", "__init__.__all__",
}


def mentioned(node: ast.AST) -> set[str]:
    """Every name the code mentions: variables, attributes, and the
    identifiers inside string constants other than docstrings (a traced
    function's name, say)."""
    docs = {id(sub.body[0].value) for sub in ast.walk(node)
            if isinstance(sub, (ast.Module, ast.FunctionDef, ast.ClassDef))
            and sub.body and isinstance(sub.body[0], ast.Expr)
            and isinstance(sub.body[0].value, ast.Constant)}
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and id(sub) not in docs:
            out |= set(re.findall(r"[A-Za-z_]\w*", sub.value))
    return out


def definitions(source: str) -> dict[str, ast.AST]:
    """The module's top-level functions, classes and assigned names."""
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return out


def unreached(modules: dict[str, str], roots: set[str]) -> list[str]:
    """``module.name`` of each definition in ``modules`` (name -> source)
    whose name no walk from ``roots`` mentions.  The walk goes by name
    alone: a mentioned name reaches every definition so named, and a
    reached definition's body mentions more."""
    defs = {(mod, name): node for mod, src in modules.items() for name, node in definitions(src).items()}
    reached, todo = set(), set(roots)
    while todo:
        name = todo.pop()
        reached.add(name)
        for (mod, def_name), node in defs.items():
            if def_name == name:
                todo |= mentioned(node) - reached
    return sorted(f"{mod}.{name}" for mod, name in defs if name not in reached)


def test_walker_flags_only_unreached_definitions():
    modules = {
        "a": "X = 1\nY = f'{X}'\ndef f():\n    return g()\ndef g():\n    return 'h'\n"
             "def h():\n    'g'\nclass C:\n    def m(self):\n        return X\ndef dead():\n    f()\n",
        "b": "def g():\n    return k.Y\ndef unused():\n    pass\n",
    }
    assert unreached(modules, {"f"}) == ["a.C", "a.dead", "b.unused"]


def test_every_definition_is_reached_or_library_api():
    roots = set(ENTRY_POINTS)
    for path in ROOTS:
        roots |= mentioned(ast.parse(path.read_text()))
    modules = {path.stem: path.read_text() for path in SOURCES}
    assert set(unreached(modules, roots)) == LIBRARY_API
