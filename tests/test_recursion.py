"""No function in the package calls itself unless its depth has a named
bound: a recursion that grows with the input turns a valid input into a
RecursionError (exit 4).  The scan sees direct self-calls, by name or
through ``self``/``cls``; recursion through another function or a builtin
such as ``repr`` escapes it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "inducta").glob("*.py"))

# each recursion left in the package, with the bound that caps its depth
BOUNDED = {
    "berge.side_parity.dfs": "one level per vertex of the path, at most the side's size",
    "berge.all_proper_nonpath_two_joins.place": "one level per vertex, n <= FULL_ENUM_BOUND",
    "berge._decompose": "one level per 2-join, capped at n + 8 by its depth check",
    "classify._two_pair_in": "C(T) misses T, so at most |V| levels (2-4 measured)",
    "kintree._csp_split.search": "one level per non-terminal vertex of the split's universe",
    "linegraph.maximal_cliques.bk": "one level per clique vertex, at most omega + 1",
    "matching.max_weight_matching.rec": "one or two vertices per level, at most MATCHING_BOUND",
    "oracle.max_weight_stable_set.rec": "one vertex per level, n <= ALPHA_BOUND",
    "oracle.chromatic_number.rec": "one vertex per level, n <= CHI_BOUND",
    "oracle.induced_embedding.rec": "one pattern vertex per level, at most the host's order",
    "sgraph.find_realization.route": "one level per s-graph edge",
    "sgraph.find_realization.route.grow": "one level per interior vertex of a path, at most max_len",
    "sgraph.find_realization.place": "one level per s-graph vertex",
}


def self_calls(source: str, module: str) -> list[str]:
    """``module.outer.name`` of every function, nested ones included,
    whose body calls it by name, or through ``self`` or ``cls`` in a
    method."""
    out = []
    todo = [(ast.parse(source), module, False)]
    while todo:
        node, prefix, in_class = todo.pop()
        for child in reversed(list(ast.iter_child_nodes(node))):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                if any(isinstance(c, ast.Call) and (
                        isinstance(c.func, ast.Name) and c.func.id == child.name
                        or in_class and isinstance(c.func, ast.Attribute)
                        and c.func.attr == child.name
                        and isinstance(c.func.value, ast.Name) and c.func.value.id in ("self", "cls"))
                       for c in ast.walk(child)):
                    out.append(name)
                todo.append((child, name, False))
            elif isinstance(child, ast.ClassDef):
                todo.append((child, f"{prefix}.{child.name}", True))
            else:
                todo.append((child, prefix, in_class))
    return sorted(out)


def test_scan_finds_nested_and_method_self_calls():
    src = ("def f(n):\n    return f(n - 1)\n"
           "def g():\n    def h(k):\n        return [h(k - 1) for _ in ()]\n    return h(3)\n"
           "class C:\n    def m(self):\n        return self.m()\n    def r(self):\n        return repr(self)\n"
           "def plain():\n    return f(1)\n")
    assert self_calls(src, "mod") == ["mod.C.m", "mod.f", "mod.g.h"]


def test_every_recursion_has_a_named_bound():
    found = sorted(name for path in SOURCES for name in self_calls(path.read_text(), path.stem))
    assert found == sorted(BOUNDED)
