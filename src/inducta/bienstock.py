"""Hardness gadget generators: 3-SAT to hole-through-two-vertices, and
the follow-up reduction to prism detection.

The first construction builds, for a 3-CNF formula f, a triangle-free
graph G_f with two degree-2 nonadjacent vertices a, b such that G_f has
a hole through a and b iff f is satisfiable.  The second replaces a and
b by five-vertex triangle gadgets, giving a graph with exactly two
triangles that contains a prism iff the original instance had a hole
through the marked pair.
"""

from __future__ import annotations

from .graphs import FrozenRecord, Graph, GraphError, InternalError, Record


class Cnf3(FrozenRecord):
    """A 3-CNF formula: clauses of exactly three literals.

    Literals are non-zero ints, DIMACS style: +v or -v with v in 1..n.
    Clauses on repeated variables are rejected: the gadget's literal
    cross-edges would collide.
    """

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: tuple[tuple[int, int, int], ...]):
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "clauses", clauses)

    @staticmethod
    def make(num_vars: int, clauses) -> "Cnf3":
        if num_vars < 1:
            raise GraphError("need at least one variable")
        cls = []
        for cl in clauses:
            lits = tuple(cl)
            if len(lits) != 3:
                raise GraphError(f"clause {cl} must have exactly 3 literals")
            vs = [abs(l) for l in lits]
            if any(l == 0 or abs(l) > num_vars for l in lits):
                raise GraphError(f"literal out of range in {cl}")
            if len(set(vs)) != 3:
                raise GraphError(f"clause {cl} repeats a variable")
            cls.append(lits)
        if not cls:
            raise GraphError("need at least one clause")
        return Cnf3(num_vars, tuple(cls))

    def satisfying_assignment(self) -> list[bool] | None:
        """Truth-table search; None when unsatisfiable."""
        n = self.num_vars
        for mask in range(1 << n):
            if all(
                any((mask >> (abs(l) - 1) & 1) == (l > 0) for l in cl)
                for cl in self.clauses
            ):
                return [bool(mask >> i & 1) for i in range(n)]
        return None


def parse_dimacs_cnf(text: str) -> Cnf3:
    num_vars = 0
    clauses: list[list[int]] = []
    current: list[int] = []
    saw_header = False
    for k, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("c"):
            continue
        if ln.startswith("p"):
            parts = ln.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise GraphError(f"bad DIMACS header: {ln!r}")
            num_vars, _ = _dimacs_ints(parts[2:], k)
            saw_header = True
            continue
        for lit in _dimacs_ints(ln.split(), k):
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    if not saw_header:
        raise GraphError("missing 'p cnf' header")
    return Cnf3.make(num_vars, clauses)


def _dimacs_ints(tokens: list[str], k: int) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise GraphError(f"line {k}: expected integers") from None


def format_dimacs_cnf(f: Cnf3) -> str:
    out = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    out += [" ".join(str(l) for l in cl) + " 0" for cl in f.clauses]
    return "\n".join(out) + "\n"


class GadgetGraph(Record):
    __slots__ = ("graph", "a", "b", "labels")

    def __init__(self, graph: Graph, a: int, b: int, labels: dict[int, str]):
        self.graph = graph
        self.a = a
        self.b = b
        self.labels = labels


def gamma_gadget(f: Cnf3) -> GadgetGraph:
    """Build G_f: 8 vertices per variable, 5 per clause, plus a and b.

    Per variable i: a_i, b_i, t_i, f_i and primed copies, wired as two
    4-holes plus the two crossings t_i f'_i and t'_i f_i.  Per clause j:
    c_j, d_j and three literal vertices each adjacent to both.  A
    literal vertex attaches to the two vertices of its variable gadget
    of opposite truth value, the gadgets are chained, and a, b close the
    two ends.
    """
    n, m = f.num_vars, len(f.clauses)
    labels: dict[int, str] = {}
    idx: dict[str, int] = {}

    def new(name: str) -> int:
        v = len(labels)
        labels[v] = name
        idx[name] = v
        return v

    for i in range(1, n + 1):
        for nm in ("a", "b", "t", "f", "a'", "b'", "t'", "f'"):
            new(f"{nm}{i}")
    for j in range(1, m + 1):
        for nm in ("c", "d", "v1", "v2", "v3"):
            new(f"{nm}{j}")
    va = new("a")
    vb = new("b")

    g = Graph(len(labels))
    E = g.add_edge_unchecked
    for i in range(1, n + 1):
        E(idx[f"a{i}"], idx[f"t{i}"])
        E(idx[f"a{i}"], idx[f"f{i}"])
        E(idx[f"b{i}"], idx[f"t{i}"])
        E(idx[f"b{i}"], idx[f"f{i}"])
        E(idx[f"a'{i}"], idx[f"t'{i}"])
        E(idx[f"a'{i}"], idx[f"f'{i}"])
        E(idx[f"b'{i}"], idx[f"t'{i}"])
        E(idx[f"b'{i}"], idx[f"f'{i}"])
        E(idx[f"t{i}"], idx[f"f'{i}"])
        E(idx[f"t'{i}"], idx[f"f{i}"])
    for j, cl in enumerate(f.clauses, start=1):
        E(idx[f"c{j}"], idx[f"v1{j}"])
        E(idx[f"c{j}"], idx[f"v2{j}"])
        E(idx[f"c{j}"], idx[f"v3{j}"])
        E(idx[f"d{j}"], idx[f"v1{j}"])
        E(idx[f"d{j}"], idx[f"v2{j}"])
        E(idx[f"d{j}"], idx[f"v3{j}"])
        for p, lit in enumerate(cl, start=1):
            i = abs(lit)
            if lit > 0:
                E(idx[f"v{p}{j}"], idx[f"f{i}"])
                E(idx[f"v{p}{j}"], idx[f"f'{i}"])
            else:
                E(idx[f"v{p}{j}"], idx[f"t{i}"])
                E(idx[f"v{p}{j}"], idx[f"t'{i}"])
    for i in range(1, n):
        E(idx[f"b{i}"], idx[f"a{i+1}"])
        E(idx[f"b'{i}"], idx[f"a'{i+1}"])
    E(idx[f"b'{n}"], idx["c1"])
    for j in range(1, m):
        E(idx[f"d{j}"], idx[f"c{j+1}"])
    E(va, idx["a1"])
    E(va, idx["a'1"])
    E(vb, idx[f"d{m}"])
    E(vb, idx[f"b{n}"])

    gg = GadgetGraph(g, va, vb, labels)
    _validate_gadget(gg, f)
    return gg


def _validate_gadget(gg: GadgetGraph, f: Cnf3) -> None:
    g = gg.graph
    if not (
        g.n == 8 * f.num_vars + 5 * len(f.clauses) + 2
        and g.triangle() is None
        and not g.has_edge(gg.a, gg.b)
        and g.degree(gg.a) == 2
        and g.degree(gg.b) == 2
    ):
        raise InternalError("gamma gadget breaks its size, triangle-free or a/b degree contract")


def assignment_hole(gg: GadgetGraph, f: Cnf3, assignment: list[bool]) -> list[int]:
    """Replay the construction's hole for a satisfying assignment.

    Selects a, b, the chain vertices, the truth vertices matching the
    assignment, and one satisfied literal vertex per clause; validates
    that the selection is a hole containing a and b.
    """
    idx = {lab: v for v, lab in gg.labels.items()}
    sel = [gg.a]
    for i in range(1, f.num_vars + 1):
        sel += [idx[f"a{i}"], idx[f"b{i}"], idx[f"a'{i}"], idx[f"b'{i}"]]
        if assignment[i - 1]:
            sel += [idx[f"t{i}"], idx[f"t'{i}"]]
        else:
            sel += [idx[f"f{i}"], idx[f"f'{i}"]]
    for j, cl in enumerate(f.clauses, start=1):
        sel += [idx[f"c{j}"], idx[f"d{j}"]]
        for p, lit in enumerate(cl, start=1):
            if (lit > 0) == assignment[abs(lit) - 1]:
                sel.append(idx[f"v{p}{j}"])
                break
        else:
            raise GraphError("assignment does not satisfy every clause")
    sel.append(gg.b)
    sub, old = gg.graph.induced(sel)
    if not (all(sub.degree(v) == 2 for v in range(sub.n)) and sub.connected()):
        raise InternalError("assignment selection is not a hole")
    return sel


def prism_reduction(g: Graph, a: int, b: int) -> tuple[Graph, dict[int, str]]:
    """Replace a and b by 5-vertex triangle gadgets and join them.

    Requires a triangle-free host with a, b nonadjacent and of degree 2.
    The result has exactly two triangles and contains a prism iff g has
    a hole through a and b.
    """
    if a == b or not (0 <= a < g.n and 0 <= b < g.n):
        raise GraphError(f"a={a} and b={b} must be distinct vertices of the host (n={g.n})")
    if g.triangle() is not None:
        raise GraphError("host must be triangle-free")
    if g.has_edge(a, b):
        raise GraphError("a and b must be nonadjacent")
    if g.degree(a) != 2 or g.degree(b) != 2:
        raise GraphError("a and b must have degree 2")
    a1, a2 = g.neighbors(a)
    b1, b2 = g.neighbors(b)
    base, old = g.delete_vertices([a, b])
    pos = {v: i for i, v in enumerate(old)}
    labels: dict[int, str] = {}
    out = Graph(base.n + 10)
    for v in range(base.n):
        out.adj[v] = base.adj[v]
    ai = [base.n + i for i in range(5)]
    bi = [base.n + 5 + i for i in range(5)]
    for i, v in enumerate(ai):
        labels[v] = f"a{i+1}"
    for i, v in enumerate(bi):
        labels[v] = f"b{i+1}"
    for x, y in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]:
        out.add_edge_unchecked(ai[x], ai[y])
        out.add_edge_unchecked(bi[x], bi[y])
    out.add_edge_unchecked(ai[3], pos[a1])
    out.add_edge_unchecked(ai[4], pos[a2])
    out.add_edge_unchecked(bi[3], pos[b1])
    out.add_edge_unchecked(bi[4], pos[b2])
    out.add_edge_unchecked(ai[0], bi[0])
    return out, labels
