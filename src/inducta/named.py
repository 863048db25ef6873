"""Named graph constructors with the exact labelings used throughout.

Edge lists follow the sources: Petersen is two pentagons linked by the
matching a1b1, a2b4, a3b2, a4b5, a5b3; Heawood is a 14-cycle plus the
seven chords 1-10, 2-7, 3-12, 4-9, 5-14, 6-11, 8-13; Wagner is the
8-cycle plus diagonals; R is the circulant on 13 vertices with offsets
1 and 5 (the unique largest graph with no triangle and no 5-vertex
stable set).
"""

from __future__ import annotations

from .graphs import Graph, GraphError


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("C_n needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("P_n needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("K_n needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise GraphError("K_{m,n} needs m, n >= 1")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def petersen() -> Graph:
    # vertices 0..4 = a1..a5, 5..9 = b1..b5
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    edges += [(0, 5), (1, 8), (2, 6), (3, 9), (4, 7)]  # a1b1 a2b4 a3b2 a4b5 a5b3
    return Graph(10, edges)


def heawood() -> Graph:
    edges = [(i, (i + 1) % 14) for i in range(14)]
    chords = [(1, 10), (2, 7), (3, 12), (4, 9), (5, 14), (6, 11), (8, 13)]
    edges += [(a - 1, b - 1) for a, b in chords]
    return Graph(14, edges)


def wagner() -> Graph:
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(i, (i + 4) % 8) for i in range(4)]
    return Graph(8, edges)


def r35() -> Graph:
    # the R(3,5)-extremal circulant: r_i r_{i+1} and r_i r_{i+5}, mod 13
    edges = [(i, (i + 1) % 13) for i in range(13)]
    edges += [(i, (i + 5) % 13) for i in range(13)]
    return Graph(13, edges)


def a6() -> Graph:
    # triangle 0,1,2 plus one vertex complete to each triangle edge
    edges = [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1), (4, 1), (4, 2), (5, 0), (5, 2)]
    return Graph(6, edges)


def octahedron() -> Graph:
    # K_{2,2,2}: parts {0,1}, {2,3}, {4,5}
    edges = [
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if i // 2 != j // 2
    ]
    return Graph(6, edges)


def line_k33() -> Graph:
    from .linegraph import line_graph

    return line_graph(complete_bipartite(3, 3))


def disjoint_copies(g: Graph, t: int) -> Graph:
    if t < 1:
        raise GraphError("need at least one copy")
    out = g
    for _ in range(t - 1):
        out = out.union_disjoint(g)
    return out


def two_subdivision(g: Graph) -> Graph:
    """Subdivide every edge twice: uv becomes the induced path u-a-b-v."""
    out = Graph(g.n + 2 * g.edge_count())
    k = g.n
    for u, v in g.edges():
        out.add_edge_unchecked(u, k)
        out.add_edge_unchecked(k, k + 1)
        out.add_edge_unchecked(k + 1, v)
        k += 2
    return out


def _builder(name: str):
    """The constructor of the named graph ``name`` and the number of
    integer parameters it takes."""
    table = {
        "petersen": (petersen, 0),
        "heawood": (heawood, 0),
        "wagner": (wagner, 0),
        "r35": (r35, 0),
        "a6": (a6, 0),
        "octahedron": (octahedron, 0),
        "l_k33": (line_k33, 0),
        "c": (cycle, 1),
        "p": (path, 1),
        "k": (complete, 1),
        "k_mn": (complete_bipartite, 2),
    }
    got = table.get(name.lower().replace("-", "_"))
    if got is None:
        raise GraphError(f"unknown named graph {name!r}")
    return got


def named_graph(name: str, *params: int) -> Graph:
    """Build the named graph ``name`` with its integer parameters."""
    build, arity = _builder(name)
    if len(params) != arity:
        raise GraphError(f"{name} takes {('no parameters', 'one parameter', 'two parameters')[arity]}")
    return build(*params)


def _int_param(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise GraphError(f"named graph parameter {text!r} is not an integer") from None


def parse_named_spec(spec: str) -> Graph:
    """Parse CLI specs like 'petersen', 'c:7', 'k_mn:3,3',
    'two-subdivision:k:5', 'copies:c:5,2'.  Every parameter after the
    ':' is an integer; an empty or non-integer one raises GraphError.
    The prefixes are unwrapped in a loop and applied inside out."""
    wraps = []  # the copy count of each prefix, None for two-subdivision
    while True:
        head, colon, tail = spec.partition(":")
        key = head.lower().replace("-", "_")
        if key == "two_subdivision":
            if not tail:
                raise GraphError("two-subdivision needs a base graph spec")
            wraps.append(None)
            spec = tail
        elif key == "copies":
            spec, _, count = tail.rpartition(",")
            if not spec:
                raise GraphError("copies spec is 'copies:<base>,<t>'")
            wraps.append(count)
        else:
            break
    _builder(head)  # the name before its parameters: a misspelt name is reported as unknown
    g = named_graph(head, *(_int_param(x) for x in tail.split(",") if colon))
    for count in reversed(wraps):
        g = two_subdivision(g) if count is None else disjoint_copies(g, _int_param(count))
    return g
