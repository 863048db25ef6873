"""Polynomial-flavored detectors: the shortest-path prism detector for
pyramid-free graphs, and the exact hole-through-two-vertices search used
as the verification oracle for the hardness gadgets.  That search is
NP-complete (Bienstock 1991), so it stays exhaustive: it runs on
``Graph.induced_paths``, whose prunes cut only dead branches.

The prism detector enumerates candidate 6-tuples in canonical order and
recomputes, for each, three shortest paths in the graph with the closed
neighborhoods of the other four endpoints removed; on a pyramid-free
graph a smallest prism survives this surgery, which is what makes the
detector complete there.  On inputs with pyramids it may miss prisms,
matching its conditional contract.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .graphs import Graph, GraphError, InternalError, Record, bits


# -- hole through two prescribed vertices --------------------------------

def hole_through_two(g: Graph, x: int, y: int) -> list[int] | None:
    """An induced cycle of length >= 4 containing x and y, or None.

    Exhaustive: for each neighbour w of y in increasing order, the
    induced paths from w through x to another neighbour of y, avoiding y
    (``Graph.induced_paths``, first in lexicographic order).  The first
    such path with three vertices or more closes the hole with y; a
    shorter one closes a triangle.  The search keeps its own stack, so a
    hole may be as long as the graph.
    """
    if x == y:
        raise GraphError("need two distinct vertices")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise GraphError(f"vertices {x}, {y} out of range for n={g.n}")
    around = g.adj[y]
    inside = g.full_mask() & ~(1 << y)
    for w in bits(around):
        for path in g.induced_paths(w, around & ~(1 << w), inside, through=1 << x):
            if len(path) >= 3:
                cyc = [y] + path
                if not g.is_induced_cycle(cyc):
                    raise InternalError(f"hole {cyc} through {x} and {y} has a chord")
                return cyc
    return None


# -- prisms ---------------------------------------------------------------

class PrismWitness(Record):
    __slots__ = ("triangle_a", "triangle_b", "paths")

    def __init__(self, triangle_a: tuple[int, int, int], triangle_b: tuple[int, int, int],
                 paths: tuple[list[int], list[int], list[int]]):
        self.triangle_a, self.triangle_b, self.paths = triangle_a, triangle_b, paths


def validate_prism(g: Graph, w: PrismWitness) -> bool:
    """Three paths P_i from a_i to b_i, each with two vertices or more, on
    distinct vertices that induce exactly the path edges and the triangles
    a_1a_2a_3 and b_1b_2b_3."""
    paths = w.paths
    if (len(paths) != 3 or any(len(p) < 2 for p in paths)
            or [p[0] for p in paths] != list(w.triangle_a)
            or [p[-1] for p in paths] != list(w.triangle_b)):
        return False
    edges = [*combinations(w.triangle_a, 2), *combinations(w.triangle_b, 2)]
    for p in paths:
        edges += zip(p, p[1:])
    return g.induces([v for p in paths for v in p], edges)


def _triangles(g: Graph) -> list[tuple[int, int, int]]:
    out = []
    for u, v in g.edges():
        for w in bits(g.adj[u] & g.adj[v]):
            if w > v:
                out.append((u, v, w))
    return out


def detect_prism_pyramid_free(g: Graph) -> PrismWitness | None:
    """Shortest-path prism detector; complete on pyramid-free inputs.

    For each ordered candidate 6-tuple, computes each path a_i -> b_i by
    BFS in the graph minus the closed neighborhoods of the other four
    endpoints (the endpoints themselves stay), then validates the
    triple.  First validated witness in canonical order wins.
    """
    tris = _triangles(g)
    full = g.full_mask()
    for ta in tris:
        for tb in tris:
            if set(ta) & set(tb):
                continue
            for perm in permutations(range(3)):
                a = ta
                b = tuple(tb[k] for k in perm)
                paths = []
                ok = True
                for i in range(3):
                    others = [a[(i + 1) % 3], a[(i + 2) % 3], b[(i + 1) % 3], b[(i + 2) % 3]]
                    banned = 0
                    for o in others:
                        banned |= g.closed_nb(o)
                    banned &= ~(1 << a[i]) & ~(1 << b[i])
                    allowed = full & ~banned
                    p = g.shortest_path(a[i], b[i], allowed)
                    if p is None:
                        ok = False
                        break
                    paths.append(p)
                if not ok:
                    continue
                w = PrismWitness(a, b, tuple(paths))
                if validate_prism(g, w):
                    return w
    return None
