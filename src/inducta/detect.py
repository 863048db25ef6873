"""Polynomial-flavored detectors: the shortest-path prism detector for
pyramid-free graphs, and the exact hole-through-two-vertices search used
as the verification oracle for the hardness gadgets.

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

    Exhaustive DFS over induced paths anchored at y, on a stack of its
    own, so a hole may be as long as the graph.  The key prune:
    once a path vertex becomes interior, every neighbor of it is banned
    from the rest of the search, so the free region shrinks fast; a
    branch dies as soon as x or all closing vertices leave it.
    Deterministic: neighbors explored in increasing order.
    """
    if x == y:
        raise GraphError("need two distinct vertices")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise GraphError(f"vertices {x}, {y} out of range for n={g.n}")

    adj = g.adj
    full = g.full_mask()

    # the search's stack: per induced path from y, its used and banned
    # masks and the neighbours of its end still to try, in increasing order
    stack = [([y], 1 << y, 0, bits(adj[y] & ~(1 << y)))]
    while stack:
        path, used, banned, todo = stack[-1]
        w = next(todo, None)
        if w is None:
            stack.pop()
            continue
        v = path[-1]
        closes = bool(adj[w] >> y & 1)
        np_len = len(path) + 1
        if closes and np_len >= 4 and (used >> x & 1 or w == x):
            cyc = path + [w]
            if not g.is_induced_cycle(cyc):
                raise InternalError(f"hole {cyc} through {x} and {y} has a chord")
            return cyc
        if closes and np_len > 2:
            continue  # a y-neighbor can only end the cycle
        nb = banned | (adj[v] if len(path) >= 2 else 0)
        nu = used | (1 << w)
        have_x = bool(nu >> x & 1)
        if not have_x and nb >> x & 1:
            continue
        free = full & ~nu & ~nb
        r = g.reach(1 << w, free) & ~(1 << w)
        if not have_x and not (r >> x & 1):
            continue
        if not (r & adj[y]):
            continue  # no way left to close the cycle
        stack.append((path + [w], nu, nb, bits(adj[w] & ~nu & ~nb)))
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
