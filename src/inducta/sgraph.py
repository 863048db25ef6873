"""Subdivisible graphs and bounded exhaustive realization search.

An s-graph is a triple (V, D, F): real edges D must map to edges, each
subdivisible edge in F becomes an induced path of length at least one,
and the realization as a whole must be an induced subgraph of the host.
The search maps branch vertices first (most-constrained order), then
routes the F-edges one by one as mutually induced paths, each drawn from
``Graph.induced_paths`` inside the region the used vertices leave free.
"""

from __future__ import annotations

from .graphs import FrozenRecord, Graph, GraphError, Record, bit_count, bits, mask_of


class SGraph(FrozenRecord):
    __slots__ = ("n", "real_edges", "sub_edges")

    def __init__(self, n: int, real_edges: frozenset[tuple[int, int]],
                 sub_edges: frozenset[tuple[int, int]]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "real_edges", real_edges)
        object.__setattr__(self, "sub_edges", sub_edges)

    @staticmethod
    def make(n: int, real, sub) -> "SGraph":
        d = frozenset(tuple(sorted(e)) for e in real)
        f = frozenset(tuple(sorted(e)) for e in sub)
        if d & f:
            raise GraphError("real and subdivisible edge sets must be disjoint")
        for u, v in d | f:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise GraphError(f"bad s-graph edge ({u},{v})")
        return SGraph(n, d, f)


def pyramid_sgraph() -> SGraph:
    # triangle 0,1,2 with apex 3 joined by three subdivisible edges
    return SGraph.make(4, [(0, 1), (0, 2), (1, 2)], [(3, 0), (3, 1), (3, 2)])


def prism_sgraph() -> SGraph:
    # two triangles joined by three subdivisible edges
    return SGraph.make(
        6,
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
        [(0, 3), (1, 4), (2, 5)],
    )


def theta_sgraph() -> SGraph:
    # two hubs 0,1; every hub-to-hub route passes a midpoint, so each
    # of the three connecting paths has length at least two
    return SGraph.make(
        5, [], [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)]
    )


class Embedding(Record):
    """A realization witness: branch images plus the routed paths."""

    __slots__ = ("branch", "paths")

    def __init__(self, branch: dict[int, int], paths: dict[tuple[int, int], list[int]]):
        self.branch, self.paths = branch, paths

    def used_vertices(self) -> list[int]:
        out = set(self.branch.values())
        for p in self.paths.values():
            out.update(p)
        return sorted(out)


def _validate_embedding(b: SGraph, g: Graph, emb: Embedding) -> bool:
    """One image per branch vertex, and per subdivisible edge a path of
    one edge or more between its ends' images; the images and the path
    interiors are distinct vertices that induce exactly the images of the
    real edges and the path edges."""
    br = emb.branch
    if len(br) != b.n:
        return False
    seq = list(br.values())
    edges = [(br[u], br[v]) for u, v in b.real_edges]
    for u, v in b.sub_edges:
        p = emb.paths[(u, v)]
        if len(p) < 2 or p[0] != br[u] or p[-1] != br[v]:
            return False
        seq += p[1:-1]
        edges += zip(p, p[1:])
    return g.induces(seq, edges)


def find_realization(b: SGraph, g: Graph, max_len: int | None = None) -> Embedding | None:
    """Search g for an induced realization of b, path lengths <= max_len.

    Returns a validated Embedding, or None if no realization with the
    given length cap exists.  Exhaustive within the cap.
    """
    if max_len is None:
        max_len = g.n
    inc = [0] * b.n  # incident edge count in the s-graph skeleton
    for u, v in b.real_edges | b.sub_edges:
        inc[u] += 1
        inc[v] += 1
    real_adj = [set() for _ in range(b.n)]
    for u, v in b.real_edges:
        real_adj[u].add(v)
        real_adj[v].add(u)
    order = sorted(range(b.n), key=lambda v: (-len(real_adj[v]), -inc[v]))
    branch: dict[int, int] = {}
    used = 0
    full = g.full_mask()

    def images_ok(v: int, x: int) -> bool:
        # x as image of v against the placed branch vertices: a real edge
        # needs an edge, a non-edge a non-edge, and a subdivisible edge
        # either (a path of length one is decided during routing)
        for u, xu in branch.items():
            pair = tuple(sorted((u, v)))
            if pair not in b.sub_edges and (pair in b.real_edges) != g.has_edge(x, xu):
                return False
        return True

    paths: dict[tuple[int, int], list[int]] = {}

    def region(src: int, dst: int, taken: int) -> int:
        """The vertices off ``taken`` that see none of it but src and dst."""
        free = full & ~taken
        for w in bits(taken & ~(1 << src) & ~(1 << dst)):
            free &= ~g.adj[w]
        return free

    def _pair_linkable(src: int, dst: int, taken: int) -> bool:
        """Necessary test: src and dst joinable by an edge or by an induced
        path through the region that ``taken`` leaves free."""
        if g.has_edge(src, dst):
            return True
        free = region(src, dst, taken)
        return bool(g.reach(g.adj[src] & free, free) & g.adj[dst])

    def first_steps(e2) -> int:
        s2, d2 = branch[e2[0]], branch[e2[1]]
        return 0 if g.has_edge(s2, d2) else bit_count(g.adj[s2] & region(s2, d2, used))

    def route(pending: tuple) -> Embedding | None:
        nonlocal used
        if not pending:
            emb = Embedding(dict(branch), dict(paths))
            return emb if _validate_embedding(b, g, emb) else None
        if not all(_pair_linkable(branch[u], branch[v], used) for u, v in pending):
            return None
        e = min(pending, key=first_steps)  # most constrained first
        rest = tuple(e2 for e2 in pending if e2 != e)
        src, dst = branch[e[0]], branch[e[1]]
        # the path is the edge src-dst if there is one; else its interior
        # lies in the region the used set leaves free, so it touches the
        # used set only at src and, where it closes, at dst, and each step
        # must leave every other pending edge linkable
        base = used

        def keep(mask: int) -> bool:
            return bit_count(mask) <= max_len and all(
                _pair_linkable(branch[u], branch[v], base | mask) for u, v in rest)

        for trail in g.induced_paths(src, g.adj[dst], region(src, dst, base), keep=keep):
            used = base | mask_of(trail)
            paths[e] = trail + [dst]
            got = route(rest)
            if got:
                return got
            del paths[e]
        used = base
        return None

    def place(i: int) -> Embedding | None:
        nonlocal used
        if i == b.n:
            return route(tuple(sorted(b.sub_edges)))
        v = order[i]
        for x in range(g.n):
            if used >> x & 1 or g.degree(x) < inc[v] or not images_ok(v, x):
                continue
            branch[v] = x
            used |= 1 << x
            got = place(i + 1)
            if got:
                return got
            del branch[v]
            used &= ~(1 << x)
        return None

    return place(0)
