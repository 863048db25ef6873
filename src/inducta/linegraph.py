"""Line graphs and root reconstruction for triangle-free roots.

A graph is the line graph of a triangle-free graph iff it has no claw
and no diamond, and the root is then unique (Whitney), which makes the
reconstruction below canonical: maximal cliques of L(R) are the edge
stars of R, every vertex lies in at most two of them, and two of them
share at most one vertex.  So each edge uv of L(R) lies in exactly one
maximal clique, {u, v} with the common neighbours of u and v, and the
root finder builds the cliques edge by edge from that rule (the
triangle-free case of Roussopoulos, IPL 1973, and Lehot, JACM 1974).
``maximal_cliques`` enumerates cliques in general graphs, and
``all_cliques`` every clique from them; they serve only ``gap``.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, bit_count, bits, mask_of


def line_graph(g: Graph) -> Graph:
    edges = g.edges()
    lg = Graph(len(edges))
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if a in (c, d) or b in (c, d):
                lg.add_edge_unchecked(i, j)
    return lg


def maximal_cliques(g: Graph) -> list[int]:
    """All maximal cliques as bitsets (Bron-Kerbosch with pivoting)."""
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot_nb = 0
        best = -1
        for u in bits(p | x):
            c = bit_count(g.adj[u] & p)
            if c > best:
                best, pivot_nb = c, g.adj[u]
        for v in bits(p & ~pivot_nb):
            bk(r | (1 << v), p & g.adj[v], x & g.adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    if g.n:
        bk(0, g.full_mask(), 0)
    return out


def all_cliques(g: Graph) -> list[int]:
    """All non-empty cliques as bitsets, by size and then by mask (desk
    scale: every subset of every maximal clique)."""
    seen = set()
    for m in maximal_cliques(g):
        vs = list(bits(m))
        for size in range(1, len(vs) + 1):
            for sub in combinations(vs, size):
                seen.add(mask_of(sub))
    return sorted(seen, key=lambda k: (bit_count(k), k))


def line_root_with_map(g: Graph) -> tuple[Graph, list[tuple[int, int]]] | None:
    """The unique triangle-free R with L(R) isomorphic to g, or None.

    Also returns, for each vertex v of g, the root edge (as a vertex
    pair of R) that v corresponds to.  Root vertices 0, 1, ... are the
    cliques in the order their first edge is met (edges by lower end,
    then higher end); the pendant ends follow in vertex order.

    Each edge uv lies in one clique, {u, v} with N(u) & N(v); an edge
    whose ends already share a clique is skipped.  A candidate that is
    not a clique holds a diamond, and a vertex in a third clique a claw
    or a diamond: both end the search.  Past these two exits the map
    needs no pairwise check: every edge lies in a found clique, every
    found clique is a clique, and each vertex keeps all of its (at most
    two) cliques as the ends of its root edge, so u ~ v exactly when
    their root edges share an end.  What is left to reject is two
    vertices on one root edge (the middle edge of a diamond) and a
    triangle in the root.
    """
    adj = g.adj
    nr = 0  # root vertices so far
    member: list[list[int]] = [[] for _ in range(g.n)]
    together = [1 << v for v in range(g.n)]  # vertices sharing a clique with v
    for u in range(g.n):
        if not adj[u]:
            member[u].append(nr)
            nr += 1
        for v in bits(adj[u] & ~together[u]):
            if together[u] >> v & 1:
                continue  # an earlier clique of this loop holds uv
            c = adj[u] & adj[v] | 1 << u | 1 << v
            for w in bits(c):
                if c & ~adj[w] != 1 << w:
                    return None  # two non-adjacent common neighbours: a diamond
            for w in bits(c):
                if len(member[w]) == 2:
                    return None  # w would lie in a third clique
                member[w].append(nr)
                together[w] |= c
            nr += 1
    # after the cliques, a pendant root vertex for each g-vertex covered
    # by a single clique
    ends: list[tuple[int, int]] = []
    for ms in member:
        if len(ms) == 2:
            ends.append((ms[0], ms[1]))
        else:
            ends.append((ms[0], nr))
            nr += 1
    root = Graph(nr)
    for a, b in ends:
        if root.has_edge(a, b):
            return None  # a parallel root edge
        root.add_edge_unchecked(a, b)
    if root.triangle() is not None:
        return None
    return root, ends
