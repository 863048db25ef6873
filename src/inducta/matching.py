"""Exact matching and bipartite cover routines.

Desk scale only: maximum weight matching is a memoized bitmask DP that
always decides the lowest-index remaining vertex, so states stay sparse
on the small graphs we feed it.  The bipartite stable-set solver goes
through a min vertex cover computed by max flow, reachability on the
residual network yielding the witness; its network is built once per
graph (``StableSetFlow``) and each weighting flows on a capacity list
of its own.
"""

from __future__ import annotations

from .graphs import Graph, InternalError, TooLargeError, bit_count, bits

MATCHING_BOUND = 28


def max_weight_matching(
    n: int, edges: list[tuple[int, int, int]]
) -> tuple[int, list[tuple[int, int]]]:
    """Exact maximum weight matching of a (multi)graph given as an edge list.

    Parallel edges are fine: only the heaviest copy between any pair can
    matter.  Returns (total weight, chosen edges as (u, v) pairs).  The
    DP runs over the vertices that carry an edge, since an isolated
    vertex is never matched, and ``MATCHING_BOUND`` counts only those.
    """
    best: dict[tuple[int, int], int] = {}
    touched = 0
    for u, v, w in edges:
        if u == v:
            raise ValueError("loops not allowed in matchings")
        key = (min(u, v), max(u, v))
        if w > best.get(key, -1):
            best[key] = w
        touched |= 1 << u | 1 << v
    if bit_count(touched) > MATCHING_BOUND:
        raise TooLargeError(
            f"matching bound {MATCHING_BOUND} exceeded ({bit_count(touched)} vertices with edges)"
        )
    nbr: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), w in best.items():
        nbr[u].append((v, w))
        nbr[v].append((u, w))

    memo: dict[int, int] = {0: 0}

    def rec(mask: int) -> int:
        got = memo.get(mask)
        if got is not None:
            return got
        v = (mask & -mask).bit_length() - 1
        res = rec(mask & ~(1 << v))  # leave v unmatched
        for u, w in nbr[v]:
            if mask >> u & 1 and w >= 0:
                cand = w + rec(mask & ~(1 << v) & ~(1 << u))
                if cand > res:
                    res = cand
        memo[mask] = res
        return res

    total = rec(touched)
    chosen = []
    mask = touched
    while mask:
        v = (mask & -mask).bit_length() - 1
        if rec(mask) == rec(mask & ~(1 << v)):
            mask &= ~(1 << v)
            continue
        for u, w in nbr[v]:
            if mask >> u & 1 and w + rec(mask & ~(1 << v) & ~(1 << u)) == rec(mask):
                chosen.append((min(u, v), max(u, v)))
                mask &= ~(1 << v) & ~(1 << u)
                break
        else:  # pragma: no cover - would contradict the DP
            raise InternalError("matching reconstruction failed")
    return total, chosen


def max_cardinality_matching(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    return max_weight_matching(g.n, [(u, v, 1) for u, v in g.edges()])


def has_perfect_matching(g: Graph) -> bool:
    if g.n % 2:
        return False
    return max_cardinality_matching(g)[0] == g.n // 2


def is_factor_critical(g: Graph) -> bool:
    """Every single-vertex deletion leaves a perfect matching."""
    if g.n % 2 == 0 or g.n == 0:
        return False
    for v in range(g.n):
        h, _ = g.delete_vertices([v])
        if not has_perfect_matching(h):
            return False
    return True


# -- bipartite max weight stable set via max flow ------------------------

class Dinic:
    """A flow network as paired arc lists: arc ``ei`` runs to ``to[ei]``
    with residual capacity ``cap[ei]``, and ``ei ^ 1`` is its reverse."""

    __slots__ = ("n", "to", "cap", "head")

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def with_capacities(self, cap: list[int]) -> "Dinic":
        """These arcs under the capacities ``cap``, one per arc; the arc
        lists are shared, so a flow on the result leaves this one as it
        was."""
        net = object.__new__(Dinic)
        net.n, net.to, net.head, net.cap = self.n, self.to, self.head, cap
        return net

    def max_flow(self, s: int, t: int) -> int:
        """The maximum s-t flow, by Dinic's blocking flows.  Each
        augmenting path is walked iteratively along the current arcs of
        the level graph, so no path length meets the recursion limit."""
        to, cap, head = self.to, self.cap, self.head
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            qi = 0
            while qi < len(queue):
                v = queue[qi]
                qi += 1
                for ei in head[v]:
                    if cap[ei] > 0 and level[to[ei]] < 0:
                        level[to[ei]] = level[v] + 1
                        queue.append(to[ei])
            if level[t] < 0:
                return flow
            it = [0] * self.n  # per vertex, its current arc
            path: list[int] = []  # the arcs from s to v
            v = s
            while True:
                if v == t:
                    f = min(cap[ei] for ei in path)
                    for ei in path:
                        cap[ei] -= f
                        cap[ei ^ 1] += f
                    flow += f
                    path, v = [], s
                    continue
                arcs, i = head[v], it[v]
                while i < len(arcs) and not (cap[arcs[i]] > 0 and level[to[arcs[i]]] == level[v] + 1):
                    i += 1
                it[v] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    v = to[arcs[i]]
                elif v == s:
                    break
                else:  # a dead end: retreat past the arc that led here
                    v = to[path.pop() ^ 1]
                    it[v] += 1

    def reachable(self, s: int) -> set[int]:
        seen = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for ei in self.head[v]:
                w = self.to[ei]
                if self.cap[ei] > 0 and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen


class StableSetFlow:
    """The König flow network of one bipartite graph, built once: source
    arcs into the left side, sink arcs out of the right, one arc per edge.
    Each ``solve`` only fills in capacities from a weighting, so a graph
    solved under many weightings pays for its bipartition and network
    once.  The capacities are the solve's own and the stored network is
    never changed, so threads may share one flow."""

    __slots__ = ("graph", "left", "right", "net", "carries")

    def __init__(self, g: Graph):
        parts = g.bipartition()
        if parts is None:
            raise ValueError("graph is not bipartite")
        self.graph = g
        self.left, self.right = parts
        s, t = g.n, g.n + 1
        self.net = Dinic(g.n + 2)
        self.carries: list[int] = []  # per arc, the vertex whose weight it carries; -1 on edges
        for v in bits(self.left):
            self.net.add(s, v, 0)
            self.carries.append(v)
        for v in bits(self.right):
            self.net.add(v, t, 0)
            self.carries.append(v)
        for u, v in g.edges():
            if self.left >> u & 1:
                self.net.add(u, v, 0)
            else:
                self.net.add(v, u, 0)
            self.carries.append(-1)

    def solve(self, weights: list[int]) -> tuple[int, int]:
        """(weight, witness bitset) under non-negative ``weights``; the
        witness is canonical in that zero-weight vertices are dropped."""
        g = self.graph
        big = sum(weights) + 1
        cap = [0] * len(self.net.cap)
        cap[::2] = [weights[v] if v >= 0 else big for v in self.carries]
        net = self.net.with_capacities(cap)
        cut = net.max_flow(g.n, g.n + 1)
        reach = net.reachable(g.n)
        stable = 0
        for v in bits(self.left):
            if v in reach and weights[v] > 0:
                stable |= 1 << v
        for v in bits(self.right):
            if v not in reach and weights[v] > 0:
                stable |= 1 << v
        if not g.is_stable_mask(stable):
            raise InternalError("flow witness is not a stable set")
        weight = sum(weights[v] for v in bits(stable))
        if weight != sum(weights) - cut:
            raise InternalError("flow witness weight differs from the cut bound")
        return weight, stable

