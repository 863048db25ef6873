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

class _Dinic:
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

    def with_capacities(self, cap: list[int]) -> "_Dinic":
        """These arcs under the capacities ``cap``, one per arc; the arc
        lists are shared, so a flow on the result leaves this one as it
        was."""
        net = object.__new__(_Dinic)
        net.n, net.to, net.head, net.cap = self.n, self.to, self.head, cap
        return net

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        INF = 1 << 60
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            qi = 0
            while qi < len(queue):
                v = queue[qi]
                qi += 1
                for ei in self.head[v]:
                    if self.cap[ei] > 0 and level[self.to[ei]] < 0:
                        level[self.to[ei]] = level[v] + 1
                        queue.append(self.to[ei])
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(v: int, f: int) -> int:
                if v == t:
                    return f
                while it[v] < len(self.head[v]):
                    ei = self.head[v][it[v]]
                    w = self.to[ei]
                    if self.cap[ei] > 0 and level[w] == level[v] + 1:
                        d = dfs(w, min(f, self.cap[ei]))
                        if d > 0:
                            self.cap[ei] -= d
                            self.cap[ei ^ 1] += d
                            return d
                    it[v] += 1
                return 0

            while True:
                f = dfs(s, INF)
                if f == 0:
                    break
                flow += f

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
        self.net = _Dinic(g.n + 2)
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

