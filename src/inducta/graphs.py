"""Core graph type and basic operations.

Graphs are simple, finite and undirected.  Vertices are the integers
0..n-1 and the adjacency of each vertex is stored as a Python int used
as a bitset, which keeps neighborhood intersections and unions cheap
for everything downstream (detectors, oracles, cutset searches).
The hot sweeps (``reach``, ``layers``, ``is_clique_mask``, ``girth``,
``is_tree_mask``) walk a mask with an inline lowest-bit loop rather than
the ``bits`` generator; ``is_tree_mask`` counts edges inside its reach.
``induces`` is the one test behind every witness of an induced path,
cycle or structure: it takes each listed pair out of a per-vertex
neighborhood mask, so its cost is linear in the witness.
``induced_paths`` is the one search for induced paths, behind the hole,
2-join side parity and s-graph realization searches.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Invalid graph data or invalid operation parameters."""


class TooLargeError(GraphError):
    """Instance exceeds a configured exact-computation bound."""


class InternalError(Exception):
    """The program broke one of its own invariants: a witness failed its
    check, or a case the supporting lemmas rule out occurred.  Not a
    GraphError, since the input is not at fault."""


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_count(mask: int) -> int:
    return mask.bit_count()


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Record:
    """Base of the library's answer and witness records.  A subclass names
    its fields in ``__slots__`` and sets them in its own ``__init__``.  Two
    records of one class are equal when their fields are, and ``repr``
    shows the fields by name; both skip the slots named in ``_unequal``.
    Records are mutable and unhashable, like lists."""

    __slots__ = ()
    _unequal: tuple[str, ...] = ()

    def _fields(self) -> list[str]:
        return [f for f in self.__slots__ if f not in self._unequal]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields())
        return f"{self.__class__.__qualname__}({shown})"


class FrozenRecord(Record):
    """A Record that cannot change once built, hashable by value.  Its
    ``__init__`` sets the fields through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__qualname__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__qualname__} is immutable")

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields()))


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighborhood bitset of ``v``.  Instances are
    treated as immutable once built; all operations return new graphs.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        self.n = n
        self.adj = [0] * n
        for u, v in edges:
            self.add_edge_unchecked(u, v)

    def add_edge_unchecked(self, u: int, v: int) -> None:
        # construction-time only; Graphs are immutable afterwards
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    # -- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return bit_count(self.adj[v])

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj[v]))

    def closed_nb(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u] >> (u + 1) << (u + 1))]

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, tuple(self.adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    # -- derived graphs ------------------------------------------------

    def complement(self) -> "Graph":
        g = Graph(self.n)
        full = self.full_mask()
        for v in range(self.n):
            g.adj[v] = full & ~self.adj[v] & ~(1 << v)
        return g

    def induced(self, vertices: Sequence[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph on ``vertices`` plus the index map new->old."""
        vs = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(vs)}
        g = Graph(len(vs))
        for i, v in enumerate(vs):
            for w in bits(self.adj[v]):
                j = pos.get(w)
                if j is not None and j > i:
                    g.adj[i] |= 1 << j
                    g.adj[j] |= 1 << i
        return g, vs

    def induced_mask(self, mask: int) -> tuple["Graph", list[int]]:
        return self.induced(list(bits(mask)))

    def delete_vertices(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        drop = set(vertices)
        return self.induced([v for v in range(self.n) if v not in drop])

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """New graph where old vertex v becomes perm[v]."""
        g = Graph(self.n)
        for u, v in self.edges():
            g.add_edge_unchecked(perm[u], perm[v])
        return g

    def union_disjoint(self, other: "Graph") -> "Graph":
        g = Graph(self.n + other.n)
        for v in range(self.n):
            g.adj[v] = self.adj[v]
        for v in range(other.n):
            g.adj[self.n + v] = other.adj[v] << self.n
        return g

    def add_vertices(self, count: int, attach: Sequence[Iterable[int]] = ()) -> "Graph":
        """Append ``count`` new vertices; attach[i] lists neighbors of new vertex i."""
        g = Graph(self.n + count)
        for v in range(self.n):
            g.adj[v] = self.adj[v]
        for i in range(count):
            nbrs = attach[i] if i < len(attach) else ()
            for w in nbrs:
                g.add_edge_unchecked(self.n + i, w)
        return g

    # -- structure predicates -------------------------------------------

    def reach(self, seeds: int, allowed: int) -> int:
        """``seeds`` plus every vertex of ``allowed`` reachable from them by
        paths whose vertices after the first lie in ``allowed``."""
        comp = frontier = seeds
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= self.adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & allowed & ~comp
            comp |= frontier
        return comp

    def layers(self, seeds: int, allowed: int) -> list[int]:
        """Breadth-first layers: element i is the bitset of vertices at
        distance i from ``seeds`` (element 0 is ``seeds``), by paths whose
        vertices after the first lie in ``allowed``."""
        out = [seeds]
        seen = frontier = seeds
        while True:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= self.adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & allowed & ~seen
            if not frontier:
                return out
            seen |= frontier
            out.append(frontier)

    def path_back(self, layers: Sequence[int], v: int) -> list[int]:
        """A shortest path from ``v`` (a vertex of ``layers``) back to the
        seeds, one vertex per layer.  Ties break toward small labels: each
        step goes to the lowest-index neighbor in the previous layer."""
        i = next(i for i, layer in enumerate(layers) if layer >> v & 1)
        path = [v]
        for layer in reversed(layers[:i]):
            back = self.adj[path[-1]] & layer
            path.append((back & -back).bit_length() - 1)
        return path

    def induced_paths(self, src: int, ends: int, allowed: int, through: int = 0,
                      keep=None) -> Iterator[list[int]]:
        """Every induced path from ``src`` that stops at its first vertex
        of ``ends``, has every later vertex in ``allowed`` and holds all of
        ``through``, depth first with neighbours in increasing order (so
        in lexicographic order).  The path lives on one list beside a
        stack of (candidates, used, banned) frames; a vertex bans its
        neighbourhood once it has a successor, so no path has a chord.
        A branch dies when a vertex of ``through`` is banned or
        ``keep(used)`` refuses its vertex mask; where it branches (at
        ``src``, and where its end has two or more candidates) also when
        the free region no longer reaches ``ends`` or all of ``through``.
        Each prune cuts only branches that yield nothing."""
        adj = self.adj
        path = [src]
        if ends >> src & 1:
            if not through & ~(1 << src):
                yield path
            return
        free = allowed & ~(1 << src)
        seen = self.reach(1 << src, free)
        if not seen & ends or through & ~seen:
            return
        stack = [[adj[src] & free, 1 << src, 0]]
        while stack:
            top = stack[-1]
            cand, used, banned = top
            if not cand:
                stack.pop()
                path.pop()
                continue
            low = cand & -cand
            top[0] = cand ^ low
            w = low.bit_length() - 1
            used |= low
            banned |= adj[path[-1]]
            need = through & ~used
            if need & banned or keep is not None and not keep(used):
                continue
            if ends & low:
                if not need:
                    yield path + [w]
                continue
            free = allowed & ~used & ~banned
            nxt = adj[w] & free
            if nxt & (nxt - 1):
                seen = self.reach(low, free)
                if not seen & ends or need & ~seen:
                    continue
            elif not nxt:
                continue
            path.append(w)
            stack.append([nxt, used, banned])

    def components(self) -> list[int]:
        """Connected components as vertex bitsets."""
        return self.components_of(self.full_mask())

    def components_of(self, mask: int) -> list[int]:
        """Connected components of the subgraph induced by ``mask``."""
        out = []
        rest = mask
        while rest:
            comp = self.reach(rest & -rest, mask)
            rest &= ~comp
            out.append(comp)
        return out

    def connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def blocks(self) -> tuple[list[int], int]:
        """(blocks, cut vertices) as bitsets, from one depth-first search
        (Hopcroft and Tarjan, "Algorithm 447", CACM 1973).  A block is a
        maximal vertex set inducing a connected graph with no cut vertex of
        its own; a cut vertex lies in two or more blocks.  Components start
        at their lowest vertex, and each one's blocks come root first (the
        reverse of the order they close in): each meets those before it in
        at most one vertex."""
        num, low, left = [0] * self.n, [0] * self.n, list(self.adj)
        out, count = [], 0
        for root in range(self.n):
            if num[root]:
                continue
            count += 1
            num[root] = low[root] = count
            path, stack, closed = [root], [root], []
            while path:
                v = path[-1]
                rest = left[v]
                if rest:
                    low_bit = rest & -rest
                    left[v] = rest ^ low_bit
                    w = low_bit.bit_length() - 1
                    if not num[w]:
                        count += 1
                        num[w] = low[w] = count
                        path.append(w)
                        stack.append(w)
                    low[v] = min(low[v], num[w])
                    continue
                path.pop()
                if path:
                    u = path[-1]
                    low[u] = min(low[u], low[v])
                    if low[v] >= num[u]:  # v's subtree reaches no higher than u
                        blk = 1 << u
                        while stack[-1] != v:
                            blk |= 1 << stack.pop()
                        closed.append(blk | 1 << stack.pop())
            out += reversed(closed) if closed else [1 << root]
        seen = cuts = 0
        for blk in out:
            cuts |= seen & blk
            seen |= blk
        return out, cuts

    def is_clique_mask(self, mask: int) -> bool:
        rest = mask
        while rest:
            low = rest & -rest
            if mask & ~self.adj[low.bit_length() - 1] != low:
                return False
            rest ^= low
        return True

    def is_stable_mask(self, mask: int) -> bool:
        for v in bits(mask):
            if self.adj[v] & mask:
                return False
        return True

    def is_complete_between(self, a: int, b: int) -> bool:
        """All edges present between disjoint vertex bitsets a, b."""
        for v in bits(a):
            if b & ~self.adj[v]:
                return False
        return True

    def is_anticomplete_between(self, a: int, b: int) -> bool:
        for v in bits(a):
            if self.adj[v] & b:
                return False
        return True

    def triangle(self) -> tuple[int, int, int] | None:
        for u, v in self.edges():
            common = self.adj[u] & self.adj[v]
            if common:
                return (u, v, next(bits(common)))
        return None

    def bipartition(self) -> tuple[int, int] | None:
        """(left, right) bitsets if bipartite, else None.  Each component
        is colored by layer parity from its lowest vertex, which lands on
        ``left``; an edge inside a layer closes an odd cycle."""
        full = self.full_mask()
        left = 0
        rest = full
        while rest:
            for i, layer in enumerate(self.layers(rest & -rest, full)):
                for v in bits(layer):
                    if self.adj[v] & layer:
                        return None
                if i % 2 == 0:
                    left |= layer
                rest &= ~layer
        return left, full & ~left

    def girth(self, below: int | None = None) -> int | None:
        """Length of a shortest cycle, or None for forests.  With
        ``below``, the girth if it is less than ``below``, else None.

        Lengths only, from one BFS per source: an edge inside layer i, or
        a vertex of layer i+1 with two parents, closes a walk of length
        2i+1 or 2i+2 that holds a cycle, and every cycle through the
        source is at least as long as the first such walk.  So once a
        source is done, every cycle through it is at least ``best`` long,
        and it leaves ``alive``: a shorter cycle avoids it.  A vertex with
        fewer than two alive neighbors lies on no alive cycle and leaves
        at once.  (``shortest_cycle`` keeps every source, since dropping
        them would change which cycle it returns.)"""
        adj = self.adj
        limit = best = self.n + 1 if below is None else below
        alive = self.full_mask()
        for s in range(self.n):
            if bit_count(adj[s] & alive) >= 2:
                layer = seen = 1 << s
                depth = 0
                while layer and 2 * depth + 1 < best:
                    nxt = twice = 0
                    rest = layer
                    while rest:
                        low = rest & -rest
                        nb = adj[low.bit_length() - 1]
                        if nb & layer:
                            best = 2 * depth + 1
                            break
                        twice |= nxt & nb
                        nxt |= nb
                        rest ^= low
                    layer = nxt & alive & ~seen
                    if twice & layer:
                        best = min(best, 2 * depth + 2)
                    seen |= layer
                    depth += 1
            alive ^= 1 << s
        return best if best < limit else None

    def shortest_cycle(self, odd: bool = False, allowed: int | None = None) -> list[int] | None:
        """A shortest cycle in cyclic order, or None.  With ``odd``, a
        shortest odd cycle; with ``allowed``, one of the subgraph that mask
        induces.  Such a cycle is induced.

        A BFS from each vertex of degree two or more: an edge inside layer
        i, or a vertex of layer i+1 with two parents, closes a cycle of
        length at most 2i+1 or 2i+2 through two back-paths cut where they
        meet.  A BFS stops once 2i+1 reaches the best length so far, since
        from each vertex of a shorter (odd) cycle the BFS distances along
        that cycle are exact."""
        if allowed is None:
            adj, sources = self.adj, range(self.n)
        else:
            adj, sources = [nb & allowed for nb in self.adj], bits(allowed)
        best = self.n + 1
        cyc = None
        for s in sources:
            if bit_count(adj[s]) < 2:
                continue
            layer = seen = 1 << s
            layers = [layer]
            depth = 0
            while layer and 2 * depth + 1 < best:
                nxt = twice = 0
                for v in bits(layer):
                    if adj[v] & layer:
                        cyc = self._closure(layers, v, next(bits(adj[v] & layer)))
                        best = len(cyc)
                        break
                    twice |= nxt & adj[v]
                    nxt |= adj[v]
                else:
                    layer = nxt & ~seen
                    seen |= layer
                    twice &= layer
                    if twice and not odd and 2 * depth + 2 < best:
                        w = next(bits(twice))
                        u, x, *_ = bits(adj[w] & layers[-1])
                        cyc = [w] + self._closure(layers, u, x)
                        best = len(cyc)
                    layers.append(layer)
                    depth += 1
        return cyc

    def _closure(self, layers: Sequence[int], u: int, w: int) -> list[int]:
        """From ``u`` back to where the back-paths of ``u`` and ``w`` meet,
        then out to ``w``: with the edge uw or a common neighbour, a cycle."""
        pu, pw = self.path_back(layers, u), self.path_back(layers, w)
        k = next(k for k in range(len(pu)) if pu[k] == pw[k])
        return pu[: k + 1] + pw[:k][::-1]

    def shortest_path(self, src: int, dst: int, allowed: int | None = None) -> list[int] | None:
        """Shortest src->dst path inside the ``allowed`` bitset.

        Both endpoints must lie in ``allowed``.  Returns the vertex list or
        None when disconnected.  Deterministic: the path is ``path_back``
        from dst, so each vertex's predecessor is its lowest-index
        neighbor one layer closer to src.
        """
        if allowed is None:
            allowed = self.full_mask()
        if not (allowed >> src & 1 and allowed >> dst & 1):
            return None
        ls = self.layers(1 << src, allowed)
        if not any(layer >> dst & 1 for layer in ls):
            return None
        return self.path_back(ls, dst)[::-1]

    def induces(self, seq: Sequence[int], edges: Iterable[tuple[int, int]]) -> bool:
        """True if the vertices of seq are distinct and the listed pairs,
        each listed once, are exactly the edges of the subgraph they
        induce.  Each pair takes its edge out of the induced neighborhoods
        of its ends, and must find it there: a repeated pair, a non-edge or
        a pair with an end outside seq does not.  No edge may be left."""
        adj = self.adj
        mask = mask_of(seq)
        left = {v: adj[v] & mask for v in seq}
        if len(left) != len(seq):
            return False
        for u, v in edges:
            if not left.get(u, 0) >> v & 1:
                return False
            left[u] ^= 1 << v
            left[v] ^= 1 << u
        return not any(left.values())

    def is_proper_coloring(self, color: Sequence[int]) -> bool:
        """True if color gives each of the n vertices a color of at least 0
        and no edge two ends of one color: each vertex's neighborhood
        misses the mask of its color class."""
        if len(color) != self.n or any(c < 0 for c in color):
            return False
        classes: dict[int, int] = {}
        for v, c in enumerate(color):
            classes[c] = classes.get(c, 0) | 1 << v
        adj = self.adj
        return not any(adj[v] & classes[c] for v, c in enumerate(color))

    def is_induced_path(self, seq: Sequence[int]) -> bool:
        """True if seq is an induced path visiting distinct vertices in
        order: its edges are exactly the consecutive pairs."""
        return self.induces(seq, zip(seq, seq[1:]))

    def is_induced_cycle(self, seq: Sequence[int]) -> bool:
        """True if seq is an induced cycle of length at least 3 in cyclic
        order: its edges are exactly the consecutive pairs and the closing
        pair."""
        return len(seq) >= 3 and self.induces(seq, zip(seq, [*seq[1:], seq[0]]))

    def is_tree_mask(self, mask: int) -> bool:
        """Does ``mask`` induce a tree: k - 1 edges on k vertices, all
        reached from the lowest?  One sweep: the reach adds up the degrees
        inside ``mask`` of the vertices it takes, which count every edge
        twice once it has taken all of ``mask``."""
        if not mask:
            return False
        adj = self.adj
        twice_m = 0
        comp = frontier = mask & -mask
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nb = adj[low.bit_length() - 1] & mask
                twice_m += nb.bit_count()
                nxt |= nb
                frontier ^= low
            frontier = nxt & ~comp
            comp |= frontier
        return comp == mask and twice_m == 2 * (comp.bit_count() - 1)

    def is_path_mask(self, mask: int, a: int, b: int) -> bool:
        """Does ``mask`` induce a path with ends ``a`` and ``b``?"""
        for v in bits(mask):
            if bit_count(self.adj[v] & mask) != (1 if v == a or v == b else 2):
                return False
        return self.reach(1 << a, mask) == mask


class WeightedGraph:
    """A graph with non-negative integer vertex weights."""

    __slots__ = ("graph", "weights")

    def __init__(self, graph: Graph, weights: Sequence[int] | None = None):
        if weights is None:
            weights = [1] * graph.n
        weights = list(weights)
        if len(weights) != graph.n:
            raise GraphError("weight vector length must equal vertex count")
        if any(w < 0 for w in weights):
            raise GraphError("weights must be non-negative")
        self.graph = graph
        self.weights = weights

    def weight_of(self, mask: int) -> int:
        return sum(self.weights[v] for v in bits(mask))

    def __repr__(self):
        return f"WeightedGraph({self.graph!r}, total={sum(self.weights)})"


# -- text format -------------------------------------------------------
#
# line 1: "n m", then m lines "u v" with 0 <= u < v < n; a weighted
# graph appends lines "w v weight".

def parse_graph(text: str) -> WeightedGraph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty graph text")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError("line 1: expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError("line 1: expected integers 'n m'") from None
    if n < 0 or m < 0:
        raise GraphError("line 1: negative counts")
    g = Graph(n)
    adj = g.adj
    weights = [1] * n
    edge_lines = lines[1 : 1 + m]
    if len(edge_lines) < m:
        raise GraphError(f"expected {m} edge lines, found {len(edge_lines)}")
    for k, ln in enumerate(edge_lines, start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"line {k}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {k}: expected integers") from None
        if not 0 <= u < v < n:  # one test per good edge; the first failing rule names a bad one
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"line {k}: vertex out of range")
            if u == v:
                raise GraphError(f"line {k}: loop {u}")
            raise GraphError(f"line {k}: expected u < v")
        if adj[u] >> v & 1:
            raise GraphError(f"line {k}: duplicate edge {u} {v}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for k, ln in enumerate(lines[1 + m :], start=2 + m):
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "w":
            raise GraphError(f"line {k}: expected 'w v weight'")
        try:
            v, w = int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphError(f"line {k}: expected integers") from None
        if not 0 <= v < n:
            raise GraphError(f"line {k}: vertex out of range")
        if w < 0:
            raise GraphError(f"line {k}: negative weight")
        weights[v] = w
    return WeightedGraph(g, weights)


def format_graph(wg: WeightedGraph | Graph) -> str:
    if isinstance(wg, Graph):
        wg = WeightedGraph(wg)
    g = wg.graph
    out = [f"{g.n} {g.edge_count()}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    out.extend(f"w {v} {wg.weights[v]}" for v in range(g.n) if wg.weights[v] != 1)
    return "\n".join(out) + "\n"
