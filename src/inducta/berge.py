"""Combinatorial optimization through 2-joins, for Berge graphs free of
balanced skew partitions and homogeneous pairs.

The pipeline runs in two passes.  ``decompose`` builds the weight-free
tree once per graph: it splits along marker-disjoint proper non-path
2-joins (one complementation allowed at the root), keeps one
parity-matched marker path per removed side, and classifies the leaves.
The 2-joins of a node are all found once.  The most balanced side is
tried first: when both of its parity-matched blocks are leaves, the node
splits along it and its child is that leaf, searched no further, which
is how a member of the class usually decomposes, in one enumeration.
Otherwise the minimally sided join is taken, whose small side block is
a leaf, and the child is decomposed in turn; when marker paths cross
that join, its marker-shifted split is read from the same list, so every
split comes from that node's one enumeration.  Either way each block
that is solved is checked to be a leaf.  The search places vertices one
by one and drops a placement as soon as its cross edges stop being at
most two complete bipartite pieces, each vertex seeing all of its
piece's other side.  That is exact: a 2-join's cross edges are two such
pieces (A1-A2 and B1-B2), and every restriction of them to the placed
vertices still is.
``solve`` then answers maximum weighted stable set and clique for one
weighting on that tree, with no search.  The tree also carries
everything that does not depend on the weights, built once by
``decompose``: each join's X1 side block with its vertex ids, markers
and the regions of its seven cases, the leaf's block, and for each
block the graph with every marker path swapped for its gadget (built in
one pass over the block), the flow network of a flow leaf and the
line-extension skeleton of a matching leaf.  A weighting then only
fills in weights, and no solve changes the tree, so one tree can be
solved many times and from many threads.
Walking down, each join's removed side is solved on its block and
re-read in the child as a weighted gadget: a path with clique weights
for omega, a flat claw (even side) or flat vault (odd side) carrying
the side's four stable-set numbers for alpha.  Weights enter only
through those numbers, so one tree serves every weighting.  The alpha
and omega halves never read each other's numbers, so either can run
alone: the coloring loop solves all of its weightings on one tree, and
each only for the half it reads (omega to find maximum cliques, alpha
for a stable set hitting them).  It runs only while omega is at least
3: once the uncolored part is triangle-free it is bipartite, because
its shortest odd cycle would be an odd hole, and one breadth-first
search colors it.  Leaves are bipartite or
line-graph extensions solved by flow and matching; a root leaf that is
the complement of one is solved on its complement, with alpha and omega
swapped.  The remaining basic kinds are handled exactly at desk scale.
A matching leaf is solved on its line-extension skeleton's root
multigraph, whose line graph is the transformed graph G'', so a maximum
weight matching is a maximum weight stable set.
Every lifted witness is re-validated before returning.  An answer keeps
its graph and its witnesses as vertex masks; its ``tree`` is decomposed
again when read.
"""

from __future__ import annotations

from .graphs import (Graph, GraphError, InternalError, Record, TooLargeError, WeightedGraph,
                     bit_count, bits, mask_of)
from .linegraph import line_root_with_map
from .matching import StableSetFlow, max_weight_matching
from .oracle import max_weight_clique, max_weight_stable_set

FULL_ENUM_BOUND = 16
PARITY_BUDGET = 200000  # side_parity search steps before TooLargeError


class OutsideClassError(GraphError):
    """The pipeline found a node that neither classifies as a leaf nor
    decomposes by a proper non-path 2-join (in the graph or, at the
    root, its complement)."""


# -- 2-join splits -----------------------------------------------------------

class TwoJoinSplit(Record):
    __slots__ = ("x1", "x2", "a1", "b1", "a2", "b2")

    def __init__(self, x1: int, x2: int, a1: int, b1: int, a2: int, b2: int):
        self.x1 = x1
        self.x2 = x2
        self.a1 = a1
        self.b1 = b1
        self.a2 = a2
        self.b2 = b2

    @property
    def c1(self) -> int:
        return self.x1 & ~self.a1 & ~self.b1

    def flip(self) -> "TwoJoinSplit":
        return TwoJoinSplit(self.x2, self.x1, self.a2, self.b2, self.a1, self.b1)


def is_connected_join(g: Graph, s: TwoJoinSplit) -> bool:
    for x, a, b in ((s.x1, s.a1, s.b1), (s.x2, s.a2, s.b2)):
        for comp in g.components_of(x):
            if not (comp & a) or not (comp & b):
                return False
    return True


def is_substantial_join(g: Graph, s: TwoJoinSplit) -> bool:
    for x, a, b in ((s.x1, s.a1, s.b1), (s.x2, s.a2, s.b2)):
        if bit_count(x) < 3:
            return False
        if bit_count(x) == 3 and bit_count(a) == 1 and bit_count(b) == 1:
            c = x & ~a & ~b
            av, bv, cv = next(bits(a)), next(bits(b)), next(bits(c))
            if (
                g.has_edge(av, cv)
                and g.has_edge(cv, bv)
                and not g.has_edge(av, bv)
            ):
                return False
    return True


def path_side(g: Graph, s: TwoJoinSplit) -> str | None:
    """'x1' or 'x2' if that side induces a path from A to B, else None."""
    for name, x, a, b in (("x1", s.x1, s.a1, s.b1), ("x2", s.x2, s.a2, s.b2)):
        if bit_count(a) == 1 and bit_count(b) == 1 and g.is_path_mask(
            x, a.bit_length() - 1, b.bit_length() - 1
        ):
            return name
    return None


def side_parity(g: Graph, s: TwoJoinSplit, side: str) -> str:
    """'even', 'odd' or 'mixed': parities of induced A-to-B paths with
    interior inside C, enumerated exhaustively per endpoint pair.

    For each a in A and b in B, the induced paths from a to a neighbour
    of b with interior inside C (``Graph.induced_paths``): the first
    neighbour of b ends the path, since anything longer would carry a
    chord against b.  The search stops once both parities are seen, and
    raises TooLargeError after ``PARITY_BUDGET`` steps.
    """
    x, a, b = (s.x1, s.a1, s.b1) if side == "x1" else (s.x2, s.a2, s.b2)
    c = x & ~a & ~b
    seen: set[int] = set()
    steps = iter(range(PARITY_BUDGET))

    def keep(used: int) -> bool:
        if next(steps, None) is None:
            raise TooLargeError("parity enumeration budget exhausted")
        return True

    for av in bits(a):
        for bv in bits(b):
            for path in g.induced_paths(av, g.adj[bv], c, keep=keep):
                seen.add(len(path) % 2)
                if len(seen) == 2:
                    return "mixed"
    if not seen:
        raise GraphError("2-join side has no A-to-B path through C: not connected")
    return "odd" if 1 in seen else "even"


def all_proper_nonpath_two_joins(g: Graph) -> list[TwoJoinSplit]:
    """Every proper non-path 2-join of g, as splits with vertex 0 in X1,
    in ascending order of X1; desk scale only.

    The search places the vertices one at a time in breadth-first order,
    vertex 0 on side X1, and drops a partial placement as soon as its
    cross edges stop being an induced subgraph of two vertex-disjoint
    complete bipartite graphs: they may form at most two nontrivial
    pieces, and a vertex with cross neighbours either starts a piece on
    placed vertices that have none, or joins a piece and sees every
    placed vertex on the piece's other side.  A 2-join's cross edges are
    exactly the pieces A1-A2 and B1-B2, and any restriction of them keeps
    that shape, so no 2-join is dropped.  The two pieces travel as four
    masks, each piece's X1 and X2 parts.  At a complete placement every
    cross edge lies in a piece and each piece is complete, so its two
    pieces are the split itself: A is the piece with the smaller X1 part,
    and no split is re-derived from cross neighbourhoods.
    Each such split then meets the connectivity, substantiality and
    path-side tests that an enumeration of all 2^(n-1) bipartitions
    would apply, and the result is that enumeration's list."""
    if g.n > FULL_ENUM_BOUND:
        raise TooLargeError(f"2-join enumeration bound {FULL_ENUM_BOUND} exceeded")
    n, adj = g.n, g.adj
    order = [v for comp in g.components() for layer in g.layers(comp & -comp, comp)
             for v in bits(layer)]
    out = []

    def place(i: int, x1: int, x2: int, c1: int, c2: int,
              p1: int, p2: int, q1: int, q2: int) -> None:
        # (p1, p2) and (q1, q2): the X1 and X2 parts of the first and
        # second piece, zero until the piece starts
        if c1 + n - i < 3 or c2 + n - i < 3:
            return
        if i == n:
            if q1:
                s = (TwoJoinSplit(x1, x2, p1, q1, p2, q2) if p1 < q1
                     else TwoJoinSplit(x1, x2, q1, p1, q2, p2))
                if (is_substantial_join(g, s) and path_side(g, s) is None
                        and is_connected_join(g, s)):
                    out.append(s)
            return
        v = order[i]
        bit = 1 << v
        nb = adj[v] & x2
        if not nb:
            place(i + 1, x1 | bit, x2, c1 + 1, c2, p1, p2, q1, q2)
        elif p2 & nb:
            if p2 == nb:
                place(i + 1, x1 | bit, x2, c1 + 1, c2, p1 | bit, p2, q1, q2)
        elif q2 & nb:
            if q2 == nb:
                place(i + 1, x1 | bit, x2, c1 + 1, c2, p1, p2, q1 | bit, q2)
        elif not p1:
            place(i + 1, x1 | bit, x2, c1 + 1, c2, bit, nb, 0, 0)
        elif not q1:
            place(i + 1, x1 | bit, x2, c1 + 1, c2, p1, p2, bit, nb)
        if not i:
            return
        nb = adj[v] & x1
        if not nb:
            place(i + 1, x1, x2 | bit, c1, c2 + 1, p1, p2, q1, q2)
        elif p1 & nb:
            if p1 == nb:
                place(i + 1, x1, x2 | bit, c1, c2 + 1, p1, p2 | bit, q1, q2)
        elif q1 & nb:
            if q1 == nb:
                place(i + 1, x1, x2 | bit, c1, c2 + 1, p1, p2, q1, q2 | bit)
        elif not p1:
            place(i + 1, x1, x2 | bit, c1, c2 + 1, nb, bit, 0, 0)
        elif not q1:
            place(i + 1, x1, x2 | bit, c1, c2 + 1, p1, p2, nb, bit)

    place(0, 0, 0, 0, 0, 0, 0, 0, 0)
    out.sort(key=lambda s: s.x1)
    return out


def find_two_join(g: Graph, markers: list[list[int]] | None = None,
                  joins: list[TwoJoinSplit] | None = None) -> TwoJoinSplit | None:
    """A proper non-path 2-join, minimally sided (X1 is the minimal side),
    shifted to be independent of the given marker paths; ``joins`` is
    g's ``all_proper_nonpath_two_joins`` list when the caller has it.

    Among all sides of all such joins, the one with fewest vertices (ties
    broken by its mask) is X1; no other side can lie strictly inside it.
    X1 takes A2 (resp. B2) when a marker path crosses A1-A2 (resp. B1-B2),
    and the listed side with that X1 is taken if no marker path crosses
    it, with A its X1 part of smaller mask; else the smallest such side."""
    if joins is None:
        joins = all_proper_nonpath_two_joins(g)
    sides = [t for s in joins for t in (s, s.flip())]
    if not sides:
        return None
    chosen = min(sides, key=lambda t: (bit_count(t.x1), t.x1))
    if not markers:
        return chosen
    path_masks = [mask_of(p) for p in markers]
    x1 = chosen.x1
    for end1, end2 in ((chosen.a1, chosen.a2), (chosen.b1, chosen.b2)):
        if any(pm & end1 and pm & end2 for pm in path_masks):
            x1 |= end2
    free = [t for t in sides if not any(pm & t.x1 and pm & t.x2 for pm in path_masks)]
    s = next((t for t in free if t.x1 == x1), None)
    if s is not None:
        return s if s.a1 < s.b1 else TwoJoinSplit(s.x1, s.x2, s.b1, s.a1, s.b2, s.a2)
    if not free:
        raise OutsideClassError("no marker-independent proper non-path 2-join")
    return min(free, key=lambda t: (bit_count(t.x1), t.x1))


# -- blocks and gadgets -------------------------------------------------------

class ABCD(Record):
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def check_basic(self) -> bool:
        return (
            0 <= self.c <= min(self.a, self.b)
            and max(self.a, self.b) <= self.d <= self.a + self.b
        )


def _path_block(g: Graph, s: TwoJoinSplit, k: int) -> tuple[Graph, list[int]]:
    """Keep X1, append a marker path of length k from a vertex complete
    to A1 to a vertex complete to B1; returns (block, marker path)."""
    sub, old = g.induced_mask(s.x1)
    pos = {o: i for i, o in enumerate(old)}
    attach: list[list[int]] = []
    base = sub.n
    marker = list(range(base, base + k + 1))
    attach.append([pos[v] for v in bits(s.a1)])
    for i in range(1, k):
        attach.append([marker[i - 1]])
    attach.append([marker[k - 1]] + [pos[v] for v in bits(s.b1)])
    return sub.add_vertices(k + 1, attach), marker


def _marker_clique_weights(path_len: int, omega_w: tuple[int, int, int]) -> list[int]:
    """Weights on a marker path standing for a side whose A, B and X
    cliques weigh omega_w: omega(A) on the A-end, omega(X) - omega(A) next
    to it, omega(B) on the B-end and 0 elsewhere."""
    wa, wb, wx = omega_w
    w = [0] * path_len
    w[0], w[1], w[-1] = wa, wx - wa, wb
    return w


def gadget_weights(kind: str, abcd: ABCD) -> list[int]:
    if kind == "claw":
        return [abcd.d - abcd.b, abcd.c, abcd.d - abcd.a, abcd.a + abcd.b - abcd.d]
    return [
        abcd.d - abcd.b,
        abcd.d - abcd.a,
        abcd.c,
        abcd.c,
        abcd.a + abcd.b - abcd.c - abcd.d,
        abcd.a + abcd.b - abcd.c - abcd.d,
    ]


def gadget_alpha_numbers(kind: str, weights4: list[int]) -> ABCD:
    """Recompute (a, b, c, d) as the stable-set numbers of the gadget's
    defining vertex subsets; cross-checks the stored values.  The claw is
    the star 1-{0, 2, 3}, the vault the square 2-3-4-5 with 0 and 1
    isolated, so each number is a closed form; a nonpositive weight
    counts as 0, as in the stable-set oracle."""
    w = [max(x, 0) for x in weights4]
    if kind == "claw":
        return ABCD(max(w[0] + w[3], w[1]), max(w[2] + w[3], w[1]), max(w[1], w[3]),
                    max(w[0] + w[2] + w[3], w[1]))
    return ABCD(w[0] + max(w[2] + w[4], w[3]), w[1] + max(w[3] + w[5], w[2]), max(w[2], w[3]),
                w[0] + w[1] + max(w[2] + w[4], w[3] + w[5]))


# -- leaf classification --------------------------------------------------------

class LeafInfo(Record):
    __slots__ = ("kind", "root", "root_edges")

    def __init__(self, kind: str, root: Graph | None = None,
                 root_edges: list[tuple[int, int]] | None = None):
        self.kind = kind  # bipartite | line-of-bipartite | complement-bipartite |
        #                   complement-line-of-bipartite | double-split |
        #                   path-cobipartite | complement-path-cobipartite |
        #                   path-double-split | complement-path-double-split
        self.root = root  # line leaves: the root of g, or of g's complement
        self.root_edges = root_edges


def _degree_masks(g: Graph) -> dict[int, int]:
    """The vertices of each degree of g, as masks keyed by degree."""
    out: dict[int, int] = {}
    for v, nb in enumerate(g.adj):
        d = bit_count(nb)
        out[d] = out.get(d, 0) | 1 << v
    return out


def is_double_split(g: Graph, by_degree: dict[int, int]) -> bool:
    """The double split validator, by its degree signature (g's degree
    masks ``by_degree``: A u B and C u D are the only two degree classes)
    and the matching / antimatching / crossing conditions."""
    n_all = g.n
    if len(by_degree) != 2:
        return False
    for m in range(2, n_all // 2 + 1):
        n = (n_all - 2 * m) // 2
        if 2 * m + 2 * n != n_all or n < 2:
            continue
        dab, dcd = n + 1, 2 * n + m - 2
        if dab == dcd:
            continue
        ab, cd = by_degree.get(dab, 0), by_degree.get(dcd, 0)
        if bit_count(ab) != 2 * m or bit_count(cd) != 2 * n:
            continue
        if any(bit_count(g.adj[v] & ab) != 1 for v in bits(ab)):
            continue  # A u B must induce a perfect matching
        if any(bit_count(g.adj[v] & cd) != 2 * n - 2 for v in bits(cd)):
            continue  # C u D must induce the complement of one
        ok = True
        ab_pairs = []
        for v in bits(ab):
            u = next(bits(g.adj[v] & ab))
            if u > v:
                ab_pairs.append((v, u))
        cd_pairs = []
        for v in bits(cd):
            u = next(bits(cd & ~g.adj[v] & ~(1 << v)))
            if u > v:
                cd_pairs.append((v, u))
        for aa, bb in ab_pairs:
            for cc, dd in cd_pairs:
                cross = [
                    g.has_edge(aa, cc), g.has_edge(aa, dd),
                    g.has_edge(bb, cc), g.has_edge(bb, dd),
                ]
                if sum(cross) != 2:
                    ok = False
                    break
                # the two edges must be disjoint
                if cross == [True, True, False, False] or cross == [False, False, True, True]:
                    ok = False
                    break
                if cross == [True, False, True, False] or cross == [False, True, False, True]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def _flat_paths_of(g: Graph, deg2: int) -> list[list[int]]:
    """Maximal flat paths: interiors of degree 2 (the mask ``deg2``),
    ends without common neighbors off the path."""
    out = []
    seen = 0
    for v in bits(deg2):
        if seen >> v & 1:
            continue
        # walk both ways through degree-2 vertices
        chain = [v]
        seen |= 1 << v
        for direction in (0, 1):
            cur = v
            prev = -1
            while True:
                nxts = [w for w in bits(g.adj[cur]) if w != prev and deg2 >> w & 1 and not seen >> w & 1]
                if not nxts:
                    break
                w = nxts[0]
                seen |= 1 << w
                if direction == 0:
                    chain.append(w)
                else:
                    chain.insert(0, w)
                prev, cur = cur, w
        ends0 = [w for w in bits(g.adj[chain[0]]) if w not in chain]
        ends1 = [w for w in bits(g.adj[chain[-1]]) if w not in chain]
        if len(ends0) == 1 and len(ends1) == 1 and ends0[0] != ends1[0]:
            p = [ends0[0]] + chain + [ends1[0]]
            if not g.has_edge(p[0], p[-1]) and not (g.adj[p[0]] & g.adj[p[-1]] & ~mask_of(p)):
                out.append(p)
    return out


def is_path_cobipartite(g: Graph, comp: Graph, paths: list[list[int]]) -> bool:
    """Cliques A, B joined by odd flat paths through degree-2 interiors
    (g's complement is ``comp`` and its maximal flat paths ``paths``);
    Berge by construction of the class, checked exhaustively here.  The
    rest must split into two cliques, which is tested on masks before
    anything else."""
    from .oracle import is_berge

    p = 0
    for path in paths:
        p |= mask_of(path[1:-1])
    rest = g.full_mask() & ~p
    if rest == 0:
        return False
    # the covers of the rest by two cliques: one colour class of each
    # component of the complement on the rest
    classes = []
    left = rest
    while left:
        layers = comp.layers(left & -left, rest)
        if any(comp.adj[v] & layer for layer in layers for v in bits(layer)):
            return False  # an odd cycle of the complement
        even, odd = sum(layers[0::2]), sum(layers[1::2])  # the layers are disjoint
        classes.append((even, odd))
        left &= ~(even | odd)
    # try every 2-clique-cover of the rest consistent with the paths
    for flip in range(1 << len(classes)):
        a = 0
        for i, pair in enumerate(classes):
            a |= pair[flip >> i & 1]
        if _check_path_cobip(g, paths, a, rest & ~a, p):
            return is_berge(g)
    return False


def _check_path_cobip(g: Graph, paths: list[list[int]], a: int, b: int, p: int) -> bool:
    if not a or not b:
        return False
    if not g.is_clique_mask(a) or not g.is_clique_mask(b):
        return False
    used = 0
    for path in paths:
        inner = mask_of(path[1:-1])
        if not inner & p:
            continue
        e0, e1 = path[0], path[-1]
        if a >> e0 & 1 and b >> e1 & 1:
            pa, pb = e0, e1
        elif b >> e0 & 1 and a >> e1 & 1:
            pa, pb = e1, e0
        else:
            return False
        if (len(path) - 1) % 2 == 0:
            return False  # paths must be odd
        if g.adj[pa] & ~(a | p):
            return False  # path-end in A sees only A u P
        if g.adj[pb] & ~(b | p):
            return False
        used |= inner
    return used == p


def is_path_double_split(g: Graph, paths: list[list[int]], by_degree: dict[int, int]) -> bool:
    """Double split graph with the matching edges subdivided into odd
    flat paths; recognized by contracting the flat paths back.  ``paths``
    and ``by_degree`` are g's maximal flat paths and degree masks."""
    if not paths:
        return is_double_split(g, by_degree)
    # contract each flat path of odd length to a single edge
    h = g
    while True:
        cand = next((path for path in paths if len(path) >= 3 and (len(path) - 1) % 2 == 1), None)
        if cand is None:
            break
        keep = [v for v in range(h.n) if v not in cand[1:-1]]
        sub, old = h.induced(keep)
        pos = {o: i for i, o in enumerate(old)}
        if not sub.has_edge(pos[cand[0]], pos[cand[-1]]):
            sub.add_edge_unchecked(pos[cand[0]], pos[cand[-1]])
        h = sub
        by_degree = _degree_masks(h)
        paths = _flat_paths_of(h, by_degree.get(2, 0))
    return is_double_split(h, by_degree)


def classify_leaf(g: Graph) -> LeafInfo | None:
    """The basic kind of g in the decomposition class, or None: bipartite,
    a line graph of a bipartite root, the complement of either, or one of
    the double split and path kinds (which are solved exactly).

    What the double split and path tests share is computed once: g's
    degree masks (the complement's follow from them), and the maximal
    flat paths of g and of its complement."""
    if g.bipartition() is not None:
        return LeafInfo("bipartite")
    got = line_root_with_map(g)
    if got is not None and got[0].bipartition() is not None:
        return LeafInfo("line-of-bipartite", root=got[0], root_edges=got[1])
    comp = g.complement()
    if comp.bipartition() is not None:
        return LeafInfo("complement-bipartite")
    gotc = line_root_with_map(comp)
    if gotc is not None and gotc[0].bipartition() is not None:
        return LeafInfo("complement-line-of-bipartite", root=gotc[0], root_edges=gotc[1])
    by_degree = _degree_masks(g)
    if is_double_split(g, by_degree):
        return LeafInfo("double-split")
    by_degree_c = {g.n - 1 - d: m for d, m in by_degree.items()}
    paths = _flat_paths_of(g, by_degree.get(2, 0))
    paths_c = _flat_paths_of(comp, by_degree_c.get(2, 0))
    if is_path_cobipartite(g, comp, paths):
        return LeafInfo("path-cobipartite")
    if is_path_cobipartite(comp, g, paths_c):
        return LeafInfo("complement-path-cobipartite")
    if is_path_double_split(g, paths, by_degree):
        return LeafInfo("path-double-split")
    if is_path_double_split(comp, paths_c, by_degree_c):
        return LeafInfo("complement-path-double-split")
    return None


# -- the line-graph extension transformation -------------------------------------

class _LineSkeleton:
    """The weight-free part of the transformation of a line graph ``g``
    (vertex v is edge root_edges[v] of ``root``) whose flat ``paths`` are
    extended to gadgets: which vertices of g the transformed graph G''
    keeps (G'' vertex i < len(keep) is vertex keep[i]), per path the G''
    vertex of each gadget role ('p', 'pp', 'x', 'y'), and the root
    multigraph on ``nodes`` vertices as edges (u, v, the G'' vertex whose
    weight the edge takes)."""

    __slots__ = ("keep", "roles", "medges", "nodes")

    def __init__(self, g: Graph, root: Graph, root_edges: list[tuple[int, int]],
                 paths: list[list[int]]):
        path_mask = 0
        for p in paths:
            path_mask |= mask_of(p)
        keep = self.keep = [v for v in range(g.n) if not (path_mask >> v & 1)]
        self.roles = [{"p": len(keep) + 4 * i, "pp": len(keep) + 4 * i + 1,
                       "x": len(keep) + 4 * i + 2, "y": len(keep) + 4 * i + 3}
                      for i in range(len(paths))]
        # the interiors of the root paths simply stop carrying edges; per
        # path we add u^i, v^i, the chord between the root path's ends,
        # and the three pendant-gadget edges
        self.medges = [(*root_edges[u], i) for i, u in enumerate(keep)]
        for i, (p, r) in enumerate(zip(paths, self.roles)):
            uu = root.n + 2 * i
            r1 = _root_path_end(root_edges, p, 0)
            rl = _root_path_end(root_edges, p, 1)
            self.medges += [(r1, rl, r["x"]), (uu, r1, r["p"]), (uu, rl, r["pp"]), (uu, uu + 1, r["y"])]
        self.nodes = root.n + 2 * len(paths)


def _line_weights(skel: _LineSkeleton, base_weights: list[int], numbers: list[ABCD]) -> list[int]:
    """G'' weights: the base weights on kept vertices, each path's four
    stable-set numbers on its gadget roles."""
    w2 = [base_weights[o] for o in skel.keep] + [0] * (4 * len(numbers))
    for s, nums in zip(skel.roles, numbers):
        w2[s["p"]], w2[s["pp"]], w2[s["y"]], w2[s["x"]] = nums.a, nums.b, nums.c, nums.d - nums.c
    return w2


def _root_path_end(root_edges, path, which: int) -> int:
    """The root vertex where the root path of ``path`` meets the rest."""
    end_vertex = path[0] if which == 0 else path[-1]
    inner_vertex = path[1] if which == 0 else path[-2]
    e_end = set(root_edges[end_vertex])
    e_in = set(root_edges[inner_vertex])
    outer = e_end - e_in
    if len(outer) != 1:
        raise GraphError("flat path does not map to a root path")
    return next(iter(outer))


# -- the solver --------------------------------------------------------------

class MarkerInfo:
    """A marker path in a node's graph (``path``, in that graph's
    vertices) standing for the X1 side of the join numbered ``side``
    along the tree's chain of joins, root first; ``kind`` is 'claw' for
    an even side and 'vault' for an odd one."""

    __slots__ = ("path", "kind", "side")

    def __init__(self, path: list[int], kind: str, side: int):
        self.path, self.kind, self.side = path, kind, side


class TreeNode(Record):
    """One node of the weight-free decomposition: a leaf, or a join whose
    only child is the block of X2 plus a marker for X1.  Each node also
    carries the block its solves run on (the leaf's graph, or the join's
    X1 side block), which no solve changes; ``block`` takes no part in
    equality or repr, so two decompositions of one graph compare equal."""

    __slots__ = ("kind", "leaf", "parities", "children", "graph", "split", "marker_len",
                 "side_leaf", "complemented", "block", "regions")
    _unequal = ("block",)

    def __init__(self, kind: str, leaf: LeafInfo | None = None,
                 parities: tuple[str, str] = ("", ""), children: list[TreeNode] | None = None,
                 graph: Graph | None = None, split: TwoJoinSplit | None = None,
                 marker_len: int = 0, side_leaf: LeafInfo | None = None,
                 complemented: bool = False, block: _Block | None = None,
                 regions: tuple[int, ...] = ()):
        self.kind = kind                  # 'leaf' or 'join'
        self.leaf = leaf
        self.parities = parities
        self.children = [] if children is None else children
        self.graph = graph                # this node's graph
        self.split = split                # the join taken at this node
        self.marker_len = marker_len      # length of the child's marker
        self.side_leaf = side_leaf        # join only: the kind of the X1 block
        self.complemented = complemented  # root only: the tree is of the complement
        self.block = block
        self.regions = regions            # join only: the block masks of the seven cases


class BergeAnswer(Record):
    """Validated weights and witnesses for ``graph`` (from
    ``berge_alpha_omega``, the caller's own object).  The witnesses are
    kept as vertex masks; ``alpha_set`` and ``omega_set`` read them as
    sorted vertex lists and take a list on assignment.  The decomposition
    is not kept: ``tree`` rebuilds it on each read, and since
    ``decompose`` is deterministic that is the tree the answer was
    solved on."""

    __slots__ = ("alpha", "alpha_mask", "omega", "omega_mask", "graph", "complemented")

    def __init__(self, alpha: int, alpha_mask: int, omega: int, omega_mask: int,
                 graph: Graph, complemented: bool = False):
        self.alpha = alpha
        self.alpha_mask = alpha_mask
        self.omega = omega
        self.omega_mask = omega_mask
        self.graph = graph
        self.complemented = complemented

    @property
    def alpha_set(self) -> list[int]:
        return list(bits(self.alpha_mask))

    @alpha_set.setter
    def alpha_set(self, vertices: list[int]) -> None:
        self.alpha_mask = mask_of(vertices)

    @property
    def omega_set(self) -> list[int]:
        return list(bits(self.omega_mask))

    @omega_set.setter
    def omega_set(self, vertices: list[int]) -> None:
        self.omega_mask = mask_of(vertices)

    @property
    def tree(self) -> TreeNode:
        return decompose(self.graph)


def _clamp_case(case: str, forced_a: bool, forced_b: bool) -> str:
    """Restrict a hidden-side case when a zeroed path end forbids that
    side's border: a zeroed A-end downgrades d->b and a->c; a zeroed
    B-end downgrades d->a and b->c."""
    if forced_a:
        case = {"d": "b", "a": "c"}.get(case, case)
    if forced_b:
        case = {"d": "a", "b": "c"}.get(case, case)
    return case


def _expand_alpha_witness(blk: _Block, wit_mask: int, gadget_map: list) -> list[int]:
    """Root-vertex stable set from a gadgetized-block witness.  Each
    gadget expands by the case its own anchors chose (an A-end anchor
    for a, a B-end one for b, both for d, neither for c), as a matching
    leaf reads its gadget roles.  Reading the case from the witness next
    to the anchors instead would let two gadgets whose anchors are
    adjacent both widen to a border the other then meets."""
    out = set()
    gadget_vs = 0
    for _, _, gad, _, _ in gadget_map:
        gadget_vs |= mask_of(gad)
    for v in bits(wit_mask & ~gadget_vs):
        orig = blk.ids[blk.back[v]]
        if orig is not None:
            out.add(orig)
    for nums, kind, gad, forced_a, forced_b in gadget_map:
        a_end, b_end = _anchor_groups(kind, gad)
        at_a, at_b = wit_mask & mask_of(a_end), wit_mask & mask_of(b_end)
        case = "d" if at_a and at_b else "a" if at_a else "b" if at_b else "c"
        out.update(nums.alpha_wit[_clamp_case(case, forced_a, forced_b)])
    return sorted(out)


def _gadgetize(g: Graph, markers: list[MarkerInfo]) -> tuple[Graph, list, list[list[int]]]:
    """Swap every marker path for its claw or vault in one pass: the
    vertices off the paths keep their order, then come the gadgets in
    marker order, and a path end's edges go to its gadget's anchors on
    that end (two adjacent path ends join their anchor groups pairwise).
    Returns the new graph, its map back to g (None on gadgets), and each
    marker's gadget."""
    on_paths = mask_of(v for m in markers for v in m.path)
    back: list = [v for v in range(g.n) if not on_paths >> v & 1]
    becomes = [0] * g.n  # per vertex of g, the new vertices standing for it
    for i, v in enumerate(back):
        becomes[v] = 1 << i
    gadgets = []
    for m in markers:
        gadgets.append(list(range(len(back), len(back) + (4 if m.kind == "claw" else 6))))
        back += [None] * len(gadgets[-1])
        a_end, b_end = _anchor_groups(m.kind, gadgets[-1])
        becomes[m.path[0]], becomes[m.path[-1]] = mask_of(a_end), mask_of(b_end)
    h = Graph(len(back))
    for v, new in enumerate(becomes):
        nb = sum(becomes[w] for w in bits(g.adj[v]))  # the masks are disjoint
        for x in bits(new):
            h.adj[x] = nb
    for m, gad in zip(markers, gadgets):
        # the claw is the star 1-{0, 2, 3}, the vault the square 2-3-4-5
        for x, y in ((0, 1), (1, 2), (1, 3)) if m.kind == "claw" else ((2, 3), (3, 4), (4, 5), (5, 2)):
            h.add_edge_unchecked(gad[x], gad[y])
    return h, back, gadgets


def _leaf_alpha(
    blk: _Block, weights: list[int], sides: list[_SideNumbers], keep: int,
) -> tuple[int, list[int]]:
    """Maximum weighted stable set of a block with its markers read as
    gadgets, witness in root vertices.  Everything outside ``keep`` is
    zeroed, the gadget anchors inheriting the fate of their path ends."""
    if blk.co is not None:
        return _leaf_omega(blk.co, weights, sides, keep)
    if blk.line is not None:
        return _alpha_line_leaf(blk, weights, sides, keep)
    wb = _block_weights(blk, weights, keep)
    w2 = [0 if v is None else wb[v] for v in blk.back]
    gadget_map = []
    for m, gad in zip(blk.markers, blk.gadgets):
        nums = sides[m.side]
        w4, forced_a, forced_b = _kept_gadget_weights(m, nums.abcd, keep)
        for v, x in zip(gad, w4):
            w2[v] = x
        gadget_map.append((nums, m.kind, gad, forced_a, forced_b))
    if blk.flow is not None:
        val, mask = blk.flow.solve(w2)
    else:
        val, mask = max_weight_stable_set(WeightedGraph(blk.gadgetized, w2))
    return val, _expand_alpha_witness(blk, mask, gadget_map)


def _anchor_groups(kind: str, gad: list[int]) -> tuple[list[int], list[int]]:
    """Gadget vertices playing the A-end and B-end of the replaced path."""
    if kind == "claw":
        return [gad[0]], [gad[2]]
    return [gad[0], gad[4]], [gad[1], gad[5]]


def _kept_gadget_weights(m: MarkerInfo, abcd: ABCD, keep: int) -> tuple[list[int], bool, bool]:
    """Marker m's gadget weights, with the anchors of a path end outside
    ``keep`` zeroed; also whether each end was."""
    w4 = gadget_weights(m.kind, abcd)
    forced_a = not keep >> m.path[0] & 1
    forced_b = not keep >> m.path[-1] & 1
    a_end, b_end = _anchor_groups(m.kind, list(range(len(w4))))
    for i in (a_end if forced_a else []) + (b_end if forced_b else []):
        w4[i] = 0
    return w4, forced_a, forced_b


def _alpha_line_leaf(
    blk: _Block, weights: list[int], sides: list[_SideNumbers], keep: int,
) -> tuple[int, list[int]]:
    """Line-graph block: transform, solve by matching on the root
    multigraph, then expand marker gadgets by their contact pattern."""
    skel = blk.line
    numbers, forced = [], []
    for m in blk.markers:
        w4, forced_a, forced_b = _kept_gadget_weights(m, sides[m.side].abcd, keep)
        numbers.append(gadget_alpha_numbers(m.kind, w4))
        forced.append((forced_a, forced_b))
    w2 = _line_weights(skel, _block_weights(blk, weights, keep), numbers)
    val, chosen = max_weight_matching(skel.nodes, [(u, v, w2[x]) for u, v, x in skel.medges])
    # matching edges -> G'' vertices
    by_pair: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for u, v, x in skel.medges:
        by_pair.setdefault((min(u, v), max(u, v)), []).append((w2[x], x))
    sel = {max(by_pair[pair])[1] for pair in chosen}
    # expand: real G'' vertices map to block vertices; gadget roles by case
    out = {blk.ids[v] for i, v in enumerate(skel.keep) if i in sel and blk.ids[v] is not None}
    for m, roles, (forced_a, forced_b) in zip(blk.markers, skel.roles, forced):
        got = {name for name, vid in roles.items() if vid in sel}
        if got in ({"x", "y"}, {"x"}):
            case = "d"
        elif got == {"y"} or not got:
            case = "c"
        elif got == {"p"}:
            case = "a"
        elif got == {"pp"}:
            case = "b"
        else:
            raise GraphError(f"unexpected matching pattern {got} on a gadget")
        out.update(sides[m.side].alpha_wit[_clamp_case(case, forced_a, forced_b)])
    return val, sorted(out)


def _leaf_omega(
    blk: _Block, weights: list[int], sides: list[_SideNumbers], keep: int,
) -> tuple[int, list[int]]:
    """Maximum weighted clique of a path-form block whose markers carry
    their clique weights, zero outside ``keep``; witness in root vertices."""
    if blk.co is not None:
        return _leaf_alpha(blk.co, weights, sides, keep)
    g = blk.graph
    w = _block_weights(blk, weights, keep)
    for m in blk.markers:
        for v, mw in zip(m.path, _marker_clique_weights(len(m.path), sides[m.side].omega_w)):
            w[v] = mw if keep >> v & 1 else 0
    if blk.edges is not None:
        best, mask = 0, 0
        for v in range(g.n):
            if w[v] > best:
                best, mask = w[v], 1 << v
        for u, v in blk.edges:
            if w[u] + w[v] > best:
                best, mask = w[u] + w[v], (1 << u) | (1 << v)
    elif blk.stars is not None:
        best, mask = 0, 0
        for star in blk.stars:
            star = [i for i in star if w[i] > 0]
            tot = sum(w[i] for i in star)
            if tot > best:
                best, mask = tot, mask_of(star)
        for v in range(g.n):
            if w[v] > best:
                best, mask = w[v], 1 << v
    else:
        best, mask = max_weight_clique(WeightedGraph(g, w))
    return best, _expand_omega_witness(blk, mask, sides)


def _expand_omega_witness(blk: _Block, mask: int, sides: list[_SideNumbers]) -> list[int]:
    out = set()
    for v in bits(mask & ~blk.marker_vs):
        if blk.ids[v] is not None:
            out.add(blk.ids[v])
    for m in blk.markers:
        got = mask & mask_of(m.path)
        if not got:
            continue
        a1, x1, b1 = m.path[0], m.path[1], m.path[-1]
        wit = sides[m.side].omega_wit
        if got >> x1 & 1:
            out.update(wit["X"])
        elif got >> a1 & 1:
            out.update(wit["A"])
        elif got >> b1 & 1:
            out.update(wit["B"])
        # interior-only selections carry weight zero: drop them
    return sorted(out)


def decompose(g: Graph) -> TreeNode:
    """The weight-free 2-join decomposition of g: every search the
    pipeline makes, done once so that ``solve`` can answer any weighting.
    A node that is no leaf enumerates its 2-joins once and splits along
    the most balanced one whose two blocks are both leaves, so the tree
    stops one join below it; failing that, along the minimally sided,
    marker-shifted join of ``find_two_join``, whose side block must be a
    leaf and whose child is decomposed in turn.  Each node carries the
    block its solves run on, built once its own subtree has decomposed,
    so a graph refused deep in the chain builds none.  When g neither
    classifies as a leaf nor decomposes, its complement is tried once at
    the root; if the complement's root has neither a leaf kind nor a
    2-join either, g's own failure is reported."""
    try:
        return _decompose(g, list(range(g.n)), [], 0)
    except OutsideClassError:  # unnamed: a frame that held it would hold a cycle
        comp = g.complement()
        found = _leaf_or_join(comp, [])
        if found is None:
            raise
    tree = _decompose(comp, list(range(g.n)), [], 0, found)
    tree.complemented = True
    return tree


class _Join:
    """A 2-join a node splits along, with what splitting needs: the
    parities of its two sides, the side block (X1 plus a marker for X2)
    with its leaf kind, and the child block (X2 plus the marker path
    ``marker`` for X1) with its leaf kind when that is already known."""

    __slots__ = ("split", "parities", "side", "side_leaf", "child", "marker", "child_leaf")

    def __init__(self, split: TwoJoinSplit, parities: tuple[str, str], side: Graph,
                 side_leaf: LeafInfo, child: Graph, marker: list[int]):
        self.split, self.parities, self.side, self.side_leaf = split, parities, side, side_leaf
        self.child, self.marker, self.child_leaf = child, marker, None


def _join_along(g: Graph, split: TwoJoinSplit) -> _Join:
    """Both blocks of ``split``, each with a marker path matching the
    parity of the side it stands for; the side block must be a leaf."""
    p1 = side_parity(g, split, "x1")
    p2 = side_parity(g, split, "x2")
    if "mixed" in (p1, p2):
        raise OutsideClassError("parity-undefined 2-join side")
    side = _path_block(g, split, 3 if p2 == "odd" else 4)[0]
    side_leaf = classify_leaf(side)
    if side_leaf is None:
        raise OutsideClassError("extreme-side block is not leaf-classifiable")
    child, marker = _path_block(g, split.flip(), 3 if p1 == "odd" else 4)
    return _Join(split, (p1, p2), side, side_leaf, child, marker)


def _balanced_join(g: Graph, joins: list[TwoJoinSplit], paths: list[list[int]]) -> _Join | None:
    """The join along the most balanced side no marker path crosses (the
    largest smaller side, then the fewest vertices in X1, then the
    smallest X1 mask) when both of its blocks are leaves, else None.
    Extremality only serves to make one block a leaf; a join whose two
    blocks are leaves ends the chain at once."""
    path_masks = [mask_of(p) for p in paths]
    free = [t for s in joins for t in (s, s.flip())
            if not any(pm & t.x1 and pm & t.x2 for pm in path_masks)]
    if not free:
        return None
    split = min(free, key=lambda t: (-min(bit_count(t.x1), bit_count(t.x2)), bit_count(t.x1), t.x1))
    try:
        join = _join_along(g, split)
    except OutsideClassError:
        return None
    join.child_leaf = classify_leaf(join.child)
    return join if join.child_leaf is not None else None


def _leaf_or_join(
    g: Graph, markers: list[MarkerInfo]
) -> tuple[LeafInfo | None, _Join | None] | None:
    """The node's leaf kind, else the join it splits along, from one
    enumeration of its 2-joins; None when it has neither."""
    leaf = classify_leaf(g)
    if leaf is not None:
        return leaf, None
    joins = all_proper_nonpath_two_joins(g)
    if not joins:
        return None
    paths = [m.path for m in markers]
    join = _balanced_join(g, joins, paths)
    return None, join or _join_along(g, find_two_join(g, paths, joins))


def _decompose(
    g: Graph, ids: list, markers: list[MarkerInfo], depth: int,
    found: tuple[LeafInfo | None, _Join | None] | None = None,
) -> TreeNode:
    """The tree below a node whose vertices stand for the root vertices
    ``ids`` (None on marker paths); ``found`` is the node's own search
    when the caller has already made it.  Walking down, each join's
    removed side X1 becomes a marker path in the child's graph."""
    if depth > g.n + 8:
        raise OutsideClassError("decomposition recursion exceeded its depth cap")
    if found is None:
        found = _leaf_or_join(g, markers)
        if found is None:
            raise OutsideClassError("node neither classifies as a leaf nor has a 2-join")
    leaf, join = found
    if leaf is not None:
        return TreeNode("leaf", leaf=leaf, graph=g, block=_Block(g, leaf, ids, markers))

    split, (p1, p2) = join.split, join.parities
    x1, x2 = list(bits(split.x1)), list(bits(split.x2))
    markers2 = _markers_within(markers, split.x2)
    markers2.append(MarkerInfo(join.marker, _gadget_kind(p1), depth))
    child = _decompose(join.child, [ids[o] for o in x2] + [None] * len(join.marker), markers2,
                       depth + 1, None if join.child_leaf is None else (join.child_leaf, None))
    side = join.side
    block = _Block(side, join.side_leaf, [ids[o] for o in x1] + [None] * (side.n - len(x1)),
                   _markers_within(markers, split.x1))
    # the side's abcd cases a, b, c, d, then the cliques of A1, B1 and X1
    regions = tuple(
        mask_of(i for i, v in enumerate(x1) if region >> v & 1)
        for region in (split.a1 | split.c1, split.b1 | split.c1, split.c1, split.x1,
                       split.a1, split.b1, split.x1)
    )
    return TreeNode(
        "join",
        parities=(p1, p2),
        children=[child],
        graph=g,
        split=split,
        marker_len=len(join.marker) - 1,
        side_leaf=join.side_leaf,
        block=block,
        regions=regions,
    )


def _gadget_kind(parity: str) -> str:
    return "vault" if parity == "odd" else "claw"


def _markers_within(markers: list[MarkerInfo], side: int) -> list[MarkerInfo]:
    """The markers inside ``side``, renumbered to a block that keeps
    ``side`` as its first vertices (markers never straddle a join)."""
    pos = {o: i for i, o in enumerate(bits(side))}
    return [
        MarkerInfo([pos[v] for v in m.path], m.kind, m.side)
        for m in markers
        if mask_of(m.path) & side
    ]


# -- blocks and solving ---------------------------------------------------------

class _Block:
    """A graph the solver solves on, a join's X1 side block or the tree's
    leaf, with everything its solves share across weightings: ``ids``
    maps each vertex to the root vertex it stands for (None on marker
    paths), and ``marker_vs`` holds the marker paths' vertices.  For the
    stable half, flow and exact leaves solve ``gadgetized``, the graph
    with every marker path swapped for its claw or vault (``back`` maps
    its vertices to the block's, None on ``gadgets``), through ``flow``
    on a flow leaf; matching leaves use the ``line`` skeleton.  For the
    clique half, a bipartite leaf keeps its ``edges`` and a matching leaf
    its ``stars``, per root vertex the block vertices of its edges.

    A marker-free complement-bipartite or complement-line-of-bipartite
    leaf keeps only ``co``, the block of its complement: its stable sets
    are the complement's cliques (a vertex or edge of a bipartite graph,
    a star of a bipartite root) and its cliques the complement's stable
    sets (by flow, or by a matching of the root).  Such a leaf with
    markers stays exact, as the gadgets do not survive complementing."""

    __slots__ = ("graph", "ids", "markers", "marker_vs", "gadgetized", "back", "gadgets",
                 "flow", "line", "edges", "stars", "co")

    def __init__(self, graph: Graph, leaf: LeafInfo, ids: list, markers: list[MarkerInfo]):
        self.graph, self.ids, self.markers = graph, ids, markers
        self.marker_vs = mask_of(v for m in markers for v in m.path)
        self.gadgetized = self.back = self.gadgets = self.flow = self.line = None
        self.edges = self.stars = self.co = None
        if not markers and leaf.kind in ("complement-bipartite", "complement-line-of-bipartite"):
            co_leaf = LeafInfo(leaf.kind.removeprefix("complement-"), leaf.root, leaf.root_edges)
            self.co = _Block(graph.complement(), co_leaf, ids, [])
            return
        if leaf.kind == "line-of-bipartite":
            self.line = _LineSkeleton(graph, leaf.root, leaf.root_edges, [m.path for m in markers])
            self.stars = [[i for i, e in enumerate(leaf.root_edges) if rv in e]
                          for rv in range(leaf.root.n)]
            return
        self.gadgetized, self.back, self.gadgets = _gadgetize(graph, markers)
        if leaf.kind == "bipartite":
            self.flow = StableSetFlow(self.gadgetized)
            self.edges = graph.edges()


class _SideNumbers:
    """What a join's removed side X1 hands on under one weighting: for
    the stable half the abcd numbers with a stable set per case, for the
    clique half the clique weights of A1, B1 and X1 with their cliques;
    witnesses are root vertices, and a half not asked for is None."""

    __slots__ = ("abcd", "alpha_wit", "omega_w", "omega_wit")

    def __init__(self, abcd: ABCD | None, alpha_wit: dict[str, list[int]] | None,
                 omega_w: tuple[int, int, int] | None, omega_wit: dict[str, list[int]] | None):
        self.abcd, self.alpha_wit, self.omega_w, self.omega_wit = abcd, alpha_wit, omega_w, omega_wit


def solve(tree: TreeNode, weights: list[int]) -> BergeAnswer:
    """Maximum weighted stable set and clique of the decomposed graph
    under ``weights``, with the lifted witnesses validated against it."""
    graph = tree.graph.complement() if tree.complemented else tree.graph
    return _answer(tree, graph, weights)


def _answer(tree: TreeNode, graph: Graph, weights: list[int]) -> BergeAnswer:
    """Solve ``tree``, the decomposition of ``graph``, for one weighting."""
    (a, aw), (o, ow) = _solve_halves(tree, weights, alpha=True, omega=True)
    return BergeAnswer(a, mask_of(aw), o, mask_of(ow), graph, tree.complemented)


def _solve_halves(
    tree: TreeNode, weights: list[int], alpha: bool, omega: bool,
) -> tuple[tuple[int, list[int]] | None, tuple[int, list[int]] | None]:
    """The (alpha, omega) halves asked for, each a validated (weight,
    witness) pair; a half not asked for is None and costs nothing.  The
    halves never read each other's marker numbers.  Each join's side is
    solved on its block before the blocks below read its numbers.  On a
    complemented root, a stable set of the decomposed graph is a clique
    of the tree's."""
    stable, clique = (omega, alpha) if tree.complemented else (alpha, omega)
    root = WeightedGraph(tree.graph, weights)
    sides: list[_SideNumbers] = []
    node = tree
    while node.kind == "join":
        sides.append(_side_numbers(node, weights, sides, stable, clique))
        node = node.children[0]
    full = node.graph.full_mask()
    st = _leaf_alpha(node.block, weights, sides, full) if stable else None
    cl = _leaf_omega(node.block, weights, sides, full) if clique else None
    t = tree.graph
    if tree.complemented:
        a, o, is_stable, is_clique = cl, st, t.is_clique_mask, t.is_stable_mask
    else:
        a, o, is_stable, is_clique = st, cl, t.is_stable_mask, t.is_clique_mask
    if a is not None and not is_stable(mask_of(a[1])):
        raise InternalError("lifted stable set fails validation")
    if o is not None and not is_clique(mask_of(o[1])):
        raise InternalError("lifted clique fails validation")
    for half in (a, o):
        if half is not None and root.weight_of(mask_of(half[1])) != half[0]:
            raise InternalError("lifted witness weight mismatch")
    return a, o


def _side_numbers(
    node: TreeNode, weights: list[int], sides: list[_SideNumbers], stable: bool, clique: bool,
) -> _SideNumbers:
    """What a join's removed side X1 hands on, solved on its side block:
    for the stable half the abcd numbers, for the clique half the clique
    numbers of A1, B1 and X1, each with its witness."""
    blk, regions, parity = node.block, node.regions, node.parities[0]
    abcd = alpha_wit = omega_w = omega_wit = None
    if stable:
        vals, alpha_wit = [], {}
        for case, keep in zip("abcd", regions[:4]):
            val, alpha_wit[case] = _leaf_alpha(blk, weights, sides, keep)
            vals.append(val)
        abcd = ABCD(*vals)
        if not abcd.check_basic():
            raise GraphError(f"abcd inequalities violated at a node: {abcd}")
        if parity == "even" and abcd.a + abcd.b > abcd.c + abcd.d:
            raise GraphError("X1-even side violates a+b <= c+d")
        if parity == "odd" and abcd.c + abcd.d > abcd.a + abcd.b:
            raise GraphError("X1-odd side violates c+d <= a+b")
    if clique:
        vals, omega_wit = [], {}
        for case, keep in zip("ABX", regions[4:]):
            val, omega_wit[case] = _leaf_omega(blk, weights, sides, keep)
            vals.append(val)
        omega_w = tuple(vals)
    return _SideNumbers(abcd, alpha_wit, omega_w, omega_wit)


def _block_weights(blk: _Block, weights: list[int], keep: int) -> list[int]:
    """The block's weights: the root's through its ids, zero on markers
    and outside ``keep``."""
    return [weights[i] if i is not None and keep >> v & 1 else 0 for v, i in enumerate(blk.ids)]


def berge_alpha_omega(wg: WeightedGraph) -> BergeAnswer:
    """Maximum weighted stable set and clique with validated witnesses,
    for members of the 2-join-decomposable Berge class."""
    return _answer(decompose(wg.graph), wg.graph, wg.weights)


# -- hitting stable sets and coloring ------------------------------------------

def _hitting_stable_set(tree: TreeNode, cliques: list[list[int]]) -> list[int]:
    """Solve with the cover-count weights and check the weight equals the
    clique count, so the stable set meets every clique."""
    y = [0] * tree.graph.n
    for k in cliques:
        for v in k:
            y[v] += 1
    alpha, alpha_set = _solve_halves(tree, y, alpha=True, omega=False)[0]
    smask = mask_of(alpha_set)
    if alpha != len(cliques):
        raise InternalError(f"hitting stable set has weight {alpha}, expected {len(cliques)}")
    for k in cliques:
        if not (smask & mask_of(k)):
            raise InternalError("stable set missed a clique")
    return alpha_set


def color_berge(g: Graph) -> list[int]:
    """An omega-coloring: while the uncolored part has omega at least 3,
    grow per color class a list of maximum cliques of that part until
    some stable set hits them all.  Once omega is at most 2 the part is
    triangle-free, so it has no odd cycle (a shortest one would be an odd
    hole) and its bipartition colors it with omega colors.  Every
    weighting is solved on one decomposition of g and its blocks, and only
    for the half the loop reads: omega of the probe weightings, alpha of
    the hitting weighting.  No weighting is solved twice: a class's first
    probe hits no clique yet, so it weighs the live vertices, which the
    probe that ended the previous class weighed already."""
    tree = decompose(g)

    def omega_of(weights: list[int]) -> tuple[int, list[int]]:
        return _solve_halves(tree, weights, alpha=False, omega=True)[1]

    color = [-1] * g.n
    remaining = g.full_mask()
    colors_used = 0
    rest, rest_set = omega_of([1] * g.n)
    while rest >= 3:
        omega_now = rest
        cliques: list[list[int]] = []
        s_mask = 0
        for _ in range(g.n + 1):
            if cliques:
                s_mask = mask_of(_hitting_stable_set(tree, cliques)) & remaining
                probe = remaining & ~s_mask
                rest, rest_set = omega_of([probe >> v & 1 for v in range(g.n)])
            if rest < omega_now:
                break
            cliques.append([v for v in rest_set if (remaining & ~s_mask) >> v & 1])
        else:
            raise InternalError("hitting-set loop exceeded n iterations")
        if not s_mask:
            raise InternalError("empty color class")
        for v in bits(s_mask):
            color[v] = colors_used
        remaining &= ~s_mask
        colors_used += 1
    # rest is now omega of the uncolored part: a triangle-free Berge graph
    # is bipartite, since its shortest odd cycle would be an odd hole
    sub, ids = g.induced_mask(remaining)
    parts = sub.bipartition()
    if parts is None:
        raise InternalError(f"uncolored part with omega {rest} is not bipartite")
    for offset, side in enumerate(parts):
        for v in bits(side):
            color[ids[v]] = colors_used + offset
    if not g.is_proper_coloring(color):
        raise InternalError("berge coloring is not proper")
    return color

