"""Cutset and join finders, chordless graphs, and the class of graphs
whose cycles never have exactly one chord.

The cutset searches and the sub-Petersen and sub-Heawood leaf tests are
exhaustively correct at desk scale: the stated search space (vertices,
vertex pairs, partitions, placements in the host) is enumerated
completely.  The leaf tests lose no embedding by pinning: Petersen is
3-arc-transitive and Heawood 4-arc-transitive (Tutte, "A family of
cubical graphs", 1947), so a path of up to 3 (4) edges of the candidate
is sent to one fixed path of the host, and only the rest is searched.

A unique-chord-free graph is basic or has a 1-cutset, a special
2-cutset or a proper 1-join (Trotignon and Vuskovic).  Its tree applies
the theorem's steps in order: components; clique, sparse, sub-Petersen
and sub-Heawood leaves; 1-cutsets, special 2-cutsets, proper 1-joins.
The 1-cutset step is one node per graph, with one child per block
(``Graph.blocks``) and every cut vertex in its cut.  A special 2-cutset
or proper 1-join splits the node into one block per side, where a
marker vertex (-1 in the tree) stands for the other side.  A member
that fits no step is a broken invariant and raises InternalError.

Membership itself is decided by the input checks alone: a chorded cycle
for chordless graphs, a cycle with exactly one chord for the other
class.  The coloring of unique-chord-free members needs only that
check and the blocks, never the tree.
"""

from __future__ import annotations

from .graphs import (Graph, GraphError, InternalError, Record, TooLargeError, bit_count, bits,
                     mask_of)
from .detect import hole_through_two
from .matching import Dinic
from .named import heawood, petersen

PARTITION_SEARCH_BOUND = 18


class CutsetWitness(Record):
    __slots__ = ("kind", "vertices", "x", "y", "a_side", "b_side")

    def __init__(self, kind: str, vertices: tuple[int, ...] = (), x: int = 0, y: int = 0,
                 a_side: int = 0, b_side: int = 0):
        self.kind = kind
        self.vertices = vertices                # cut vertices / (a, b)
        self.x, self.y = x, y                   # side bitsets
        self.a_side, self.b_side = a_side, b_side  # special sets of a 1-join


def _without_edge(g: Graph, u: int, v: int) -> Graph:
    h = Graph(g.n)
    for a in range(g.n):
        h.adj[a] = g.adj[a]
    h.adj[u] &= ~(1 << v)
    h.adj[v] &= ~(1 << u)
    return h


# -- cutset searches -----------------------------------------------------

def _find_special_2_cutset(g: Graph) -> CutsetWitness | None:
    if not g.connected():
        return None
    for a in range(g.n):
        if g.degree(a) < 3:
            continue
        for b in range(a + 1, g.n):
            if g.degree(b) < 3 or g.has_edge(a, b):
                continue
            rest = g.full_mask() & ~(1 << a) & ~(1 << b)
            comps = g.components_of(rest)
            # a union of components holds an a-b path iff one of them
            # meets both N(a) and N(b)
            linked = mask_of(i for i, c in enumerate(comps) if g.adj[a] & c and g.adj[b] & c)
            for in_y in range(2, 1 << len(comps), 2):  # comps[0] stays in X
                if not (linked & in_y and linked & ~in_y):
                    continue
                y = 0
                for i in bits(in_y):
                    y |= comps[i]
                x = rest & ~y
                if bit_count(x) >= 2 and bit_count(y) >= 2:
                    return CutsetWitness("special_2_cutset", (a, b), x, y)
    return None


def _derive_1_join(g: Graph, x: int, y: int) -> CutsetWitness | None:
    a = 0
    for v in bits(x):
        if g.adj[v] & y:
            a |= 1 << v
    b = 0
    for v in bits(y):
        if g.adj[v] & x:
            b |= 1 << v
    if bit_count(a) < 2 or bit_count(b) < 2:
        return None
    if not (g.is_stable_mask(a) and g.is_stable_mask(b)):
        return None
    if not g.is_complete_between(a, b):
        return None
    return CutsetWitness("proper_1_join", (), x, y, a_side=a, b_side=b)


def _find_proper_1_join(g: Graph) -> CutsetWitness | None:
    if g.n > PARTITION_SEARCH_BOUND:
        raise TooLargeError(f"1-join partition search bound {PARTITION_SEARCH_BOUND} exceeded")
    if g.n < 4:
        return None
    for sub in range(1 << (g.n - 1)):
        x = sub << 1 | 1
        y = g.full_mask() & ~x
        if bit_count(x) < 2 or bit_count(y) < 2:
            continue
        got = _derive_1_join(g, x, y)
        if got is not None:
            return got
    return None


# -- chordless graphs -----------------------------------------------------

def _two_path_cycle(g: Graph, u: int, v: int) -> list[int] | None:
    """A cycle through u and v made of two internally vertex-disjoint u-v
    paths of length >= 2, via a unit flow with split vertices, or None."""
    n = g.n
    # node v -> in = 2v, out = 2v+1
    net = Dinic(2 * n)
    for w in range(n):
        cap = 2 if w in (u, v) else 1
        net.add(2 * w, 2 * w + 1, cap)
    for a, b in g.edges():
        net.add(2 * a + 1, 2 * b, 1)
        net.add(2 * b + 1, 2 * a, 1)
    if net.max_flow(2 * u, 2 * v + 1) < 2:
        return None
    # walk the unit flow: each intermediate vertex passes exactly one unit
    flow_adj: dict[int, list[int]] = {w: [] for w in range(n)}
    for w in range(n):
        for ei in net.head[2 * w + 1]:
            if ei % 2 == 0 and net.cap[ei ^ 1] > 0 and net.to[ei] % 2 == 0:
                flow_adj[w].append(net.to[ei] // 2)
    paths = []
    for _ in range(2):
        path = [u]
        while path[-1] != v:
            nxt = flow_adj[path[-1]].pop(0)
            path.append(nxt)
        paths.append(path)
    return paths[0] + paths[1][::-1][1:-1]


def _chord_cycle(g: Graph, search) -> tuple[list[int], tuple[int, int]] | None:
    """(cycle, (u, v)) for the first edge uv of g for which
    ``search(B - uv, u, v)`` returns a cycle through u and v, where B is
    the block holding uv, else None.  Every cycle lies in one block, and
    B is copied once (g itself when it is one block), with its vertices
    in g's order.  Edges with an end of degree <= 2 are skipped: a
    chord's ends each have two cycle neighbours besides each other."""
    blks, _ = g.blocks()
    home = {(u, v): i for i, blk in enumerate(blks)
            for u in bits(blk) for v in bits(g.adj[u] & blk & -(2 << u))}
    local: dict[int, tuple] = {}  # block index -> (its graph, its vertices)
    for u, v in g.edges():
        if bit_count(g.adj[u]) <= 2 or bit_count(g.adj[v]) <= 2:
            continue
        i = home[u, v]
        if i not in local:
            local[i] = (g, range(g.n)) if len(blks) == 1 else g.induced_mask(blks[i])
        h, ids = local[i]
        a, b = (bit_count(blks[i] & ((1 << w) - 1)) for w in (u, v))
        cycle = search(_without_edge(h, a, b), a, b)
        if cycle is not None:
            return [ids[w] for w in cycle], (u, v)
    return None


def is_chordless(g: Graph) -> tuple[list[int], tuple[int, int]] | None:
    """None iff every cycle of g is induced; otherwise (cycle, chord):
    a cycle through the chord's ends avoiding the chord edge."""
    return _chord_cycle(g, _two_path_cycle)


def _require_chordless(g: Graph) -> None:
    bad = is_chordless(g)
    if bad is not None:
        raise GraphError(f"graph has a chorded cycle {bad[0]} with chord {bad[1]}")


def three_color_chordless(g: Graph) -> list[int]:
    """A proper coloring with at most 3 colors by peeling vertices of
    degree <= 2, which every chordless graph has; the class is
    hereditary, so a peel step that finds none is a broken invariant.
    A graph with a chorded cycle raises GraphError naming it."""
    _require_chordless(g)
    order = []
    alive = g.full_mask()
    adj = list(g.adj)
    while alive:
        v = next(
            (u for u in bits(alive) if bit_count(adj[u] & alive) <= 2), None
        )
        if v is None:
            raise InternalError("chordless graph with no vertex of degree <= 2")
        order.append(v)
        alive &= ~(1 << v)
    color = [-1] * g.n
    for v in reversed(order):
        used = {color[w] for w in bits(g.adj[v]) if color[w] >= 0}
        c = next(i for i in range(3) if i not in used)
        color[v] = c
    if not g.is_proper_coloring(color):
        raise InternalError("chordless 3-coloring is not proper")
    return color


# -- the decomposition tree ------------------------------------------------------

class DecompositionNode(Record):
    __slots__ = ("kind", "vertices", "cut", "children", "join_a", "join_b")

    def __init__(self, kind: str, vertices: list[int] | None = None, cut: tuple = (),
                 children: list[DecompositionNode] | None = None,
                 join_a: list[int] | None = None, join_b: list[int] | None = None):
        self.kind = kind  # 'sparse' | 'clique' | 'sub-petersen' | 'sub-heawood' |
        #                   'one_cutset' (a child per block, every cut vertex in cut) |
        #                   'special_2_cutset' | 'proper_1_join' | 'components'
        self.vertices = [] if vertices is None else vertices  # leaf vertices (original ids)
        self.cut = cut
        self.children = [] if children is None else children
        self.join_a = [] if join_a is None else join_a  # special sets of a 1-join,
        self.join_b = [] if join_b is None else join_b  # in original ids

    def leaves(self):
        """The leaves, left to right, from a worklist."""
        todo = [self]
        while todo:
            node = todo.pop()
            if node.children:
                todo += reversed(node.children)
            else:
                yield node


def replay_tree(g: Graph, node: DecompositionNode) -> bool:
    """Reassemble the decomposition as per-vertex neighborhood masks:
    each leaf gives each of its vertices its neighbors inside the leaf
    (markers, recorded as -1, drop out), each proper 1-join joins its
    special sets A and B, and cutset nodes glue their children by union.
    The masks must come out as g's adjacency, and every vertex must lie
    in a leaf."""
    nb, covered = [0] * g.n, 0
    todo = [node]
    while todo:
        node = todo.pop()
        todo += node.children
        if not node.children:
            vs = [v for v in node.vertices if v >= 0]
            leaf = mask_of(vs)
            covered |= leaf
            for v in vs:
                nb[v] |= g.adj[v] & leaf
        elif node.kind == "proper_1_join":
            # special sets may hold an enclosing block's marker (-1): its cross
            # edges are block artifacts, not edges of g
            a, b = (mask_of(v for v in side if v >= 0) for side in (node.join_a, node.join_b))
            for v in bits(a | b):
                nb[v] |= b if a >> v & 1 else a
    return covered == g.full_mask() and nb == g.adj


def is_sparse(g: Graph) -> bool:
    return all(
        not (g.degree(u) >= 3 and g.degree(v) >= 3) for u, v in g.edges()
    )


def _find_components(g: Graph) -> CutsetWitness | None:
    """A disconnected graph as a cut by the empty set."""
    comps = g.components()
    if len(comps) < 2:
        return None
    return CutsetWitness("components", (), comps[0], g.full_mask() & ~comps[0])


def _blocks(g: Graph, cut: CutsetWitness) -> list[tuple[Graph, list[int]]]:
    """The blocks a cut splits g into, as (block, old ids): one per
    component, one per block of ``Graph.blocks`` at a 1-cutset, else each
    side with the cut vertices and a marker standing for the other side,
    adjacent to the cut vertices and the side's own special set: {a, b}
    for a 2-cutset, A or B for a proper 1-join."""
    if cut.kind in ("components", "one_cutset"):
        parts = g.components() if cut.kind == "components" else g.blocks()[0]
        return [g.induced_mask(part) for part in parts]
    cut_mask = mask_of(cut.vertices)
    blocks = []
    for side, special in ((cut.x, cut.a_side), (cut.y, cut.b_side)):
        sub, old = g.induced_mask(side | cut_mask)
        pos = {o: i for i, o in enumerate(old)}
        blocks.append((sub.add_vertices(1, [[pos[v] for v in bits(cut_mask | special)]]), old))
    return blocks


def _decompose(g: Graph, ids: list[int]) -> DecompositionNode:
    """The tree of g by the theorem's first step that applies: components;
    clique, sparse, sub-Petersen and sub-Heawood leaves; 1-cutset, special
    2-cutset, proper 1-join.  ``ids`` gives g's vertices in the input
    graph, -1 for markers.  Blocks wait on a worklist, each with the
    children list of its parent, and are split depth first in the order
    of a recursive descent."""
    root: list[DecompositionNode] = []
    todo = [(g, ids, root)]
    while todo:
        g, ids, siblings = todo.pop()
        cut = _find_components(g)
        if cut is None:
            leaf = ("clique" if g.is_clique_mask(g.full_mask())
                    else "sparse" if is_sparse(g)
                    else "sub-petersen" if _is_sub_named(g, petersen(), 3)
                    else "sub-heawood" if _is_sub_named(g, heawood(), 4)
                    else None)
            if leaf is not None:
                siblings.append(DecompositionNode(leaf, vertices=list(ids)))
                continue
            cuts = g.blocks()[1]
            cut = (CutsetWitness("one_cutset", tuple(bits(cuts))) if cuts
                   else _find_special_2_cutset(g) or _find_proper_1_join(g))
            if cut is None:
                raise InternalError("graph in the class escaped every decomposition case")
        node = DecompositionNode(cut.kind, cut=tuple(ids[v] for v in cut.vertices),
                                 join_a=[ids[v] for v in bits(cut.a_side)],
                                 join_b=[ids[v] for v in bits(cut.b_side)])
        siblings.append(node)
        todo += [(blk, [ids[v] for v in old] + [-1] * (blk.n - len(old)), node.children)
                 for blk, old in reversed(_blocks(g, cut))]
    return root[0]


# -- cycles with a unique chord --------------------------------------------

class UniqueChordResult(Record):
    __slots__ = ("member", "witness_cycle", "witness_chord", "tree")

    def __init__(self, member: bool, witness_cycle: list[int] | None = None,
                 witness_chord: tuple[int, int] | None = None,
                 tree: DecompositionNode | None = None):
        self.member, self.witness_cycle, self.witness_chord = member, witness_cycle, witness_chord
        self.tree = tree


def find_unique_chord_cycle(g: Graph) -> tuple[list[int], tuple[int, int]] | None:
    """A cycle with exactly one chord: a hole of g - uv through u and v,
    for some edge uv."""
    return _chord_cycle(g, hole_through_two)


def _is_sub_named(g: Graph, which: Graph, s: int = 1) -> bool:
    """g is an induced subgraph of the cubic graph ``which``, whose
    automorphisms act transitively on its s-arcs: Petersen is
    3-arc-transitive and Heawood 4-arc-transitive (Tutte, "A family of
    cubical graphs", 1947); s = 1 holds for both.  Such a subgraph has
    maximum degree at most 3 and no cycle shorter than the girth of
    ``which``, so those two tests run first and the search, with an
    s-arc pinned, only on graphs that pass them."""
    if g.n > which.n or any(bit_count(nb) > 3 for nb in g.adj):
        return False
    return g.girth(below=which.girth()) is None and _pinned_embedding(g, which, s) is not None


def _arc(g: Graph, comp: int, s: int) -> list[int]:
    """A longest path of at most s edges in the connected vertex set
    ``comp``: the first one found, depth first, from its lowest vertex
    on."""
    best: list[int] = []
    for v in bits(comp):
        todo = [[v]]
        while todo:
            path = todo.pop()
            if len(path) > len(best):
                best = path
                if len(best) > s:
                    return best
            if len(path) <= s:
                todo += [path + [w] for w in bits(g.adj[path[-1]] & ~mask_of(path))]
    return best


def _pinned_embedding(g: Graph, host: Graph, s: int) -> list[int] | None:
    """An injection mapping g onto an induced subgraph of ``host``, or
    None; g has no cycle shorter than the host's girth, which exceeds s.

    A path of at most s edges in g's first component is pinned to a fixed
    path of the host with as many edges.  Both are arcs, as both graphs
    have girth above s, and the host is t-arc-transitive for every t <= s
    (a t-arc extends to an s-arc), so an automorphism of the host carries
    any embedding to one that sends the pinned path to the fixed one.
    The rest of the component is placed in BFS order from the path, each
    vertex on a common neighbor of its placed neighbors' images that is
    unused and not adjacent to the image of a placed non-neighbor; each
    further component starts from its lowest vertex, anywhere unused and
    not adjacent to an image.  The search backtracks over an explicit
    stack, and a mapping it finds is checked before it is returned."""
    if g.n == 0:
        return []
    arc = _arc(g, g.reach(1, g.full_mask()), s)
    pins = [1 << u for u in _arc(host, host.full_mask(), len(arc) - 1)]
    order, seen = list(arc), mask_of(arc)
    i = 0
    while len(order) < g.n:
        if i == len(order):
            v = next(bits(g.full_mask() & ~seen))
            order.append(v)
            seen |= 1 << v
        for w in bits(g.adj[order[i]] & ~seen):
            order.append(w)
            seen |= 1 << w
        i += 1
    n, hadj = g.n, host.adj
    pins += [host.full_mask()] * (n - len(pins))
    nbrs = [[j for j in range(i) if g.adj[order[i]] >> order[j] & 1] for i in range(n)]
    nons = [[j for j in range(i) if not g.adj[order[i]] >> order[j] & 1] for i in range(n)]
    image = [0] * n    # host vertex of order[i]
    left = [pins[0]] + [0] * (n - 1)   # candidates still to try at each position
    i = used = 0
    while i < n:
        cand = left[i]
        if not cand:
            i -= 1
            if i < 0:
                return None
            used ^= 1 << image[i]
            continue
        low = cand & -cand
        left[i] = cand ^ low
        image[i] = low.bit_length() - 1
        used |= low
        i += 1
        if i < n:
            cand = pins[i] & ~used
            for j in nbrs[i]:
                cand &= hadj[image[j]]
            for j in nons[i]:
                cand &= ~hadj[image[j]]
            left[i] = cand
    mapping = [-1] * n
    for v, u in zip(order, image):
        mapping[v] = u
    if not host.induces(mapping, [(mapping[u], mapping[v]) for u, v in g.edges()]):
        raise InternalError("pinned search found no induced embedding")
    return mapping


def recognize_unique_chord_free(g: Graph) -> UniqueChordResult:
    """A cycle with exactly one chord, or else membership with a
    decomposition tree that has passed its replay.  The decomposition
    runs only when the cycle search finds nothing."""
    wit = find_unique_chord_cycle(g)
    if wit is not None:
        return UniqueChordResult(False, witness_cycle=wit[0], witness_chord=wit[1])
    tree = _decompose(g, list(range(g.n)))
    if not replay_tree(g, tree):
        raise InternalError("decomposition tree fails its replay")
    return UniqueChordResult(True, tree=tree)


# -- coloring the unique-chord-free class ------------------------------------

def _third_color(g: Graph, include: int, exclude: int) -> int | None:
    """A stable set S with include <= S, S n exclude = 0, meeting every
    odd cycle; branch on the vertices of a shortest odd cycle of g - S,
    depth first from a stack, in increasing vertex order."""
    if include & exclude:
        return None
    if not g.is_stable_mask(include):
        return None
    todo = [include]
    while todo:
        s = todo.pop()
        cyc = g.shortest_cycle(odd=True, allowed=g.full_mask() & ~s)
        if cyc is None:
            return s
        todo += [s | 1 << v for v in sorted(cyc, reverse=True)
                 if not (exclude >> v & 1 or g.adj[v] & s)]
    return None


def _two_color(g: Graph) -> list[int]:
    parts = g.bipartition()
    if parts is None:
        raise InternalError("expected a bipartite remainder")
    return [0 if parts[0] >> v & 1 else 1 for v in range(g.n)]


def chi_unique_chord_free(g: Graph) -> tuple[int, list[int]]:
    """(chi, proper coloring) for members: chi is 3 for triangle-free
    non-bipartite members and omega otherwise."""
    if find_unique_chord_cycle(g) is not None:
        raise GraphError("graph has a cycle with a unique chord: not in the class")
    return _chi_member(g)


def _chi_block(g: Graph) -> tuple[int, list[int]]:
    """(chi, coloring) of a member with no cut vertex, colored outright:
    bipartite, triangle-free, or a clique."""
    if g.bipartition() is not None:
        return (1 if g.edge_count() == 0 else 2), _two_color(g)
    if g.triangle() is None:
        # triangle-free, not bipartite: chi = 3 via a third color that
        # holds N(v) and misses v (the shape-1 admissible pair)
        v = min(range(g.n), key=g.degree)
        s = _third_color(g, include=g.adj[v], exclude=1 << v)
        if s is None:
            raise InternalError("no third color for a member of the class")
        rest, old = g.induced_mask(g.full_mask() & ~s)
        color = [2] * g.n
        for o, c in zip(old, _two_color(rest)):
            color[o] = c
        if not g.is_proper_coloring(color):
            raise InternalError("third-color coloring is not proper")
        return 3, color
    if g.is_clique_mask(g.full_mask()):
        return g.n, list(range(g.n))
    raise InternalError("member block with a triangle is not a clique")


def _chi_member(g: Graph) -> tuple[int, list[int]]:
    """(chi, coloring) of a member, one block at a time: every cycle lies
    in one block, so chi is the largest chi of a block.  Each block meets
    the blocks before it in at most one vertex, and two colors of its
    coloring are swapped so that this vertex keeps the color it has."""
    chi, color, done = 0, [0] * g.n, 0
    for blk in g.blocks()[0]:
        sub, old = g.induced_mask(blk)
        b_chi, b_col = _chi_block(sub)
        v = (blk & done).bit_length() - 1  # the vertex shared with earlier blocks, or -1
        a, b = (b_col[old.index(v)], color[v]) if v >= 0 else (0, 0)
        for o, c in zip(old, b_col):
            color[o] = b if c == a else a if c == b else c
        done |= blk
        chi = max(chi, b_chi)
    if not g.is_proper_coloring(color):
        raise InternalError("glued block coloring is not proper")
    return chi, color
