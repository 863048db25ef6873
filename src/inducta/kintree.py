"""k-in-a-tree for graphs of girth at least k.

Decides whether an induced tree covers k prescribed vertices, returning
either the tree or a machine-checkable certificate that none exists:
a square or cubic structure (k = 4), a K4-structure that decomposes the
graph (k = 6), or a k-structure that decomposes the graph (k >= 5).
For k = 3 the general machinery does not apply and a bounded exhaustive
search stands in.

The engine works on terminals of degree one (callers get the pending
neighbor reduction), grows a tree one terminal at a time, and analyses
the linking lemma's two cases whenever the new terminal's connecting
path attaches to the tree more than once.

A square or cubic split is its list of parts, the classes in this order:

- square: A1-A4, S1-S4, R;
- cubic: A1-A4, B1-B4, S1-S8, R, where S1-S4 are low and S5-S8 high.

Its rule table gives, per class, the classes it may touch and those it
must be complete to; every other pair of classes is anticomplete,
including a class with itself, so each S class is stable.  The pairs
that may touch (i, j in 1-4):

- square: A_i-A_i, A_i-S_i, S_i-R, R-R, and S_i-S_(i+-1), which must be
  complete;
- cubic: A_i-A_i, A_i-S_i, B_i-B_i, B_i-S_i, B_i-S_(4+j) for j != i,
  S_(4+j)-R, R-R, and S_i-S_(4+j) for j != i, which must be complete.

Besides, x_i lies in A_i, A_i is connected, every vertex of S_i has a
neighbor in A_i, S1-S4 are nonempty and at most one of S5-S8 is empty.
The validators and the split search both read the table.
"""

from __future__ import annotations

from itertools import permutations

from .graphs import (Graph, GraphError, InternalError, Record, TooLargeError, bit_count, bits,
                     mask_of)

EXHAUSTIVE_TREE_BOUND = 22
K3_FALLBACK_BOUND = 20


# -- certificates ----------------------------------------------------------

class SquareSplit(Record):
    __slots__ = ("a", "s", "r")

    def __init__(self, a: tuple[int, int, int, int], s: tuple[int, int, int, int], r: int):
        self.a, self.s, self.r = a, s, r  # vertex bitsets A_1..A_4, S_1..S_4, R


class CubicSplit(Record):
    __slots__ = ("a", "b", "s", "r")

    def __init__(self, a: tuple[int, int, int, int], b: tuple[int, int, int, int],
                 s: tuple[int, int, int, int, int, int, int, int], r: int):
        self.a = a
        self.b = b
        self.s = s
        self.r = r


class KStructWitness(Record):
    __slots__ = ("paths",)

    def __init__(self, paths: list[list[int]]):
        self.paths = paths  # paths[i] runs from terminal x_i to cycle vertex s_i

    def cycle(self) -> list[int]:
        return [p[-1] for p in self.paths]


class K4Witness(Record):
    __slots__ = ("hubs", "paths")
    PAIRS = ("ab", "ac", "ad", "bc", "bd", "cd")

    def __init__(self, hubs: dict[str, int], paths: dict[str, list[int]]):
        self.hubs = hubs    # 'a','b','c','d'
        self.paths = paths  # 'ab'.. : from x_ab to s_ab


class TreeOrCertificate(Record):
    __slots__ = ("kind", "graph", "terminals", "tree", "square", "cubic", "k4", "kstruct",
                 "pendants")

    def __init__(self, kind: str, graph: Graph, terminals: list[int],
                 tree: list[int] | None = None, square: SquareSplit | None = None,
                 cubic: CubicSplit | None = None, k4: K4Witness | None = None,
                 kstruct: KStructWitness | None = None, pendants: dict[int, int] | None = None):
        self.kind = kind  # tree | square | cubic | k4 | kstructure |
        #                   disconnected-terminals | no-tree-exhaustive | tree-exists
        self.graph, self.terminals = graph, terminals
        self.tree = tree
        self.square = square
        self.cubic = cubic
        self.k4 = k4
        self.kstruct = kstruct
        self.pendants = {} if pendants is None else pendants

    @property
    def has_tree(self) -> bool:
        return self.kind == "tree"


# -- certificate validators ------------------------------------------------

def _rule_table(size: int, touching, complete) -> list[tuple[list[int], list[int]]]:
    """Per class, the classes it may touch and the classes it must be
    complete to, by index, from the pairs that may touch and the pairs
    that must be complete (which may touch too)."""
    touch, need = [0] * size, [0] * size
    for pairs, tables in ((touching, (touch,)), (complete, (touch, need))):
        for c, d in pairs:
            for table in tables:
                table[c] |= 1 << d
                table[d] |= 1 << c
    return [(list(bits(t)), list(bits(n))) for t, n in zip(touch, need)]


_FOUR = range(4)
# a class's index is its place in the class order, counted from 0
_SQUARE_RULES = _rule_table(
    9,
    [(i, i) for i in _FOUR] + [(i, 4 + i) for i in _FOUR] + [(4 + i, 8) for i in _FOUR] + [(8, 8)],
    [(4 + i, 4 + (i + 1) % 4) for i in _FOUR],
)
_CUBIC_RULES = _rule_table(
    17,
    [(i, i) for i in _FOUR] + [(i, 8 + i) for i in _FOUR]
    + [(4 + i, 4 + i) for i in _FOUR] + [(4 + i, 8 + i) for i in _FOUR]
    + [(4 + i, 12 + j) for i in _FOUR for j in _FOUR if j != i]
    + [(12 + j, 16) for j in _FOUR] + [(16, 16)],
    [(8 + i, 12 + j) for i in _FOUR for j in _FOUR if j != i],
)


def _split(kind: str, parts: list[int]) -> SquareSplit | CubicSplit:
    """The split of ``kind`` whose classes, in class order, are ``parts``."""
    if kind == "square":
        return SquareSplit(tuple(parts[:4]), tuple(parts[4:8]), parts[8])
    return CubicSplit(tuple(parts[:4]), tuple(parts[4:8]), tuple(parts[8:16]), parts[16])


def _split_holds(g: Graph, universe: int, terms: list[int], parts: list[int], rules) -> bool:
    """The parts partition the universe and every pair of classes keeps
    its rule, tested through each class's neighborhood; x_i lies in A_i,
    A_i is connected and every vertex of S_i has a neighbor in A_i; the
    low S classes are nonempty, and all but at most one high one."""
    tot = 0
    for p in parts:
        if p & tot:
            return False
        tot |= p
    if tot != universe:
        return False
    s = parts[len(parts) // 2:-1]  # S1-S4, or S1-S8
    if 0 in s[:4] or s[4:].count(0) > 1:
        return False
    if not all(parts[i] >> terms[i] & 1 for i in _FOUR):
        return False
    adj = g.adj
    nbs = []
    for c, (touch, need) in enumerate(rules):
        p = parts[c]
        nb = allowed = 0
        for v in bits(p):
            nb |= adj[v]
        for d in touch:
            allowed |= parts[d]
        if nb & universe & ~allowed:
            return False
        for d in need:
            if d > c and not g.is_complete_between(p, parts[d]):
                return False
        nbs.append(nb)
    return all(not s[i] & ~nbs[i] and len(g.components_of(parts[i])) == 1 for i in _FOUR)


def validate_square_split(g: Graph, universe: int, terms: list[int], sp: SquareSplit) -> bool:
    return _split_holds(g, universe, terms, [*sp.a, *sp.s, sp.r], _SQUARE_RULES)


def validate_cubic_split(g: Graph, universe: int, terms: list[int], sp: CubicSplit) -> bool:
    return _split_holds(g, universe, terms, [*sp.a, *sp.b, *sp.s, sp.r], _CUBIC_RULES)


def _cut_off(g: Graph, x: int, cut: int, region: int, others: int) -> bool:
    """Does removing ``cut`` from ``region`` leave x reaching no vertex of
    ``others`` but itself?"""
    return not g.reach(1 << x, region & ~cut) & others & ~(1 << x)


def validate_kstruct(g: Graph, w: KStructWitness) -> bool:
    """Four or more paths P_i from x_i to s_i, each with two vertices or
    more, on distinct vertices that induce exactly the path edges and the
    cycle s_1 ... s_k; each s_i separates x_i from the other terminals."""
    paths = w.paths
    if len(paths) < 4 or any(len(p) < 2 for p in paths):
        return False
    cyc = w.cycle()
    edges = list(zip(cyc, [*cyc[1:], cyc[0]]))
    for p in paths:
        edges += zip(p, p[1:])
    return (g.induces([v for p in paths for v in p], edges)
            and _kstruct_fail_index(g, paths, g.full_mask()) is None)


def validate_k4(g: Graph, w: K4Witness, check_decomposes: bool = True) -> bool:
    """Four hubs and six paths P_ij from x_ij to s_ij, each with two
    vertices or more, on distinct vertices that induce exactly the path
    edges and the edges from s_ij to hubs i and j; with
    ``check_decomposes``, the hubs i, j and the vertex s_ij each separate
    x_ij from the other terminals."""
    hubs, paths = w.hubs, w.paths
    if any(len(paths[ij]) < 2 for ij in K4Witness.PAIRS):
        return False
    edges = []
    for ij in K4Witness.PAIRS:
        p = paths[ij]
        edges += [(p[-1], hubs[ij[0]]), (p[-1], hubs[ij[1]]), *zip(p, p[1:])]
    if not g.induces([*hubs.values(), *(v for ij in K4Witness.PAIRS for v in paths[ij])], edges):
        return False
    if check_decomposes:
        xs = mask_of(paths[ij][0] for ij in K4Witness.PAIRS)
        full = g.full_mask()
        for ij in K4Witness.PAIRS:
            x = paths[ij][0]
            if not (_cut_off(g, x, 1 << hubs[ij[0]] | 1 << hubs[ij[1]], full, xs)
                    and _cut_off(g, x, 1 << paths[ij][-1], full, xs)):
                return False
    return True


# -- brute-force oracle -----------------------------------------------------

def induced_tree_exists(g: Graph, terms: list[int], bound: int = EXHAUSTIVE_TREE_BOUND) -> int | None:
    """Exhaustive: some vertex set inducing a tree that covers ``terms``,
    as a bitset, or None.  The independent oracle for all of this module;
    the bound caps the number of free (non-terminal) vertices.  Each
    candidate is tested by its own edge count and a reach from its lowest
    vertex, not by ``Graph.is_tree_mask``, which the solver's checks use."""
    tmask = mask_of(terms)
    free = [v for v in range(g.n) if not (tmask >> v & 1)]
    if len(free) > bound:
        raise TooLargeError(f"exhaustive tree search bound {bound} exceeded")
    adj = g.adj
    for sub in range(1 << len(free)):
        mask = tmask
        for i, v in enumerate(free):
            if sub >> i & 1:
                mask |= 1 << v
        m = 0
        for v in bits(mask):
            m += bit_count(adj[v] & mask)
        if m == 2 * (bit_count(mask) - 1) and g.reach(mask & -mask, mask) == mask:
            return mask
    return None


# -- tree utilities ----------------------------------------------------------

def _covers(mask: int, terms) -> bool:
    return all(mask >> t & 1 for t in terms)


def _is_good_tree(g: Graph, mask: int, terms) -> bool:
    return _covers(mask, terms) and g.is_tree_mask(mask)


def _prune_tree(g: Graph, mask: int, terms) -> int:
    """Shave non-terminal leaves so the tree's leaves are terminals.  A
    deletion only lowers degrees, so deleting non-terminals of degree at
    most one reaches the same fixpoint in any order; a worklist holds the
    vertices whose degree may have dropped."""
    adj = g.adj
    tset = mask_of(terms)
    todo = mask & ~tset
    while todo:
        low = todo & -todo
        todo ^= low
        nb = adj[low.bit_length() - 1] & mask
        if not nb & (nb - 1):  # at most one neighbor left
            mask ^= low
            todo |= nb & ~tset
    return mask


# -- the linking lemma --------------------------------------------------------

class _LinkOutcome(Record):
    __slots__ = ("kind", "tree", "paths")

    def __init__(self, kind: str, tree: int = 0, paths: list[list[int]] | None = None):
        self.kind = kind  # 'tree' or 'kstructure'
        self.tree, self.paths = tree, paths


def _link_tree(g: Graph, t_mask: int, q_path: list[int], k: int) -> _LinkOutcome:
    """One growth step: either T u Q contains a covering tree, or the
    attachment reveals a k-structure shape (spine plus hanging paths)."""
    w = q_path[-1]
    q_mask = mask_of(q_path)
    wset = g.adj[w] & t_mask
    if bit_count(wset) == 1:
        return _LinkOutcome("tree", t_mask | q_mask)

    wl = list(bits(wset))
    basics = []
    for i, a in enumerate(wl):
        for b in wl[i + 1 :]:
            p = g.shortest_path(a, b, t_mask)
            if not any(wset >> x & 1 for x in p[1:-1]):
                basics.append(p if p[0] < p[-1] else p[::-1])
    basics.sort(key=lambda p: (p[0], p[-1]))

    def deg_t(v: int) -> int:
        return bit_count(g.adj[v] & t_mask)

    hard = [p for p in basics if p[1:-1] and all(deg_t(x) >= 3 for x in p[1:-1])]

    if not hard:
        # Case 1: knock one degree-2 interior vertex out of each basic path
        s = t_mask | q_mask
        for p in basics:
            if all(s >> x & 1 for x in p):
                deg2 = [x for x in p[1:-1] if deg_t(x) == 2]
                if not deg2:
                    raise InternalError("case 1 basic path has no degree-2 interior")
                s &= ~(1 << min(deg2))
        if not g.is_tree_mask(s):
            raise InternalError("case 1 deletion did not produce a tree")
        return _LinkOutcome("tree", s)

    # Case 2: a basic path made of branch vertices is the spine
    spine = hard[0]
    if len(spine) != k - 1:
        raise InternalError(f"all-branch basic path on {len(spine)} vertices, expected {k - 1}")
    spine_mask = mask_of(spine)

    hangs: list[list[int]] = []
    for s_i in spine:
        piece = g.reach(1 << s_i, (t_mask & ~spine_mask) | (1 << s_i))
        leaves = [x for x in bits(piece) if deg_t(x) == 1]
        if len(leaves) != 1:
            raise InternalError("hanging piece does not hold exactly one terminal")
        hang = g.shortest_path(leaves[0], s_i, t_mask)
        if mask_of(hang) != piece:
            raise InternalError("hanging piece is not a path")
        hangs.append(hang)

    # w_i: the neighbor of w inside each hanging path closest to its terminal
    w_pick: list[int] = []
    for hang in hangs:
        cand = next((x for x in hang[:-1] if g.has_edge(w, x)), None)
        w_pick.append(cand if cand is not None else hang[-1])

    km1 = len(spine)
    if all(w_pick[i] == hangs[i][-1] for i in range(km1)):
        return _LinkOutcome("kstructure", paths=[*hangs, q_path])

    if any(w_pick[i] == hangs[i][-2] for i in range(km1)):
        # w sits two steps from the spine: the girth forces k <= 4 and the
        # covering tree is the star of truncated hanging paths around Q
        if k > 4:
            raise InternalError("w at distance 2 from the spine with k > 4")
        s = q_mask
        for i, hang in enumerate(hangs):
            s |= mask_of(hang[: hang.index(w_pick[i]) + 1])
        if not g.is_tree_mask(s):
            raise InternalError("k<=4 segment star is not a tree")
        return _LinkOutcome("tree", s)

    for j in range(km1):
        if w_pick[j] == hangs[j][-1]:
            continue
        s = q_mask | (spine_mask & ~(1 << spine[j]))
        for i, hang in enumerate(hangs):
            s |= mask_of(hang[: hang.index(w_pick[i]) + 1])
        if g.is_tree_mask(s):
            return _LinkOutcome("tree", s)
    raise InternalError("no spine deletion yielded a tree")


# -- first step: grow a tree terminal by terminal ----------------------------

def _bfs_to_attachment(g: Graph, src: int, t_mask: int, region: int | None = None) -> list[int] | None:
    """Shortest path from src to the nearest vertex with a neighbor in
    t_mask, staying outside t_mask (and inside region when given).  The
    path ends at the lowest-index such vertex and follows ``path_back``."""
    if region is None:
        region = g.full_mask()
    region &= ~t_mask
    if not (region >> src & 1):
        return None
    near = 0
    for t in bits(t_mask):
        near |= g.adj[t]
    ls = g.layers(1 << src, region)
    for layer in ls:
        hit = layer & near
        if hit:
            return g.path_back(ls, (hit & -hit).bit_length() - 1)[::-1]
    return None


def _first_step(g: Graph, terms: list[int], k: int):
    """Returns ('tree', mask) or ('kstructure', hanging paths + Q)."""
    t_mask = mask_of(g.shortest_path(terms[0], terms[1]))
    for idx in range(2, k):
        x = terms[idx]
        q = _bfs_to_attachment(g, x, t_mask)
        if q is None:
            raise InternalError("terminal unreachable inside its component")
        out = _link_tree(g, t_mask, q, k)
        if out.kind == "tree":
            t_mask = _prune_tree(g, out.tree, terms[: idx + 1])
            if not _is_good_tree(g, t_mask, terms[: idx + 1]):
                raise InternalError("growth step lost a terminal")
            continue
        if idx != k - 1:
            raise InternalError("k-structure appeared before the last terminal")
        return "kstructure", out.paths
    return "tree", t_mask


# -- square / cubic growth (k = 4) --------------------------------------------

def _accepted(kind: str, g: Graph, universe: int, terms, parts: list[int]) -> bool:
    """The verdict of the public validator of ``kind`` on the split with
    these parts; the validator is looked up by name at each call."""
    sp = _split(kind, parts)
    if kind == "square":
        return validate_square_split(g, universe, terms, sp)
    return validate_cubic_split(g, universe, terms, sp)


def _grow_quad(g: Graph, universe: int, terms: list[int], parts: list[int]):
    """Absorb the rest of the graph into a square split, switching to a
    cubic split when forced; a tree discovered along the way wins."""
    kind = "square"
    covered = 0
    for p in parts:
        covered |= p

    while covered != universe:
        pending = universe & ~covered
        placed = False
        for v in bits(pending):
            for c in range(len(parts)):
                cand = list(parts)
                cand[c] |= 1 << v
                if _accepted(kind, g, covered | (1 << v), terms, cand):
                    parts = cand
                    covered |= 1 << v
                    placed = True
                    break
            if placed:
                break
        if placed:
            continue
        # no single placement works: look for a tree, then repartition
        for v in bits(pending):
            sub, old = g.induced_mask(covered | (1 << v))
            remap = {o: i for i, o in enumerate(old)}
            tmask = induced_tree_exists(sub, [remap[t] for t in terms])
            if tmask is not None:
                return "tree", mask_of(old[i] for i in bits(tmask))
        v = next(bits(pending))
        for redo in ("cubic", "square") if kind == "square" else ("cubic",):
            got = _csp_split(g, covered | (1 << v), terms, redo)
            if got is not None:
                kind, parts = redo, got
                covered |= 1 << v
                break
        else:
            raise InternalError("square/cubic growth wedged: no placement, tree, or repartition")
    return kind, _split(kind, parts)


def _csp_split(g: Graph, universe: int, terms: list[int], kind: str) -> list[int] | None:
    """Backtracking search for a split of ``kind`` of g[universe], over
    every assignment of the four terminals to the A-classes: each vertex
    goes to the first class, in class order, that the rule table lets it
    join beside the vertices placed so far.  The parts, or None."""
    rules = _SQUARE_RULES if kind == "square" else _CUBIC_RULES
    verts = [v for v in bits(universe) if v not in terms]
    adj = g.adj

    def search(i: int, parts: list[int], placed: int, order: list[int]) -> list[int] | None:
        if i == len(verts):
            return parts if _accepted(kind, g, universe, order, parts) else None
        v = verts[i]
        nb = adj[v] & placed
        for c, (touch, need) in enumerate(rules):
            allowed = 0
            for d in touch:
                allowed |= parts[d]
            if nb & ~allowed or any(parts[d] & ~adj[v] for d in need):
                continue
            parts[c] |= 1 << v
            got = search(i + 1, parts, placed | 1 << v, order)
            if got is not None:
                return got
            parts[c] &= ~(1 << v)
        return None

    for order in permutations(terms):
        got = search(0, [1 << t for t in order] + [0] * (len(rules) - 4), mask_of(order), list(order))
        if got is not None:
            return got
    return None


# -- k >= 5: growing the decomposed region ------------------------------------

def _kstruct_fail_index(g: Graph, paths: list[list[int]], region: int) -> int | None:
    """Index of the first path whose cycle vertex fails to separate its
    terminal inside region, or None when the structure decomposes it."""
    xs = mask_of(p[0] for p in paths)
    return next((i for i, p in enumerate(paths) if not _cut_off(g, p[0], 1 << p[-1], region, xs)),
                None)


def _handle_k_failure(g: Graph, paths: list[list[int]], h_region: int, v: int, k: int):
    """The induction step when vertex v breaks the decomposition of the
    region: a tree, or (k = 6) a K4-structure."""
    fail = _kstruct_fail_index(g, paths, h_region | (1 << v))
    if fail is None:
        raise InternalError("failure vertex breaks no path of the decomposition")
    paths = paths[fail:] + paths[:fail]
    x1 = paths[0][0]
    s = [p[-1] for p in paths]
    kprime = mask_of(u for p in paths[1:] for u in p)

    y = g.reach(1 << x1, h_region & ~(1 << s[0]))
    z = g.reach(1 << s[1], h_region & ~(1 << s[0]))
    q = _bfs_to_attachment(g, x1, kprime, region=y | z | (1 << v))
    if q is None:
        raise InternalError("failure vertex did not yield a linking path")

    out = _link_tree(g, kprime, q, k)
    if out.kind == "tree":
        return "tree", out.tree

    w = q[-1]
    attach = set(bits(g.adj[w] & kprime))
    s2, sk = s[1], s[k - 1]
    sp3, spk1 = paths[2][-2], paths[k - 2][-2]
    if attach == {s2, sk}:
        raise InternalError("square through s_1 despite the girth bound")
    if attach == {sp3, sk}:
        return _case_end_and_inner(g, [paths[0]] + paths[1:][::-1], w, k)
    if attach == {s2, spk1}:
        return _case_end_and_inner(g, paths, w, k)
    if attach == {sp3, spk1}:
        return _case_both_inner(g, paths, w, k)
    raise InternalError(f"unexpected attachment {sorted(attach)} on the k-structure")


def _case_end_and_inner(g: Graph, paths: list[list[int]], w: int, k: int):
    """Attachment {s_2, s'_{k-1}}: rebuild a covering tree around s_1."""
    p1 = paths[0]
    s1, sk1 = p1[-1], paths[k - 2][-1]
    kprime = mask_of(u for p in paths[1:] for u in p)
    if g.has_edge(w, s1) or g.has_edge(w, p1[-2]):
        raise InternalError("w too close to s_1 for this attachment case")
    nb = [u for u in p1[:-1] if g.has_edge(w, u)]
    if nb:
        seg = p1[: p1.index(nb[0]) + 1]  # from x_1 to the neighbor nearest x_1
        pmask = mask_of(seg) | (1 << w)
    else:
        pmask = mask_of(p1) | (1 << w)
    tree = pmask | (1 << s1) | (kprime & ~(1 << sk1))
    if g.is_tree_mask(tree):
        return "tree", tree
    raise InternalError("s_2/s'_{k-1} attachment produced no tree")


def _case_both_inner(g: Graph, paths: list[list[int]], w: int, k: int):
    """Attachment {s'_3, s'_{k-1}}: subcases by how w meets P_1."""
    p1 = paths[0]
    s1, s3 = p1[-1], paths[2][-1]
    sp1 = p1[-2]
    kmask = mask_of(u for p in paths for u in p)
    nb_p1 = [u for u in p1 if g.has_edge(w, u)]

    def finish(tree: int):
        if not g.is_tree_mask(tree):
            raise InternalError("symmetric attachment produced no tree")
        return "tree", tree

    if not nb_p1:
        return finish((1 << w) | (kmask & ~(1 << s3)))
    middle = [u for u in nb_p1 if u not in (s1, sp1)]
    if middle:
        u = min(middle, key=p1.index)
        pmask = mask_of(p1[: p1.index(u) + 1]) | (1 << w)
        if g.has_edge(w, s1):
            if k != 5:
                raise InternalError("w adjacent to s_1 forces k = 5")
            drop = (1 << s3) | (1 << paths[3][-1])
        else:
            drop = 1 << s3
        return finish(pmask | (1 << s1) | (kmask & ~mask_of(p1) & ~drop))
    if nb_p1 == [s1]:
        if k != 5:
            raise InternalError("N(w) in P_1 = {s_1} forces k = 5")
        return finish((1 << w) | (kmask & ~(1 << s3) & ~(1 << paths[3][-1])))
    if nb_p1 == [sp1]:
        if k == 5:
            return finish((1 << w) | (kmask & ~(1 << s3) & ~(1 << paths[3][-1])))
        if k == 6:
            return "k4", _assemble_k4(g, paths, w)
        raise InternalError("N(w) in P_1 = {s'_1} with k not in (5, 6)")
    raise InternalError("unclassified P_1 attachment in the symmetric case")


def _assemble_k4(g: Graph, paths: list[list[int]], w: int) -> K4Witness:
    """The k = 6 relabelling: the 6-structure plus w is a K4-structure."""
    s = [p[-1] for p in paths]
    hubs = {"a": w, "b": s[0], "c": s[2], "d": s[4]}
    k4paths = {
        "ab": paths[0][:-1],
        "ac": paths[2][:-1],
        "ad": paths[4][:-1],
        "bc": paths[1],
        "bd": paths[5],
        "cd": paths[3],
    }
    wit = K4Witness(hubs, k4paths)
    if not validate_k4(g, wit, check_decomposes=False):
        raise InternalError("k = 6 relabelling is not a K4-structure")
    return wit


# -- the solver -----------------------------------------------------------------

def _solve_pendant(g: Graph, terms: list[int], k: int) -> TreeOrCertificate:
    """Core engine; requires every terminal to have degree 1 in g."""
    home = next(c for c in g.components() if c >> terms[0] & 1)
    if not _covers(home, terms):
        return TreeOrCertificate("disconnected-terminals", g, terms)

    if k == 3:
        if g.n > K3_FALLBACK_BOUND:
            raise TooLargeError(f"k=3 fallback bound {K3_FALLBACK_BOUND} exceeded")
        mask = induced_tree_exists(g, terms, bound=K3_FALLBACK_BOUND)
        if mask is not None:
            return TreeOrCertificate("tree", g, terms, tree=sorted(bits(mask)))
        return TreeOrCertificate("no-tree-exhaustive", g, terms)

    kind, payload = _first_step(g, terms, k)
    if kind == "tree":
        return TreeOrCertificate("tree", g, terms, tree=sorted(bits(payload)))

    paths: list[list[int]] = payload
    if k == 4:
        parts = [mask_of(p[:-1]) for p in paths] + [1 << p[-1] for p in paths] + [0]
        order_terms = [p[0] for p in paths]
        struct_mask = mask_of(u for p in paths for u in p)
        if not _accepted("square", g, struct_mask, order_terms, parts):
            raise InternalError("4-structure is not a square split")
        got = _grow_quad(g, g.full_mask(), order_terms, parts)
        if got[0] == "tree":
            return TreeOrCertificate("tree", g, terms, tree=sorted(bits(got[1])))
        if got[0] == "square":
            return TreeOrCertificate("square", g, order_terms, square=got[1])
        return TreeOrCertificate("cubic", g, order_terms, cubic=got[1])

    # k >= 5: absorb vertices while the k-structure separates its terminals
    region = mask_of(u for p in paths for u in p)
    for v in sorted(bits(g.full_mask() & ~region)):
        if _kstruct_fail_index(g, paths, region | (1 << v)) is None:
            region |= 1 << v
            continue
        got = _handle_k_failure(g, paths, region, v, k)
        if got[0] == "tree":
            if not _is_good_tree(g, got[1], terms):
                raise InternalError("k-failure tree lost a terminal")
            return TreeOrCertificate("tree", g, terms, tree=sorted(bits(got[1])))
        wit = got[1]
        if validate_k4(g, wit, check_decomposes=True):
            return TreeOrCertificate("k4", g, terms, k4=wit)
        return TreeOrCertificate("tree-exists", g, terms)
    wit = KStructWitness(paths)
    if not validate_kstruct(g, wit):
        raise InternalError("final k-structure fails validation")
    return TreeOrCertificate("kstructure", g, terms, kstruct=wit)


def _deletion_extract(g: Graph, terms: list[int], k: int) -> TreeOrCertificate:
    """A tree is known to exist; shrink the graph while the verdict stays
    positive, which converges exactly on an induced covering tree."""
    ids = list(range(g.n))
    cur = g
    cur_terms = list(terms)
    changed = True
    while changed:
        changed = False
        for v in range(cur.n):
            if v in cur_terms:
                continue
            sub, old = cur.delete_vertices([v])
            remap = {o: i for i, o in enumerate(old)}
            verdict = _solve_pendant(sub, [remap[t] for t in cur_terms], k)
            if verdict.has_tree or verdict.kind == "tree-exists":
                ids = [ids[o] for o in old]
                cur = sub
                cur_terms = [remap[t] for t in cur_terms]
                changed = True
                break
    if not _is_good_tree(cur, cur.full_mask(), cur_terms):
        raise InternalError("deletion fixpoint is not the covering tree")
    return TreeOrCertificate("tree", g, terms, tree=sorted(ids))


def k_in_a_tree(g: Graph, terminals: list[int]) -> TreeOrCertificate:
    """Decide whether an induced tree of g covers the given terminals.

    Preconditions: k = len(terminals) >= 3, terminals distinct, and
    girth(g) >= k.  Terminals of degree other than one get a pending
    neighbor.  Only certificates refer to that augmented graph: they
    carry it with the remapped terminals and the pendant map (g itself
    and an empty map when every terminal is a leaf already).  A positive
    answer carries g, the given terminals and a tree of g.
    """
    k = len(terminals)
    if k < 3:
        raise GraphError("need at least three terminals")
    if len(set(terminals)) != k:
        raise GraphError("duplicate terminals")
    for t in terminals:
        if not 0 <= t < g.n:
            raise GraphError(f"terminal {t} out of range")
    girth = g.girth(below=k)
    if girth is not None:
        raise GraphError(f"girth {girth} below k={k}")

    need = [t for t in terminals if g.degree(t) != 1]
    h = g.add_vertices(len(need), [[t] for t in need]) if need else g
    hterms = [g.n + need.index(t) if t in need else t for t in terminals]

    res = _solve_pendant(h, hterms, k)
    if res.kind == "tree-exists":
        res = _deletion_extract(h, hterms, k)
    if not res.has_tree:
        if need:
            res.pendants = {g.n + i: t for i, t in enumerate(need)}
        return res
    tree = sorted(v for v in res.tree if v < g.n)
    if not _is_good_tree(g, mask_of(tree), terminals):
        raise InternalError("pendant stripping broke the tree")
    return TreeOrCertificate("tree", g, terminals, tree=tree)
