"""Recognizers-with-structure for the small decomposition theorems, plus
weakly triangulated recognition, the 2-pair machinery and omega-coloring.

Each recognizer is total: it returns a positive classification with a
validating witness, or the induced forbidden structure the theorem
names.  Weakly triangulated recognition runs at most one reach per
induced P3 of g and of its complement whose ends lie above its middle,
which finds each long hole from its lowest vertex (polynomial; see
``is_weakly_triangulated``), and enumerates the complement's P3s from
g's side, where they are few.
The 2-pair finder follows the constructive proof: grow a maximal
anticonnected set T whose common neighborhood C(T) holds two
nonadjacent vertices, recurse inside C(T), and lift.  Coloring
contracts 2-pairs in place, seeking each next one first at the vertex
the last contraction made, which is set aside once universal.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, GraphError, InternalError, Record, bits, mask_of
from .linegraph import line_root_with_map
from .oracle import induced_embedding


class SmallClassification(Record):
    __slots__ = ("verdict", "parts", "root", "embedding", "witness", "witness_name",
                 "complement_of")

    def __init__(self, verdict: str, parts: list[int] | None = None, root: Graph | None = None,
                 embedding: list[int] | None = None, witness: list[int] | None = None,
                 witness_name: str = "", complement_of: SmallClassification | None = None):
        self.verdict = verdict                            # the positive class name, or 'not-in-class'
        self.parts = [] if parts is None else parts        # partitions, as bitsets
        self.root = root                                  # line-graph root
        self.embedding = embedding                        # into L(K33)
        self.witness = [] if witness is None else witness  # forbidden structure
        self.witness_name = witness_name
        self.complement_of = complement_of

    @property
    def in_class(self) -> bool:
        return self.verdict != "not-in-class"


def _find_p3(g: Graph) -> list[int] | None:
    for v in range(g.n):
        nb = list(bits(g.adj[v]))
        for a, b in combinations(nb, 2):
            if not g.has_edge(a, b):
                return [a, v, b]
    return None


def classify_p3(g: Graph) -> SmallClassification:
    """Disjoint-union-of-cliques recognition: P3-free iff every component
    is a clique."""
    p3 = _find_p3(g)
    if p3 is not None:
        return SmallClassification("not-in-class", witness=p3, witness_name="P3")
    return SmallClassification("disjoint-cliques", parts=g.components())


def _find_4set(g: Graph, shape: str) -> list[int] | None:
    """Brute-force search for an induced claw / diamond / coclaw."""
    for quad in combinations(range(g.n), 4):
        sub, old = g.induced(quad)
        m = sub.edge_count()
        degs = sorted(sub.degree(i) for i in range(4))
        if shape == "claw" and m == 3 and degs == [1, 1, 1, 3]:
            return list(quad)
        if shape == "diamond" and m == 5:
            return list(quad)
        if shape == "coclaw" and m == 3 and degs == [0, 2, 2, 2]:
            return list(quad)
    return None


def classify_paw(g: Graph) -> SmallClassification:
    """No induced subdivision of the paw iff cycle, complete multipartite
    (k >= 2), or tree; otherwise an explicit subdivision witness."""
    if g.n == 0 or not g.connected():
        raise GraphError("paw classification needs a connected graph on at least one vertex")

    comp_cl = classify_p3(g.complement())
    if comp_cl.in_class and len(comp_cl.parts) >= 2:
        return SmallClassification("complete-multipartite", parts=comp_cl.parts)
    if g.n >= 3 and all(g.degree(v) == 2 for v in range(g.n)):
        return SmallClassification("cycle")
    if g.edge_count() == g.n - 1:
        return SmallClassification("tree")

    tri = g.triangle()
    if tri is not None:
        return _paw_witness_from_triangle(g, tri)
    cyc = g.shortest_cycle()
    if len(cyc) == 4:
        return _paw_witness_from_square(g, cyc)
    return _paw_witness_from_hole(g, cyc)


def _grow_multipartite(g: Graph, seed: int) -> list[int]:
    """Inclusion-maximal complete multipartite induced subgraph containing
    the seed, greedy in index order; returns the part bitsets."""
    parts = [1 << v for v in bits(seed)]
    # merge seed vertices that are nonadjacent into shared parts is not
    # needed: a triangle seeds three singleton parts
    changed = True
    while changed:
        changed = False
        covered = 0
        for p in parts:
            covered |= p
        for v in range(g.n):
            if covered >> v & 1:
                continue
            # v joins part i if anticomplete to it and complete to the rest
            for i, p in enumerate(parts):
                if g.adj[v] & p:
                    continue
                if all(q & ~g.adj[v] == 0 for j, q in enumerate(parts) if j != i):
                    parts[i] |= 1 << v
                    changed = True
                    break
            else:
                if all(q & ~g.adj[v] == 0 for q in parts):
                    parts.append(1 << v)
                    changed = True
            if changed:
                break
    return parts


def _paw_witness_from_triangle(g: Graph, tri) -> SmallClassification:
    parts = _grow_multipartite(g, mask_of(tri))
    covered = 0
    for p in parts:
        covered |= p
    # g is connected and not multipartite, so some outside vertex attaches
    for v in range(g.n):
        if covered >> v & 1 or not (g.adj[v] & covered):
            continue
        nb_parts = [i for i, p in enumerate(parts) if g.adj[v] & p]
        i1 = nb_parts[0]
        v1 = next(bits(g.adj[v] & parts[i1]))
        missing = [
            (i, next(bits(p & ~g.adj[v])))
            for i, p in enumerate(parts)
            if p & ~g.adj[v]
        ]
        non_nb = [(i, u) for i, u in missing if not g.has_edge(v, u)]
        two = [t for t in non_nb if t[0] != i1]
        if len(two) >= 2:
            (_, vi), (_, vj) = two[0], two[1]
            return SmallClassification(
                "not-in-class", witness=[v, v1, vi, vj], witness_name="paw"
            )
        # v complete to all parts but one, partially tied to that one
        for i, p in enumerate(parts):
            hit = g.adj[v] & p
            miss = p & ~g.adj[v]
            if hit and miss:
                v2 = next(bits(hit))
                v2p = next(bits(miss))
                j = next(jj for jj in range(len(parts)) if jj != i and parts[jj] & g.adj[v])
                v1b = next(bits(parts[j] & g.adj[v]))
                return SmallClassification(
                    "not-in-class", witness=[v, v1b, v2, v2p], witness_name="paw"
                )
    raise InternalError("triangle case: maximal multipartite had no attachment")


def _paw_witness_from_square(g: Graph, sq) -> SmallClassification:
    # grow a maximal complete bipartite subgraph with both sides >= 2
    h1 = mask_of([sq[0], sq[2]])
    h2 = mask_of([sq[1], sq[3]])
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            if (h1 | h2) >> v & 1:
                continue
            if g.adj[v] & h1 == 0 and h2 & ~g.adj[v] == 0:
                h1 |= 1 << v
                changed = True
            elif g.adj[v] & h2 == 0 and h1 & ~g.adj[v] == 0:
                h2 |= 1 << v
                changed = True
    for v in range(g.n):
        if (h1 | h2) >> v & 1 or not (g.adj[v] & (h1 | h2)):
            continue
        if g.adj[v] & h1:
            side, other = h1, h2
        else:
            side, other = h2, h1
        v1 = next(bits(g.adj[v] & side))
        miss = side & ~g.adj[v]
        if miss:
            v1p = next(bits(miss))
            o = list(bits(other))[:2]
            return SmallClassification(
                "not-in-class", witness=[v, v1, v1p, o[0], o[1]], witness_name="paw-subdivision"
            )
    raise InternalError("square case: maximal bipartite had no attachment")


def _paw_witness_from_hole(g: Graph, cyc: list[int]) -> SmallClassification:
    """``cyc`` is a shortest cycle of length L >= 5.  A vertex off it has
    at most one neighbour on it, since two would close a cycle of length
    at most L // 2 + 2 < L; so the first attached vertex completes it to
    a paw subdivision."""
    cmask = mask_of(cyc)
    for v in range(g.n):
        if not cmask >> v & 1 and g.adj[v] & cmask:
            return SmallClassification(
                "not-in-class", witness=cyc + [v], witness_name="paw-subdivision"
            )
    raise InternalError("cycle case: no attachment found")


def classify_hh(g: Graph) -> SmallClassification:
    """Line graph of a triangle-free graph iff no claw and no diamond."""
    claw = _find_4set(g, "claw")
    if claw is not None:
        return SmallClassification("not-in-class", witness=claw, witness_name="claw")
    diamond = _find_4set(g, "diamond")
    if diamond is not None:
        return SmallClassification("not-in-class", witness=diamond, witness_name="diamond")
    got = line_root_with_map(g)
    if got is None:
        raise InternalError("claw- and diamond-free graph has no triangle-free root")
    root, _ = got
    return SmallClassification("line-of-triangle-free", root=root)


def classify_claw_coclaw(g: Graph) -> SmallClassification:
    """The claw- and coclaw-free catalogue: A6, induced subgraphs of
    L(K_{3,3}), unions of long cycles and paths, and complements."""
    claw = _find_4set(g, "claw")
    if claw is not None:
        return SmallClassification("not-in-class", witness=claw, witness_name="claw")
    coclaw = _find_4set(g, "coclaw")
    if coclaw is not None:
        return SmallClassification("not-in-class", witness=coclaw, witness_name="coclaw")

    got = _claw_coclaw_positive(g)
    if got is not None:
        return got
    comp = _claw_coclaw_positive(g.complement())
    if comp is not None:
        return SmallClassification("complement-of", complement_of=comp)
    raise InternalError("claw- and coclaw-free graph escaped the catalogue")


def _claw_coclaw_positive(g: Graph) -> SmallClassification | None:
    from .named import a6, line_k33

    if g.n == 6 and induced_embedding(a6(), g) is not None and g.edge_count() == 9:
        return SmallClassification("a6")
    if _cycles_and_paths(g):
        return SmallClassification("cycles-and-paths")
    if g.n <= 9:
        emb = induced_embedding(g, line_k33())
        if emb is not None:
            return SmallClassification("sub-l-k33", embedding=emb)
    return None


def _cycles_and_paths(g: Graph) -> bool:
    for comp in g.components():
        sub, _ = g.induced_mask(comp)
        degs = [sub.degree(v) for v in range(sub.n)]
        if any(d > 2 for d in degs):
            return False
        if all(d == 2 for d in degs) and sub.n < 4:
            return False  # triangle component is not a long cycle
    return True


def classify_small(g: Graph, theorem: str) -> SmallClassification:
    table = {
        "p3": classify_p3,
        "paw": classify_paw,
        "hh": classify_hh,
        "claw_coclaw": classify_claw_coclaw,
    }
    if theorem not in table:
        raise GraphError(f"unknown small theorem {theorem!r}")
    return table[theorem](g)


# -- weakly triangulated graphs ----------------------------------------------

def _long_hole(g: Graph) -> list[int] | None:
    """A hole of length >= 5 of g, validated, or None: the first one
    found from its lowest vertex b, by a P3 a-b-c above b and a reach
    through vertices above b.  See ``is_weakly_triangulated`` for the
    lemma, the precheck, and why the witness is that of the search over
    every P3."""
    adj = g.adj
    full = g.full_mask()
    for b in range(g.n):
        high = full & ~((2 << b) - 1)  # the vertices above b
        outside = high & ~adj[b]
        above = adj[b] & high
        while above:  # a over N(b) above b, then c over the rest of N(b) above a
            low = above & -above
            a = low.bit_length() - 1
            above ^= low
            na = adj[a] & outside
            if not na:
                continue
            cs = above & ~adj[a]
            while cs:
                low = cs & -cs
                c = low.bit_length() - 1
                cs ^= low
                nc = adj[c] & outside
                if not (na & ~nc and nc & ~na):
                    continue
                allowed = outside & ~(adj[a] & adj[c]) | 1 << c
                if not g.reach(1 << a, allowed) >> c & 1:
                    continue
                hole = [b] + g.path_back(g.layers(1 << a, allowed), c)[::-1]
                if len(hole) < 5 or not g.is_induced_cycle(hole):
                    raise InternalError(f"P3 reach gave {hole}, not a long hole")
                return hole
    return None


def _long_antihole(g: Graph) -> list[int] | None:
    """``_long_hole(g.complement())``, enumerated from g's sparse side: the
    first antihole found from its lowest vertex b.  See
    ``is_weakly_triangulated`` for why only pairs above b at distance 2
    from b through a neighbor above b are tried."""
    adj = g.adj
    full = g.full_mask()
    comp = None
    for b in range(g.n):
        high = full & ~((2 << b) - 1)  # the vertices above b
        nb = adj[b] & high
        above = 0
        for v in bits(nb):
            above |= adj[v]
        above &= high & ~nb
        while above:  # a over b's distance-2 set above b, then c over the rest of it above a
            low = above & -above
            a = low.bit_length() - 1
            above ^= low
            na, ma = nb & ~adj[a], nb & adj[a]
            if not na:
                continue
            cs = above & adj[a]
            while cs:
                low = cs & -cs
                c = low.bit_length() - 1
                cs ^= low
                if not (na & adj[c] and ma & ~adj[c]):
                    continue
                comp = comp or g.complement()
                allowed = nb & (adj[a] | adj[c]) | 1 << c
                if not comp.reach(1 << a, allowed) >> c & 1:
                    continue
                hole = [b] + comp.path_back(comp.layers(1 << a, allowed), c)[::-1]
                if len(hole) < 5 or not comp.is_induced_cycle(hole):
                    raise InternalError(f"P3 reach gave {hole}, not a long antihole")
                return hole
    return None


def is_weakly_triangulated(g: Graph) -> tuple[str, list[int]] | None:
    """None iff no long hole and no long antihole; else the witness
    ("hole", cycle of g) or ("antihole", cycle of the complement).

    Lemma: g has a hole of length >= 5 iff some induced P3 a-b-c has c
    reachable from a through vertices outside N[b] and outside
    N(a) & N(c).  A shortest such path is induced, has length >= 3 (its
    middle would otherwise be a common neighbor), and avoids N(b), so
    with b it closes a hole of length >= 5.  Conversely a long hole
    through b, a, c keeps its other vertices outside N[b], and none of
    them is adjacent to both a and c.  So recognition is at most one
    reach per induced P3 of g and of its complement: fewer than n*m
    reaches each, with m counted in that graph.

    Lowest-vertex rule: a long hole is found at its lowest vertex b, by
    the P3 of its two neighbors there, with all its vertices above b.
    So at each b, a and c run over N(b) above b and the reach runs
    through vertices above b only.  The witness is that of the search
    over every P3 with every reach uncut: a success at some b, in either
    search, closes a long hole through b, so the first b where either
    succeeds is the lowest vertex b0 of all long holes.  At b0 a P3 with
    a or c below b0 fails in both.  For a P3 above b0, every shortest
    a-c path of the lemma closes a long hole through b0, so it lies
    above b0: the cut keeps the path's length, and at each step
    ``path_back`` picks from the same vertices, those on such a path.

    Precheck: such a path leaves a through a vertex of
    (N(a) - N(c)) - N[b] and enters c from a vertex of
    (N(c) - N(a)) - N[b], both above b.  When either set is empty the
    reach cannot succeed and is skipped, and when N(a) - N[b] has no
    vertex above b no c is tried.

    Complement side (``_long_antihole``): a P3 a-b-c of the complement
    has a and c outside N[b] and ac an edge of g.  In g's terms its
    precheck sets are N(b) & N(c) - N(a) and N(b) & N(a) - N(c), above
    b, so it can pass only when a and c are both at distance exactly 2
    from b in g, through neighbors of b above b.  The search therefore
    runs b upward, a over those vertices above b and c over them & N(a)
    above a, which is the complement's own order under the lowest-vertex
    rule with only precheck-rejected triples left out: the same first
    antihole, and still at most one reach per induced P3 of the
    complement.  The reach's allowed set is N(b) & (N(a) | N(c)) above
    b, plus c, and runs in the complement, built once and only if a
    reach is needed.
    """
    hole = _long_hole(g)
    if hole is not None:
        return ("hole", hole)
    hole = _long_antihole(g)
    if hole is not None:
        return ("antihole", hole)
    return None


class TwoPair(Record):
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b


def find_two_pair(g: Graph, live: int | None = None) -> TwoPair | None:
    """A validated 2-pair of weakly triangulated g, or of g[live]; None on cliques.

    Follows the constructive proof: seed T with the middle of a P3, grow
    it maximal keeping G[T] anticonnected with two nonadjacent
    T-complete vertices, and recurse into the common neighborhood C(T).
    T stays anticonnected as it grows, so v may join it exactly when v
    misses some vertex of T, and C(T) then shrinks to C(T) & N(v).  The
    recursion runs on vertex masks of g (``_two_pair_in``), never
    reading ``g.adj`` outside them.
    """
    u = g.full_mask() if live is None else live
    return None if g.is_clique_mask(u) else TwoPair(*_two_pair_in(g, u))


def _two_pair_in(g: Graph, u: int) -> tuple[int, int]:
    """A 2-pair of G[u], which is not a clique, validated in G[u]; the
    P3 middle is the first vertex whose neighborhood in u is not a clique."""
    adj = g.adj
    for v in bits(u):
        if not g.is_clique_mask(adj[v] & u):
            break
    else:  # disjoint cliques: the lowest vertex, and the lowest outside its component
        low = u & -u
        rest = u & ~g.reach(low, u)
        return low.bit_length() - 1, (rest & -rest).bit_length() - 1
    t, c = 1 << v, adj[v] & u
    grown = True
    while grown:
        grown = False
        for w in bits(u & ~t):
            cw = c & adj[w]
            if t & ~adj[w] and not g.is_clique_mask(cw):
                t, c, grown = t | 1 << w, cw, True
    a, b = _two_pair_in(g, c)  # C(T) misses T: the recursion is at most |V| deep
    if adj[a] >> b & 1 or g.reach(1 << a, u & ~(adj[a] & adj[b])) >> b & 1:
        raise GraphError("2-pair failed validation: input not weakly triangulated")
    return a, b


def _partner(g: Graph, live: int, z: int) -> int | None:
    """The lowest w with {z, w} a 2-pair of G[live], or None.

    Lemma: for w outside N[z], {z, w} is a 2-pair exactly when every
    vertex of N(z) with a neighbor in w's component K of G[live - N[z]]
    is adjacent to w.  A shortest z-w path that avoids N(z) & N(w) leaves
    z once, through a vertex of N(z) - N(w), and then stays inside K;
    conversely such a vertex with a neighbor in K starts one.  So each
    component takes one reach and the union of its neighborhoods, whose
    part in N(z) every partner inside it must be adjacent to.  Components
    come by lowest vertex: the sweep stops at the first one that starts
    above the partner found so far."""
    adj = g.adj
    nz = adj[z] & live
    outside = rest = live & ~nz & ~(1 << z)
    found = 0
    while rest:
        low = rest & -rest
        if found and low > found:
            break
        comp = g.reach(low, outside)
        rest &= ~comp
        nb, scan = 0, comp
        while scan:
            bit = scan & -scan
            nb |= adj[bit.bit_length() - 1]
            scan ^= bit
        border = nb & nz
        scan = comp & (found - 1)  # below the partner found so far (all of comp when none)
        while scan:
            bit = scan & -scan
            if not border & ~adj[bit.bit_length() - 1]:
                found = bit
                break
            scan ^= bit
    return found.bit_length() - 1 if found else None


def color_weakly_triangulated(g: Graph) -> list[int]:
    """A proper coloring with omega(g) colors by repeated 2-pair
    contraction; validated on return.

    Contraction runs in place on one adjacency list and a mask of live
    vertices: contracting b into a gives a the neighbors of b and drops b
    from the mask (dead vertices' bits stay in the lists, masked off).
    The next pair {a, w} is sought first at a, the vertex the last
    contraction made, with w its lowest partner (``_partner``, one sweep
    over the components outside N[a]); ``find_two_pair`` on the live mask
    serves the rest.
    An a adjacent to every live vertex stays so under every later
    contraction, so it is set aside instead.  Contracting a 2-pair keeps
    the graph weakly triangulated and keeps omega, so the final clique
    and the set-aside vertices number omega; each takes a color of its
    own, and each contracted vertex, walking back, its absorber's."""
    bad = is_weakly_triangulated(g)
    if bad is not None:
        raise GraphError(f"input has a long {bad[0]}: not weakly triangulated")
    work = Graph(g.n)
    work.adj = adj = list(g.adj)
    live, aside = g.full_mask(), 0
    merged: list[tuple[int, int]] = []  # (a, b): b contracted into a
    z = None
    while True:
        pair = None
        if z is not None:
            nz = adj[z] & live
            if nz == live ^ 1 << z:
                aside |= 1 << z
                live ^= 1 << z
            else:
                w = _partner(work, live, z)
                if w is not None:
                    pair = z, w
        if pair is None:
            try:
                found = find_two_pair(work, live)
            except GraphError as e:  # g passed recognition, so the fault is ours
                raise InternalError(str(e)) from e
            if found is None:
                break
            pair = found.a, found.b
        z, b = pair
        for v in bits(adj[b] & live):
            adj[v] |= 1 << z
        adj[z] |= adj[b]
        live ^= 1 << b
        merged.append(pair)
    color = [0] * g.n
    for k, v in enumerate(bits(live | aside)):
        color[v] = k
    for a, b in reversed(merged):
        color[b] = color[a]
    if not g.is_proper_coloring(color):
        raise InternalError("2-pair contraction coloring is not proper")
    return color
