"""Shared generators and independent brute-force oracles for the tests."""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import itertools
import random
import sys
from pathlib import Path

from inducta import berge
from inducta.berge import (
    ABCD,
    FULL_ENUM_BOUND,
    LeafInfo,
    MarkerInfo,
    OutsideClassError,
    TreeNode,
    TwoJoinSplit,
    _check_path_cobip,
    _decompose,
    _flat_paths_of,
    _gadgetize,
    _join_along,
    _LineSkeleton,
    _line_weights,
    _marker_clique_weights,
    _path_block,
    all_proper_nonpath_two_joins,
    gadget_weights,
    is_connected_join,
    is_substantial_join,
    path_side,
)
from inducta.classify import TwoPair, classify_p3, find_two_pair
from inducta.graphs import Graph, GraphError, Record, TooLargeError, WeightedGraph, bit_count, bits, mask_of
from inducta.kintree import CubicSplit, K4Witness, KStructWitness, SquareSplit, _kstruct_fail_index
from inducta.linegraph import line_graph, line_root_with_map, maximal_cliques
from inducta.named import (
    a6,
    complete,
    complete_bipartite,
    cycle,
    heawood,
    line_k33,
    octahedron,
    path,
    petersen,
    r35,
    wagner,
)
from inducta.oracle import (enumerate_antiholes, enumerate_holes, is_berge, max_weight_clique,
                            max_weight_stable_set)


def named_zoo() -> dict[str, Graph]:
    return {
        "petersen": petersen(),
        "heawood": heawood(),
        "wagner": wagner(),
        "r35": r35(),
        "a6": a6(),
        "l_k33": line_k33(),
        "octahedron": octahedron(),
        "c5": cycle(5),
        "c6": cycle(6),
        "c7": cycle(7),
        "p5": path(5),
        "k4": complete(4),
        "k33": complete_bipartite(3, 3),
        "k23": complete_bipartite(2, 3),
    }


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge_unchecked(u, v)
    return g


def random_graph_girth(n: int, k: int, rng: random.Random, p: float) -> Graph:
    """Random graph with girth >= k: greedily drop an edge from every
    short cycle until none remains."""
    g = random_graph(n, p, rng)
    while True:
        girth = g.girth()
        if girth is None or girth >= k:
            return g
        cyc = _short_cycle(g, girth)
        u, v = cyc[0], cyc[1]
        g.adj[u] &= ~(1 << v)
        g.adj[v] &= ~(1 << u)


def _short_cycle(g: Graph, length: int) -> list[int]:
    for start in range(g.n):
        found = _cycle_from(g, start, length)
        if found:
            return found
    raise AssertionError("girth reported a cycle that cannot be found")


def _cycle_from(g: Graph, start: int, length: int) -> list[int] | None:
    def dfs(pathv: list[int], used: int) -> list[int] | None:
        if len(pathv) == length:
            return pathv if g.has_edge(pathv[-1], start) else None
        for w in bits(g.adj[pathv[-1]] & ~used):
            got = dfs(pathv + [w], used | (1 << w))
            if got:
                return got
        return None

    return dfs([start], 1 << start)


def random_connected_girth(n: int, k: int, rng: random.Random) -> Graph:
    """Connected random graph of girth >= k: random spanning tree plus
    extra edges that keep the girth."""
    g = Graph(n)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        g.add_edge_unchecked(order[i], order[rng.randrange(i)])
    extra = rng.randint(0, max(1, n // 2))
    for _ in range(extra * 3):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or g.has_edge(u, v):
            continue
        g.add_edge_unchecked(u, v)
        girth = g.girth()
        if girth is not None and girth < k:
            g.adj[u] &= ~(1 << v)
            g.adj[v] &= ~(1 << u)
    return g


def random_chordal(n: int, rng: random.Random) -> Graph:
    """Chordal graph built by attaching simplicial vertices."""
    g = Graph(1)
    for v in range(1, n):
        prev = list(range(v))
        seed = rng.choice(prev)
        clique = {seed}
        for u in prev:
            if u != seed and all(g.has_edge(u, x) for x in clique):
                if rng.random() < 0.5:
                    clique.add(u)
        g = g.add_vertices(1, [list(clique)])
    return g


def cycle_with_unique_chord_present(g: Graph) -> bool:
    """Exhaustive subset oracle: some vertex subset induces a cycle with
    exactly one chord."""
    for sub in range(1 << g.n):
        if bit_count(sub) < 4:
            continue
        h, _ = g.induced_mask(sub)
        if h.edge_count() != h.n + 1:
            continue
        degs = sorted(h.degree(i) for i in range(h.n))
        if degs != [2] * (h.n - 2) + [3, 3]:
            continue
        d3 = [i for i in range(h.n) if h.degree(i) == 3]
        if not h.has_edge(d3[0], d3[1]):
            continue
        h2 = Graph(h.n)
        for a in range(h.n):
            h2.adj[a] = h.adj[a]
        h2.adj[d3[0]] &= ~(1 << d3[1])
        h2.adj[d3[1]] &= ~(1 << d3[0])
        if all(h2.degree(i) == 2 for i in range(h2.n)) and len(h2.components()) == 1:
            return True
    return False


def induced_prism_subsets(g: Graph):
    """All vertex subsets inducing a prism (two disjoint triangles linked
    by three disjoint induced paths, no other edges)."""
    from inducta.sgraph import find_realization, prism_sgraph

    for sub in range(1 << g.n):
        if bit_count(sub) < 6:
            continue
        h, old = g.induced_mask(sub)
        emb = find_realization(prism_sgraph(), h)
        if emb is not None and len(emb.used_vertices()) == h.n:
            yield sub


# -- constructed 2-join instances ------------------------------------------

def theta_side(rng: random.Random, parity: str, branches: int = 2):
    """A one-terminal-pair side: `branches` parallel paths of the given
    parity from a to b.  Returns (graph, a_mask, b_mask)."""
    lengths = []
    for _ in range(branches):
        length = rng.choice([3, 5]) if parity == "odd" else rng.choice([2, 4])
        lengths.append(length)
    n = 2 + sum(length - 1 for length in lengths)
    g = Graph(n)
    a, b = 0, 1
    nxt = 2
    for length in lengths:
        prev = a
        for i in range(length - 1):
            g.add_edge_unchecked(prev, nxt)
            prev = nxt
            nxt += 1
        g.add_edge_unchecked(prev, b)
    return g, 1 << a, 1 << b


def prism_side():
    """L(K_{2,3}) with the two triangles as the special sets."""
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    return g, mask_of([0, 1, 2]), mask_of([3, 4, 5])


def hub_side_even(rng: random.Random | None = None, middles: int = 3):
    """K_{2,m}: hubs a, b joined by m length-2 paths; every a-b route is
    even and the hubs have degree >= 3, which defeats the path-shaped
    basic classes after gluing."""
    if rng is not None:
        middles = rng.choice([3, 4])
    g = Graph(2 + middles)
    for i in range(middles):
        g.add_edge_unchecked(0, 2 + i)
        g.add_edge_unchecked(2 + i, 1)
    return g, 1 << 0, 1 << 1


def ladder_side_odd():
    """Two length-3 a-b paths plus one rung: the rung vertex has degree 3,
    all a-b routes stay odd."""
    g = Graph(6, [(0, 2), (0, 4), (2, 3), (4, 5), (2, 5), (3, 1), (5, 1)])
    return g, 1 << 0, 1 << 1


def line_side_even(rng: random.Random | None = None, lengths: tuple[int, ...] = (3, 3)):
    """The line graph of odd parallel root paths (``lengths``, or two
    drawn by ``rng``): stars of the two root branch vertices are the
    special cliques, and the paths between them inside the line graph
    are even."""
    if rng is not None:
        lengths = rng.choice([(3, 3), (3, 5)])
    root = Graph(2 + sum(le - 1 for le in lengths))
    nxt = 2
    star_u, star_v = [], []
    edges = []
    for le in lengths:
        prev = 0
        chain = []
        for _ in range(le - 1):
            edges.append((prev, nxt))
            chain.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
        chain.append((prev, 1))
        star_u.append(len(edges) - le)
        star_v.append(len(edges) - 1)
    for e in edges:
        root.add_edge_unchecked(*e)
    lg = Graph(len(edges))
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if a in (c, d) or b in (c, d):
                lg.add_edge_unchecked(i, j)
    return lg, mask_of(star_u), mask_of(star_v)


def glue_two_sides(side1, side2) -> tuple[Graph, dict]:
    """Join A1 x A2 and B1 x B2 completely."""
    g1, a1, b1 = side1
    g2, a2, b2 = side2
    g = g1.union_disjoint(g2)
    off = g1.n
    for u in bits(a1):
        for v in bits(a2):
            g.add_edge_unchecked(u, off + v)
    for u in bits(b1):
        for v in bits(b2):
            g.add_edge_unchecked(u, off + v)
    info = {
        "x1": g1.full_mask(),
        "x2": g2.full_mask() << off,
        "a1": a1,
        "b1": b1,
        "a2": a2 << off,
        "b2": b2 << off,
    }
    return g, info


def random_berge_instance(rng: random.Random, max_n: int = 20, mixed_bias: float = 0.6):
    """A random class member glued from theta and prism sides, validated
    Berge before being returned (else retried).  A prism-theta mix forces
    the pipeline through a genuine 2-join; pure gluings tend to land in a
    basic class directly."""
    from inducta.oracle import is_berge

    for _ in range(60):
        roll = rng.random()
        if roll < mixed_bias:
            # a hub-shaped bipartite side against a line-graph side of the
            # same parity: not basic, so the pipeline must use the join
            if rng.random() < 0.5:
                sides = [hub_side_even(rng), line_side_even(rng)]
            else:
                sides = [ladder_side_odd(), prism_side()]
            if rng.random() < 0.5:
                sides.reverse()
        else:
            parity = rng.choice(["odd", "even"])
            sides = [
                theta_side(rng, parity, branches=rng.choice([2, 2, 3])),
                theta_side(rng, parity, branches=rng.choice([2, 3])),
            ]
        g, info = glue_two_sides(sides[0], sides[1])
        if g.n > max_n:
            continue
        if is_berge(g):
            return g, info
    raise AssertionError("could not build a Berge instance")


# -- 2-join algebra: the oracle side of the solver's join blocks --------------

def derive_split(g: Graph, x1: int, x2: int) -> TwoJoinSplit | None:
    """The split of (x1, x2) if it is a 2-join with nonempty special
    sets, else None.  Cross neighborhoods determine everything: A is the
    X1 part with the smaller mask."""
    groups: dict[int, int] = {}
    for v in bits(x2):
        c = g.adj[v] & x1
        if c:
            groups[c] = groups.get(c, 0) | (1 << v)
    if len(groups) != 2:
        return None
    (n_a, a2), (n_b, b2) = sorted(groups.items())
    if n_a & n_b:
        return None
    for v in bits(x1):
        c = g.adj[v] & x2
        if c == 0:
            continue
        if (n_a >> v & 1) and c == a2:
            continue
        if (n_b >> v & 1) and c == b2:
            continue
        return None
    a1, b1 = n_a, n_b
    if not (a1 and b1 and a2 and b2):
        return None
    return TwoJoinSplit(x1, x2, a1, b1, a2, b2)


def validate_split(g: Graph, s: TwoJoinSplit) -> bool:
    """Whether s is a 2-join split of g, checked edge by edge."""
    if s.x1 & s.x2 or (s.x1 | s.x2) != g.full_mask():
        return False
    if not (s.a1 and s.b1 and s.a2 and s.b2):
        return False
    if s.a1 & s.b1 or s.a2 & s.b2:
        return False
    if not (s.a1 & s.x1 == s.a1 and s.b1 & s.x1 == s.b1):
        return False
    if not (s.a2 & s.x2 == s.a2 and s.b2 & s.x2 == s.b2):
        return False
    if not g.is_complete_between(s.a1, s.a2):
        return False
    if not g.is_complete_between(s.b1, s.b2):
        return False
    for v in bits(s.x1):
        allowed = s.a2 if s.a1 >> v & 1 else (s.b2 if s.b1 >> v & 1 else 0)
        if g.adj[v] & s.x2 & ~allowed:
            return False
    return True


def forced_join(g: Graph, s: TwoJoinSplit) -> TreeNode:
    """The solver's tree of g with the split s taken at the root: the
    join path ``decompose`` takes for the join it picks, here made to
    take s (its parities, side block, regions and child)."""
    return _decompose(g, list(range(g.n)), [], 0, (None, _join_along(g, s)))


@contextlib.contextmanager
def minimally_sided_joins():
    """The Berge pipeline as it was before it tried the balanced join
    first: every node that is no leaf splits along ``find_two_join``'s
    minimally sided, marker-shifted join, and its child is decomposed in
    turn, so a tree is a chain of joins."""
    real = berge._balanced_join
    berge._balanced_join = lambda g, joins, paths: None
    try:
        yield
    finally:
        berge._balanced_join = real


def chain_decompose(g: Graph) -> TreeNode:
    """``decompose`` along minimally sided joins only."""
    with minimally_sided_joins():
        return berge.decompose(g)


def _restricted(wg: WeightedGraph, region: int) -> WeightedGraph:
    sub, old = wg.graph.induced_mask(region)
    return WeightedGraph(sub, [wg.weights[o] for o in old])


def compute_abcd(wg: WeightedGraph, s: TwoJoinSplit) -> ABCD:
    """The four stable-set numbers of the X1 side, by the exact oracle."""
    return ABCD(*(max_weight_stable_set(_restricted(wg, region))[0]
                  for region in (s.a1 | s.c1, s.b1 | s.c1, s.c1, s.x1)))


def omega_of(wg: WeightedGraph, region: int) -> int:
    """The maximum clique weight inside ``region``, by the exact oracle."""
    return max_weight_clique(_restricted(wg, region))[0]


def replace_path_by_gadget(
    wg: WeightedGraph, path: list[int], kind: str, weights4: list[int]
) -> tuple[WeightedGraph, list[int], list[int]]:
    """The solver's gadget swap with weights: the path becomes its claw or
    vault carrying ``weights4``; returns the new weighted graph, the
    gadget vertex list, and old->new map (path vertices -> -1)."""
    blk, back, (gadget,) = _gadgetize(wg.graph, [MarkerInfo(path, kind, 0)])
    omap = [-1] * wg.graph.n
    w = [0] * blk.n
    for i, o in enumerate(back):
        if o is not None:
            omap[o] = i
            w[i] = wg.weights[o]
    for v, x in zip(gadget, weights4):
        w[v] = x
    return WeightedGraph(blk, w), gadget, omap


def gadget_block(tree: TreeNode, weights: list[int], abcd: ABCD) -> tuple[WeightedGraph, list[int]]:
    """X2 of the root join with X1 read as its weighted gadget: the tree's
    child graph (X2, then the marker path standing for X1) with the marker
    swapped for the claw (even X1) or vault (odd X1) carrying ``abcd``."""
    child = tree.children[0].graph
    x2_weights = [weights[v] for v in bits(tree.split.x2)]
    marker = list(range(len(x2_weights), child.n))
    kind = "vault" if tree.parities[0] == "odd" else "claw"
    wg = WeightedGraph(child, x2_weights + [0] * len(marker))
    out, gadget, _ = replace_path_by_gadget(wg, marker, kind, gadget_weights(kind, abcd))
    return out, gadget


def clique_block(wg: WeightedGraph, s: TwoJoinSplit, k: int, omega_w: tuple[int, int, int]) -> WeightedGraph:
    """X2 plus a marker path of length k for X1, the marker carrying the
    clique weights ``omega_w`` of A1, B1 and X1 as the solver sets them."""
    block, marker = _path_block(wg.graph, s.flip(), k)
    w = [wg.weights[o] for o in bits(s.x2)] + _marker_clique_weights(len(marker), omega_w)
    return WeightedGraph(block, w)


def replay_tree(node: TreeNode) -> bool:
    """Check bottom-up that each join child is exactly the recorded block
    of its parent, so chaining the reverse operations rebuilds the root."""
    if node.kind == "leaf":
        return node.graph is not None
    if node.graph is None or node.split is None or not node.children:
        return False
    block, _ = _path_block(node.graph, node.split.flip(), node.marker_len)
    if node.children[0].graph != block:
        return False
    return all(replay_tree(c) for c in node.children)


class ExtensionSpec(Record):
    """An extension of a line graph: the base line graph (as it was before
    extending), its root, and one gadget record per extended flat path."""

    __slots__ = ("base", "root", "root_edges", "paths", "kinds")

    def __init__(self, base: Graph, root: Graph, root_edges: list[tuple[int, int]],
                 paths: list[list[int]], kinds: list[str]):
        self.base = base              # the line graph G
        self.root = root              # R with L(R) = G
        self.root_edges = root_edges  # vertex of G -> edge of R
        self.paths = paths            # the extended flat paths, in G
        self.kinds = kinds            # 'claw' | 'vault' per path


def line_extension_transform(
    base_weights: list[int],
    spec: ExtensionSpec,
    numbers: list[ABCD],
) -> tuple[WeightedGraph, list[tuple[int, int, int, int]], list[dict]]:
    """Build the marked multigraph whose line graph carries the same
    maximum stable set weight as the extension, and that line graph G''
    explicitly; the solver keeps only the multigraph (``_LineSkeleton``).

    ``base_weights`` weights the base line graph's vertices (entries under
    the extended paths are ignored); ``numbers[i]`` holds the four
    stable-set numbers of path i's gadget.  Returns the transformed
    weighted graph G'', the root multigraph as weighted edges (u, v,
    weight, g2_vertex), and per-path role records.  G'' is the line graph
    of that multigraph: its vertex x is the edge labelled x, and two
    vertices are adjacent when their edges share an end."""
    skel = _LineSkeleton(spec.base, spec.root, spec.root_edges, spec.paths)
    w2 = _line_weights(skel, base_weights, numbers)
    at = [0] * skel.nodes  # per root vertex, the G'' vertices of its edges
    for u, v, x in skel.medges:
        at[u] |= 1 << x
        at[v] |= 1 << x
    g2 = Graph(len(w2))
    for u, v, x in skel.medges:
        g2.adj[x] = (at[u] | at[v]) & ~(1 << x)
    medges = [(u, v, w2[x], x) for u, v, x in skel.medges]
    records = [
        {"path": p, "kind": kind, "roles": roles, "numbers": nums}
        for p, kind, roles, nums in zip(spec.paths, spec.kinds, skel.roles, numbers)
    ]
    return WeightedGraph(g2, w2), medges, records


def berge_family_graphs() -> list[Graph]:
    """The graphs of the test_berge_* families and acceptance criteria 8
    and 9, with their complements."""
    out = [cycle(8), complete(4),
           Graph(7, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 5), (3, 4), (4, 5), (4, 6), (5, 6)])]
    for sides in ((ladder_side_odd(), prism_side()), (hub_side_even(), line_side_even()),
                  (prism_side(), prism_side())):
        out.append(glue_two_sides(*sides)[0])
    for seed, count, max_n in ((60, 30, 16), (61, 8, 14), (909, 50, 20)):
        rng = random.Random(seed)
        for _ in range(count):
            out.append(random_berge_instance(rng, max_n=max_n)[0])
            if seed != 61:
                [rng.randint(0, 4) for _ in range(out[-1].n)]  # the weights drawn there
    # criterion 8 draws exactly like this
    rng = random.Random(808)
    done = 0
    while done < 100:
        g, info = random_berge_instance(rng, max_n=20)
        s = derive_split(g, info["x1"], info["x2"])
        if s is None or not validate_split(g, s) or bit_count(s.x1) > 14 or bit_count(s.x2) > 14:
            continue
        [rng.randint(0, 4) for _ in range(g.n)]
        out.append(g)
        done += 1
    return out + [g.complement() for g in out]


def complement_leaf_graphs(rng: random.Random) -> list[Graph]:
    """Complements of bipartite graphs and of line graphs of bipartite
    roots: the benchmark's leaf families (sparse bipartite graphs with
    n = 16-34, line graphs of 16-34 edges on a 7 + 7 root), then seeded
    roots of other sizes and densities."""
    out = []
    for n in (16, 22, 28, 31, 34):
        left = n // 2
        out.append(Graph(n, [(u, v) for u in range(left) for v in range(left, n)
                             if rng.random() < 3.0 / left]).complement())
        pairs = [(u, v) for u in range(7) for v in range(7, 14)]
        out.append(line_graph(Graph(14, rng.sample(pairs, n))).complement())
    for _ in range(15):
        left, right = rng.randint(2, 8), rng.randint(2, 8)
        pairs = [(u, v) for u in range(left) for v in range(left, left + right)]
        root = Graph(left + right, [e for e in pairs if rng.random() < rng.choice([0.3, 0.6, 0.9])])
        out += [root.complement(), line_graph(root).complement()]
    return out


# -- the dict-keyed searches that Graph.layers replaced, kept as oracles ----

def oracle_bipartition(g: Graph) -> tuple[int, int] | None:
    color = {}
    for comp in g.components():
        s = next(bits(comp))
        color[s] = 0
        frontier = [s]
        while frontier:
            v = frontier.pop()
            for w in bits(g.adj[v]):
                if w in color:
                    if color[w] == color[v]:
                        return None
                else:
                    color[w] = 1 - color[v]
                    frontier.append(w)
    left = mask_of(v for v, c in color.items() if c == 0)
    return left, g.full_mask() & ~left


def oracle_layers(g: Graph, seeds: int, allowed: int) -> list[set[int]]:
    """Breadth-first layers as vertex sets: layer 0 holds the seeds, and
    each next layer the allowed, unseen neighbors of the last."""
    layer = {v for v in range(g.n) if seeds >> v & 1}
    seen, out = set(layer), [layer]
    while True:
        layer = {w for v in layer for w in range(g.n)
                 if g.adj[v] >> w & 1 and allowed >> w & 1 and w not in seen}
        if not layer:
            return out
        seen |= layer
        out.append(layer)


def oracle_components_of(g: Graph, mask: int) -> list[set[int]]:
    """Components of the subgraph ``mask`` induces, by lowest vertex."""
    rest = {v for v in range(g.n) if mask >> v & 1}
    out = []
    while rest:
        comp = set().union(*oracle_layers(g, 1 << min(rest), mask))
        rest -= comp
        out.append(comp)
    return out


def count_triangles(g: Graph) -> int:
    return sum(1 for u, v in g.edges() for w in bits(g.adj[u] & g.adj[v]) if w > v)


def dict_girth(g: Graph) -> int | None:
    best = None
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for w in bits(g.adj[v]):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif w != parent[v]:
                    c = dist[v] + dist[w] + 1
                    if best is None or c < best:
                        best = c
    return best


# -- the kernel forms that the mask loops replaced, kept as oracles ---------------

def oracle_girth(g: Graph) -> int | None:
    """The girth as ``Graph.girth`` had it: the length of the cycle that
    ``shortest_cycle`` returns (``below`` cut that search short)."""
    cyc = g.shortest_cycle()
    return None if cyc is None else len(cyc)


def oracle_is_proper_coloring(g: Graph, color) -> bool:
    """No edge has two ends of one color, edge by edge."""
    return all(color[u] != color[v] for u, v in g.edges())


def oracle_is_induced_path(g: Graph, seq: list[int]) -> bool:
    """Distinct vertices, and an edge between two of them exactly when
    they are next to each other in ``seq``, pair by pair."""
    if len(set(seq)) != len(seq):
        return False
    for i, u in enumerate(seq):
        for j in range(i + 1, len(seq)):
            if g.has_edge(u, seq[j]) != (j == i + 1):
                return False
    return True


def oracle_validate_kstruct(g: Graph, w: KStructWitness) -> bool:
    """``kintree.validate_kstruct`` with every pair of vertices of two
    paths tested by ``has_edge``."""
    k = len(w.paths)
    if k < 4:
        return False
    used: set[int] = set()
    for p in w.paths:
        if len(p) < 2 or not oracle_is_induced_path(g, p):
            return False
        if used & set(p):
            return False
        used.update(p)
    cyc = w.cycle()
    for i, p in enumerate(w.paths):
        for j in range(i + 1, k):
            q = w.paths[j]
            for u in p:
                for v in q:
                    expect = {u, v} == {cyc[i], cyc[j]} and (
                        j == i + 1 or (i == 0 and j == k - 1)
                    )
                    if g.has_edge(u, v) != expect:
                        return False
    return _kstruct_fail_index(g, w.paths, g.full_mask()) is None


def oracle_is_induced_cycle(g: Graph, seq: list[int]) -> bool:
    """Three or more distinct vertices, and an edge between two of them
    exactly when they are next to each other in ``seq``, cyclically, pair
    by pair."""
    k = len(seq)
    if k < 3 or len(set(seq)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            expect = (j == i + 1) or (i == 0 and j == k - 1)
            if g.has_edge(seq[i], seq[j]) != expect:
                return False
    return True


def oracle_validate_prism(g: Graph, w) -> bool:
    """``detect.validate_prism`` with every pair of vertices of two paths
    tested by ``has_edge``.  It accepts a path of one vertex, so two
    triangles sharing a vertex pass as a prism."""
    ta, tb = w.triangle_a, w.triangle_b
    if not (g.is_clique_mask(mask_of(ta)) and g.is_clique_mask(mask_of(tb))):
        return False
    seen: set[int] = set()
    for i, p in enumerate(w.paths):
        if p[0] != ta[i] or p[-1] != tb[i]:
            return False
        if not oracle_is_induced_path(g, p):
            return False
        if seen & set(p):
            return False
        seen.update(p)
    for i in range(3):
        for j in range(i + 1, 3):
            for u in w.paths[i]:
                for v in w.paths[j]:
                    expect = (u in ta and v in ta) or (u in tb and v in tb)
                    if g.has_edge(u, v) != expect:
                        return False
    return True


def oracle_validate_embedding(b, g: Graph, emb) -> bool:
    """``sgraph._validate_embedding`` with every pair of used vertices
    tested against the set of expected edges."""
    used = emb.used_vertices()
    if len(set(emb.branch.values())) != b.n:
        return False
    expected = set()
    for u, v in b.real_edges:
        expected.add(tuple(sorted((emb.branch[u], emb.branch[v]))))
    for e in b.sub_edges:
        p = emb.paths[e]
        if len(p) < 2 or p[0] != emb.branch[e[0]] or p[-1] != emb.branch[e[1]]:
            return False
        if set(p[1:-1]) & set(emb.branch.values()):
            return False
        for a, bb in zip(p, p[1:]):
            expected.add(tuple(sorted((a, bb))))
    ints = [x for e in b.sub_edges for x in emb.paths[e][1:-1]]
    if len(ints) != len(set(ints)):
        return False
    for i, u in enumerate(used):
        for v in used[i + 1:]:
            if g.has_edge(u, v) != ((u, v) in expected):
                return False
    return True


def oracle_replay_tree(g: Graph, node) -> bool:
    """``decompose.replay_tree`` on sets of vertices and edges: each leaf
    adds every edge of g between two of its vertices, pair by pair."""
    verts: set[int] = set()
    edges: set[tuple[int, int]] = set()
    todo = [node]
    while todo:
        node = todo.pop()
        if not node.children:
            vs = {v for v in node.vertices if v >= 0}
            verts |= vs
            edges |= {(u, v) for u in vs for v in vs if u < v and g.has_edge(u, v)}
            continue
        todo += node.children
        if node.kind == "proper_1_join":
            edges |= {(min(u, v), max(u, v)) for u in node.join_a for v in node.join_b
                      if u >= 0 and v >= 0}
    return verts == set(range(g.n)) and edges == {tuple(sorted(e)) for e in g.edges()}


def oracle_is_tree_mask(g: Graph, mask: int) -> bool:
    """Edge count, then one component by ``components_of``."""
    k = bit_count(mask)
    if k == 0:
        return False
    m = sum(bit_count(g.adj[v] & mask) for v in bits(mask))
    return m == 2 * (k - 1) and len(g.components_of(mask)) == 1


def oracle_prune_tree(g: Graph, mask: int, terms) -> int:
    """Sweep the non-terminals again and again, deleting each one of
    degree at most one, until a sweep deletes nothing."""
    tset = mask_of(terms)
    changed = True
    while changed:
        changed = False
        for v in bits(mask & ~tset):
            if bit_count(g.adj[v] & mask) <= 1:
                mask &= ~(1 << v)
                changed = True
    return mask


def oracle_partner(g: Graph, live: int, z: int) -> int | None:
    """The lowest live non-neighbor w of z that z does not reach once
    N(z) & N(w) is removed: one reach per candidate."""
    nz = g.adj[z] & live
    for w in bits(live & ~nz & ~(1 << z)):
        if not g.reach(1 << z, live & ~(nz & g.adj[w])) >> w & 1:
            return w
    return None


def bench_workload(workload: str, seed: int) -> list:
    """The instances of the benchmark workload ``workload`` for ``seed``,
    from ``perfbench/workloads.py``, loaded by its path."""
    name = "_bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name].generate(workload, seed)


def oracle_shortest_path(g: Graph, src: int, dst: int, allowed: int | None = None) -> list[int] | None:
    if allowed is None:
        allowed = g.full_mask()
    if not (allowed >> src & 1 and allowed >> dst & 1):
        return None
    prev = {src: -1}
    frontier = [src]
    while frontier:
        if dst in prev:
            break
        nxt = []
        for v in frontier:
            for w in bits(g.adj[v] & allowed):
                if w not in prev:
                    prev[w] = v
                    nxt.append(w)
        frontier = sorted(nxt)
    if dst not in prev:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def oracle_shortest_odd_cycle(g: Graph) -> list[int] | None:
    """BFS from every vertex in the bipartite double cover; the closed
    walk back to (s, 1) holds an odd cycle."""
    best: list[int] | None = None
    for s in range(g.n):
        dist = {(s, 0): 0}
        prev = {(s, 0): None}
        frontier = [(s, 0)]
        while frontier:
            nxt = []
            for v, p in frontier:
                for w in bits(g.adj[v]):
                    key = (w, 1 - p)
                    if key not in dist:
                        dist[key] = dist[(v, p)] + 1
                        prev[key] = (v, p)
                        nxt.append(key)
            frontier = nxt
        if (s, 1) in dist and (best is None or dist[(s, 1)] < len(best)):
            walk = []
            cur = (s, 1)
            while cur is not None:
                walk.append(cur[0])
                cur = prev[cur]
            seen: dict[int, int] = {}
            for i, v in enumerate(walk):
                if v in seen:
                    cyc = walk[seen[v]:i]
                    if len(cyc) % 2 == 1 and len(cyc) >= 3 and len(set(cyc)) == len(cyc):
                        if best is None or len(cyc) < len(best):
                            best = cyc
                        break
                else:
                    seen[v] = i
    return best


# -- the hole/antihole enumeration that the P3 reach test replaced ----------

def oracle_is_weakly_triangulated(g: Graph) -> tuple[str, list[int]] | None:
    for h in enumerate_holes(g, 5, g.n):
        return ("hole", h)
    for h in enumerate_antiholes(g, 5, g.n):
        return ("antihole", h)
    return None


# -- contracting a 2-pair, edge by edge ------------------------------------------

def oracle_contract_pair(g: Graph, a: int, b: int) -> tuple[Graph, list[int]]:
    """Contract nonadjacent a, b into one vertex adjacent to N(a) u N(b):
    the new graph and a map old vertex -> new vertex (a and b share an
    image)."""
    keep = [v for v in range(g.n) if v != b]
    pos = {v: i for i, v in enumerate(keep)}
    h = Graph(g.n - 1)
    for u, v in g.edges():
        uu = pos[a] if u == b else pos[u]
        vv = pos[a] if v == b else pos[v]
        if uu != vv and not h.has_edge(uu, vv):
            h.add_edge_unchecked(uu, vv)
    omap = [pos[a] if v == b else pos[v] for v in range(g.n)]
    return h, omap


# -- the unpruned P3 reach test and the copying 2-pair finder they replaced ----

def oracle_long_hole(g: Graph) -> list[int] | None:
    """One reach per induced P3 a-b-c (a < c), with no precheck."""
    full = g.full_mask()
    for b in range(g.n):
        outside = full & ~g.closed_nb(b)
        for a in bits(g.adj[b]):
            for c in bits(g.adj[b] & ~g.adj[a] & ~((2 << a) - 1)):
                allowed = outside & ~(g.adj[a] & g.adj[c]) | 1 << c
                if not g.reach(1 << a, allowed) >> c & 1:
                    continue
                return [b] + g.path_back(g.layers(1 << a, allowed), c)[::-1]
    return None


def validate_two_pair(g: Graph, a: int, b: int) -> bool:
    """Component criterion: a, b nonadjacent and separated by their
    common neighborhood (equivalent to every a-b path having length 2)."""
    if a == b or g.has_edge(a, b):
        return False
    cut = g.adj[a] & g.adj[b]
    return not (g.reach(1 << a, g.full_mask() & ~cut) >> b & 1)


def _complete_to(g: Graph, tmask: int) -> int:
    out = g.full_mask()
    for v in bits(tmask):
        out &= g.adj[v]
    return out & ~tmask


def oracle_find_two_pair(g: Graph) -> TwoPair | None:
    """The 2-pair finder on subgraph copies: T grows by testing
    anticonnectivity in the complement, and the recursion runs on the
    induced subgraph of C(T) with its indices mapped back."""
    if g.is_clique_mask(g.full_mask()):
        return None
    cl = classify_p3(g)
    if cl.in_class:
        return TwoPair(next(bits(cl.parts[0])), next(bits(cl.parts[1])))
    comp = g.complement()
    t = 1 << cl.witness[1]

    def good(tmask: int) -> bool:
        if comp.reach(tmask & -tmask, tmask) != tmask:
            return False
        return not g.is_clique_mask(_complete_to(g, tmask))

    growing = True
    while growing:
        growing = False
        for v in range(g.n):
            if not t >> v & 1 and good(t | (1 << v)):
                t |= 1 << v
                growing = True
    sub, old = g.induced_mask(_complete_to(g, t))
    inner = oracle_find_two_pair(sub)
    pair = TwoPair(old[inner.a], old[inner.b])
    if not validate_two_pair(g, pair.a, pair.b):
        raise GraphError("2-pair failed validation: input not weakly triangulated")
    return pair


# -- the contraction loop that sought every 2-pair from scratch, on copies -----

def oracle_color_weakly_triangulated(g: Graph) -> list[int]:
    """Contract the 2-pair ``find_two_pair`` gives until a clique is
    left, color the clique, and un-contract."""
    maps = []
    cur = g
    while (pair := find_two_pair(cur)) is not None:
        cur, omap = oracle_contract_pair(cur, pair.a, pair.b)
        maps.append(omap)
    color = list(range(cur.n))
    for omap in reversed(maps):
        color = [color[v] for v in omap]
    return color


# -- the enumeration over all bipartitions that the pruned 2-join search replaced

def oracle_all_proper_nonpath_two_joins(g: Graph) -> list:
    """Every proper non-path 2-join, by trying all 2^(n-1) bipartitions
    with vertex 0 in X1, in ascending order of X1."""
    if g.n > FULL_ENUM_BOUND:
        raise TooLargeError(f"2-join enumeration bound {FULL_ENUM_BOUND} exceeded")
    out = []
    full = g.full_mask()
    for sub in range(1, 1 << (g.n - 1)):
        x1 = (sub << 1) | 1  # vertex 0 stays in x1
        x2 = full & ~x1
        if bit_count(x1) < 3 or bit_count(x2) < 3:
            continue
        s = derive_split(g, x1, x2)
        if s is None:
            continue
        if not is_connected_join(g, s) or not is_substantial_join(g, s):
            continue
        if path_side(g, s) is not None:
            continue
        out.append(s)
    return out


# -- the per-marker gadget swap and the re-derived marker shift that one pass
# -- and the enumeration's own list replaced

def _oracle_swap_in_gadget(g: Graph, path: list[int], kind: str) -> tuple[Graph, list[int], list[int]]:
    """Swap one flat path of g for its claw or vault; returns the new
    graph, the gadget vertex list, and old->new map (path vertices -> -1)."""
    p1, pk = path[0], path[-1]
    a_att = [v for v in bits(g.adj[p1]) if v != path[1]]
    b_att = [v for v in bits(g.adj[pk]) if v != path[-2]]
    keep = [v for v in range(g.n) if v not in path]
    sub, old = g.induced(keep)
    pos = {o: i for i, o in enumerate(old)}
    a2 = [pos[v] for v in a_att]
    b2 = [pos[v] for v in b_att]
    if kind == "claw":
        q = [sub.n + i for i in range(4)]
        blk = sub.add_vertices(4, [a2, [], b2, []])
        blk.add_edge_unchecked(q[0], q[1])
        blk.add_edge_unchecked(q[1], q[2])
        blk.add_edge_unchecked(q[1], q[3])
        gadget = q
    else:
        rr = [sub.n + i for i in range(6)]
        blk = sub.add_vertices(6, [a2, b2, [], [], a2, b2])
        for x, y in ((2, 3), (3, 4), (4, 5), (5, 2)):
            blk.add_edge_unchecked(rr[x], rr[y])
        gadget = rr
    omap = [-1] * g.n
    for o, i in pos.items():
        omap[o] = i
    return blk, gadget, omap


def oracle_gadgetize(g: Graph, markers: list[MarkerInfo]) -> tuple[Graph, list, list[list[int]]]:
    """Swap the marker paths for their gadgets one at a time, renumbering
    the whole graph after each; the same triple as ``_gadgetize``."""
    back: list = list(range(g.n))
    paths = [m.path for m in markers]
    gadgets: list[list[int]] = []
    for i, m in enumerate(markers):
        g, gad, omap = _oracle_swap_in_gadget(g, paths[i], m.kind)
        new_back = [None] * g.n
        for o, nn in enumerate(omap):
            if nn >= 0:
                new_back[nn] = back[o]
        back = new_back
        gadgets = [[omap[v] for v in vs] for vs in gadgets] + [gad]
        paths[i + 1:] = [[omap[v] for v in p] for p in paths[i + 1:]]
    return g, back, gadgets


def _oracle_marker_independent(s: TwoJoinSplit, markers: list[list[int]]) -> bool:
    for p in markers:
        pm = mask_of(p)
        if pm & s.x1 and pm & s.x2:
            return False
    return True


def oracle_find_two_join(g: Graph, markers: list[list[int]] | None = None) -> TwoJoinSplit | None:
    """``find_two_join`` with the marker-shifted split re-derived from its
    cross neighbourhoods and re-tested for properness."""
    joins = all_proper_nonpath_two_joins(g)
    if not joins:
        return None
    s = min((t for j in joins for t in (j, j.flip())), key=lambda t: (bit_count(t.x1), t.x1))
    if not markers:
        return s
    a_shift = any(mask_of(p) & s.a1 and mask_of(p) & s.a2 for p in markers)
    b_shift = any(mask_of(p) & s.b1 and mask_of(p) & s.b2 for p in markers)
    x1 = s.x1 | (s.a2 if a_shift else 0) | (s.b2 if b_shift else 0)
    shifted = derive_split(g, x1, g.full_mask() & ~x1)
    if (shifted is not None and is_substantial_join(g, shifted) and path_side(g, shifted) is None
            and is_connected_join(g, shifted) and _oracle_marker_independent(shifted, markers)):
        return shifted
    cands = []
    for j in joins:
        for cand in (j, j.flip()):
            if _oracle_marker_independent(cand, markers):
                cands.append((bit_count(cand.x1), cand.x1, cand))
    if not cands:
        raise OutsideClassError("no marker-independent proper non-path 2-join")
    cands.sort(key=lambda t: (t[0], t[1]))
    return cands[0][2]


# -- the Bron-Kerbosch root finder that the per-edge cliques replaced ----------

def oracle_line_root_with_map(g: Graph) -> tuple[Graph, list[tuple[int, int]]] | None:
    """The triangle-free root of g from all its maximal cliques, or None:
    no vertex may lie in three cliques and no two cliques may share an
    edge, then every vertex pair is checked against the root."""
    if g.n == 0:
        return Graph(0), []
    cliques = maximal_cliques(g)
    membership: list[list[int]] = [[] for _ in range(g.n)]
    for ci, c in enumerate(cliques):
        for v in bits(c):
            membership[v].append(ci)
    if any(len(ms) > 2 for ms in membership):
        return None
    for c, d in itertools.combinations(cliques, 2):
        if bit_count(c & d) > 1:
            return None
    nr = len(cliques)
    ends: list[tuple[int, int]] = []
    for ms in membership:
        if len(ms) == 2:
            ends.append((ms[0], ms[1]))
        else:
            ends.append((ms[0], nr))
            nr += 1
    root = Graph(nr)
    for a, b in ends:
        if a == b or root.has_edge(a, b):
            return None
        root.add_edge_unchecked(a, b)
    if root.triangle() is not None:
        return None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if bool(set(ends[u]) & set(ends[v])) != g.has_edge(u, v):
                return None
    return root, ends


# -- the leaf chain that recomputed degrees and flat paths per test ------------

def _oracle_flat_paths(g: Graph) -> list[list[int]]:
    return _flat_paths_of(g, mask_of(v for v in range(g.n) if g.degree(v) == 2))


def _oracle_is_double_split(g: Graph) -> bool:
    """The degree signature read per m, A u B and C u D checked on their
    induced subgraphs."""
    n_all = g.n
    for m in range(2, n_all // 2 + 1):
        n = (n_all - 2 * m) // 2
        if 2 * m + 2 * n != n_all or n < 2:
            continue
        dab, dcd = n + 1, 2 * n + m - 2
        ab = mask_of(v for v in range(n_all) if g.degree(v) == dab)
        cd = mask_of(v for v in range(n_all) if g.degree(v) == dcd)
        if dab == dcd:
            continue
        if bit_count(ab) != 2 * m or bit_count(cd) != 2 * n or ab & cd:
            continue
        sub_ab, _ = g.induced_mask(ab)
        if not all(sub_ab.degree(i) == 1 for i in range(sub_ab.n)):
            continue
        sub_cd, _ = g.induced_mask(cd)
        if not all(sub_cd.degree(i) == sub_cd.n - 2 for i in range(sub_cd.n)):
            continue
        ab_pairs = [(v, u) for v in bits(ab) for u in bits(g.adj[v] & ab) if u > v]
        cd_pairs = [(v, u) for v in bits(cd) for u in bits(cd & ~g.adj[v] & ~(1 << v)) if u > v]
        crossing = ([True, False, False, True], [False, True, True, False])
        if all([g.has_edge(aa, cc), g.has_edge(aa, dd), g.has_edge(bb, cc), g.has_edge(bb, dd)]
               in crossing for aa, bb in ab_pairs for cc, dd in cd_pairs):
            return True
    return False


def _oracle_is_path_cobipartite(g: Graph) -> bool:
    """The rest's two-clique covers from its induced subgraph's
    complement."""
    paths = _oracle_flat_paths(g)
    p = 0
    for path in paths:
        p |= mask_of(path[1:-1])
    rest = g.full_mask() & ~p
    if rest == 0:
        return False
    sub, old = g.induced_mask(rest)
    comp = sub.complement()
    parts = comp.bipartition()
    if parts is None:
        return False
    comps = comp.components()
    for flip in range(1 << len(comps)):
        a = 0
        for i, cm in enumerate(comps):
            a |= (parts[flip >> i & 1]) & cm
        amask = mask_of(old[i] for i in bits(a))
        bmask = mask_of(old[i] for i in bits(sub.full_mask() & ~a))
        if _check_path_cobip(g, paths, amask, bmask, p):
            return is_berge(g)
    return False


def _oracle_is_path_double_split(g: Graph) -> bool:
    if not _oracle_flat_paths(g):
        return _oracle_is_double_split(g)
    h = g
    while True:
        cand = next((path for path in _oracle_flat_paths(h)
                     if len(path) >= 3 and (len(path) - 1) % 2 == 1), None)
        if cand is None:
            return _oracle_is_double_split(h)
        sub, old = h.induced([v for v in range(h.n) if v not in cand[1:-1]])
        pos = {o: i for i, o in enumerate(old)}
        if not sub.has_edge(pos[cand[0]], pos[cand[-1]]):
            sub.add_edge_unchecked(pos[cand[0]], pos[cand[-1]])
        h = sub


def oracle_classify_leaf(g: Graph) -> LeafInfo | None:
    """The leaf kinds tried in the same order, each test computing what
    it needs from scratch."""
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
    for kind, test, x in (("double-split", _oracle_is_double_split, g),
                          ("path-cobipartite", _oracle_is_path_cobipartite, g),
                          ("complement-path-cobipartite", _oracle_is_path_cobipartite, comp),
                          ("path-double-split", _oracle_is_path_double_split, g),
                          ("complement-path-double-split", _oracle_is_path_double_split, comp)):
        if test(x):
            return LeafInfo(kind)
    return None


def triangle_chain(k: int) -> Graph:
    """k triangles in a chain, triangle i on 2i, 2i + 1 and 2i + 2."""
    return Graph(2 * k + 1, [(2 * i + a, 2 * i + b) for i in range(k) for a, b in ((0, 1), (1, 2), (0, 2))])


def five_cycle_chain(k: int) -> Graph:
    """k 5-cycles in a chain, cycle i on 4i, ..., 4i + 4 in order."""
    return Graph(4 * k + 1, [(4 * i + a, 4 * i + (a + 1) % 5) for i in range(k) for a in range(5)])


def edge_flips(g: Graph):
    """g with the adjacency of one pair of vertices flipped, each pair once."""
    for u, v in itertools.combinations(range(g.n), 2):
        h = Graph(g.n)
        h.adj = list(g.adj)
        h.adj[u] ^= 1 << v
        h.adj[v] ^= 1 << u
        yield h


def all_labelled_graphs(max_n: int):
    """Every labelled graph on 0 to ``max_n`` vertices."""
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            yield Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])


# -- the cuts of the decomposition steps, by their definitions over every split

def _splits(rest: int):
    """Every split of the vertex set ``rest`` into two nonempty sets
    (X, Y), each unordered pair once: X holds the lowest vertex."""
    low = rest & -rest
    others = rest & ~low
    sub = others
    while sub:
        sub = (sub - 1) & others
        yield low | sub, others & ~sub


def _neighbourhoods(g: Graph) -> list[int]:
    """N(S), as a bitset, for every vertex set S."""
    nb = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        low = s & -s
        nb[s] = nb[s ^ low] | g.adj[low.bit_length() - 1]
    return nb


def _spread(nb: list[int], start: int, allowed: int) -> int:
    """The vertices of ``allowed`` that ``start`` reaches inside it."""
    seen = start
    while (grown := seen | nb[seen] & allowed) != seen:
        seen = grown
    return seen


def _connected(nb: list[int], s: int) -> bool:
    return _spread(nb, s & -s, s) == s


def _nonadjacent_pairs(g: Graph):
    return [(a, b) for a, b in itertools.combinations(range(g.n), 2) if not g.adj[a] >> b & 1]


def oracle_has_one_cutset(g: Graph) -> bool:
    """A vertex v of a connected graph and a split of V - v into X, Y
    with no edge between them."""
    nb = _neighbourhoods(g)
    full = g.full_mask()
    return _connected(nb, full) and any(
        not nb[x] & y for v in range(g.n) for x, y in _splits(full & ~(1 << v))
    )


def _component_count(nb: list[int], s: int) -> int:
    count = 0
    while s:
        s &= ~_spread(nb, s & -s, s)
        count += 1
    return count


@functools.lru_cache(maxsize=None)
def _largest_first(n: int) -> list[int]:
    return sorted(range(1, 1 << n), key=bit_count, reverse=True)


def oracle_blocks(g: Graph) -> tuple[set[int], int]:
    """(blocks, cut vertices) by their definitions, over every vertex set:
    the blocks are the maximal sets that induce a connected graph with no
    cut vertex of its own; the cut vertices are those whose deletion adds
    a component."""
    nb = _neighbourhoods(g)
    conn = [_connected(nb, s) for s in range(1 << g.n)]
    blocks: list[int] = []
    for s in _largest_first(g.n):
        if conn[s] and not any(s & ~b == 0 for b in blocks) \
                and all(conn[s & ~(1 << v)] for v in bits(s)):
            blocks.append(s)
    full = g.full_mask()
    base = _component_count(nb, full)
    cuts = mask_of(v for v in range(g.n) if _component_count(nb, full & ~(1 << v)) > base)
    return set(blocks), cuts


def oracle_has_special_2_cutset(g: Graph) -> bool:
    """Nonadjacent a, b of degree at least 3 in a connected graph and a
    split of V - {a, b} into X, Y of at least two vertices each, with no
    edge between them and an a-b path through each of them."""
    nb = _neighbourhoods(g)
    full = g.full_mask()
    if not _connected(nb, full):
        return False
    for a, b in _nonadjacent_pairs(g):
        if bit_count(g.adj[a]) < 3 or bit_count(g.adj[b]) < 3:
            continue
        ends = (1 << a) | (1 << b)
        for x, y in _splits(full & ~ends):
            if bit_count(x) >= 2 and bit_count(y) >= 2 and not nb[x] & y and all(
                _spread(nb, 1 << a, side | ends) >> b & 1 for side in (x, y)
            ):
                return True
    return False


def oracle_has_proper_1_join(g: Graph) -> bool:
    """A split of V into X, Y and stable sets A in X, B in Y of at least
    two vertices each, with A complete to B and no other edge between X
    and Y.  A and B can only be the ends of the X-Y edges, so each split
    has one candidate: it is a 1-join iff the X-Y edges number |A||B|."""
    for x, y in _splits(g.full_mask()):
        a = b = cross = 0
        for v in bits(x):
            if g.adj[v] & y:
                a |= 1 << v
                b |= g.adj[v] & y
                cross += bit_count(g.adj[v] & y)
        if bit_count(a) >= 2 and bit_count(b) >= 2 and cross == bit_count(a) * bit_count(b) \
                and not any(g.adj[v] & a for v in bits(a)) and not any(g.adj[v] & b for v in bits(b)):
            return True
    return False


def cut_witness_holds(g: Graph, w) -> bool:
    """A cut finder's witness checked pair by pair: X, Y and the cut
    vertices partition V; no edge joins X and Y, or for a proper 1-join
    exactly the edges between its stable sets A and B of two or more
    vertices do; a cutset's graph is connected and meets its kind's
    conditions."""
    cut = mask_of(w.vertices)
    if not (w.x and w.y) or len(set(w.vertices)) != len(w.vertices) \
            or w.x & w.y or (w.x | w.y) & cut or w.x | w.y | cut != g.full_mask():
        return False
    cross = {(u, v) for u in bits(w.x) for v in bits(w.y) if g.has_edge(u, v)}
    if w.kind == "proper_1_join":
        a, b = w.a_side, w.b_side
        return (w.vertices == () and a & ~w.x == 0 and b & ~w.y == 0
                and bit_count(a) >= 2 and bit_count(b) >= 2
                and not any(g.has_edge(u, v) for s in (a, b) for u in bits(s) for v in bits(s))
                and cross == {(u, v) for u in bits(a) for v in bits(b)})
    nb = _neighbourhoods(g)
    if cross or w.a_side or w.b_side or not _connected(nb, g.full_mask()):
        return False
    if len(w.vertices) != 2 or g.has_edge(*w.vertices):
        return False
    a, b = w.vertices
    if w.kind == "special_2_cutset":
        return (g.degree(a) >= 3 and g.degree(b) >= 3
                and bit_count(w.x) >= 2 and bit_count(w.y) >= 2
                and all(_spread(nb, 1 << a, side | cut) >> b & 1 for side in (w.x, w.y)))
    return False


# -- k-in-a-tree figures ------------------------------------------------------

def cube_graph() -> Graph:
    g = Graph(8)
    for a in range(8):
        for b in range(a + 1, 8):
            if bin(a ^ b).count("1") == 1:
                g.add_edge_unchecked(a, b)
    return g


def smallest_square_structure() -> Graph:
    return Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (5, 1), (6, 2), (7, 3)])


def k4_structure_figure() -> Graph:
    # hubs 0..3, cycle vertices s_ij 4..9, terminals 10..15, unit paths
    edges = [(0, 4), (0, 5), (0, 6), (1, 4), (1, 7), (1, 8), (2, 5), (2, 7), (2, 9),
             (3, 6), (3, 8), (3, 9)]
    edges += [(10, 4), (11, 5), (12, 6), (13, 7), (14, 8), (15, 9)]
    return Graph(16, edges)


def seven_structure_figure() -> Graph:
    g = Graph(21)
    for i in range(7):
        g.add_edge_unchecked(i, (i + 1) % 7)
        g.add_edge_unchecked(7 + i, i)
        g.add_edge_unchecked(14 + i, 7 + i)
    return g


# -- the k = 4 certificates and split search as they were written before
# -- the rule table: each adjacency rule spelt out per pair of classes

def oracle_validate_square_split(g: Graph, universe: int, terms: list[int], sp: SquareSplit) -> bool:
    parts = list(sp.a) + list(sp.s) + [sp.r]
    tot = 0
    for p in parts:
        if p & tot:
            return False
        tot |= p
    if tot != universe:
        return False
    sall = sp.s[0] | sp.s[1] | sp.s[2] | sp.s[3]
    for i in range(4):
        if not (sp.a[i] >> terms[i] & 1):
            return False
        if sp.s[i] == 0 or not g.is_stable_mask(sp.s[i]):
            return False
        if not g.is_complete_between(sp.s[i], sp.s[(i + 1) % 4]):
            return False
    for i in range(2):
        if not g.is_anticomplete_between(sp.s[i], sp.s[i + 2]):
            return False
    for i in range(4):
        nb = 0
        for v in bits(sp.a[i]):
            nb |= g.adj[v]
        if nb & universe & ~(sp.a[i] | sp.s[i]):
            return False
        if sp.s[i] & ~nb:
            return False  # N(A_i) must be all of S_i
        if len(g.components_of(sp.a[i])) != 1:
            return False
    for v in bits(sp.r):
        if g.adj[v] & universe & ~(sp.r | sall):
            return False
    return True


def oracle_validate_cubic_split(g: Graph, universe: int, terms: list[int], sp: CubicSplit) -> bool:
    parts = list(sp.a) + list(sp.b) + list(sp.s) + [sp.r]
    tot = 0
    for p in parts:
        if p & tot:
            return False
        tot |= p
    if tot != universe:
        return False
    s_hi = sp.s[4] | sp.s[5] | sp.s[6] | sp.s[7]
    if sum(1 for i in range(4, 8) if sp.s[i] == 0) > 1:
        return False
    for i in range(8):
        if not g.is_stable_mask(sp.s[i]):
            return False
    for i in range(4):
        if sp.s[i] == 0 or not (sp.a[i] >> terms[i] & 1):
            return False
        if not g.is_complete_between(sp.s[i], s_hi & ~sp.s[i + 4]):
            return False
        if not g.is_anticomplete_between(sp.s[i], sp.s[i + 4]):
            return False
    for i in range(4):
        for j in range(i + 1, 4):
            if not g.is_anticomplete_between(sp.s[i], sp.s[j]):
                return False
            if not g.is_anticomplete_between(sp.s[i + 4], sp.s[j + 4]):
                return False
    for i in range(4):
        nb = 0
        for v in bits(sp.a[i]):
            nb |= g.adj[v]
        if nb & universe & ~(sp.a[i] | sp.s[i]):
            return False
        if sp.s[i] & ~nb:
            return False
        if len(g.components_of(sp.a[i])) != 1:
            return False
        allowed_b = sp.b[i] | sp.s[i] | (s_hi & ~sp.s[i + 4])
        for v in bits(sp.b[i]):
            if g.adj[v] & universe & ~allowed_b:
                return False
    for v in bits(sp.r):
        if g.adj[v] & universe & ~(sp.r | s_hi):
            return False
    return True


def oracle_validate_k4(g: Graph, w: K4Witness, check_decomposes: bool = True) -> bool:
    """``kintree.validate_k4`` with every pair of used vertices tested by
    ``has_edge``."""
    hubs = w.hubs
    parts: dict[str, list[int]] = dict(w.paths)
    used: set[int] = set(hubs.values())
    if len(used) != 4:
        return False
    for ij in K4Witness.PAIRS:
        p = parts[ij]
        if len(p) < 2 or not oracle_is_induced_path(g, p):
            return False
        if used & set(p):
            return False
        used.update(p)
    required = set()
    for ij in K4Witness.PAIRS:
        s_ij = parts[ij][-1]
        for h in ij:
            required.add(tuple(sorted((hubs[h], s_ij))))
    pathof: dict[int, str] = {}
    for ij in K4Witness.PAIRS:
        for v in parts[ij]:
            pathof[v] = ij
    all_vs = sorted(used)
    for a in all_vs:
        for b in all_vs:
            if b <= a:
                continue
            pa, pb = pathof.get(a), pathof.get(b)
            if pa is not None and pa == pb:
                p = parts[pa]
                expect = abs(p.index(a) - p.index(b)) == 1
            else:
                expect = tuple(sorted((a, b))) in required
            if g.has_edge(a, b) != expect:
                return False
    if check_decomposes:
        xs = {ij: parts[ij][0] for ij in K4Witness.PAIRS}
        others = mask_of(xs.values())
        for ij in K4Witness.PAIRS:
            cut1 = (1 << hubs[ij[0]]) | (1 << hubs[ij[1]])
            comp = g.reach(1 << xs[ij], g.full_mask() & ~cut1)
            if comp & others & ~(1 << xs[ij]):
                return False
            cut2 = 1 << parts[ij][-1]
            comp = g.reach(1 << xs[ij], g.full_mask() & ~cut2)
            if comp & others & ~(1 << xs[ij]):
                return False
    return True


ORACLE_SQUARE_LABELS = ["A1", "A2", "A3", "A4", "S1", "S2", "S3", "S4", "R"]
ORACLE_CUBIC_LABELS = ["A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4"] + [f"S{i}" for i in range(1, 9)] + ["R"]


def oracle_pair_rule(l1: str, l2: str, which: str) -> str:
    """'free', 'forbid' or 'require': may two classes, by label, touch,
    and must they be complete?"""
    if l1 > l2:
        l1, l2 = l2, l1
    c1, i1 = l1[0], int(l1[1:] or 0)
    c2, i2 = l2[0], int(l2[1:] or 0)
    if which == "square":
        if c1 == "A" and c2 == "A":
            return "free" if i1 == i2 else "forbid"
        if c1 == "A" and c2 == "S":
            return "free" if i1 == i2 else "forbid"
        if c1 == "A" and c2 == "R":
            return "forbid"
        if c1 == "S" and c2 == "S":
            if i1 == i2:
                return "forbid"
            return "require" if (i2 - i1) % 4 in (1, 3) else "forbid"
        if c1 == "R" and c2 == "S":
            return "free"
        return "free"  # R,R
    # cubic
    if c1 == "A":
        if c2 == "A":
            return "free" if i1 == i2 else "forbid"
        if c2 == "B":
            return "forbid"
        if c2 == "S":
            return "free" if i1 == i2 else "forbid"
        return "forbid"  # A,R
    if c1 == "B":
        if c2 == "B":
            return "free" if i1 == i2 else "forbid"
        if c2 == "S":
            if i2 == i1:
                return "free"
            if i2 == i1 + 4:
                return "forbid"
            return "free" if i2 >= 5 else "forbid"
        return "forbid"  # B,R
    if c1 == "S" and c2 == "S":
        if i1 == i2:
            return "forbid"
        if i2 <= 4:
            return "forbid"
        if i1 <= 4:
            return "forbid" if i2 == i1 + 4 else "require"
        return "forbid"  # both high
    if c1 == "R" and c2 == "S":
        return "free" if i2 >= 5 else "forbid"
    return "free"  # R,R


def oracle_split_of(parts: dict[str, int]) -> SquareSplit | CubicSplit:
    """The split whose classes, by label, are ``parts``."""
    if "B1" not in parts:
        return SquareSplit(tuple(parts[f"A{i}"] for i in range(1, 5)),
                           tuple(parts[f"S{i}"] for i in range(1, 5)), parts["R"])
    return CubicSplit(tuple(parts[f"A{i}"] for i in range(1, 5)),
                      tuple(parts[f"B{i}"] for i in range(1, 5)),
                      tuple(parts[f"S{i}"] for i in range(1, 9)), parts["R"])


def oracle_csp_split(g: Graph, universe: int, terms: list[int], which: str):
    """``kintree._csp_split`` with each placement checked label by label
    against every placed vertex through ``oracle_pair_rule``, and each
    complete assignment through the oracle validators.  The split, or
    None."""
    verts = [v for v in bits(universe) if v not in terms]
    labels = ORACLE_SQUARE_LABELS if which == "square" else ORACLE_CUBIC_LABELS
    validator = oracle_validate_square_split if which == "square" else oracle_validate_cubic_split

    def search(order_terms):
        assign: dict[int, str] = {t: f"A{i+1}" for i, t in enumerate(order_terms)}

        def ok(lab: str, v: int) -> bool:
            for u, l2 in assign.items():
                rule = oracle_pair_rule(lab, l2, which)
                edge = g.has_edge(v, u)
                if rule == "forbid" and edge:
                    return False
                if rule == "require" and not edge:
                    return False
            return True

        def rec(i: int):
            if i == len(verts):
                parts = {lab: 0 for lab in labels}
                for v, lab in assign.items():
                    parts[lab] |= 1 << v
                cand = oracle_split_of(parts)
                return cand if validator(g, universe, list(order_terms), cand) else None
            v = verts[i]
            for lab in labels:
                if ok(lab, v):
                    assign[v] = lab
                    got = rec(i + 1)
                    if got is not None:
                        return got
                    del assign[v]
            return None

        return rec(0)

    for order_terms in itertools.permutations(terms):
        got = search(order_terms)
        if got is not None:
            return got
    return None


# -- the induced-path searches each on a route of its own, as they stood before
# ``Graph.induced_paths``: differential oracles for their answers

@functools.lru_cache(maxsize=64)
def _induced_sequences(g: Graph, src: int, allowed: int) -> list[list[int]]:
    """Every induced path from src whose later vertices lie in
    ``allowed``, sorted: each ordering of each subset, tested whole."""
    others = [v for v in bits(allowed) if v != src]
    return sorted([src, *rest] for k in range(len(others) + 1)
                  for rest in itertools.permutations(others, k)
                  if oracle_is_induced_path(g, [src, *rest]))


def oracle_induced_paths(g: Graph, src: int, ends: int, allowed: int, through: int = 0,
                         keep=None) -> list[list[int]]:
    """``Graph.induced_paths`` by its definition, with no prune: the
    induced paths from src inside ``allowed`` whose last vertex is their
    only one in ``ends``, which hold ``through`` and whose every prefix of
    two vertices or more ``keep`` accepts, in lexicographic order."""
    return [p for p in _induced_sequences(g, src, allowed)
            if ends >> p[-1] & 1 and not any(ends >> v & 1 for v in p[:-1])
            and not through & ~mask_of(p)
            and (keep is None or all(keep(mask_of(p[:i])) for i in range(2, len(p) + 1)))]


def criterion_10_gadgets() -> list:
    """The gamma gadgets of acceptance criterion 10, in its order: the 92
    3-CNFs of one to three distinct clauses on variables 1-3, the 50
    seeded random ones, then all eight clauses (unsatisfiable)."""
    from inducta.bienstock import Cnf3, gamma_gadget

    full = [(s1, 2 * s2, 3 * s3) for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    formulas = [Cnf3.make(3, list(c)) for r in (1, 2, 3) for c in itertools.combinations(full, r)]
    rng = random.Random(1010)
    for _ in range(50):
        n = rng.choice([3, 4])
        m = rng.randint(1, 4)
        clauses = set()
        while len(clauses) < m:
            clauses.add(tuple(v * rng.choice([1, -1]) for v in rng.sample(range(1, n + 1), 3)))
        formulas.append(Cnf3.make(n, sorted(clauses)))
    return [gamma_gadget(f) for f in formulas + [Cnf3.make(3, full)]]


def oracle_hole_through_two(g: Graph, x: int, y: int) -> list[int] | None:
    """One DFS over induced paths from y that copies its path and runs a
    reach through the free region at every step."""
    adj = g.adj
    full = g.full_mask()
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
            return path + [w]
        if closes and np_len > 2:
            continue
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
            continue
        stack.append((path + [w], nu, nb, bits(adj[w] & ~nu & ~nb)))
    return None


def oracle_side_parity(g: Graph, s: TwoJoinSplit, side: str) -> str:
    """A recursive DFS from each a in A toward each b in B, with no
    reach prune, capped at ``PARITY_BUDGET`` calls."""
    x, a, b = (s.x1, s.a1, s.b1) if side == "x1" else (s.x2, s.a2, s.b2)
    c = x & ~a & ~b
    seen: set[int] = set()
    budget = [berge.PARITY_BUDGET]

    def dfs(v: int, length: int, used: int, banned: int, bv: int):
        if budget[0] <= 0 or len(seen) == 2:
            return
        budget[0] -= 1
        if g.adj[v] >> bv & 1:
            seen.add((length + 1) % 2)
            return
        for w in bits(g.adj[v] & c & ~used & ~banned):
            dfs(w, length + 1, used | (1 << w), banned | g.adj[v], bv)

    for av in bits(a):
        for bv in bits(b):
            dfs(av, 0, 1 << av, 0, bv)
    if budget[0] <= 0 and len(seen) < 2:
        raise TooLargeError("parity enumeration budget exhausted")
    if seen == {0}:
        return "even"
    if seen == {1}:
        return "odd"
    if len(seen) == 2:
        return "mixed"
    raise GraphError("2-join side has no A-to-B path through C: not connected")


def oracle_find_realization(b, g: Graph, max_len: int | None = None):
    """The realization search with its paths grown by a recursion of its
    own, which re-checks every pending edge after every step."""
    from inducta.sgraph import Embedding, _validate_embedding

    if max_len is None:
        max_len = g.n
    inc = [0] * b.n
    for u, v in b.real_edges | b.sub_edges:
        inc[u] += 1
        inc[v] += 1
    real_adj = [set() for _ in range(b.n)]
    for u, v in b.real_edges:
        real_adj[u].add(v)
        real_adj[v].add(u)
    order = sorted(range(b.n), key=lambda v: (-len(real_adj[v]), -inc[v]))
    branch: dict[int, int] = {}
    paths: dict[tuple[int, int], list[int]] = {}
    used = 0
    full = g.full_mask()

    def images_ok(v: int, x: int) -> bool:
        for u, xu in branch.items():
            pair = tuple(sorted((u, v)))
            if pair in b.real_edges:
                if not g.has_edge(x, xu):
                    return False
            elif pair not in b.sub_edges and g.has_edge(x, xu):
                return False
        return True

    def linkable(src: int, dst: int) -> bool:
        if g.has_edge(src, dst):
            return True
        free = full & ~used
        for w in bits(used & ~(1 << dst) & ~(1 << src)):
            free &= ~g.adj[w]
        return bool(g.reach(g.adj[src] & free, free) & g.adj[dst])

    def first_steps(e2):
        s2, d2 = branch[e2[0]], branch[e2[1]]
        if g.has_edge(s2, d2):
            return 0
        blocked = used & ~(1 << d2) & ~(1 << s2)
        return sum(1 for w in bits(g.adj[s2] & ~used) if not (g.adj[w] & blocked))

    def route(pending: tuple):
        nonlocal used
        if not pending:
            emb = Embedding(dict(branch), dict(paths))
            return emb if _validate_embedding(b, g, emb) else None
        if not all(linkable(branch[e2[0]], branch[e2[1]]) for e2 in pending):
            return None
        e = min(pending, key=first_steps)
        rest = tuple(e2 for e2 in pending if e2 != e)
        src, dst = branch[e[0]], branch[e[1]]
        if g.has_edge(src, dst):
            paths[e] = [src, dst]
            got = route(rest)
            if not got:
                del paths[e]
            return got

        def grow(prev: int, trail: list[int]):
            nonlocal used
            if len(trail) - 1 > max_len:
                return None
            for w in bits(g.adj[prev] & ~used):
                if g.adj[w] & used & ~(1 << prev) & ~(1 << dst):
                    continue
                closes = g.has_edge(w, dst)
                used |= 1 << w
                trail.append(w)
                if all(linkable(branch[e2[0]], branch[e2[1]]) for e2 in rest):
                    if closes and len(trail) <= max_len:
                        paths[e] = trail + [dst]
                        got = route(rest)
                        if got:
                            return got
                        del paths[e]
                    if not closes and linkable(w, dst):
                        got = grow(w, trail)
                        if got:
                            return got
                trail.pop()
                used &= ~(1 << w)
            return None

        return grow(src, [src]) if linkable(src, dst) else None

    def place(i: int):
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


def oracle_enumerate_holes(g: Graph, min_len: int = 4, max_len: int | None = None,
                           parity: str = "any") -> list[list[int]]:
    """``oracle.enumerate_holes`` as one LIFO stack of copied paths per
    smallest vertex s, with no reach prune, in the order it emitted them."""
    max_len = g.n if max_len is None else min(max_len, g.n)
    out = []
    for s in range(g.n):
        stack = [(s, [s], 1 << s)]
        while stack:
            v, path, used = stack.pop()
            for w in bits(g.adj[v]):
                if w <= s or used >> w & 1 or g.adj[w] & used & ~(1 << v) & ~(1 << s):
                    continue
                closes = g.has_edge(w, s)
                new_path = path + [w]
                k = len(new_path)
                if (closes and max(4, min_len) <= k <= max_len and new_path[1] < new_path[-1]
                        and (parity == "any" or k % 2 == (parity == "odd"))):
                    out.append(new_path)
                if k < max_len and (k == 2 or not closes):
                    stack.append((w, new_path, used | (1 << w)))
    return out


def oracle_chord_cycle(g: Graph, search) -> tuple[list[int], tuple[int, int]] | None:
    """``decompose._chord_cycle`` over the whole graph: ``search`` runs on
    g - uv itself for each edge uv, in ``g.edges()`` order."""
    for u, v in g.edges():
        if bit_count(g.adj[u]) <= 2 or bit_count(g.adj[v]) <= 2:
            continue
        h = Graph(g.n)
        h.adj = list(g.adj)
        h.adj[u] &= ~(1 << v)
        h.adj[v] &= ~(1 << u)
        cycle = search(h, u, v)
        if cycle is not None:
            return cycle, (u, v)
    return None
