"""Seeded instance generators for the four benchmark workloads.

Every generator takes a ``random.Random`` built from the benchmark seed
and returns ``Instance`` records whose graphs travel as text in the
library's own graph format; the timed code only ever sees what
``parse_graph`` makes of that text.  The side constructions mirror the
test suite's generators (``tests/helpers.py``) but live here so that a
change to the tests never changes the benchmark's inputs.

Instance lists are stratified: each family contributes a fixed number
of instances per pass with sizes spread evenly over its range, and the
seed draws the graphs of each size, their labels and their weights, so
two seeds give passes of the same shape.  A few families are fixed and
only ordered by the seed (see ``fixed_pool`` and the pinned instances).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from inducta import bienstock as _bienstock
from inducta import named as _named
from inducta.graphs import Graph, WeightedGraph, bits, format_graph, mask_of

WORKLOADS = ("berge-color", "berge-alpha", "structure", "cli")


@dataclass
class Instance:
    family: str
    text: str                                   # graph in the library's text format
    params: dict = field(default_factory=dict)  # terminals, x/y, cli argv, ...
    expect: dict = field(default_factory=dict)  # facts known by construction


def _count(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _weighted_text(g: Graph, weights: list[int]) -> str:
    return format_graph(WeightedGraph(g, weights))


# -- 2-join sides (after tests/helpers.py) ---------------------------------

def prism_side():
    """L(K_{2,3}) with the two triangles as the special sets."""
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    return g, mask_of([0, 1, 2]), mask_of([3, 4, 5])


def hub_side_even(middles: int):
    """K_{2,m}: hubs joined by m length-2 paths."""
    g = Graph(2 + middles)
    for i in range(middles):
        g.add_edge_unchecked(0, 2 + i)
        g.add_edge_unchecked(2 + i, 1)
    return g, 1 << 0, 1 << 1


def ladder_side_odd():
    """Two length-3 a-b paths plus one rung."""
    g = Graph(6, [(0, 2), (0, 4), (2, 3), (4, 5), (2, 5), (3, 1), (5, 1)])
    return g, 1 << 0, 1 << 1


def line_side_even(lengths: tuple[int, ...]):
    """Line graph of odd parallel root paths; the stars of the two root
    branch vertices are the special cliques."""
    edges = []
    star_u, star_v = [], []
    nxt = 2
    for le in lengths:
        prev = 0
        for _ in range(le - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
        star_u.append(len(edges) - le)
        star_v.append(len(edges) - 1)
    lg = Graph(len(edges))
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if a in (c, d) or b in (c, d):
                lg.add_edge_unchecked(i, j)
    return lg, mask_of(star_u), mask_of(star_v)


def glue(side1, side2) -> Graph:
    """Join A1 x A2 and B1 x B2 completely."""
    g1, a1, b1 = side1
    g2, a2, b2 = side2
    g = g1.union_disjoint(g2)
    for u in bits(a1):
        for v in bits(a2):
            g.add_edge_unchecked(u, g1.n + v)
    for u in bits(b1):
        for v in bits(b2):
            g.add_edge_unchecked(u, g1.n + v)
    return g


# The 2-join class members: a hub-shaped bipartite side against an even
# line-graph side, or the odd ladder against the prism.  Neither gluing is
# basic, so the pipeline must decompose along the join.
MEMBER_RECIPES = {
    "ladder+prism": lambda: (ladder_side_odd(), prism_side()),          # n = 12
    "hub3+line33": lambda: (hub_side_even(3), line_side_even((3, 3))),  # n = 11
    "hub4+line33": lambda: (hub_side_even(4), line_side_even((3, 3))),  # n = 12
    "hub3+line35": lambda: (hub_side_even(3), line_side_even((3, 5))),  # n = 13
    "hub4+line35": lambda: (hub_side_even(4), line_side_even((3, 5))),  # n = 14
    # glued members past FULL_ENUM_BOUND = 16: refused today
    "hub5+line55": lambda: (hub_side_even(5), line_side_even((5, 5))),  # n = 17
    "hub6+line57": lambda: (hub_side_even(6), line_side_even((5, 7))),  # n = 20
}


def member(recipe: str, rng: random.Random) -> Graph:
    s1, s2 = MEMBER_RECIPES[recipe]()
    if rng.random() < 0.5:
        s1, s2 = s2, s1
    return relabel(glue(s1, s2), rng)


# -- berge-color ---------------------------------------------------------------

# (recipe, instances per pass).  color_berge on the 11-vertex hub/line
# member costs 0.4-0.6 s whatever the labels; the odd ladder+prism member
# costs either 0.37 or 0.72 s depending on its labels, which would make
# p90 a coin flip, so it is measured in berge-alpha only.  Hub/line
# members with n = 12-14 take 2-10 s each today and are left to the sweep.
# The two glued n > 16 members keep the refusal cap visible.
BERGE_COLOR_MIX = [("hub3+line33", 32), ("hub5+line55", 1), ("hub6+line57", 1)]


def gen_berge_color(rng: random.Random, scale: float = 1.0) -> list[Instance]:
    out = []
    for recipe, count in BERGE_COLOR_MIX:
        for _ in range(_count(count, scale)):
            g = member(recipe, rng)
            out.append(Instance("color_berge/" + recipe, format_graph(g)))
    return interleave(out, rng)


# -- berge-alpha -----------------------------------------------------------------

def bipartite_leaf(n: int, rng: random.Random) -> Graph:
    left = n // 2
    g = Graph(n)
    for u in range(left):
        for v in range(left, n):
            if rng.random() < 3.0 / left:
                g.add_edge_unchecked(u, v)
    return relabel(g, rng)


def line_of_bipartite_leaf(root_n: int, m: int, rng: random.Random) -> Graph:
    """Line graph of a random bipartite root with m edges."""
    left = root_n // 2
    pairs = [(u, v) for u in range(left) for v in range(left, root_n)]
    chosen = rng.sample(pairs, m)
    return relabel(_line_graph(chosen), rng)


def _line_graph(edges: list[tuple[int, int]]) -> Graph:
    lg = Graph(len(edges))
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            if {a, b} & set(edges[j]):
                lg.add_edge_unchecked(i, j)
    return lg


# (family, instances per pass, builder).  Members and their complements
# run the structure search; the leaves run the leaf solvers; the glued
# n > 16 members and the leaves past ALPHA_BOUND = 30 are refused today.
def _alpha_families():
    # counts put p50 inside the hub3+line33 band and p90 inside the
    # hub4+line33 band, whose costs do not depend on the labels
    def sized(build, lo, hi, count):
        sizes = iter(range(count))
        return lambda r: build(spread(lo, hi, count, next(sizes)), r)

    return [
        ("member/ladder+prism", 6, lambda r: member("ladder+prism", r)),
        ("member/hub3+line33", 20, lambda r: member("hub3+line33", r)),
        ("member/hub4+line33", 10, lambda r: member("hub4+line33", r)),
        ("member/hub3+line35", 4, lambda r: member("hub3+line35", r)),
        ("member/hub4+line35", 2, lambda r: member("hub4+line35", r)),
        ("member/glued-n17", 4, lambda r: member("hub5+line55", r)),
        ("member/glued-n20", 4, lambda r: member("hub6+line57", r)),
        ("complement/ladder+prism", 6, lambda r: member("ladder+prism", r).complement()),
        ("complement/hub3+line33", 8, lambda r: member("hub3+line33", r).complement()),
        ("leaf/bipartite", 8, sized(bipartite_leaf, 16, 34, 8)),
        ("leaf/line-of-bipartite", 8, sized(lambda m, r: line_of_bipartite_leaf(14, m, r), 16, 34, 8)),
        ("leaf/complement-bipartite", 6,
         sized(lambda n, r: bipartite_leaf(n, r).complement(), 16, 30, 6)),
        ("leaf/complement-bipartite-n31", 3,
         sized(lambda n, r: bipartite_leaf(n, r).complement(), 31, 34, 3)),
        ("leaf/complement-line-of-bipartite", 6,
         sized(lambda m, r: line_of_bipartite_leaf(14, m, r).complement(), 16, 30, 6)),
        ("leaf/complement-line-of-bipartite-n31", 2,
         sized(lambda m, r: line_of_bipartite_leaf(14, m, r).complement(), 31, 34, 2)),
    ]


def gen_berge_alpha(rng: random.Random, scale: float = 1.0) -> list[Instance]:
    out = []
    for family, count, build in _alpha_families():
        for _ in range(_count(count, scale)):
            g = build(rng)
            w = [rng.randint(0, 4) for _ in range(g.n)]
            out.append(Instance("berge_alpha_omega/" + family, _weighted_text(g, w)))
    return interleave(out, rng)


# -- structure -------------------------------------------------------------------

def k_structure(k: int, plen: int) -> Graph:
    """Spine cycle s_1..s_k with a path of length plen to each terminal;
    terminals are the last k vertices."""
    g = Graph(k * (plen + 1))
    for i in range(k):
        g.add_edge_unchecked(i, (i + 1) % k)
    for i in range(k):
        prev = i
        for j in range(plen):
            v = k + j * k + i
            g.add_edge_unchecked(prev, v)
            prev = v
    return g


def k_structure_terminals(k: int, plen: int) -> list[int]:
    return [k + (plen - 1) * k + i for i in range(k)]


def decorate(g: Graph, k: int, count: int, rng: random.Random) -> Graph:
    """Add ``count`` vertices, each on one or two spots, keeping girth >= k."""
    added = 0
    while added < count:
        spots = rng.sample(range(g.n), rng.choice([1, 2]))
        h = g.add_vertices(1, [spots])
        girth = h.girth()
        if girth is None or girth >= k:
            g = h
            added += 1
    return g


def random_girth_graph(n: int, k: int, rng: random.Random) -> Graph:
    """Connected graph of girth >= k: random spanning tree plus extra edges
    that keep the girth."""
    g = Graph(n)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        g.add_edge_unchecked(order[i], order[rng.randrange(i)])
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or g.has_edge(u, v):
            continue
        h = Graph(n)
        h.adj = list(g.adj)
        h.add_edge_unchecked(u, v)
        girth = h.girth()
        if girth is None or girth >= k:
            g = h
    return g


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge_unchecked(u, v)
    return g


def random_chordal(n: int, rng: random.Random) -> tuple[Graph, int]:
    """Chordal graph built by attaching simplicial vertices, with its
    clique number (the largest attachment clique plus one)."""
    g = Graph(1)
    omega = 1
    for v in range(1, n):
        seed = rng.randrange(v)
        clique = {seed}
        for u in range(v):
            if u != seed and all(g.has_edge(u, x) for x in clique) and rng.random() < 0.5:
                clique.add(u)
        g = g.add_vertices(1, [sorted(clique)])
        omega = max(omega, len(clique) + 1)
    return g, omega


def prism_graph(lengths: tuple[int, int, int], extra: int, rng: random.Random) -> Graph:
    """Two triangles linked by three paths, plus pendant vertices (they
    close no cycle, so the graph stays pyramid-free)."""
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for i, le in enumerate(lengths):
        prev = i
        for _ in range(le - 1):
            g = g.add_vertices(1, [[prev]])
            prev = g.n - 1
        g.add_edge_unchecked(prev, 3 + i)
    for _ in range(extra):
        g = g.add_vertices(1, [[rng.randrange(g.n)]])
    return relabel(g, rng)


def random_cnf(num_vars: int, num_clauses: int, rng: random.Random):
    clauses = set()
    while len(clauses) < num_clauses:
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.add(tuple(v * rng.choice([1, -1]) for v in vs))
    return _bienstock.Cnf3.make(num_vars, sorted(clauses))


def _kin_instance(family: str, g: Graph, terms: list[int]) -> Instance:
    return Instance("k_in_a_tree/" + family, format_graph(g), {"terminals": terms})


def paper_figures() -> list[tuple[str, Graph, list[int]]]:
    sq = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (5, 1), (6, 2), (7, 3)])
    k4fig = Graph(16, [(0, 4), (0, 5), (0, 6), (1, 4), (1, 7), (1, 8), (2, 5), (2, 7),
                       (2, 9), (3, 6), (3, 8), (3, 9), (10, 4), (11, 5), (12, 6),
                       (13, 7), (14, 8), (15, 9)])
    g7 = Graph(21)
    for i in range(7):
        g7.add_edge_unchecked(i, (i + 1) % 7)
        g7.add_edge_unchecked(7 + i, i)
        g7.add_edge_unchecked(14 + i, 7 + i)
    return [("square", sq, [4, 5, 6, 7]), ("k4", k4fig, list(range(10, 16))),
            ("kstructure", g7, list(range(14, 21)))]


def pinned_csp_split() -> Instance:
    """k_structure(4, 3) plus vertex 16 on 2 and 14: _csp_split runs for
    more than 600 s on it, so it always meets the time limit today."""
    g = k_structure(4, 3).add_vertices(1, [[2, 14]])
    return _kin_instance("pinned-csp-split", g, [12, 13, 14, 15])


# Decorated 4-structures with long paths whose square growth falls back
# to the exhaustive tree oracle past its 22-free-vertex bound.  Each entry
# is (path length, decoration spots, one list per added vertex).
PINNED_TOO_LARGE = [
    (6, [[7, 14], [26], [8]]),
    (7, [[21], [30], [30], [5, 7]]),
    (8, [[2, 5]]),
]


def pinned_too_large() -> list[Instance]:
    out = []
    for plen, spots in PINNED_TOO_LARGE:
        g = k_structure(4, plen)
        for s in spots:
            g = g.add_vertices(1, [s])
        out.append(_kin_instance(f"pinned-too-large-p{plen}", g, k_structure_terminals(4, plen)))
    return out


def spread(lo: int, hi: int, count: int, i: int) -> int:
    """The i-th of ``count`` sizes spread evenly over lo..hi, so every
    pass holds the same sizes whatever the seed."""
    return lo + ((hi - lo + 1) * i) // count


# The unique-chord family and the k = 4 members come from a fixed pool:
# their cost is set by backtracking searches (oracle.induced_embedding,
# kintree._csp_split and the exhaustive tree fallback) that swing by 3x
# and more with the vertex labels, and by 100x between graphs of one size.
# A seeded sample of them would make every end-to-end figure depend on
# the seed.  The benchmark seed still orders them within the pass.
FIXED_POOL_SEED = 2013


def fixed_pool(scale: float) -> list[Instance]:
    rng = random.Random(FIXED_POOL_SEED)
    out = []
    for i in range(_count(42, scale)):
        g = random_graph(spread(12, 18, 42, i), rng.uniform(0.12, 0.22), rng)
        out.append(Instance("unique_chord_free", format_graph(g)))
    for i in range(_count(16, scale)):
        g = decorate(k_structure(4, 2), 4, rng.randint(1, 4), rng)
        out.append(_kin_instance("k4-decorated", g, k_structure_terminals(4, 2)))
    for i in range(_count(16, scale)):
        g = random_girth_graph(spread(16, 24, 16, i), 4, rng)
        out.append(_kin_instance("k4-random-girth", g, rng.sample(range(g.n), 4)))
    return out


def gen_structure(rng: random.Random, scale: float = 1.0) -> list[Instance]:
    out: list[Instance] = []
    c = lambda n: _count(n, scale)  # noqa: E731

    # enough decorated members that the median falls inside their band
    for i in range(c(192)):
        k = 5 + i % 3
        plen = 2 + (i // 3) % 7
        g = decorate(k_structure(k, plen), k, rng.randint(1, 4), rng)
        out.append(_kin_instance("decorated", g, k_structure_terminals(k, plen)))
    for i in range(c(48)):
        k = 5 + i % 3
        g = random_girth_graph(spread(16, 40, c(48), i), k, rng)
        out.append(_kin_instance("random-girth", g, rng.sample(range(g.n), k)))
    for name, g, terms in paper_figures():
        inst = _kin_instance("figure-" + name, g, terms)
        inst.expect["kind"] = name
        out.append(inst)
    for i in range(c(24)):
        base = random_graph(spread(4, 7, c(24), i), rng.uniform(0.3, 0.8), rng)
        g = relabel(_named.two_subdivision(base), rng)
        out.append(Instance("chordless", format_graph(g)))
    # enough chordal graphs that p90 falls well inside their band
    for i in range(c(120)):
        g, omega = random_chordal(spread(20, 40, c(120), i), rng)
        g = relabel(g, rng)
        out.append(Instance("color_weakly_triangulated", format_graph(g), expect={"omega": omega}))
    for _ in range(c(30)):
        lengths = tuple(rng.randint(1, 3) for _ in range(3))
        g = prism_graph(lengths, rng.randint(0, 3), rng)
        out.append(Instance("detect_prism_pyramid_free", format_graph(g)))
    for _ in range(c(12)):
        lengths = tuple(rng.randint(1, 2) for _ in range(3))
        g = prism_graph(lengths, rng.randint(0, 2), rng)
        out.append(Instance("find_realization", format_graph(g)))
    for i in range(c(30)):
        f = random_cnf(3 + i % 2, 1 + i % 4, rng)
        gg = _bienstock.gamma_gadget(f)
        out.append(Instance("hole_through_two", format_graph(gg.graph),
                            {"x": gg.a, "y": gg.b},
                            {"sat": f.satisfying_assignment() is not None}))
    out += fixed_pool(scale) + [pinned_csp_split()] + pinned_too_large()
    return interleave(out, rng)


# -- cli -------------------------------------------------------------------------

def gen_cli(rng: random.Random, scale: float = 1.0) -> list[Instance]:
    """One subprocess per instance, about a hundred per pass.  ``argv``
    names its input files as ``{file}``, ``{cnf}`` or ``{missing}``; the
    runner writes ``text`` (or ``file_text``) and ``cnf`` there."""
    out: list[Instance] = []
    c = lambda n: _count(n, scale)  # noqa: E731
    J = ["--format=json-lines"]

    def add(family, argv, text="", expect=None, **params):
        params["argv"] = argv
        out.append(Instance("cli/" + family, text, params, expect or {}))

    # specs and sizes cycle rather than being drawn, so every pass holds
    # the same mix of costs whatever the seed
    specs = ["petersen", "wagner", "c:7", "k_mn:3,4", "octahedron"]
    for i in range(c(10)):
        spec = specs[i % len(specs)]
        add("invariants", ["invariants", f"--named={spec}"] + J, spec=spec)
    for _ in range(c(8)):
        g = prism_graph(tuple(rng.randint(1, 2) for _ in range(3)), rng.randint(0, 2), rng)
        add("detect-prism", ["detect", "prism", "{file}"] + J, format_graph(g), {"code": 0})
    for i in range(c(10)):
        k = 5 + i % 2
        plen = 2
        g = decorate(k_structure(k, plen), k, 1, rng)
        terms = k_structure_terminals(k, plen)
        add("detect-k-in-a-tree", ["detect", "k-in-a-tree", "{file}",
                                   "--terminals=" + ",".join(map(str, terms))] + J,
            format_graph(g), terminals=terms)
    for i in range(c(8)):
        f = random_cnf(3, 1 + i % 3, rng)
        gg = _bienstock.gamma_gadget(f)
        add("detect-hole-through", ["detect", "hole-through", "{file}", f"--x={gg.a}", f"--y={gg.b}"] + J,
            format_graph(gg.graph), {"code": 0 if f.satisfying_assignment() else 1}, x=gg.a, y=gg.b)
    for i in range(c(10)):
        g = random_graph(spread(7, 10, c(10), i), 0.25, rng)
        add("recognize", ["recognize", "--class=unique-chord-free", "{file}"] + J, format_graph(g))
    specs = ["octahedron", "petersen", "c:6", "k_mn:2,3"]
    for i in range(c(6)):
        spec = specs[i % len(specs)]
        add("classify", ["classify", "--theorem=paw", f"--named={spec}"] + J, spec=spec)
    for i in range(c(16)):
        g, omega = random_chordal(spread(8, 14, c(16), i), rng)
        add("color", ["color", "--class=wt", "{file}"] + J, format_graph(relabel(g, rng)), {"omega": omega})
    specs = ["c:5", "c:7", "petersen", "copies:c:5,2"]
    for i in range(c(6)):
        spec = specs[i % len(specs)]
        add("gap-compute", ["gap", "compute", f"--named={spec}"] + J, spec=spec)
    for _ in range(c(2)):
        add("verify-gap", ["verify", "gap"] + J, expect={"code": 0})
    for i in range(c(10)):
        g = bipartite_leaf(spread(8, 12, c(10), i), rng)
        w = [rng.randint(0, 4) for _ in range(g.n)]
        add("berge-alpha", ["berge", "alpha", "{file}"] + J, _weighted_text(g, w), {"code": 0})
    for i in range(c(6)):
        f = random_cnf(3, 1 + i % 3, rng)
        add("gadget-gamma", ["gadget", "gamma", "--cnf={cnf}"] + J, "", {"code": 0},
            cnf=_bienstock.format_dimacs_cnf(f))
    # malformed calls: the README documents exit code 3 for I/O and parse
    # errors and 2 for precondition breaches
    for _ in range(c(4)):
        add("bad-file", ["invariants", "{missing}"] + J, expect={"code": 3})
    for _ in range(c(4)):
        add("bad-graph-text", ["invariants", "{file}"] + J, expect={"code": 3}, file_text="3 2\n0 1\n")
    for _ in range(c(4)):
        g = decorate(k_structure(5, 2), 5, 1, rng)
        add("bad-terminals", ["detect", "k-in-a-tree", "{file}", "--terminals=a,b"] + J,
            format_graph(g), {"code": 3})
    for _ in range(c(4)):
        g = decorate(k_structure(5, 2), 5, 1, rng)
        add("terminal-out-of-range", ["detect", "k-in-a-tree", "{file}",
                                      f"--terminals=0,1,2,3,{g.n + 5}"] + J,
            format_graph(g), {"code": 2})
    return interleave(out, rng)


# -- shared ----------------------------------------------------------------------

def interleave(insts: list[Instance], rng: random.Random) -> list[Instance]:
    """Deal the families out at even strides (each family's order
    shuffled), so that any stretch of a pass holds every family in its
    share."""
    by_family: dict[str, list[Instance]] = {}
    for inst in insts:
        by_family.setdefault(inst.family, []).append(inst)
    keyed = []
    for rank, group in enumerate(by_family.values()):
        rng.shuffle(group)
        for i, inst in enumerate(group):
            keyed.append(((i + 0.5) / len(group), rank, inst))
    keyed.sort(key=lambda t: t[:2])
    return [inst for _, _, inst in keyed]


GENERATORS = {
    "berge-color": gen_berge_color,
    "berge-alpha": gen_berge_alpha,
    "structure": gen_structure,
    "cli": gen_cli,
}


def generate(workload: str, seed: int, scale: float = 1.0) -> list[Instance]:
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, scale)
