import itertools
import random

import pytest

from helpers import (
    all_labelled_graphs,
    dict_girth,
    oracle_bipartition,
    oracle_components_of,
    oracle_girth,
    oracle_induced_paths,
    oracle_is_induced_path,
    oracle_is_proper_coloring,
    oracle_is_tree_mask,
    oracle_layers,
    oracle_shortest_odd_cycle,
    oracle_shortest_path,
    random_connected_girth,
    random_graph,
    random_graph_girth,
)
from inducta.graphs import Graph, GraphError, WeightedGraph, format_graph, mask_of, parse_graph
from inducta.named import cycle, petersen


def test_basic_adjacency():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.edge_count() == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]


def test_rejects_loops_and_range():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 5)])


def test_complement_involution():
    g = petersen()
    assert g.complement().complement() == g


def test_induced_subgraph_and_map():
    g = cycle(6)
    sub, old = g.induced([0, 1, 2, 4])
    assert old == [0, 1, 2, 4]
    assert sub.edges() == [(0, 1), (1, 2)]


def test_components_and_connectivity():
    g = Graph(5, [(0, 1), (2, 3)])
    comps = g.components()
    assert len(comps) == 3
    assert not g.connected()
    assert cycle(5).connected()


def test_girth():
    assert cycle(5).girth() == 5
    assert petersen().girth() == 5
    assert Graph(4, [(0, 1), (1, 2)]).girth() is None
    assert petersen().girth(below=5) is None and petersen().girth(below=6) == 5


def test_girth_on_every_labelled_graph_on_six_vertices():
    """The girth, and with ``below`` = 3..8 the girth exactly when it is
    below that bound, as the dict BFS finds it and as the length of
    ``shortest_cycle``'s cycle (the form ``girth`` had) gives it."""
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
            girth = dict_girth(g)
            assert g.girth() == girth == oracle_girth(g), g.adj
            for k in range(3, 9):
                want = girth if girth is not None and girth < k else None
                assert g.girth(below=k) == want, (g.adj, k)


def test_girth_matches_shortest_cycle_length():
    """The length-only BFS that drops finished sources against the
    length of ``shortest_cycle``'s cycle, with ``below`` = None and
    3..8, on seeded random graphs and seeded graphs of girth at least k
    for k = 3..8."""
    rng = random.Random(81)
    graphs = [random_graph(rng.randint(7, 40), rng.uniform(0.05, 0.5), rng) for _ in range(300)]
    for k in range(3, 9):
        graphs += [random_graph_girth(rng.randint(8, 40), k, rng, rng.uniform(0.05, 0.3))
                   for _ in range(30)]
        graphs += [random_connected_girth(rng.randint(8, 40), k, rng) for _ in range(30)]
    for g in graphs:
        want = oracle_girth(g)
        assert g.girth() == want, g.edges()
        for below in range(3, 9):
            assert g.girth(below) == (want if want is not None and want < below else None), below


def test_bipartition():
    got = cycle(6).bipartition()
    assert got is not None
    assert cycle(5).bipartition() is None


def test_shortest_path_deterministic():
    g = cycle(6)
    assert g.shortest_path(0, 3) == [0, 1, 2, 3]


def test_layers_and_path_back():
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    assert g.layers(1 << 0, g.full_mask()) == [0b1, 0b110, 0b1000, 0b10000, 0b100000]
    assert g.layers(1 << 0, g.full_mask() & ~(1 << 3)) == [0b1, 0b110]
    # 3 has two neighbors one layer up: the lower label wins
    assert g.path_back(g.layers(1 << 0, g.full_mask()), 4) == [4, 3, 1, 0]


def _differential_graphs():
    """Every labelled graph on at most 5 vertices, then 300 seeded random
    graphs with n <= 40, a third of them bipartite."""
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for sub in range(1 << len(pairs)):
            yield Graph(n, [e for i, e in enumerate(pairs) if sub >> i & 1])
    rng = random.Random(6)
    for i in range(300):
        n = rng.randint(1, 40)
        g = random_graph(n, rng.choice([0.03, 0.06, 0.12, 0.3]), rng)
        if i % 3 == 0:
            side = rng.getrandbits(n)
            for v in range(n):
                g.adj[v] &= side if not side >> v & 1 else ~side
        yield g


def test_bfs_searches_match_dict_oracles():
    """bipartition and shortest_path agree exactly with the dict BFS
    they replaced."""
    rng = random.Random(7)
    for g in _differential_graphs():
        assert g.bipartition() == oracle_bipartition(g)
        full = g.full_mask()
        if g.n <= 5:
            queries = [(u, v, full) for u in range(g.n) for v in range(g.n)]
        else:
            queries = [
                (rng.randrange(g.n), rng.randrange(g.n), rng.getrandbits(g.n) | rng.getrandbits(g.n))
                for _ in range(10)
            ]
        for u, v, allowed in queries:
            assert g.shortest_path(u, v, allowed) == oracle_shortest_path(g, u, v, allowed)


def test_sweeps_match_set_oracles():
    """reach, layers, components_of and is_clique_mask against searches
    on vertex sets.  Every seed and allowed mask on graphs with at most 4
    vertices; on 5 vertices every allowed mask with each one-vertex seed
    and a seeded random seed mask; above that ten seeded masks and the
    full one, each with a seeded seed mask."""
    rng = random.Random(9)
    for g in _differential_graphs():
        full = g.full_mask()
        if g.n <= 4:
            masks = range(full + 1)
            queries = [(s, a) for s in masks for a in masks]
        elif g.n == 5:
            masks = range(full + 1)
            queries = [(s, a) for a in masks for s in [1 << v for v in range(5)] + [rng.getrandbits(5)]]
        else:
            masks = [rng.getrandbits(g.n) | rng.getrandbits(g.n) for _ in range(10)] + [full]
            queries = [(rng.getrandbits(g.n) & rng.getrandbits(g.n), a) for a in masks]
        for seeds, allowed in queries:
            want = oracle_layers(g, seeds, allowed)
            assert g.layers(seeds, allowed) == [mask_of(layer) for layer in want], (g.edges(), seeds, allowed)
            assert g.reach(seeds, allowed) == mask_of(set().union(*want)), (g.edges(), seeds, allowed)
        for mask in masks:
            assert g.components_of(mask) == [mask_of(c) for c in oracle_components_of(g, mask)]
            members = [v for v in range(g.n) if mask >> v & 1]
            clique = all(g.has_edge(u, v) for u, v in itertools.combinations(members, 2))
            assert g.is_clique_mask(mask) == clique, (g.edges(), mask)


def _check_shortest_cycles(g: Graph, allowed: int) -> None:
    """Inside ``allowed``: the girth with and without ``below``, and the
    shortest cycle and shortest odd cycle, each induced and as long as
    the dict oracles find in the subgraph the mask induces."""
    sub, _ = g.induced_mask(allowed)
    girth = dict_girth(sub)
    odd = oracle_shortest_odd_cycle(sub)
    odd_len = None if odd is None else len(odd)
    if allowed == g.full_mask():
        assert g.girth() == girth
        for k in range(3, 8):
            assert g.girth(below=k) == (girth if girth is not None and girth < k else None), k
    for odd_only, want in ((False, girth), (True, odd_len)):
        got = g.shortest_cycle(odd=odd_only, allowed=allowed)
        if want is None:
            assert got is None
            continue
        assert len(got) == want and g.is_induced_cycle(got)
        assert all(allowed >> v & 1 for v in got)
        assert len(got) % 2 == 1 or not odd_only


def test_shortest_cycles_match_dict_oracles():
    """girth, shortest_cycle and its odd-only form agree with the dict
    BFS oracles on every graph with at most 5 vertices and the seeded
    random graphs, on the whole graph and inside seeded random masks."""
    rng = random.Random(8)
    for g in _differential_graphs():
        _check_shortest_cycles(g, g.full_mask())
        for _ in range(2 if g.n <= 5 else 5):
            _check_shortest_cycles(g, rng.getrandbits(g.n) | rng.getrandbits(g.n))


def test_tree_mask():
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert g.is_tree_mask(0b11111)
    assert not cycle(4).is_tree_mask(0b1111)


def test_is_tree_mask_matches_component_count():
    """The inline edge count and one reach against the edge count and
    ``components_of``: every vertex set of every labelled graph with at
    most 5 vertices, and seeded masks of seeded random graphs."""
    rng = random.Random(82)
    for g in all_labelled_graphs(5):
        for mask in range(1 << g.n):
            assert g.is_tree_mask(mask) == oracle_is_tree_mask(g, mask), (g.edges(), mask)
    for _ in range(200):
        g = random_connected_girth(rng.randint(6, 30), rng.randint(3, 6), rng)
        for _ in range(20):
            mask = rng.getrandbits(g.n) | rng.getrandbits(g.n)
            assert g.is_tree_mask(mask) == oracle_is_tree_mask(g, mask), (g.edges(), mask)


def _two_pass_is_tree_mask(g: Graph, mask: int) -> bool:
    """The edge count over ``mask``, then one reach from its lowest vertex."""
    if not mask:
        return False
    twice_m = sum((g.adj[v] & mask).bit_count() for v in range(g.n) if mask >> v & 1)
    return twice_m == 2 * (mask.bit_count() - 1) and g.reach(mask & -mask, mask) == mask


def test_is_tree_mask_matches_the_two_pass_form():
    """Degrees added up inside the reach against an edge count followed
    by a reach: every vertex set of every labelled graph with at most 6
    vertices."""
    found = {True: 0, False: 0}
    for g in all_labelled_graphs(6):
        for mask in range(1 << g.n):
            got = g.is_tree_mask(mask)
            assert got == _two_pass_is_tree_mask(g, mask), (g.edges(), mask)
            found[got] += 1
    assert min(found.values()) >= 100_000, found


def test_is_induced_path_matches_pairwise_test():
    """``induces`` on the consecutive pairs against the pairwise test: every
    sequence of at most 5 vertices, repeats allowed, on every labelled
    graph with at most 4 vertices, and every ordering of every vertex
    set on every labelled graph with 5 vertices."""
    for g in all_labelled_graphs(5):
        if g.n <= 4:
            seqs = [s for r in range(6) for s in itertools.product(range(g.n), repeat=r)]
        else:
            seqs = [s for r in range(6) for s in itertools.permutations(range(g.n), r)]
        for seq in seqs:
            assert g.is_induced_path(seq) == oracle_is_induced_path(g, seq), (g.edges(), seq)


def test_is_proper_coloring_matches_edge_list_test():
    """The class-mask test against the edge-by-edge one: every coloring
    with colors 0 to 2 of every labelled graph with at most 5 vertices,
    and seeded random graphs with up to 30 vertices under greedy
    colorings with arbitrary color labels, some with one vertex given a
    neighbor's color.  A negative color or a list of the wrong length is
    refused."""
    seen = {True: 0, False: 0}
    for g in all_labelled_graphs(5):
        for color in itertools.product(range(3), repeat=g.n):
            want = oracle_is_proper_coloring(g, color)
            assert g.is_proper_coloring(color) == want, (g.edges(), color)
            seen[want] += 1
    rng = random.Random(31)
    for _ in range(400):
        g = random_graph(rng.randint(1, 30), rng.uniform(0.05, 0.6), rng)
        labels = rng.sample(range(1000), g.n)
        color = [-1] * g.n
        for v in rng.sample(range(g.n), g.n):
            used = {color[w] for w in g.neighbors(v)}
            color[v] = next(c for c in labels if c not in used)
        v = rng.randrange(g.n)
        if g.adj[v] and rng.random() < 0.5:
            color[v] = color[rng.choice(g.neighbors(v))]
        want = oracle_is_proper_coloring(g, color)
        assert g.is_proper_coloring(color) == want, (g.edges(), color)
        seen[want] += 1
        assert not g.is_proper_coloring(color[:-1]) and not g.is_proper_coloring(color + [0])
        color[v] = -1 - color[v]
        assert not g.is_proper_coloring(color), (g.edges(), color)
    assert min(seen.values()) >= 20_000, seen


def test_path_mask_matches_induced_definition():
    """Every graph on 5 vertices, every vertex set and end pair, against
    the induced subgraph: a connected tree of maximum degree 2 whose
    degree-1 vertices are exactly a and b."""
    n = 5
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for code in range(1 << len(pairs)):
        g = Graph(n, [e for i, e in enumerate(pairs) if code >> i & 1])
        for mask in range(1 << n):
            sub, old = g.induced_mask(mask)
            degs = [sub.degree(i) for i in range(sub.n)]
            is_path = (sub.edge_count() == sub.n - 1 and len(sub.components()) == 1
                       and max(degs, default=0) <= 2)
            ends = {old[i] for i in range(sub.n) if degs[i] == 1}
            for a in range(n):
                for b in range(n):
                    want = is_path and a != b and ends == {a, b}
                    assert g.is_path_mask(mask, a, b) == want, (code, mask, a, b)


def _subsets(mask: int):
    """Every subset of ``mask``, from ``mask`` itself down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def test_induced_paths_match_the_brute_force_enumeration():
    """On every labelled graph with at most 5 vertices, for every source,
    allowed set and end set inside it, the search yields exactly the
    paths of the unpruned enumeration, in the same order."""
    for g in all_labelled_graphs(5):
        for src in range(g.n):
            for allowed in _subsets(g.full_mask() & ~(1 << src)):
                for ends in _subsets(allowed):
                    got = list(g.induced_paths(src, ends, allowed))
                    assert got == oracle_induced_paths(g, src, ends, allowed), (g.edges(), src, ends, allowed)


def test_induced_paths_with_through_and_keep_match_the_brute_force_enumeration():
    """On every labelled graph with 6 vertices, one seeded draw of the
    source, allowed, ends (which may hold the source), a through set and
    a keep that refuses a random eighth of all vertex masks: the same
    paths, in the same order, as the unpruned enumeration."""
    rng = random.Random(27)
    for g in all_labelled_graphs(6):
        if g.n < 6:
            continue
        src, allowed, ends = rng.randrange(6), rng.getrandbits(6), rng.getrandbits(6)
        through = allowed & rng.getrandbits(6) & rng.getrandbits(6)
        refused = rng.getrandbits(64) & rng.getrandbits(64) & rng.getrandbits(64)
        keep = lambda used: not refused >> used & 1
        got = list(g.induced_paths(src, ends, allowed, through, keep))
        assert got == oracle_induced_paths(g, src, ends, allowed, through, keep), (
            g.edges(), src, ends, allowed, through, refused)


def test_induced_paths_walk_a_long_cycle_on_one_list(monkeypatch):
    """Along a 20,000-vertex cycle the search has one candidate per step,
    so it runs its reach only at the source: the one path to the other
    neighbour of vertex 0 is the whole cycle but 0."""
    n = 20_000
    g = cycle(n)
    reaches = []
    real = Graph.reach
    monkeypatch.setattr(Graph, "reach", lambda self, *args: reaches.append(args) or real(self, *args))
    paths = list(g.induced_paths(1, 1 << (n - 1), g.full_mask() & ~1))
    assert paths == [list(range(1, n))]
    assert len(reaches) == 1


def test_format_round_trip():
    wg = WeightedGraph(petersen(), [2] * 10)
    text = format_graph(wg)
    back = parse_graph(text)
    assert back.graph == wg.graph
    assert back.weights == wg.weights


@pytest.mark.parametrize(
    "text,msg",
    [
        ("", "empty"),
        ("2", "expected 'n m'"),
        ("2 1\n0 0", "loop"),
        ("2 1\n1 0", "u < v"),
        ("2 2\n0 1\n0 1", "duplicate"),
        ("2 1\n0 5", "out of range"),
        ("2 1\n0 1\nw 9 1", "out of range"),
        ("2 1\n0 1\nw 0 -2", "negative"),
        # each rule in turn names an edge that breaks several: range, then loop, then order
        ("2 1\n5 5", "line 2: vertex out of range"),
        ("3 1\n2 -1", "line 2: vertex out of range"),
        ("3 1\n9 0", "line 2: vertex out of range"),
        ("3 2\n0 1\n1 1", "line 3: loop 1"),
        ("3 2\n0 1\n1 0", "line 3: expected u < v"),
        ("3 3\n0 1\n1 2\n0 1", "line 4: duplicate edge 0 1"),
        ("3 2\n0 2\nx 1", "line 3: expected integers"),
    ],
)
def test_parser_rejections(text, msg):
    with pytest.raises(GraphError, match=msg):
        parse_graph(text)


def test_weighted_graph_validation():
    with pytest.raises(GraphError):
        WeightedGraph(cycle(4), [1, 2, 3])
    with pytest.raises(GraphError):
        WeightedGraph(cycle(4), [1, -1, 1, 1])
