import inspect
import itertools
import random
import re
import sys
import time

import pytest

from helpers import (
    all_labelled_graphs,
    bench_workload,
    cut_witness_holds,
    cycle_with_unique_chord_present,
    five_cycle_chain,
    oracle_blocks,
    oracle_chord_cycle,
    oracle_has_one_cutset,
    oracle_has_proper_1_join,
    oracle_has_special_2_cutset,
    oracle_third_color,
    random_graph,
    triangle_chain,
)
from inducta.decompose import (
    replay_tree,
    DecompositionNode,
    chi_unique_chord_free,
    is_chordless,
    recognize_unique_chord_free,
    three_color_chordless,
)
from inducta import decompose
from inducta.graphs import Graph, GraphError, InternalError, bit_count, mask_of, parse_graph
from inducta.named import (
    complete,
    complete_bipartite,
    cycle,
    heawood,
    petersen,
    two_subdivision,
)
from inducta.oracle import exact_invariants, induced_embedding

DIAMOND = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


# -- cutsets -------------------------------------------------------------------

def test_blocks_match_their_definition():
    """``Graph.blocks`` against the definitions, tried over every vertex
    set, on every labelled graph with at most 6 vertices, 300 seeded
    random graphs with 7 to 9 and short triangle and 5-cycle chains; each
    block meets the blocks before it in at most one vertex.  Long chains
    give their triangles and 5-cycles in chain order, the joints cut."""
    rng = random.Random(59)
    graphs = list(all_labelled_graphs(6))
    graphs += [random_graph(rng.randint(7, 9), rng.uniform(0.1, 0.5), rng) for _ in range(300)]
    graphs += [triangle_chain(k) for k in (1, 2, 3, 4)] + [five_cycle_chain(k) for k in (1, 2, 3)]
    for g in graphs:
        blocks, cuts = g.blocks()
        assert len(set(blocks)) == len(blocks) and (set(blocks), cuts) == oracle_blocks(g), g.edges()
        seen = 0
        for blk in blocks:
            assert bit_count(blk & seen) <= 1, g.edges()
            seen |= blk
    for chain, k, step in ((triangle_chain(150), 150, 2), (five_cycle_chain(200), 200, 4)):
        assert chain.blocks() == ([mask_of(range(step * i, step * i + step + 1)) for i in range(k)],
                                  mask_of(range(step, step * k, step)))


def test_special_2_cutset():
    # two thetas sharing their branch vertices
    g = Graph(10)
    for chain in ([2, 3], [4, 5], [6, 7], [8, 9]):
        g.add_edge_unchecked(0, chain[0])
        g.add_edge_unchecked(chain[0], chain[1])
        g.add_edge_unchecked(chain[1], 1)
    w = decompose._find_special_2_cutset(g)
    assert w is not None and set(w.vertices) == {0, 1}
    assert bit_count(w.x) >= 2 and bit_count(w.y) >= 2


def test_proper_1_join():
    g = Graph(6)
    for u in (0, 1):
        for v in (3, 4):
            g.add_edge_unchecked(u, v)
    g.add_edge_unchecked(2, 0)
    g.add_edge_unchecked(5, 3)
    w = decompose._find_proper_1_join(g)
    assert w is not None
    assert bit_count(w.a_side) >= 2 and bit_count(w.b_side) >= 2



CUT_ORACLES = {
    "special_2_cutset": oracle_has_special_2_cutset,
    "proper_1_join": oracle_has_proper_1_join,
}


def test_cut_finders_match_oracles():
    """Every labelled graph on at most 5 vertices and 2,000 seeded random
    graphs on 6 to 9: each finder of a decomposition step finds a cut
    exactly where its definition, tried over every split, has one, and
    every witness it returns is a cut of its kind.  The 1-cutset step's
    finder is a connected graph's cut vertices from ``Graph.blocks``."""
    rng = random.Random(53)
    graphs = list(all_labelled_graphs(5))
    graphs += [random_graph(rng.randint(6, 9), rng.uniform(0.15, 0.6), rng) for _ in range(2000)]
    found = dict.fromkeys(["one_cutset", *CUT_ORACLES], 0)
    for g in graphs:
        has_cut = g.connected() and g.blocks()[1] != 0
        assert has_cut == oracle_has_one_cutset(g), g.edges()
        found["one_cutset"] += has_cut
        for kind, oracle in CUT_ORACLES.items():
            w = getattr(decompose, f"_find_{kind}")(g)
            assert (w is not None) == oracle(g), (kind, g.edges())
            if w is not None:
                assert w.kind == kind and cut_witness_holds(g, w), (kind, g.edges(), w)
                found[kind] += 1
    assert min(found.values()) >= 100, found


def _theta(lengths, cut=0):
    """Branch vertices 0 and 1 joined by paths of the given lengths; the
    first ``cut`` paths lose their edge at 1 and hang from 0 alone, each a
    component of G - {0, 1} that holds no 0-1 path."""
    edges, n = [], 2
    for i, length in enumerate(lengths):
        path = [0, *range(n, n + length - 1)] + ([] if i < cut else [1])
        edges += zip(path, path[1:])
        n += length - 1
    return Graph(n, edges)


def test_special_2_cutset_on_many_branches():
    """Thetas with 4 to 6 branches of lengths 2 and 3 (n <= 12), and the
    same with up to k - 3 branches cut from vertex 1: G - {0, 1} has up to
    six components, where the 5-vertex graphs above leave at most three,
    and the cut branches push the first grouping that works further
    down the enumeration."""
    seen = 0
    for k in (4, 5, 6):
        for lengths in itertools.combinations_with_replacement((2, 3), k):
            if 2 + sum(length - 1 for length in lengths) > 12:
                continue
            for cut in range(k - 2):
                g = _theta(lengths, cut)
                assert len(g.components_of(g.full_mask() & ~3)) == k
                w = decompose._find_special_2_cutset(g)
                assert (w is not None) == oracle_has_special_2_cutset(g), (lengths, cut)
                assert w is None or cut_witness_holds(g, w), (lengths, cut, w)
                got = recognize_unique_chord_free(g)
                assert got.member and replay_tree(g, got.tree), (lengths, cut)
                seen += 1
    assert seen == 48


def test_every_finder_is_a_decomposition_step():
    """A cut finder that the decomposition step does not call is code
    nothing reaches."""
    finders = {
        name for name, obj in vars(decompose).items()
        if name.startswith("_find_") and inspect.isfunction(obj) and obj.__module__ == decompose.__name__
    }
    assert finders <= set(decompose._decompose.__code__.co_names)


# -- chordless graphs ------------------------------------------------------------

def test_chordless_basics():
    got = is_chordless(complete(4))
    assert got is not None
    cyc, chord = got
    assert len(cyc) >= 4 and complete(4).has_edge(*chord)
    assert is_chordless(complete_bipartite(2, 3)) is None
    assert is_chordless(two_subdivision(complete(5))) is None


def _leaf(kind, *vertices):
    return DecompositionNode(kind, vertices=list(vertices))


def _split(kind, cut, *children, join_a=(), join_b=()):
    return DecompositionNode(kind, cut=cut, children=list(children),
                             join_a=list(join_a), join_b=list(join_b))


def test_unique_chord_proper_1_join_exact_tree():
    """K22 between {1, 2} and {3, 4} with a common neighbor on each side:
    no 1-cutset, no special 2-cutset, so the root is the 1-join, and each
    block is a square that a 1-join would split again were it not sparse."""
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
    assert recognize_unique_chord_free(g).tree == _split(
        "proper_1_join", (),
        _leaf("sparse", 0, 1, 2, -1), _leaf("sparse", 3, 4, 5, -1),
        join_a=(1, 2), join_b=(3, 4),
    )


def test_unique_chord_special_2_cutset_exact_tree():
    """A 1-cutset first though the root has a special 2-cutset, which in
    turn comes before the 1-join its block has; K2 is a clique leaf
    before it is a sparse one."""
    g = Graph(10, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 5), (2, 7), (2, 8), (3, 6),
                   (4, 5), (4, 8), (5, 6), (6, 7), (6, 8), (1, 9)])
    assert decompose._find_special_2_cutset(g) is not None
    block, _ = g.induced(range(9))
    assert decompose._find_proper_1_join(block) is not None
    assert recognize_unique_chord_free(g).tree == _split(
        "one_cutset", (1,),
        _split("special_2_cutset", (3, 4),
               _leaf("sparse", 0, 1, 3, 4, -1),
               _split("proper_1_join", (),
                      _leaf("sparse", 2, 6, -1), _leaf("sparse", 3, 4, 5, 7, 8, -1, -1),
                      join_a=(2, 6), join_b=(3, 5, 7, 8))),
        _leaf("clique", 1, 9),
    )


def test_unique_chord_leaf_order():
    """Components before leaves, sparse before sub-Petersen, sub-Petersen
    before sub-Heawood, and every leaf before a cut."""
    two_squares = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
    assert recognize_unique_chord_free(two_squares).tree.kind == "components"
    assert recognize_unique_chord_free(cycle(5)).tree == _leaf("sparse", *range(5))
    double_star = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert recognize_unique_chord_free(double_star).tree == _leaf("sub-petersen", *range(6))
    # one leg longer, and Petersen no longer holds it
    longer = Graph(7, [(0, 1), (1, 2), (1, 5), (2, 3), (4, 5), (5, 6)])
    assert recognize_unique_chord_free(longer).tree == _leaf("sub-heawood", *range(7))


def test_three_color_chordless():
    for g in (cycle(7), two_subdivision(petersen()), two_subdivision(complete(4))):
        col = three_color_chordless(g)
        assert max(col) + 1 <= 3
        assert all(col[u] != col[v] for u, v in g.edges())
    with pytest.raises(GraphError):
        three_color_chordless(complete(4))


# outside the class, yet every peel step finds a vertex of degree <= 2, so
# only the membership check refuses them: the diamond, and a bipartite graph
# whose 6-cycle 0-2-6-1-4-5 has the chord 01
BIPARTITE_CHORDED = Graph(7, [(0, 1), (0, 2), (0, 5), (1, 4), (1, 6), (2, 6), (4, 5)])


@pytest.mark.parametrize("g", [DIAMOND, BIPARTITE_CHORDED], ids=["diamond", "bipartite"])
def test_three_color_chordless_refuses_a_chorded_cycle(g):
    cyc, chord = is_chordless(g)
    assert g.has_edge(*chord) and set(chord) <= set(cyc) and len(set(cyc)) == len(cyc) >= 4
    assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
    with pytest.raises(GraphError, match=re.escape(f"chorded cycle {cyc} with chord {chord}")):
        three_color_chordless(g)


def test_three_color_chordless_failed_peel_is_internal(monkeypatch):
    """A chordless graph always has a vertex of degree <= 2, and so does
    each of its induced subgraphs: once the membership check has passed,
    a peel that finds none is a broken invariant."""
    monkeypatch.setattr(decompose, "is_chordless", lambda g: None)
    with pytest.raises(InternalError, match="no vertex of degree <= 2"):
        three_color_chordless(complete(4))


def test_skipped_chord_edges_close_no_cycle():
    """The chord-edge loop skips every edge with an end of degree <= 2: on
    every labelled graph with at most 6 vertices, neither search finds a
    cycle through such an edge's ends once the edge is gone."""
    for g in all_labelled_graphs(6):
        for u, v in g.edges():
            if bit_count(g.adj[u]) <= 2 or bit_count(g.adj[v]) <= 2:
                h = decompose._without_edge(g, u, v)
                assert decompose._two_path_cycle(h, u, v) is None, (g.edges(), u, v)
                assert decompose.hole_through_two(h, u, v) is None, (g.edges(), u, v)


def test_chord_search_in_each_block_finds_the_whole_graph_witness():
    """Searching each chord edge inside its own block finds the same
    cycle and chord, with either search, as the loop over the whole
    graph: on every labelled graph with at most 6 vertices, criterion 5's
    graphs, and triangle and 5-cycle chains, bare and with one block
    given a chord (a diamond for a triangle)."""
    graphs = list(all_labelled_graphs(6))
    rng = random.Random(505)
    for _ in range(1000):
        n = rng.randint(4, 11)
        graphs.append(random_graph(n, rng.uniform(0.15, 0.5), rng))
    for k in (1, 2, 5, 40):
        graphs += [triangle_chain(k), five_cycle_chain(k)]
        for j in sorted({0, k // 2, k - 1}):
            graphs.append(triangle_chain(k).add_vertices(1, [[2 * j, 2 * j + 1]]))
            chorded = five_cycle_chain(k)
            chorded.add_edge_unchecked(4 * j, 4 * j + 2)
            graphs.append(chorded)
    found = 0
    for g in graphs:
        for search in (decompose.hole_through_two, decompose._two_path_cycle):
            got = decompose._chord_cycle(g, search)
            assert got == oracle_chord_cycle(g, search), g.edges()
            found += got is not None
    assert found >= 20000, found


# -- unique chord recognition -----------------------------------------------------

def test_members_and_witnesses():
    assert recognize_unique_chord_free(petersen()).member
    assert recognize_unique_chord_free(heawood()).member
    got = recognize_unique_chord_free(DIAMOND)
    assert not got.member
    assert len(got.witness_cycle) == 4
    assert recognize_unique_chord_free(complete(4)).member


def test_trees_are_replayed(monkeypatch):
    """A member's tree is handed out only after its replay: a tree that
    fails it is a broken invariant."""
    monkeypatch.setattr(decompose, "replay_tree", lambda g, tree: False)
    with pytest.raises(InternalError, match="fails its replay"):
        recognize_unique_chord_free(petersen())


def test_recognition_oracle_agreement():
    rng = random.Random(41)
    members = 0
    for _ in range(250):
        g = random_graph(rng.randint(4, 10), rng.uniform(0.15, 0.5), rng)
        got = recognize_unique_chord_free(g)
        assert got.member == (not cycle_with_unique_chord_present(g))
        if got.member:
            members += 1
            for leaf in got.tree.leaves():
                assert leaf.kind in (
                    "clique", "sparse", "sub-petersen", "sub-heawood", "components"
                )
            assert replay_tree(g, got.tree)
        else:
            cyc = got.witness_cycle
            u, v = got.witness_chord
            assert g.has_edge(u, v)
            sub, old = g.induced(cyc)
            # the cycle plus the chord has exactly one chord
            assert sub.edge_count() == len(cyc) + 1
    assert members >= 60


def test_sub_named_prechecks_match_embedding():
    """The degree and girth prechecks change no answer of the backtracking
    search: random induced subgraphs of Petersen and Heawood (members),
    each with one edge added and one removed, and seeded random graphs."""
    rng = random.Random(43)
    graphs, members = [], []
    for host in (petersen(), heawood()):
        for _ in range(12):
            sub, _ = host.induced(rng.sample(range(host.n), rng.randint(1, host.n)))
            members.append((sub, host))
            edges = sub.edges()
            non = [(u, v) for u in range(sub.n) for v in range(u + 1, sub.n) if not sub.has_edge(u, v)]
            if non:
                graphs.append(Graph(sub.n, edges + [rng.choice(non)]))
            if edges:
                drop = rng.choice(edges)
                graphs.append(Graph(sub.n, [e for e in edges if e != drop]))
    graphs += [random_graph(rng.randint(4, 14), rng.uniform(0.2, 0.5), rng) for _ in range(60)]
    for g, host in members:
        assert decompose._is_sub_named(g, host)
    for g in graphs + [g for g, _ in members]:
        for host in (petersen(), heawood()):
            assert decompose._is_sub_named(g, host) == (induced_embedding(g, host) is not None), g.edges()


def _is_induced_embedding(g: Graph, host: Graph, mapping: list[int]) -> bool:
    return len(set(mapping)) == g.n and all(
        g.has_edge(u, v) == host.has_edge(mapping[u], mapping[v]) for u in range(g.n) for v in range(u))


@pytest.mark.parametrize("host, s", [(petersen(), 3), (heawood(), 4)], ids=["petersen", "heawood"])
def test_pinned_search_embeds_every_induced_subgraph(host, s):
    """Every induced subgraph of Petersen (3-arc-transitive) and Heawood
    (4-arc-transitive), each under a seeded relabelling, is accepted, and
    the pinned search's mapping is an induced embedding."""
    rng = random.Random(31)
    for m in range(1 << host.n):
        sub, _ = host.induced([v for v in range(host.n) if m >> v & 1])
        perm = list(range(sub.n))
        rng.shuffle(perm)
        sub = sub.relabel(perm)
        assert decompose._is_sub_named(sub, host, s)
        mapping = decompose._pinned_embedding(sub, host, s)
        assert mapping is not None and _is_induced_embedding(sub, host, mapping), sub.edges()


def test_pinned_search_matches_the_oracle_on_edge_flips():
    """Seeded induced subgraphs of both hosts with one vertex pair
    flipped, relabelled, and kept when they pass the degree and girth
    prechecks: the pinned search accepts exactly what the oracle embeds."""
    rng = random.Random(37)
    for host, s in ((petersen(), 3), (heawood(), 4)):
        verdicts = []
        while len(verdicts) < 100:
            sub, _ = host.induced(rng.sample(range(host.n), rng.randint(2, host.n)))
            u, v = sorted(rng.sample(range(sub.n), 2))
            perm = list(range(sub.n))
            rng.shuffle(perm)
            g = Graph(sub.n, list(set(sub.edges()) ^ {(u, v)})).relabel(perm)
            if max(map(bit_count, g.adj)) > 3 or g.girth(below=host.girth()) is not None:
                continue
            verdicts.append(decompose._is_sub_named(g, host, s))
            assert verdicts[-1] == (induced_embedding(g, host) is not None), g.edges()
        assert 20 <= sum(verdicts) <= 80


def test_chi_unique_chord_free_named():
    chi, col = chi_unique_chord_free(petersen())
    assert chi == 3
    chi, col = chi_unique_chord_free(heawood())
    assert chi == 2
    chi, col = chi_unique_chord_free(complete(4))
    assert chi == 4


def test_chi_matches_oracle_on_members():
    rng = random.Random(42)
    done = 0
    for _ in range(300):
        g = random_graph(rng.randint(3, 10), rng.uniform(0.15, 0.5), rng)
        got = recognize_unique_chord_free(g)
        if not got.member:
            continue
        done += 1
        chi, col = chi_unique_chord_free(g)
        rep = exact_invariants(g)
        assert chi == rep.chi
        assert chi <= 2 or chi == 3 or chi == rep.omega
        assert all(col[u] != col[v] for u, v in g.edges())
        assert max(col) + 1 == chi
    assert done >= 80


def test_third_color_matches_the_shortest_odd_cycle_route(monkeypatch):
    """Branching on any odd cycle of g - S gives the chi of the route that
    branched on a shortest one, and both colorings are proper: on every
    labelled member with at most 6 vertices, criterion 5's graphs, the
    benchmark's unique-chord pool and seeded random members with at most
    12 vertices."""
    rng = random.Random(505)
    graphs = list(all_labelled_graphs(6))
    graphs += [random_graph(rng.randint(4, 11), rng.uniform(0.15, 0.5), rng) for _ in range(1000)]
    graphs += [parse_graph(inst.text).graph for inst in bench_workload("structure", 1)
               if inst.family == "unique_chord_free"]
    rng = random.Random(38)
    graphs += [random_graph(rng.randint(7, 12), rng.uniform(0.1, 0.35), rng) for _ in range(1500)]
    calls = []
    real = decompose._third_color
    monkeypatch.setattr(decompose, "_third_color",
                        lambda g, include, exclude: calls.append(g) or real(g, include, exclude))
    members = 0
    for g in graphs:
        try:
            chi, col = chi_unique_chord_free(g)
        except GraphError:
            continue
        members += 1
        with monkeypatch.context() as m:
            m.setattr(decompose, "_third_color", oracle_third_color)
            want, want_col = chi_unique_chord_free(g)
        assert chi == want, g.edges()
        assert g.is_proper_coloring(col) and g.is_proper_coloring(want_col), g.edges()
    assert members >= 3000 and len(calls) >= 500, (members, len(calls))


def test_third_color_on_long_odd_cycles():
    """A 2,001-vertex odd hole and a seeded 2-subdivision of 1,054
    vertices take a third color in well under a second (0.04 s each on
    2 CPUs), where branching on a shortest odd cycle, with a BFS from
    every vertex per search, took 3.3 and 1.3 s."""
    rng = random.Random(64)
    for g in (cycle(2001), two_subdivision(random_graph(64, 0.25, rng))):
        t0 = time.perf_counter()
        chi, col = chi_unique_chord_free(g)
        assert time.perf_counter() - t0 < 1.0, g.n
        assert chi == 3 and g.is_proper_coloring(col), g.n


def test_triangle_chains_need_no_recursion():
    """A chain of triangles, triangle i on 2i, 2i+1 and 2i+2, splits at
    its cut vertices in one 1-cutset node, with one clique leaf per
    triangle.  Recognition (tree, replay, leaves), the tree's repr and
    equality, and coloring answer under a recursion limit 80 frames above
    the caller's, far below the chain's 150 triangles."""
    n = 150
    g = triangle_chain(n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 80)
    try:
        got = recognize_unique_chord_free(g)
        leaves = [leaf.kind for leaf in got.tree.leaves()]
        shown = repr(got.tree)
        same = got.tree == recognize_unique_chord_free(g).tree
        chi, col = chi_unique_chord_free(g)
    finally:
        sys.setrecursionlimit(limit)
    assert got.member and leaves == ["clique"] * n and same and shown.startswith("DecompositionNode(")
    assert got.tree.kind == "one_cutset" and len(got.tree.children) == n
    assert got.tree.cut == tuple(range(2, 2 * n, 2))
    assert chi == 3 and all(col[u] != col[v] for u, v in g.edges())


def test_triangle_chain_copies_each_block_a_bounded_number_of_times(monkeypatch):
    """Decomposing and coloring a chain of 150 triangles hands
    ``Graph.induced`` at most 3 (n + blocks) vertices in all: each block
    is copied a bounded number of times, where splitting one block off at
    a time would copy the rest of the chain at every step."""
    k = 150
    g = triangle_chain(k)
    copied = []
    induced = Graph.induced

    def counted(self, vertices):
        copied.append(len(vertices))
        return induced(self, vertices)

    monkeypatch.setattr(Graph, "induced", counted)
    decompose._decompose(g, list(range(g.n)))
    decompose._chi_member(g)
    assert sum(copied) <= 3 * (g.n + k), sum(copied)


def test_five_cycle_chains_colour_without_recursion():
    """A chain of 200 5-cycles, cycle i on 4i, ..., 4i + 4, glued at cut
    vertices, is triangle-free and not bipartite, so its third color is
    searched on the whole graph, one branch level per vertex it takes in;
    the branches wait on a stack, and the coloring answers under a
    recursion limit of 150."""
    n = 200
    g = Graph(4 * n + 1, [e for i in range(n) for e in (
        (4 * i, 4 * i + 1), (4 * i + 1, 4 * i + 2), (4 * i + 2, 4 * i + 3),
        (4 * i + 3, 4 * i + 4), (4 * i + 4, 4 * i))])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        chi, col = chi_unique_chord_free(g)
    finally:
        sys.setrecursionlimit(limit)
    assert chi == 3 and max(col) == 2 and all(col[u] != col[v] for u, v in g.edges())


def test_chi_needs_no_decomposition(monkeypatch):
    """Membership is the unique-chord cycle search alone: chi answers
    with the decomposition driver broken."""

    def broken(*args):
        raise AssertionError("chi must not decompose")

    monkeypatch.setattr(decompose, "_decompose", broken)
    assert chi_unique_chord_free(petersen())[0] == 3
    g = Graph(7, [(u, v) for blk in ((0, 1, 2, 3), (3, 4, 5, 6)) for u in blk for v in blk if u < v])
    assert chi_unique_chord_free(g)[0] == 4
    with pytest.raises(GraphError):
        chi_unique_chord_free(DIAMOND)


def test_chi_rejects_non_members():
    with pytest.raises(GraphError):
        chi_unique_chord_free(DIAMOND)


def test_non_bipartite_remainder_is_internal(monkeypatch):
    """A third color that leaves an odd cycle breaks _third_color's own
    contract, so the failure is internal, not the input's fault."""
    monkeypatch.setattr(decompose, "_third_color", lambda g, include, exclude: 0)
    with pytest.raises(InternalError, match="bipartite remainder"):
        chi_unique_chord_free(cycle(7))


BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def test_missing_third_color_is_internal(monkeypatch):
    """C7 is a member, so a third color must exist."""
    monkeypatch.setattr(decompose, "_third_color", lambda g, include, exclude: None)
    with pytest.raises(InternalError, match="no third color"):
        chi_unique_chord_free(cycle(7))


def test_missing_one_cutset_is_internal(monkeypatch):
    """The bowtie is a sparse member with a triangle and a cut vertex, so
    only a broken block search can hand it to the coloring as one block."""
    assert recognize_unique_chord_free(BOWTIE).member
    monkeypatch.setattr(Graph, "blocks", lambda self: ([self.full_mask()], 0))
    with pytest.raises(InternalError, match="block with a triangle is not a clique"):
        chi_unique_chord_free(BOWTIE)


def test_escaped_decomposition_is_internal(monkeypatch):
    """Two K4s sharing a vertex: a member that is no leaf, so with the
    block search reporting no cut vertex and both other finders silenced
    the decomposition falls through."""
    g = Graph(7, [(u, v) for blk in ((0, 1, 2, 3), (3, 4, 5, 6)) for u in blk for v in blk if u < v])
    assert recognize_unique_chord_free(g).member
    monkeypatch.setattr(Graph, "blocks", lambda self: ([self.full_mask()], 0))
    for finder in ("_find_special_2_cutset", "_find_proper_1_join"):
        monkeypatch.setattr(decompose, finder, lambda g: None)
    with pytest.raises(InternalError, match="escaped every decomposition case"):
        recognize_unique_chord_free(g)
