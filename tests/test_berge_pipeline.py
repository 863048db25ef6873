import contextlib
import gc
import itertools
import random
import sys
import threading

import pytest

from helpers import (berge_family_graphs, chain_decompose, complement_leaf_graphs, glue_two_sides,
                     minimally_sided_joins, oracle_classify_leaf, prism_side, random_berge_instance,
                     replay_tree)
from inducta import berge
from inducta.berge import (
    OutsideClassError,
    berge_alpha_omega,
    color_berge,
    decompose,
    find_two_join,
    solve,
)
from inducta.graphs import Graph, GraphError, WeightedGraph, mask_of, parse_graph
from inducta.linegraph import line_graph
from inducta.named import complete, complete_bipartite, cycle, petersen
from inducta.oracle import (ALPHA_BOUND, exact_invariants, is_berge, max_weight_clique,
                            max_weight_stable_set)


def test_bipartite_direct_leaf():
    ans = berge_alpha_omega(WeightedGraph(complete_bipartite(3, 4)))
    assert ans.alpha == 4 and ans.omega == 2
    assert ans.tree.kind == "leaf" and ans.tree.leaf.kind == "bipartite"


def test_line_of_bipartite_leaf():
    lk33 = line_graph(complete_bipartite(3, 3))
    ans = berge_alpha_omega(WeightedGraph(lk33))
    assert ans.alpha == 3 and ans.omega == 3
    assert ans.tree.leaf.kind == "line-of-bipartite"


def test_solve_leaf_examples():
    """Flow leaves through the solver's own leaf block; L(Petersen), which
    is no leaf kind (Petersen is not bipartite), by a matching of its
    root against the oracle."""
    from inducta.matching import max_weight_matching
    from inducta.named import path

    for g, w, want in ((complete_bipartite(3, 3), [1] * 6, 3), (path(3), [5, 1, 5], 10)):
        blk = berge._Block(g, berge.classify_leaf(g), list(range(g.n)), [])
        assert berge._leaf_alpha(blk, w, [], g.full_mask())[0] == want
    pet = petersen()
    assert berge.classify_leaf(line_graph(pet)) is None
    assert max_weight_matching(pet.n, [(u, v, 1) for u, v in pet.edges()])[0] == 5
    assert max_weight_stable_set(WeightedGraph(line_graph(pet)))[0] == 5


def test_outside_class_is_reported():
    with pytest.raises(OutsideClassError):
        berge_alpha_omega(WeightedGraph(cycle(5)))


def test_mixed_parity_join_tries_the_complement(monkeypatch):
    """A non-Berge graph whose 2-join has a side of both parities is
    outside the class, so its complement, which has a 2-join too, is
    searched once at its root before the input's failure is reported."""
    g = Graph(7, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 5), (3, 4), (4, 5), (4, 6), (5, 6)])
    comp = g.complement()
    assert find_two_join(g) is not None and find_two_join(comp) is not None
    real = berge.find_two_join
    searched = []

    def counted(h, *args, **kwargs):
        searched.append(h.adj == comp.adj)
        return real(h, *args, **kwargs)

    monkeypatch.setattr(berge, "find_two_join", counted)
    with pytest.raises(OutsideClassError, match="parity-undefined"):
        decompose(g)
    assert searched.count(True) == 1


def test_glued_instance_exercises_join():
    from helpers import ladder_side_odd

    g, info = glue_two_sides(ladder_side_odd(), prism_side())
    wg = WeightedGraph(g)
    ans = berge_alpha_omega(wg)
    assert ans.tree.kind == "join"
    assert ans.alpha == max_weight_stable_set(wg)[0]
    assert ans.omega == max_weight_clique(wg)[0]
    assert replay_tree(ans.tree)
    assert ans.tree.children[0].kind == "leaf"
    # vertices lift correctly
    assert g.is_stable_mask(mask_of(ans.alpha_set))
    assert g.is_clique_mask(mask_of(ans.omega_set))


def test_pipeline_oracle_agreement_random():
    rng = random.Random(60)
    used_join = 0
    for _ in range(30):
        g, info = random_berge_instance(rng, max_n=16)
        w = [rng.randint(0, 4) for _ in range(g.n)]
        wg = WeightedGraph(g, w)
        ans = berge_alpha_omega(wg)
        assert ans.alpha == max_weight_stable_set(wg)[0]
        assert ans.omega == max_weight_clique(wg)[0]
        assert wg.weight_of(mask_of(ans.alpha_set)) == ans.alpha
        assert wg.weight_of(mask_of(ans.omega_set)) == ans.omega
        assert replay_tree(ans.tree)
        if ans.tree.kind == "join":
            used_join += 1
    assert used_join >= 10


def test_prism_prism_glue_is_a_line_leaf():
    # the joined triangle pairs merge into stars of one root vertex
    g, info = glue_two_sides(prism_side(), prism_side())
    ans = berge_alpha_omega(WeightedGraph(g))
    assert ans.tree.leaf.kind == "line-of-bipartite"
    assert ans.omega == 6 and ans.alpha == max_weight_stable_set(WeightedGraph(g))[0]


def test_complement_route():
    from helpers import hub_side_even, line_side_even

    g, info = glue_two_sides(hub_side_even(), line_side_even())
    wg0 = WeightedGraph(g)
    direct = berge_alpha_omega(wg0)
    assert not direct.complemented
    comp = g.complement()
    wg = WeightedGraph(comp)
    ans = berge_alpha_omega(wg)
    assert ans.complemented
    assert ans.alpha == max_weight_stable_set(wg)[0] == direct.omega
    assert ans.omega == max_weight_clique(wg)[0] == direct.alpha


def test_complemented_root_leaves_no_exception_to_the_collector():
    """The root's OutsideClassError is dropped once the complement
    answers: no frame keeps it, so it never reaches the cyclic
    collector.  Three calls on the first complement member of the
    berge-alpha workload."""
    from helpers import bench_workload

    inst = next(i for i in bench_workload("berge-alpha", 1) if "/complement/" in i.family)
    wg = parse_graph(inst.text)
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(3):
            assert berge_alpha_omega(wg).complemented
        gc.collect()
        left = [o for o in gc.garbage if isinstance(o, OutsideClassError)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


def test_figure_graph_has_no_extreme_join():
    """The 16-vertex figure: a proper non-path 2-join exists, but both
    blocks of any such join still have one, so no extreme join exists."""
    from inducta.berge import _path_block, all_proper_nonpath_two_joins

    names = ["b1p", "b2p", "w", "z", "w1", "b1", "b2", "z1", "x1",
             "a1p", "a2p", "y1", "x", "y", "a1", "a2"]
    ix = {nm: i for i, nm in enumerate(names)}
    edges_named = [
        ("x", "x1"), ("x", "a1"), ("x1", "w1"), ("w", "w1"), ("w", "b1p"),
        ("w1", "a1p"), ("x1", "b1"), ("a1p", "b1"),
        ("y", "a2"), ("y", "y1"), ("y1", "z1"), ("z", "z1"), ("z", "b2p"),
        ("b2", "y1"), ("a2p", "z1"), ("a2p", "b2"),
        ("a2", "a1"), ("a2p", "a1"), ("a2", "a1p"), ("a2p", "a1p"),
        ("b2", "b1"), ("b2p", "b1"), ("b2", "b1p"), ("b1p", "b2p"),
    ]
    g = Graph(16, [(ix[a], ix[b]) for a, b in edges_named])
    joins = all_proper_nonpath_two_joins(g)
    assert joins, "the figure graph has a proper non-path 2-join"
    extreme_found = False
    for s in joins:
        for side in (s, s.flip()):
            g1, _ = _path_block(g, side, 4)
            if not all_proper_nonpath_two_joins(g1):
                extreme_found = True
    assert not extreme_found


def _hitting(g: Graph, cliques: list[list[int]]) -> list[int]:
    return berge._hitting_stable_set(decompose(g), cliques)


def test_stable_hitting_cliques_k2():
    g = complete(2)
    got = _hitting(g, [[0, 1]])
    assert got in ([0], [1])


def test_stable_hitting_cliques_c6():
    g = cycle(6)
    cliques = [[0, 1], [2, 3], [4, 5]]
    got = _hitting(g, cliques)
    assert len(got) == 3
    s = mask_of(got)
    assert g.is_stable_mask(s)
    for k in cliques:
        assert s & mask_of(k)


def test_color_berge_basics():
    assert max(color_berge(cycle(6))) + 1 == 2
    assert max(color_berge(complete(4))) + 1 == 4
    lk33 = line_graph(complete_bipartite(3, 3))
    col = color_berge(lk33)
    assert max(col) + 1 == 3
    assert all(col[u] != col[v] for u, v in lk33.edges())


def test_color_berge_on_glued_instances():
    rng = random.Random(61)
    for _ in range(8):
        g, _ = random_berge_instance(rng, max_n=14)
        col = color_berge(g)
        rep = exact_invariants(g)
        assert max(col) + 1 == rep.omega == rep.chi
        assert all(col[u] != col[v] for u, v in g.edges())


def test_color_berge_on_every_small_graph():
    """Every labelled graph with at most five vertices: ``color_berge``
    refuses exactly the graphs ``decompose`` refuses, and colors every
    other one properly with exactly omega colors."""
    accepted = 0
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
            try:
                decompose(g)
            except OutsideClassError:
                with pytest.raises(OutsideClassError):
                    color_berge(g)
                continue
            accepted += 1
            col = color_berge(g)
            assert sorted(set(col)) == list(range(max_weight_clique(WeightedGraph(g))[0])), g.adj
            assert all(col[u] != col[v] for u, v in g.edges()), g.adj
    assert accepted == 1028


def test_color_berge_solves_only_while_omega_is_at_least_three(monkeypatch):
    """The hitting-set loop runs only while the uncolored part has omega
    at least 3; a part with omega at most 2 is bipartite and is colored
    with no further solve.  So graphs with omega at most 2 never ask for
    a hitting set, and on graphs with omega 3 every hitting set and every
    solve comes before the probe that closes the first color class."""
    from inducta.named import octahedron

    real_hit, real_halves = berge._hitting_stable_set, berge._solve_halves
    events = []

    def hit(tree, cliques):
        events.append(("hit", [len(k) for k in cliques]))
        return real_hit(tree, cliques)

    def halves(tree, weights, alpha, omega):
        got = real_halves(tree, weights, alpha, omega)
        if omega and not alpha:
            events.append(("omega", got[1][0]))
        return got

    monkeypatch.setattr(berge, "_hitting_stable_set", hit)
    monkeypatch.setattr(berge, "_solve_halves", halves)
    for g, omega in ((cycle(6), 2), (complete_bipartite(3, 3), 2), (Graph(4), 1),
                     (octahedron(), 3), (line_graph(complete_bipartite(3, 3)), 3)):
        events.clear()
        col = color_berge(g)
        assert sorted(set(col)) == list(range(omega))
        assert all(col[u] != col[v] for u, v in g.edges())
        if omega <= 2:
            assert events == [("omega", omega)]
            continue
        # the first probe weighs every vertex; the last closes the first
        # class, dropping omega to 2; all hitting sets come in between
        assert events[0] == ("omega", 3) and events[-1] == ("omega", 2)
        middle = events[1:-1]
        assert ("hit", [3]) in middle
        assert all(kind == "hit" and set(sizes) == {3} or (kind, sizes) == ("omega", 3)
                   for kind, sizes in middle)


def _reuse_members():
    """Criterion 9's members (seed 909, drawn exactly as there), the glued
    ladder/prism member, and both members of the complement route."""
    from helpers import hub_side_even, ladder_side_odd, line_side_even

    rng = random.Random(909)
    out = []
    for _ in range(50):
        g, _ = random_berge_instance(rng, max_n=20)
        [rng.randint(0, 4) for _ in range(g.n)]  # criterion 9's weights
        out.append(g)
    out.append(glue_two_sides(ladder_side_odd(), prism_side())[0])
    joined, _ = glue_two_sides(hub_side_even(), line_side_even())
    out += [joined, joined.complement()]
    return out


def test_one_tree_serves_every_weighting():
    rng = random.Random(62)
    routes = set()
    for g in _reuse_members():
        tree = decompose(g)
        routes.add((tree.kind, tree.complemented))
        for _ in range(5):
            wg = WeightedGraph(g, [rng.randint(0, 4) for _ in range(g.n)])
            ans = solve(tree, wg.weights)
            # each half alone, as the coloring loop asks for it
            alpha_half, no_omega = berge._solve_halves(tree, wg.weights, alpha=True, omega=False)
            no_alpha, omega_half = berge._solve_halves(tree, wg.weights, alpha=False, omega=True)
            assert no_omega is None and no_alpha is None
            alpha_true, omega_true = max_weight_stable_set(wg)[0], max_weight_clique(wg)[0]
            for (a, aw), (o, ow) in (
                ((ans.alpha, ans.alpha_set), (ans.omega, ans.omega_set)),
                (alpha_half, omega_half),
            ):
                assert a == alpha_true and o == omega_true
                assert g.is_stable_mask(mask_of(aw))
                assert g.is_clique_mask(mask_of(ow))
                assert wg.weight_of(mask_of(aw)) == a
                assert wg.weight_of(mask_of(ow)) == o
            fresh = berge_alpha_omega(wg)
            assert (ans.alpha, ans.alpha_set, ans.omega, ans.omega_set, ans.complemented) == (
                fresh.alpha, fresh.alpha_set, fresh.omega, fresh.omega_set, fresh.complemented)
        assert tree == decompose(g)  # solving left the tree as built
    assert {("join", False), ("join", True)} <= routes


def test_each_half_runs_without_the_other(monkeypatch):
    from helpers import hub_side_even, line_side_even

    g, _ = glue_two_sides(hub_side_even(), line_side_even())
    tree = decompose(g)
    assert tree.kind == "join" and not tree.complemented
    wg = WeightedGraph(g, [1 + v % 3 for v in range(g.n)])

    def other_half(*args, **kwargs):
        raise AssertionError("the half not asked for was solved")

    for patched, alpha, omega in (("_leaf_alpha", False, True), ("_leaf_omega", True, False)):
        with monkeypatch.context() as m:
            m.setattr(berge, patched, other_half)
            with pytest.raises(AssertionError):
                solve(tree, wg.weights)
            a, o = berge._solve_halves(tree, wg.weights, alpha=alpha, omega=omega)
        if alpha:
            assert o is None and a[0] == max_weight_stable_set(wg)[0]
            assert g.is_stable_mask(mask_of(a[1])) and wg.weight_of(mask_of(a[1])) == a[0]
        else:
            assert a is None and o[0] == max_weight_clique(wg)[0]
            assert g.is_clique_mask(mask_of(o[1])) and wg.weight_of(mask_of(o[1])) == o[0]


def test_color_berge_searches_two_joins_once(monkeypatch):
    from helpers import hub_side_even, line_side_even

    real = berge.all_proper_nonpath_two_joins
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(berge, "all_proper_nonpath_two_joins", counted)
    joined, _ = glue_two_sides(hub_side_even(), line_side_even())
    for g, complemented in ((joined, False), (joined.complement(), True)):
        calls.clear()
        ans = berge_alpha_omega(WeightedGraph(g))
        per_answer = len(calls)  # reading ans.tree decomposes again
        assert ans.complemented == complemented and ans.tree.kind == "join"
        # one search per join of the tree, plus, on the complement route,
        # the failed search of g itself: the complement's root is searched
        # once, not once to see that it decomposes and again to decompose it
        joins, node = 0, ans.tree
        while node.kind == "join":
            joins, node = joins + 1, node.children[0]
        assert per_answer == joins + complemented
        calls.clear()
        col = color_berge(g)
        assert max(col) + 1 == ans.omega
        assert 0 < len(calls) <= per_answer


def _blocks(tree):
    """The blocks a tree carries, root first and the leaf's last."""
    out, node = [tree.block], tree
    while node.kind == "join":
        node = node.children[0]
        out.append(node.block)
    return out


def test_one_plan_serves_every_weighting():
    """A tree's blocks reused across 20 weightings, each solved by halves
    and whole as the coloring loop interleaves them, answer exactly as a
    fresh decomposition per weighting, witnesses included; no solve
    changes the flow networks stored on the tree."""
    rng = random.Random(63)
    line_blocks_with_markers = 0
    flows = []
    for g in _reuse_members():
        tree = decompose(g)
        blocks = _blocks(tree)
        line_blocks_with_markers += sum(1 for b in blocks if b.line is not None and b.markers)
        flows += [(f, list(f.net.cap)) for b in blocks for f in (b.flow, b.co and b.co.flow) if f]
        for _ in range(20):
            w = [rng.randint(0, 4) for _ in range(g.n)]
            fresh = berge._solve_halves(decompose(g), w, alpha=True, omega=True)
            alpha_half = berge._solve_halves(tree, w, alpha=True, omega=False)[0]
            omega_half = berge._solve_halves(tree, w, alpha=False, omega=True)[1]
            assert (alpha_half, omega_half) == fresh
            assert berge._solve_halves(tree, w, alpha=True, omega=True) == fresh
            assert solve(tree, w).alpha_set == fresh[0][1]
    assert line_blocks_with_markers > 0 and flows
    assert all(f.net.cap == cap for f, cap in flows)


def test_threads_share_one_tree():
    """Eight threads solving one tree, the one with the largest flow
    network among the reuse members, switched as often as the interpreter
    allows so that they interleave inside its flow solves, answer exactly
    as solves one at a time do."""
    tree = max((decompose(g) for g in _reuse_members()),
               key=lambda t: max((b.flow.graph.n for b in _blocks(t) if b.flow), default=0))
    rng = random.Random(65)
    weightings = [[rng.randint(0, 4) for _ in range(tree.graph.n)] for _ in range(160)]
    want = [solve(tree, w) for w in weightings]
    got = [None] * len(weightings)

    def work(k):
        for i in range(k, len(weightings), 8):
            got[i] = solve(tree, weightings[i])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


def test_answer_keeps_its_graph_and_rebuilds_its_tree():
    """An answer holds the caller's graph and its witnesses, no tree;
    reading ``tree`` decomposes that graph again, which gives the tree
    the answer was solved on."""
    from helpers import hub_side_even, ladder_side_odd, line_side_even

    joined, _ = glue_two_sides(hub_side_even(), line_side_even())
    members = [(glue_two_sides(ladder_side_odd(), prism_side())[0], False),
               (joined, False), (joined.complement(), True)]
    rng = random.Random(64)
    for g, complemented in members:
        wg = WeightedGraph(g, [rng.randint(0, 4) for _ in range(g.n)])
        ans = berge_alpha_omega(wg)
        assert ans.graph is g and ans.complemented == complemented
        assert not any(isinstance(getattr(ans, slot), berge.TreeNode)
                       for slot in berge.BergeAnswer.__slots__)
        tree = decompose(g)
        assert ans.tree == tree and ans.tree.kind == "join" and replay_tree(ans.tree)
        again = solve(tree, wg.weights)
        assert again.graph == g
        assert (again.alpha, again.alpha_set, again.omega, again.omega_set, again.complemented) == (
            ans.alpha, ans.alpha_set, ans.omega, ans.omega_set, ans.complemented)


def test_marker_free_complement_leaves_match_the_oracles():
    """A complement leaf at the root is solved on its complement: alpha
    as a heaviest vertex, edge or root star, omega by flow or matching.
    Sizes past the exact oracle's default bound are answered too."""
    rng = random.Random(65)
    kinds = []
    for g in complement_leaf_graphs(rng):
        wg = WeightedGraph(g, [rng.randint(0, 4) for _ in range(g.n)])
        tree = decompose(g)
        if tree.kind != "leaf" or not tree.leaf.kind.startswith("complement-"):
            continue  # a small or sparse root can make a basic graph of its own
        kinds.append((tree.leaf.kind, g.n))
        ans = berge_alpha_omega(wg)
        assert ans.alpha == max_weight_stable_set(wg, bound=g.n)[0]
        assert ans.omega == max_weight_clique(wg, bound=g.n)[0]
        assert g.is_stable_mask(mask_of(ans.alpha_set)) and g.is_clique_mask(mask_of(ans.omega_set))
        assert wg.weight_of(mask_of(ans.alpha_set)) == ans.alpha
        assert wg.weight_of(mask_of(ans.omega_set)) == ans.omega
    for kind in ("complement-bipartite", "complement-line-of-bipartite"):
        sizes = [n for k, n in kinds if k == kind]
        assert len(sizes) >= 10 and max(sizes) > ALPHA_BOUND


def _double_split(m, n, rng, odd_lengths=None):
    """A double split graph: a matching a_i b_i (i < m), the complement
    of a matching c_j d_j (j < n) on C u D, and for each i, j a_i seeing
    one of c_j, d_j and b_i the other.  With ``odd_lengths``, each
    matching edge a_i b_i becomes a path of a length drawn from it."""
    a, b = range(m), range(m, 2 * m)
    cd = list(range(2 * m, 2 * m + 2 * n))  # c_j = cd[j], d_j = cd[n + j]
    edges = [(cd[x], cd[y]) for x in range(2 * n) for y in range(x + 1, 2 * n) if y - x != n]
    for i in range(m):
        for j in range(n):
            c, d = (cd[j], cd[n + j]) if rng.random() < 0.5 else (cd[n + j], cd[j])
            edges += [(a[i], c), (b[i], d)]
    nv = 2 * m + 2 * n
    for i in range(m):
        length = rng.choice(odd_lengths) if odd_lengths else 1
        walk = [a[i]] + list(range(nv, nv + length - 1)) + [b[i]]
        nv += length - 1
        edges += list(zip(walk, walk[1:]))
    return Graph(nv, edges)


def test_double_split_leaf_kinds():
    """Double split graphs and their odd subdivisions classify as their
    exact leaf kinds, unless they are line graphs of bipartite graphs
    (which ``classify_leaf`` tries first), and the pipeline's answers
    match the oracle on them."""
    from inducta.linegraph import line_root_with_map

    def line_of_bipartite(g):
        got = line_root_with_map(g)
        return got is not None and got[0].bipartition() is not None

    rng = random.Random(1414)
    exact_kinds = set()
    for m in (2, 3):
        for n in (2, 3):
            for _ in range(4):
                g = _double_split(m, n, rng)
                h = _double_split(m, n, rng, odd_lengths=(3, 5))
                hc = h.complement()
                assert berge.is_double_split(g, berge._degree_masks(g))
                assert berge.is_path_double_split(h, *_paths_and_degrees(h))
                for x, kind, line_kind, line_of in (
                    (g, "double-split", "line-of-bipartite", g),
                    (h, "path-double-split", "line-of-bipartite", h),
                    (hc, "complement-path-double-split", "complement-line-of-bipartite", h),
                ):
                    got = berge.classify_leaf(x).kind
                    assert got == (line_kind if line_of_bipartite(line_of) else kind)
                    exact_kinds.add(got)
                    wg = WeightedGraph(x, [rng.randint(0, 4) for _ in range(x.n)])
                    ans = berge_alpha_omega(wg)
                    assert ans.alpha == max_weight_stable_set(wg)[0]
                    assert ans.omega == max_weight_clique(wg)[0]
    assert {"double-split", "path-double-split", "complement-path-double-split"} <= exact_kinds


def test_path_cobipartite_recognizer():
    """Two triangles joined by two flat paths of three edges.  The graph
    is also a line graph of a bipartite graph, which ``classify_leaf``
    reports first, so the recognizer is called directly."""
    g = Graph(10, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                   (0, 6), (6, 7), (7, 3), (1, 8), (8, 9), (9, 4)])
    assert berge.is_path_cobipartite(g, g.complement(), _paths_and_degrees(g)[0])
    assert berge.classify_leaf(g).kind == "line-of-bipartite"


def _paths_and_degrees(g):
    """g's maximal flat paths and degree masks, as ``classify_leaf``
    computes them once for its path tests."""
    by_degree = berge._degree_masks(g)
    return berge._flat_paths_of(g, by_degree.get(2, 0)), by_degree


def _same_leaf(g):
    """classify_leaf agrees with the chain that recomputed everything
    per test: the same kind, and for line kinds the same root; returns
    the kind, or None."""
    got, want = berge.classify_leaf(g), oracle_classify_leaf(g)
    assert (got is None) == (want is None), f"n={g.n} adj={g.adj}"
    if got is None:
        return None
    assert (got.kind, got.root, got.root_edges) == (want.kind, want.root, want.root_edges), \
        f"n={g.n} adj={g.adj}"
    return got.kind


def test_leaf_kinds_match_the_chain_on_every_small_graph():
    """Every labelled graph with at most six vertices; the complement
    of each is one of them too."""
    kinds = set()
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            kinds.add(_same_leaf(Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])))
    assert {None, "bipartite", "line-of-bipartite", "complement-bipartite"} <= kinds


def test_leaf_kinds_match_the_chain_on_the_families(monkeypatch):
    """Every node and block graph that ``decompose`` classifies on the
    Berge test families, along balanced joins first and along minimally
    sided joins only."""
    real = berge.classify_leaf
    seen = {}

    def recorded(g):
        seen.setdefault((g.n, tuple(g.adj)), g)
        return real(g)

    monkeypatch.setattr(berge, "classify_leaf", recorded)
    for g in berge_family_graphs():
        for build in (decompose, chain_decompose):
            try:
                build(g)
            except GraphError:
                pass
    monkeypatch.undo()
    kinds = [_same_leaf(g) for g in seen.values()]
    assert len(kinds) >= 150 and kinds.count(None) >= 30


def test_leaf_kinds_match_the_chain_on_the_exact_kinds():
    """The double split builder with and without odd subdivisions, its
    graphs after degree-preserving edge swaps (the same degree signature,
    so the matching, antimatching and crossing checks decide), each graph
    with its complement, and the path-cobipartite graph above."""
    rng = random.Random(1515)
    graphs = [Graph(10, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                         (0, 6), (6, 7), (7, 3), (1, 8), (8, 9), (9, 4)])]
    for m in (2, 3, 4):
        for n in (2, 3):
            for odd_lengths in (None, (3,), (3, 5), (5, 7)):
                graphs.append(_double_split(m, n, rng, odd_lengths))
            for _ in range(6):
                g = _double_split(m, n, rng)
                for _ in range(rng.randint(1, 3)):
                    (a, b), (c, d) = rng.sample(g.edges(), 2)
                    if len({a, b, c, d}) == 4 and not g.has_edge(a, d) and not g.has_edge(c, b):
                        g = Graph(g.n, [e for e in g.edges() if e not in ((a, b), (c, d))] + [(a, d), (c, b)])
                graphs.append(g)
    kinds = {_same_leaf(x) for g in graphs for x in (g, g.complement())}
    assert {"double-split", "path-double-split", "complement-path-double-split"} <= kinds


def _edge_graph(n, text):
    return Graph(n, [tuple(map(int, e.split("-"))) for e in text.split()])


def test_adjacent_vaults_expand_by_their_own_anchors():
    """Two Berge graphs whose complements decompose, along minimally
    sided joins, by two odd/odd joins into a bipartite leaf with two
    vault markers joined end to end, so each vault's anchors see the
    other's.  Every 0/1 weighting of both, and three positive weightings
    of the second, match the oracle with valid witnesses, and both are
    coloured with omega colours, along that chain and along the balanced
    join that ``decompose`` takes first."""
    g7 = _edge_graph(7, "0-1 0-2 0-3 0-5 1-3 1-5 2-3 2-4 2-5 3-5 4-6 5-6")
    g8 = _edge_graph(8, "0-3 0-6 0-7 1-2 1-3 1-5 1-7 2-3 2-5 2-7 3-5 3-7 4-5 4-6 4-7 5-6 5-7")
    positive = [[3, 1, 1, 1, 3, 1, 1, 1], [3, 1, 1, 1, 3, 1, 2, 2], [3, 1, 1, 1, 3, 1, 3, 3]]
    for g, extra in ((g7, []), (g8, positive)):
        assert is_berge(g)
        leaf = chain_decompose(g).children[0].children[0]
        assert leaf.leaf.kind == "bipartite"
        assert [m.kind for m in leaf.block.markers] == ["vault", "vault"]
        for route in (minimally_sided_joins, contextlib.nullcontext):
            with route():
                for w in [list(w) for w in itertools.product((0, 1), repeat=g.n)] + extra:
                    wg = WeightedGraph(g, w)
                    ans = berge_alpha_omega(wg)
                    assert ans.complemented
                    assert ans.alpha == max_weight_stable_set(wg)[0]
                    assert ans.omega == max_weight_clique(wg)[0]
                    assert g.is_stable_mask(mask_of(ans.alpha_set))
                    assert g.is_clique_mask(mask_of(ans.omega_set))
                    assert wg.weight_of(mask_of(ans.alpha_set)) == ans.alpha
                    assert wg.weight_of(mask_of(ans.omega_set)) == ans.omega
                col = color_berge(g)
            assert max(col) + 1 == max_weight_clique(WeightedGraph(g))[0]
            assert all(col[u] != col[v] for u, v in g.edges())
