"""The acceptance gate: one test per criterion, at the stated scale.

Each test prints a single PASS line with its elapsed time (visible with
pytest -s; pytest itself reports failures).  Expected values are either
exact facts checked against the sources or oracle-equivalences computed
by the independent brute-force routes in helpers/oracle.
"""

import itertools
import random
import time
from itertools import combinations

from helpers import (
    ExtensionSpec,
    clique_block,
    compute_abcd,
    cycle_with_unique_chord_present,
    derive_split,
    forced_join,
    gadget_block,
    line_extension_transform,
    named_zoo,
    omega_of,
    random_berge_instance,
    random_chordal,
    random_connected_girth,
    random_graph,
    random_graph_girth,
    replace_path_by_gadget,
    validate_split,
    validate_two_pair,
)
from inducta.berge import _side_numbers, _solve_halves, berge_alpha_omega, color_berge
from inducta.bienstock import Cnf3, gamma_gadget, prism_reduction
from inducta.classify import (
    color_weakly_triangulated,
    find_two_pair,
    is_weakly_triangulated,
)
from inducta.decompose import chi_unique_chord_free, recognize_unique_chord_free, three_color_chordless
from inducta.detect import detect_prism_pyramid_free, hole_through_two, validate_prism
from inducta.gap import gap_value, verify_gap_chapter
from inducta.graphs import Graph, WeightedGraph, bit_count, mask_of
from inducta.kintree import (
    induced_tree_exists,
    k_in_a_tree,
    validate_cubic_split,
    validate_k4,
    validate_kstruct,
    validate_square_split,
)
from inducta.named import cycle, disjoint_copies, heawood, line_k33, petersen, r35, two_subdivision, wagner
from inducta.oracle import exact_invariants, isomorphic, max_weight_clique, max_weight_stable_set
from inducta.sgraph import find_realization, prism_sgraph, pyramid_sgraph


def _report(name: str, started: float, detail: str = ""):
    took = time.time() - started
    print(f"PASS {name} ({took:.1f}s){': ' + detail if detail else ''}")


def test_criterion_1_gap_facts():
    t0 = time.time()
    assert gap_value(cycle(5)) == 1
    assert gap_value(disjoint_copies(cycle(5), 2)) == 2
    rep = exact_invariants(r35())
    assert rep.theta == 7 and rep.alpha == 4 and rep.theta - rep.alpha == 3
    pairs = list(combinations(range(4), 2))
    count = 0
    for m in range(1 << 6):
        g = Graph(4)
        for i, (u, v) in enumerate(pairs):
            if m >> i & 1:
                g.add_edge_unchecked(u, v)
        count += 1
        assert gap_value(g) == 0
    assert count == 64
    harness = verify_gap_chapter()
    assert harness.ok()
    assert time.time() - t0 < 1.0
    _report("criterion 1 (gap facts, s(1)=5 over 64 graphs)", t0)


def test_criterion_2_named_graph_integrity():
    t0 = time.time()
    p = petersen()
    assert (p.n, p.edge_count(), p.girth()) == (10, 15, 5)
    rp = exact_invariants(p)
    assert rp.alpha == 4 and rp.theta == 5
    h = heawood()
    assert (h.n, h.edge_count(), h.girth()) == (14, 21, 6)
    assert h.bipartition() is not None
    w = wagner()
    rw = exact_invariants(w)
    assert w.edge_count() == 12 and rw.alpha == 3 and rw.omega == 2
    r = r35()
    rr = exact_invariants(r)
    assert r.edge_count() == 26 and rr.omega == 2 and rr.alpha == 4
    lk = line_k33()
    assert isomorphic(lk, lk.complement()) is not None
    assert time.time() - t0 < 1.0
    _report("criterion 2 (named-graph integrity)", t0)


def test_criterion_3_k_in_a_tree():
    t0 = time.time()
    rng = random.Random(2024)
    checked = 0
    cert_kinds = set()
    while checked < 200:
        k = rng.choice([4, 5, 6, 7])
        n = rng.randint(k + 1, 14)
        g = (
            random_connected_girth(n, k, rng)
            if rng.random() < 0.6
            else random_graph_girth(n, k, rng, rng.uniform(0.1, 0.3))
        )
        girth = g.girth()
        if girth is not None and girth < k:
            continue
        terms = rng.sample(range(n), k)
        res = k_in_a_tree(g, terms)
        assert res.has_tree == (induced_tree_exists(g, terms) is not None)
        if res.kind == "square":
            assert validate_square_split(res.graph, res.graph.full_mask(), res.terminals, res.square)
        elif res.kind == "cubic":
            assert validate_cubic_split(res.graph, res.graph.full_mask(), res.terminals, res.cubic)
        elif res.kind == "kstructure":
            assert validate_kstruct(res.graph, res.kstruct)
        elif res.kind == "k4":
            assert validate_k4(res.graph, res.k4)
        cert_kinds.add(res.kind)
        checked += 1

    # the three figures return their certificates
    sq = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (5, 1), (6, 2), (7, 3)])
    assert k_in_a_tree(sq, [4, 5, 6, 7]).kind == "square"
    k4fig = Graph(16, [(0, 4), (0, 5), (0, 6), (1, 4), (1, 7), (1, 8), (2, 5), (2, 7),
                       (2, 9), (3, 6), (3, 8), (3, 9), (10, 4), (11, 5), (12, 6),
                       (13, 7), (14, 8), (15, 9)])
    assert k_in_a_tree(k4fig, list(range(10, 16))).kind == "k4"
    g7 = Graph(21)
    for i in range(7):
        g7.add_edge_unchecked(i, (i + 1) % 7)
        g7.add_edge_unchecked(7 + i, i)
        g7.add_edge_unchecked(14 + i, 7 + i)
    assert k_in_a_tree(g7, list(range(14, 21))).kind == "kstructure"
    assert time.time() - t0 < 300
    _report("criterion 3 (k-in-a-tree vs oracle, 200 graphs)", t0, f"kinds seen: {sorted(cert_kinds)}")


def test_criterion_4_prism_detector():
    t0 = time.time()
    rng = random.Random(404)
    sampled = 0
    pyramid_free = 0
    while sampled < 500:
        n = rng.randint(6, 9)
        g = random_graph(n, rng.uniform(0.2, 0.6), rng)
        sampled += 1
        if find_realization(pyramid_sgraph(), g) is not None:
            continue
        pyramid_free += 1
        got = detect_prism_pyramid_free(g)
        expect = find_realization(prism_sgraph(), g)
        assert (got is not None) == (expect is not None)
        if got is not None:
            assert validate_prism(g, got)
    for name, g in named_zoo().items():
        if find_realization(pyramid_sgraph(), g) is not None:
            continue
        got = detect_prism_pyramid_free(g)
        expect = find_realization(prism_sgraph(), g)
        assert (got is not None) == (expect is not None), name
    assert time.time() - t0 < 120
    _report("criterion 4 (prism detector, 500-sample)", t0, f"{pyramid_free} pyramid-free")


def test_criterion_5_unique_chord_recognition():
    t0 = time.time()
    rng = random.Random(505)
    members = 0
    for _ in range(1000):
        n = rng.randint(4, 11)
        g = random_graph(n, rng.uniform(0.15, 0.5), rng)
        got = recognize_unique_chord_free(g)
        assert got.member == (not cycle_with_unique_chord_present(g))
        if got.member:
            members += 1
            chi, col = chi_unique_chord_free(g)
            rep = exact_invariants(g)
            assert chi == rep.chi
            assert chi <= 2 or chi == 3 or chi == rep.omega
            assert all(col[u] != col[v] for u, v in g.edges())
    assert recognize_unique_chord_free(petersen()).member
    assert recognize_unique_chord_free(heawood()).member
    diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert not recognize_unique_chord_free(diamond).member
    assert time.time() - t0 < 300
    _report("criterion 5 (unique-chord class, 1000 graphs)", t0, f"{members} members")


def test_criterion_6_chordless_coloring():
    t0 = time.time()
    rng = random.Random(606)
    for _ in range(50):
        n = rng.randint(3, 8)
        g = random_graph(n, rng.uniform(0.3, 0.8), rng)
        f = two_subdivision(g)
        assert f.n <= 8 + 2 * 28 <= 64
        col = three_color_chordless(f)  # raises if a peel step finds no low degree
        assert max(col) + 1 <= 3
        assert all(col[u] != col[v] for u, v in f.edges())
    assert time.time() - t0 < 60
    _report("criterion 6 (chordless 3-coloring, 50 subdivisions)", t0)


def test_criterion_7_weakly_triangulated():
    t0 = time.time()
    rng = random.Random(707)
    done = 0
    while done < 100:
        if rng.random() < 0.5:
            g = random_chordal(rng.randint(4, 20), rng)
        else:
            g = random_graph(rng.randint(4, 13), rng.uniform(0.4, 0.75), rng)
            if is_weakly_triangulated(g) is not None:
                continue
        done += 1
        pair = find_two_pair(g)
        if pair is not None:
            assert validate_two_pair(g, pair.a, pair.b)
        col = color_weakly_triangulated(g)
        rep = exact_invariants(g)
        assert max(col) + 1 == rep.omega == rep.chi
        assert all(col[u] != col[v] for u, v in g.edges())
    assert time.time() - t0 < 120
    _report("criterion 7 (weakly triangulated, 100 graphs)", t0)


def test_criterion_8_two_join_algebra():
    """The solver's own join on each glued split: its side numbers
    against the oracle's, its answer against the oracle's, and alpha and
    omega of X2 with X1 read as the solver reads it (weighted gadget,
    clique-weighted marker of either length)."""
    t0 = time.time()
    rng = random.Random(808)
    done = 0
    evens = odds = 0
    while done < 100:
        g, info = random_berge_instance(rng, max_n=20)
        s = derive_split(g, info["x1"], info["x2"])
        if s is None or not validate_split(g, s):
            continue
        if bit_count(s.x1) > 14 or bit_count(s.x2) > 14:
            continue
        w = [rng.randint(0, 4) for _ in range(g.n)]
        wg = WeightedGraph(g, w)
        tree = forced_join(g, s)
        nums = _side_numbers(tree, w, [], True, True)
        abcd = nums.abcd
        assert abcd == compute_abcd(wg, s)
        assert abcd.check_basic()  # 0 <= c <= a,b <= d <= a+b
        assert nums.omega_w == (omega_of(wg, s.a1), omega_of(wg, s.b1), omega_of(wg, s.x1))
        alpha_true = max_weight_stable_set(wg)[0]
        omega_true = max_weight_clique(wg)[0]
        (alpha, _), (omega, _) = _solve_halves(tree, w, alpha=True, omega=True)
        assert (alpha, omega) == (alpha_true, omega_true)
        for k in (3, 4):
            assert max_weight_clique(clique_block(wg, s, k, nums.omega_w))[0] == omega_true
        blk, gadget = gadget_block(tree, w, abcd)
        assert all(blk.weights[v] >= 0 for v in gadget)
        assert max_weight_stable_set(blk)[0] == alpha_true
        if tree.parities[0] == "even":
            assert abcd.a + abcd.b <= abcd.c + abcd.d
            evens += 1
        else:
            assert abcd.c + abcd.d <= abcd.a + abcd.b
            odds += 1
        done += 1
    assert evens >= 20 and odds >= 20
    assert time.time() - t0 < 300
    _report("criterion 8 (2-join block algebra, 100 instances)", t0, f"{evens} even, {odds} odd")


def test_criterion_8b_line_extension_alpha():
    """The line-graph transformation preserves alpha (its share of
    criterion 8's lemma list), checked against the brute-force oracle."""
    t0 = time.time()
    from inducta.berge import gadget_alpha_numbers
    from inducta.linegraph import line_root_with_map
    from inducta.matching import max_weight_matching

    rng = random.Random(818)
    for _ in range(30):
        base = cycle(rng.choice([6, 8]))  # a cycle is its own line graph
        root, root_edges = line_root_with_map(base)
        pth = [0, 1, 2, 3]
        kind = rng.choice(["claw", "vault"])
        w4 = [rng.randint(0, 5) for _ in range(4 if kind == "claw" else 6)]
        if kind == "vault":
            w4[3] = w4[2]
            w4[5] = w4[4]
        base_w = [rng.randint(0, 5) for _ in range(base.n)]
        numbers = gadget_alpha_numbers(kind, w4)
        spec = ExtensionSpec(base, root, root_edges, [pth], [kind])
        gpp, medges, rec = line_extension_transform(base_w, spec, [numbers])
        ext, _, _ = replace_path_by_gadget(WeightedGraph(base, base_w), pth, kind, w4)
        val_match, _ = max_weight_matching(root.n + 2, [(u, v, ww) for u, v, ww, _ in medges])
        assert val_match == max_weight_stable_set(ext)[0] == max_weight_stable_set(gpp)[0]
        assert numbers.c <= numbers.a and numbers.b <= numbers.d
    _report("criterion 8b (line extension alpha equality, 30 cases)", t0)


def test_criterion_9_berge_pipeline():
    t0 = time.time()
    rng = random.Random(909)
    joins = 0
    for i in range(50):
        g, _ = random_berge_instance(rng, max_n=20)
        w = [rng.randint(0, 4) for _ in range(g.n)]
        wg = WeightedGraph(g, w)
        ans = berge_alpha_omega(wg)
        assert ans.alpha == max_weight_stable_set(wg)[0]
        assert ans.omega == max_weight_clique(wg)[0]
        assert g.is_stable_mask(mask_of(ans.alpha_set))
        assert g.is_clique_mask(mask_of(ans.omega_set))
        if ans.tree.kind == "join":
            joins += 1
        if i < 20:
            col = color_berge(g)  # raises if any color class needs > n rounds
            rep = exact_invariants(g)
            assert max(col) + 1 == rep.omega == rep.chi
            assert all(col[u] != col[v] for u, v in g.edges())
    assert joins >= 25
    assert time.time() - t0 < 600
    _report("criterion 9 (berge pipeline, 50 members)", t0, f"{joins} decomposed")


def test_criterion_10_bienstock_equivalence():
    t0 = time.time()
    all_clauses = [
        (s1 * 1, s2 * 2, s3 * 3)
        for s1 in (1, -1)
        for s2 in (1, -1)
        for s3 in (1, -1)
    ]
    formulas = []
    for r in (1, 2, 3):
        for combo in itertools.combinations(all_clauses, r):
            formulas.append(Cnf3.make(3, list(combo)))
    assert len(formulas) == 8 + 28 + 56
    for f in formulas:
        gg = gamma_gadget(f)
        assert gg.graph.triangle() is None
        assert gg.graph.degree(gg.a) == 2 and gg.graph.degree(gg.b) == 2
        sat = f.satisfying_assignment() is not None
        assert (hole_through_two(gg.graph, gg.a, gg.b) is not None) == sat

    rng = random.Random(1010)
    composed = 0
    for _ in range(50):
        n = rng.choice([3, 4])
        m = rng.randint(1, 4)
        clauses = set()
        while len(clauses) < m:
            vs = rng.sample(range(1, n + 1), 3)
            clauses.add(tuple(v * rng.choice([1, -1]) for v in vs))
        f = Cnf3.make(n, sorted(clauses))
        gg = gamma_gadget(f)
        sat = f.satisfying_assignment() is not None
        assert (hole_through_two(gg.graph, gg.a, gg.b) is not None) == sat
        out, _ = prism_reduction(gg.graph, gg.a, gg.b)
        assert (find_realization(prism_sgraph(), out) is not None) == sat
        composed += 1

    # one crafted unsatisfiable composition at full depth
    fu = Cnf3.make(3, all_clauses)
    ggu = gamma_gadget(fu)
    assert hole_through_two(ggu.graph, ggu.a, ggu.b) is None
    outu, _ = prism_reduction(ggu.graph, ggu.a, ggu.b)
    assert find_realization(prism_sgraph(), outu) is None
    assert time.time() - t0 < 300
    _report("criterion 10 (bienstock equivalences, 92 exhaustive + 50 random)", t0)
