import random

import pytest

from helpers import (
    ExtensionSpec,
    bench_workload,
    berge_family_graphs,
    chain_decompose,
    clique_block,
    compute_abcd,
    derive_split,
    forced_join,
    gadget_block,
    glue_two_sides,
    line_extension_transform,
    oracle_find_two_join,
    oracle_gadgetize,
    prism_side,
    random_berge_instance,
    random_graph,
    replace_path_by_gadget,
    replay_tree,
    theta_side,
    validate_split,
)
from inducta import berge
from inducta.berge import (
    ABCD,
    OutsideClassError,
    _side_numbers,
    find_two_join,
    gadget_alpha_numbers,
    gadget_weights,
)
from inducta.graphs import Graph, GraphError, WeightedGraph, bit_count, bits, mask_of, parse_graph
from inducta.linegraph import line_graph, line_root_with_map
from inducta.matching import max_weight_matching
from inducta.named import cycle, complete
from inducta.oracle import max_weight_clique, max_weight_stable_set


def _known_split(g, info):
    s = derive_split(g, info["x1"], info["x2"])
    assert s is not None and validate_split(g, s)
    return s


def _side_abcd(g, s, weights=None):
    """The abcd numbers the solver hands on for X1 of s."""
    tree = forced_join(g, s)
    return tree, _side_numbers(tree, weights or [1] * g.n, [], True, False).abcd


def test_c8_has_only_path_joins():
    assert find_two_join(cycle(8)) is None


def test_k4_has_no_join():
    assert find_two_join(complete(4)) is None


def test_abcd_examples_from_paths():
    # X1 = a1-c-b1 (even side): (a,b,c,d) = (1,1,1,2); X2 is even too,
    # since the solver's join needs a Berge graph (here C6)
    g, info = glue_two_sides(
        (Graph(3, [(0, 2), (2, 1)]), 1, 2),
        (Graph(3, [(0, 2), (2, 1)]), 1, 2),
    )
    s = _known_split(g, info)
    tree, abcd = _side_abcd(g, s)
    assert (abcd.a, abcd.b, abcd.c, abcd.d) == (1, 1, 1, 2)
    assert tree.parities[0] == "even"
    assert abcd.a + abcd.b <= abcd.c + abcd.d
    eb, q = gadget_block(tree, [1] * g.n, abcd)
    assert [eb.weights[v] for v in q] == [1, 1, 1, 0]

    # X1 = a1-u-v-b1 (odd side): (a,b,c,d) = (2,2,1,2)
    g, info = glue_two_sides(
        (Graph(4, [(0, 2), (2, 3), (3, 1)]), 1, 2),
        (Graph(4, [(0, 2), (2, 3), (3, 1)]), 1, 2),
    )
    s = _known_split(g, info)
    tree, abcd = _side_abcd(g, s)
    assert (abcd.a, abcd.b, abcd.c, abcd.d) == (2, 2, 1, 2)
    assert tree.parities[0] == "odd"
    assert abcd.c + abcd.d <= abcd.a + abcd.b
    ob, r = gadget_block(tree, [1] * g.n, abcd)
    assert [ob.weights[v] for v in r] == [0, 0, 1, 1, 1, 1]


def test_c_zero_when_c1_empty():
    g, info = glue_two_sides(prism_side(), prism_side())
    s = _known_split(g, info)
    assert _side_abcd(g, s)[1].c == 0


def test_block_shapes_and_sizes():
    """The solver's join on two odd sides: the side block is X1 plus a
    3-edge marker for odd X2, the child is X2 plus a 3-edge marker for
    odd X1, and the child is exactly the parent's recorded block."""
    g, info = glue_two_sides(theta_side(random.Random(0), "odd"), theta_side(random.Random(1), "odd"))
    s = _known_split(g, info)
    tree = forced_join(g, s)
    assert tree.parities == ("odd", "odd") and tree.marker_len == 3
    assert tree.block.graph.n == bit_count(s.x1) + 3 + 1
    assert tree.children[0].graph.n == bit_count(s.x2) + 3 + 1
    assert replay_tree(tree)


def _random_instances(count, seed, max_n=16):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g, info = random_berge_instance(rng, max_n=max_n)
        s = derive_split(g, info["x1"], info["x2"])
        if s is None or not validate_split(g, s):
            continue
        w = [rng.randint(0, 4) for _ in range(g.n)]
        out.append((g, s, WeightedGraph(g, w)))
    return out


def test_komega_on_random_instances():
    for g, s, wg in _random_instances(25, 50):
        omega_w = _side_numbers(forced_join(g, s), wg.weights, [], False, True).omega_w
        for k in (3, 4):
            blk = clique_block(wg, s, k, omega_w)
            assert max_weight_clique(blk)[0] == max_weight_clique(wg)[0]


def test_even_odd_blocks_alpha_equality():
    checked_even = checked_odd = 0
    for g, s, wg in _random_instances(35, 51):
        tree, abcd = _side_abcd(g, s, wg.weights)
        assert abcd == compute_abcd(wg, s)
        truth = max_weight_stable_set(wg)[0]
        assert abcd.check_basic()
        blk, gadget = gadget_block(tree, wg.weights, abcd)
        assert all(blk.weights[v] >= 0 for v in gadget)
        assert max_weight_stable_set(blk)[0] == truth
        if tree.parities[0] == "even":
            assert abcd.a + abcd.b <= abcd.c + abcd.d
            checked_even += 1
        else:
            assert abcd.c + abcd.d <= abcd.a + abcd.b
            checked_odd += 1
    assert checked_even >= 5 and checked_odd >= 5


def test_flat_claw_and_vault_shapes():
    g, info = glue_two_sides(theta_side(random.Random(3), "even"), theta_side(random.Random(4), "even"))
    tree, abcd = _side_abcd(g, _known_split(g, info))
    blk, q = gadget_block(tree, [1] * g.n, abcd)
    h = blk.graph
    assert h.degree(q[3]) == 1 and h.degree(q[1]) == 3
    assert not (h.adj[q[0]] & h.adj[q[2]] & ~(1 << q[1]))

    g, info = glue_two_sides(theta_side(random.Random(5), "odd"), theta_side(random.Random(6), "odd"))
    tree, abcd = _side_abcd(g, _known_split(g, info))
    blk, r = gadget_block(tree, [1] * g.n, abcd)
    h = blk.graph
    assert h.degree(r[2]) == 2 and h.degree(r[3]) == 2
    assert h.adj[r[0]] == h.adj[r[4]] & ~(1 << r[3]) & ~(1 << r[5])


def test_gadget_alpha_numbers_recover_abcd():
    rng = random.Random(7)
    for _ in range(20):
        a = rng.randint(0, 6)
        b = rng.randint(0, 6)
        c = rng.randint(0, min(a, b))
        d = rng.randint(max(a, b), a + b)
        abcd = ABCD(a, b, c, d)
        if a + b <= c + d:
            got = gadget_alpha_numbers("claw", gadget_weights("claw", abcd))
            assert (got.a, got.b, got.c, got.d) == (a, b, c, d)
        if c + d <= a + b:
            got = gadget_alpha_numbers("vault", gadget_weights("vault", abcd))
            assert (got.a, got.b, got.c, got.d) == (a, b, c, d)


def test_gadget_alpha_numbers_match_the_oracle():
    """The closed forms equal the exhaustive stable-set numbers of the
    gadget's four defining subsets on every weighting in 0..3."""
    from itertools import product

    for kind, gg, subsets in (
        ("claw", Graph(4, [(0, 1), (1, 2), (1, 3)]), [(0, 1, 3), (1, 2, 3), (1, 3), (0, 1, 2, 3)]),
        ("vault", Graph(6, [(2, 3), (3, 4), (4, 5), (5, 2)]),
         [(0, 2, 3, 4), (1, 2, 3, 5), (2, 3), (0, 1, 2, 3, 4, 5)]),
    ):
        for w in product(range(4), repeat=gg.n):
            want = []
            for vs in subsets:
                sub, old = gg.induced(vs)
                want.append(max_weight_stable_set(WeightedGraph(sub, [w[o] for o in old]))[0])
            got = gadget_alpha_numbers(kind, list(w))
            assert [got.a, got.b, got.c, got.d] == want, (kind, w)


def test_line_extension_transform_trivial():
    # no extended paths: G'' is the line graph itself
    lg = line_graph(cycle(6))
    root, root_edges = line_root_with_map(lg)
    spec = ExtensionSpec(lg, root, root_edges, [], [])
    w = [1] * lg.n
    gpp, medges, rec = line_extension_transform(w, spec, [])
    assert gpp.graph.n == lg.n
    val, _ = max_weight_matching(root.n, [(u, v, ww) for u, v, ww, _ in medges])
    assert val == max_weight_stable_set(WeightedGraph(lg, w))[0]


def test_line_extension_transform_alpha_equality():
    """Extend one flat path of L(C6) = C6 to a claw; alpha must match the
    brute-force alpha of the actual extension graph."""
    rng = random.Random(8)
    for _ in range(12):
        base = cycle(6)
        root, root_edges = line_root_with_map(base)
        pth = [0, 1, 2, 3]
        kind = rng.choice(["claw", "vault"])
        w4 = [rng.randint(0, 5) for _ in range(4 if kind == "claw" else 6)]
        if kind == "vault":
            w4[3] = w4[2]
            w4[5] = w4[4]
        numbers = gadget_alpha_numbers(kind, w4)
        base_w = [0, 0, 0, 0, rng.randint(0, 5), rng.randint(0, 5)]
        spec = ExtensionSpec(base, root, root_edges, [pth], [kind])
        gpp, medges, rec = line_extension_transform(base_w, spec, [numbers])
        # build the actual extension for the oracle side
        ext, _, _ = replace_path_by_gadget(WeightedGraph(base, base_w), pth, kind, w4)
        val_matching, _ = max_weight_matching(
            root.n + 2, [(u, v, ww) for u, v, ww, _ in medges]
        )
        val_truth = max_weight_stable_set(ext)[0]
        val_gpp = max_weight_stable_set(gpp)[0]
        assert val_matching == val_truth == val_gpp
        nums = rec[0]["numbers"]
        assert nums.c <= nums.a and nums.b <= nums.d


def _subdivided_root_spec(rng):
    """A line graph of a triangle-free root in which two to four root
    edges are subdivided into root paths of 4 or 5 edges; returns the
    line graph and its flat paths, one per subdivided edge."""
    while True:
        n0 = rng.randint(3, 7)
        r0 = Graph(n0, [(u, v) for u in range(n0) for v in range(u + 1, n0) if rng.random() < 0.5])
        if r0.triangle() is None and r0.edge_count() >= 2:
            break
    chosen = rng.sample(r0.edges(), rng.randint(2, min(4, r0.edge_count())))
    redges, nv, chains = [e for e in r0.edges() if e not in chosen], n0, []
    for a, b in chosen:
        length = rng.choice([4, 5])
        walk = [a] + list(range(nv, nv + length - 1)) + [b]
        nv += length - 1
        chains.append([(min(e), max(e)) for e in zip(walk, walk[1:])])
        redges += chains[-1]
    r = Graph(nv, redges)
    index = {e: i for i, e in enumerate(r.edges())}
    return line_graph(r), [[index[e] for e in chain] for chain in chains]


def test_line_extension_transform_multi_path():
    """G'' is the line graph of the returned root multigraph, and with two
    or more extended paths the matching still gives alpha of G'' and of
    the extension itself (the base with every path swapped for its
    gadget)."""
    from inducta.matching import MATCHING_BOUND

    rng = random.Random(1313)
    checked = touching = 0
    while checked < 600:
        base, paths = _subdivided_root_spec(rng)
        root, root_edges = line_root_with_map(base)
        nodes = root.n + 2 * len(paths)
        if nodes > MATCHING_BOUND:
            continue
        kinds = [rng.choice(["claw", "vault"]) for _ in paths]
        w4s = []
        for kind in kinds:
            w4 = [rng.randint(0, 5) for _ in range(4 if kind == "claw" else 6)]
            if kind == "vault":
                w4[3], w4[5] = w4[2], w4[4]
            w4s.append(w4)
        base_w = [rng.randint(0, 5) for _ in range(base.n)]
        spec = ExtensionSpec(base, root, root_edges, paths, kinds)
        numbers = [gadget_alpha_numbers(k, w) for k, w in zip(kinds, w4s)]
        gpp, medges, rec = line_extension_transform(base_w, spec, numbers)

        want = Graph(gpp.graph.n)
        for i, (u, v, _, x) in enumerate(medges):
            for u2, v2, _, y in medges[i + 1:]:
                if {u, v} & {u2, v2}:
                    want.add_edge_unchecked(x, y)
        assert gpp.graph == want
        assert sorted(x for *_, x in medges) == list(range(gpp.graph.n))

        ext = WeightedGraph(base, base_w)
        left = [list(p) for p in paths]
        for i, (kind, w4) in enumerate(zip(kinds, w4s)):
            ext, _, omap = replace_path_by_gadget(ext, left[i], kind, w4)
            left[i + 1:] = [[omap[v] for v in p] for p in left[i + 1:]]
        val, _ = max_weight_matching(nodes, [(u, v, w) for u, v, w, _ in medges])
        assert val == max_weight_stable_set(gpp)[0] == max_weight_stable_set(ext)[0]
        assert [r["path"] for r in rec] == paths and [r["kind"] for r in rec] == kinds
        ends = [mask_of((p[0], p[-1])) for p in paths]
        touching += any(base.adj[e] & ends[j] for i, m in enumerate(ends)
                        for j in range(i + 1, len(ends)) for e in bits(m))
        checked += 1
    assert touching >= 400  # ends of two paths adjacent: the inter-path case


def test_line_extension_past_the_node_bound():
    """A spec whose root multigraph has root.n + 2k of 29 or 30 nodes,
    more than MATCHING_BOUND, of which the interiors of the extended root
    paths carry no edge: the matching still answers, with alpha of G''
    and of the extension graph."""
    from inducta.matching import MATCHING_BOUND

    rng = random.Random(2)
    while True:
        base, paths = _subdivided_root_spec(rng)
        root, root_edges = line_root_with_map(base)
        nodes = root.n + 2 * len(paths)
        if nodes in (29, 30):
            break
    assert nodes > MATCHING_BOUND
    kinds = [("claw", "vault")[i % 2] for i in range(len(paths))]
    w4s = []
    for kind in kinds:
        w4 = [rng.randint(0, 5) for _ in range(4 if kind == "claw" else 6)]
        if kind == "vault":
            w4[3], w4[5] = w4[2], w4[4]
        w4s.append(w4)
    base_w = [rng.randint(0, 5) for _ in range(base.n)]
    spec = ExtensionSpec(base, root, root_edges, paths, kinds)
    numbers = [gadget_alpha_numbers(k, w) for k, w in zip(kinds, w4s)]
    gpp, medges, _ = line_extension_transform(base_w, spec, numbers)
    ext = WeightedGraph(base, base_w)
    left = [list(p) for p in paths]
    for i, (kind, w4) in enumerate(zip(kinds, w4s)):
        ext, _, omap = replace_path_by_gadget(ext, left[i], kind, w4)
        left[i + 1:] = [[omap[v] for v in p] for p in left[i + 1:]]
    val, _ = max_weight_matching(nodes, [(u, v, w) for u, v, w, _ in medges])
    assert val == max_weight_stable_set(gpp)[0] == max_weight_stable_set(ext)[0]


def test_blocks_and_splits_match_the_replaced_routes(monkeypatch):
    """Every minimally sided 2-join search and every gadgetized block that
    ``decompose`` makes, along balanced joins first and along minimally
    sided joins only, over the family graphs, the seed-1 graphs of both
    Berge benchmark workloads and seeded random graphs, equals what the
    re-derived marker shift and the per-marker swap give: all six masks
    of each split, each refusal's message, and each block's gadgetized
    graph, map back and gadgets.  The chains of minimally sided joins
    reach the marker shift and adjacent markers; the random graphs reach
    the fallback to the smallest marker-independent side and its
    refusal."""
    real_find, real_gadgetize = berge.find_two_join, berge._gadgetize
    seen = {"shifted": 0, "fallback": 0, "refused": 0, "adjacent": 0}

    def find(g, markers=None, joins=None):
        try:
            want = oracle_find_two_join(g, markers)
        except OutsideClassError as err:
            seen["refused"] += 1
            with pytest.raises(OutsideClassError, match=f"^{err}$"):
                real_find(g, markers, joins)
            raise
        got = real_find(g, markers, joins)
        assert got == want
        if markers and got is not None:
            minimal = real_find(g)
            seen["shifted"] += got.x1 != minimal.x1
            seen["fallback"] += got.x1 & minimal.x1 != minimal.x1
        return got

    def gadgetize(g, markers):
        got = real_gadgetize(g, markers)
        assert got == oracle_gadgetize(g, markers)
        ends = mask_of(v for m in markers for v in (m.path[0], m.path[-1]))
        seen["adjacent"] += any(g.adj[m.path[0]] & ends or g.adj[m.path[-1]] & ends for m in markers)
        return got

    monkeypatch.setattr(berge, "find_two_join", find)
    monkeypatch.setattr(berge, "_gadgetize", gadgetize)
    graphs = berge_family_graphs()
    for workload in ("berge-color", "berge-alpha"):
        graphs += [parse_graph(inst.text).graph for inst in bench_workload(workload, 1)]
    rng = random.Random(2929)
    graphs += [random_graph(rng.randint(4, 11), rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)), rng)
               for _ in range(1000)]
    for g in graphs:
        for build in (berge.decompose, chain_decompose):
            try:
                build(g)
            except GraphError:
                pass
    assert seen["shifted"] >= 50 and seen["fallback"] >= 1, seen
    assert seen["refused"] >= 1 and seen["adjacent"] >= 20, seen
