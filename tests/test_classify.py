import random
from itertools import combinations

import pytest

from helpers import (
    all_labelled_graphs,
    oracle_color_weakly_triangulated,
    oracle_contract_pair,
    oracle_find_two_pair,
    oracle_is_weakly_triangulated,
    oracle_long_hole,
    oracle_partner,
    random_chordal,
    random_connected_girth,
    random_graph,
    validate_two_pair,
)
from inducta import classify, oracle
from inducta.classify import (
    classify_small,
    color_weakly_triangulated,
    find_two_pair,
    is_weakly_triangulated,
)
from inducta.graphs import Graph, GraphError, InternalError, WeightedGraph, bits, mask_of
from inducta.linegraph import line_graph
from inducta.named import (
    a6,
    complete,
    complete_bipartite,
    cycle,
    line_k33,
    octahedron,
    path,
    petersen,
)
from inducta.oracle import exact_invariants, isomorphic, max_weight_clique


# -- small classification ----------------------------------------------------

def test_p3_positive_and_negative():
    got = classify_small(complete(4).union_disjoint(complete(2)), "p3")
    assert got.verdict == "disjoint-cliques" and len(got.parts) == 2
    got = classify_small(path(3), "p3")
    assert not got.in_class and got.witness_name == "P3"


def test_paw_positive_cases():
    got = classify_small(octahedron(), "paw")
    assert got.verdict == "complete-multipartite" and len(got.parts) == 3
    assert classify_small(cycle(7), "paw").verdict == "cycle"
    t = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert classify_small(t, "paw").verdict == "tree"


def test_paw_requires_connected():
    with pytest.raises(GraphError):
        classify_small(cycle(3).union_disjoint(cycle(3)), "paw")
    # the null graph counts as connected for Graph.connected(), but it has
    # no cycle, tree or multipartite shape to report
    with pytest.raises(GraphError):
        classify_small(Graph(0), "paw")


def _is_paw_subdivision(g: Graph, witness: list[int]) -> bool:
    sub, _ = g.induced(witness)
    if sub.edge_count() != sub.n:
        return False
    degs = sorted(sub.degree(i) for i in range(sub.n))
    return degs == [1] + [2] * (sub.n - 2) + [3] and sub.connected()


def _paw_families():
    """Every connected labelled graph on at most 6 vertices, the seeded
    random graphs, and seeded connected graphs of girth at least 5, where
    the witness comes from a shortest cycle of length 5 or more."""
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
            if g.connected():
                yield g
    rng = random.Random(31)
    for _ in range(120):
        g = random_graph(rng.randint(4, 9), rng.uniform(0.2, 0.6), rng)
        if g.connected():
            yield g
    for n in range(6, 17):
        for _ in range(15):
            yield random_connected_girth(n, 5, rng)


def test_paw_witnesses_validate(monkeypatch):
    """Every paw witness is an induced paw subdivision, each of the
    triangle, square and hole routes is taken, and none enumerates holes."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return iter(())

    assert not hasattr(classify, "enumerate_holes")
    monkeypatch.setattr(oracle, "enumerate_holes", spy)
    sizes = {"paw": set(), "paw-subdivision": set()}
    for g in _paw_families():
        got = classify_small(g, "paw")
        if got.in_class:
            continue
        assert _is_paw_subdivision(g, got.witness), (g.edges(), got.witness)
        sizes[got.witness_name].add(len(got.witness))
    assert calls == []
    assert sizes["paw"] == {4} and {5, 6, 7} <= sizes["paw-subdivision"], sizes


def test_hh_line_of_petersen():
    got = classify_small(line_graph(petersen()), "hh")
    assert got.verdict == "line-of-triangle-free"
    assert got.root.triangle() is None
    assert isomorphic(got.root, petersen()) is not None
    assert isomorphic(line_graph(got.root), line_graph(petersen())) is not None


def test_hh_witnesses():
    got = classify_small(complete_bipartite(1, 3), "hh")
    assert got.witness_name == "claw"
    diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    got = classify_small(diamond, "hh")
    assert got.witness_name == "diamond"


def test_claw_coclaw_catalogue():
    assert classify_small(line_k33(), "claw_coclaw").verdict == "sub-l-k33"
    assert classify_small(a6(), "claw_coclaw").verdict == "a6"
    assert classify_small(cycle(7), "claw_coclaw").verdict == "cycles-and-paths"
    got = classify_small(cycle(7).complement(), "claw_coclaw")
    assert got.verdict == "complement-of"
    assert got.complement_of.verdict == "cycles-and-paths"
    got = classify_small(petersen(), "claw_coclaw")
    assert not got.in_class and got.witness_name == "claw"


def test_claw_coclaw_totality_random():
    rng = random.Random(32)
    for _ in range(150):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        got = classify_small(g, "claw_coclaw")
        if not got.in_class:
            sub, _ = g.induced(got.witness)
            m = sub.edge_count()
            degs = sorted(sub.degree(i) for i in range(4))
            if got.witness_name == "claw":
                assert m == 3 and degs == [1, 1, 1, 3]
            else:
                assert m == 3 and degs == [0, 2, 2, 2]


# -- weakly triangulated -----------------------------------------------------

def test_wt_detection():
    assert is_weakly_triangulated(cycle(5)) == ("hole", [0, 1, 2, 3, 4])
    kind, wit = is_weakly_triangulated(cycle(6).complement())
    assert kind == "antihole" and len(wit) == 6
    assert is_weakly_triangulated(random_chordal(12, random.Random(1))) is None


def test_wt_recognition_matches_enumeration():
    """The P3 reach test against hole/antihole enumeration: same verdict,
    same kind, and a witness that is a long hole of g or of its
    complement.  Complements of bipartite graphs carry the antiholes: a
    bipartite graph has no long antihole and no C5, so any long hole it
    has is a long antihole, and nothing else, of its complement."""
    rng = random.Random(71)
    graphs = list(all_labelled_graphs(6))
    graphs += [random_graph(rng.randint(5, 12), rng.uniform(0.2, 0.8), rng) for _ in range(300)]
    graphs += [random_chordal(rng.randint(4, 14), rng).complement() for _ in range(100)]
    for _ in range(300):
        n, p = rng.randint(10, 12), rng.uniform(0.3, 0.5)
        graphs.append(Graph(n, [
            (u, v) for u, v in combinations(range(n), 2) if (u + v) % 2 and rng.random() < p
        ]).complement())
    kinds = {None: 0, "hole": 0, "antihole": 0}
    for g in graphs:
        want = oracle_is_weakly_triangulated(g)
        got = is_weakly_triangulated(g)
        assert (got is None) == (want is None), g.edges()
        if got is None:
            kinds[None] += 1
            continue
        kind, wit = got
        assert kind == want[0], g.edges()
        host = g if kind == "hole" else g.complement()
        assert len(wit) >= 5 and host.is_induced_cycle(wit), (g.edges(), got)
        kinds[kind] += 1
    assert min(kinds.values()) >= 150, kinds


@pytest.fixture(scope="module")
def unpruned_holes():
    """Every labelled graph on at most 6 vertices and 400 seeded random
    graphs with 7 to 16 vertices, each with the unpruned reach test's
    hole (or None) in g and in its complement."""
    rng = random.Random(72)
    graphs = list(all_labelled_graphs(6))
    graphs += [random_graph(rng.randint(7, 16), rng.uniform(0.1, 0.8), rng) for _ in range(400)]
    return [(g, oracle_long_hole(g), oracle_long_hole(g.complement())) for g in graphs]


def _assert_long_holes_match(g: Graph, hole, antihole):
    """``_long_hole`` on g and on its complement, and ``_long_antihole``
    on g, against the unpruned reaches; each witness starts at its lowest
    vertex."""
    assert classify._long_hole(g) == hole, g.edges()
    assert classify._long_hole(g.complement()) == antihole, g.edges()
    assert classify._long_antihole(g) == antihole, g.edges()
    for wit in (hole, antihole):
        assert wit is None or wit[0] == min(wit), (g.edges(), wit)


def test_long_hole_matches_unpruned_reaches(unpruned_holes):
    """The P3 precheck and the lowest-vertex rule (a, c and the reach
    above b) skip only reaches that fail or find a hole found earlier:
    the same hole, or None, as one reach per induced P3, on g and on its
    complement; and the antihole search from g's side finds the
    complement's hole.  The oracle's first hole starts at its lowest
    vertex."""
    found = 0
    for g, hole, antihole in unpruned_holes:
        _assert_long_holes_match(g, hole, antihole)
        found += (hole is not None) + (antihole is not None)
    assert found >= 4000


def test_long_hole_matches_unpruned_reaches_past_16_vertices():
    """The same comparison on seeded graphs with 17 to 40 vertices:
    random graphs at low and at high density, chordal graphs with 20 to
    40 vertices (no long hole or antihole), and chordal graphs with one
    to three edges flipped, each chordal graph with its complement."""
    rng = random.Random(77)
    graphs = []
    for _ in range(250):
        graphs.append(random_graph(rng.randint(17, 40), rng.uniform(0.03, 0.2), rng))
        graphs.append(random_graph(rng.randint(17, 40), rng.uniform(0.8, 0.97), rng))
    for flips in [0] * 100 + [1, 2, 3] * 40:
        g = random_chordal(rng.randint(20, 40), rng)
        for _ in range(flips):
            u, v = rng.sample(range(g.n), 2)
            g.adj[u] ^= 1 << v
            g.adj[v] ^= 1 << u
        graphs += [g, g.complement()]
    found = {"hole": 0, "antihole": 0, "late": 0}
    for g in graphs:
        hole, antihole = oracle_long_hole(g), oracle_long_hole(g.complement())
        _assert_long_holes_match(g, hole, antihole)
        for kind, wit in (("hole", hole), ("antihole", antihole)):
            if wit is not None:
                found[kind] += 1
                found["late"] += wit[0] >= 2
    assert len(graphs) == 940 and min(found.values()) >= 150, found


def test_find_two_pair_matches_copying_finder(unpruned_holes):
    """The mask recursion against the finder on complements and induced
    copies: the same pair on every weakly triangulated graph above, and
    on every graph of the contraction sequence of seeded chordal graphs
    with up to 40 vertices."""
    checked = 0
    for g, hole, antihole in unpruned_holes:
        if hole is None and antihole is None:
            assert find_two_pair(g) == oracle_find_two_pair(g), g.edges()
            checked += 1
    rng = random.Random(73)
    for _ in range(60):
        cur = random_chordal(rng.randint(2, 40), rng)
        while (pair := find_two_pair(cur)) is not None:
            assert pair == oracle_find_two_pair(cur), cur.edges()
            cur, _ = oracle_contract_pair(cur, pair.a, pair.b)
            checked += 1
    assert checked >= 30000


def test_wt_coloring_matches_scratch_loop(unpruned_holes):
    """In-place contraction, seeking the next 2-pair at the contracted
    vertex and setting it aside once universal, against contracting
    copies and seeking every 2-pair from scratch: a proper coloring with
    as many colors on every weakly triangulated graph above (all of those
    with at most 6 vertices among them), and on seeded chordal graphs
    with up to 40 vertices and their complements; omega colors, by the
    oracle's maximum clique, where n <= 12."""
    graphs = [g for g, hole, antihole in unpruned_holes if hole is None and antihole is None]
    rng = random.Random(74)
    for _ in range(60):
        g = random_chordal(rng.randint(2, 40), rng)
        graphs += [g, g.complement()]
    for g in graphs:
        col = color_weakly_triangulated(g)
        want = oracle_color_weakly_triangulated(g)
        assert len(col) == g.n and all(col[u] != col[v] for u, v in g.edges()), g.edges()
        assert len(set(col)) == len(set(want)), g.edges()
        if g.n <= 12:
            assert len(set(col)) == max_weight_clique(WeightedGraph(g))[0], g.edges()


def test_partner_matches_per_candidate_reaches_on_small_graphs():
    """The component sweep against one reach per candidate, for every
    live mask and every vertex z in it, on every labelled graph with at
    most 5 vertices: the lemma holds in any graph."""
    found = {True: 0, False: 0}
    for g in all_labelled_graphs(5):
        for live in range(1, 1 << g.n):
            for z in bits(live):
                got = classify._partner(g, live, z)
                assert got == oracle_partner(g, live, z), (g.edges(), live, z)
                found[got is not None] += 1
    # 2^C(n,2) graphs on n vertices, each with n * 2^(n-1) pairs (live, z)
    assert found[True] + found[False] == 84_073 and min(found.values()) >= 10_000, found


def test_partner_matches_per_candidate_reaches_on_the_contractions(unpruned_holes, monkeypatch):
    """Every partner search that colouring makes, against one reach per
    candidate: on every weakly triangulated graph with at most 6 vertices,
    and on seeded chordal graphs with up to 60 vertices and their
    complements.  Every search agreeing, the contractions and colourings
    are those of the per-candidate loop.  In these graphs every vertex
    that is not universal has a partner."""
    real = classify._partner
    searches = 0

    def checked(g, live, z):
        nonlocal searches
        got = real(g, live, z)
        assert got is not None and got == oracle_partner(g, live, z), (g.adj, live, z)
        searches += 1
        return got

    monkeypatch.setattr(classify, "_partner", checked)
    graphs = [g for g, hole, antihole in unpruned_holes
              if g.n <= 6 and hole is None and antihole is None]
    rng = random.Random(76)
    for _ in range(30):
        g = random_chordal(rng.randint(20, 60), rng)
        graphs += [g, g.complement()]
    for g in graphs:
        col = color_weakly_triangulated(g)
        assert all(col[u] != col[v] for u, v in g.edges()), g.edges()
    assert searches >= 20_000, searches


def test_wt_coloring_seeks_pairs_at_the_contracted_vertex(monkeypatch):
    """On seeded chordal graphs with 30 to 40 vertices, find_two_pair
    runs on fewer than half of the contraction steps.  Each step and each
    set-aside vertex takes one vertex off the live mask, and the final
    clique and the set-aside vertices each keep a color of their own, so
    a coloring of n vertices with k colors took n - k steps."""
    searches, steps = 0, 0
    real = classify.find_two_pair

    def counted(*args):
        nonlocal searches
        searches += 1
        return real(*args)

    monkeypatch.setattr(classify, "find_two_pair", counted)
    rng = random.Random(75)
    for _ in range(20):
        g = random_chordal(rng.randint(30, 40), rng)
        k = len(set(color_weakly_triangulated(g)))
        assert k == len(set(oracle_color_weakly_triangulated(g)))
        steps += g.n - k
    assert steps >= 20 * 20
    assert 2 * searches < steps, (searches, steps)


def test_wt_coloring_sets_universal_contracted_vertices_aside(monkeypatch):
    """C4: the first search contracts 3 into 1, which is then adjacent
    to both other live vertices, so the second search runs on {0, 2}
    without it; contracting 2 into 0 leaves 0 alone, set aside too."""
    masks = []
    real = classify.find_two_pair

    def spy(g, live=None):
        masks.append(live)
        return real(g, live)

    monkeypatch.setattr(classify, "find_two_pair", spy)
    assert color_weakly_triangulated(cycle(4)) == [0, 1, 0, 1]
    assert masks == [0b1111, 0b0101, 0]


def test_wt_coloring_blames_itself_for_a_failed_pair(monkeypatch):
    """Past recognition, a 2-pair that fails validation is the program's
    fault (InternalError); find_two_pair called directly blames the input."""
    with pytest.raises(GraphError):
        find_two_pair(cycle(5))
    monkeypatch.setattr(classify, "is_weakly_triangulated", lambda g: None)
    with pytest.raises(InternalError, match="2-pair failed validation"):
        color_weakly_triangulated(cycle(5))


def test_wt_paths_never_enumerate_holes(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("hole enumeration reached")

    for name in ("enumerate_holes", "enumerate_antiholes"):
        monkeypatch.setattr(oracle, name, refuse)
    assert is_weakly_triangulated(cycle(7).complement())[0] == "antihole"
    g = random_chordal(20, random.Random(5)).complement()
    assert is_weakly_triangulated(g) is None
    col = color_weakly_triangulated(g)
    assert all(col[u] != col[v] for u, v in g.edges())


def test_two_pair_examples():
    p = find_two_pair(path(4))
    assert p is not None and validate_two_pair(path(4), p.a, p.b)
    p = find_two_pair(cycle(4))
    assert {p.a, p.b} in ({0, 2}, {1, 3})
    assert find_two_pair(complete(5)) is None


def test_rrwt_property():
    """Interior T-complete vertex on long paths with T-complete ends."""
    rng = random.Random(33)
    checked = 0
    for _ in range(250):
        g = random_graph(rng.randint(5, 9), rng.uniform(0.35, 0.7), rng)
        if is_weakly_triangulated(g) is not None:
            continue
        comp = g.complement()
        for size in (1, 2, 3):
            for tset in combinations(range(g.n), size):
                tmask = mask_of(tset)
                if size > 1 and len(comp.components_of(tmask)) != 1:
                    continue
                complete_to = [
                    v
                    for v in range(g.n)
                    if not (tmask >> v & 1) and tmask & ~g.adj[v] == 0
                ]
                for x, y in combinations(complete_to, 2):
                    pth = _induced_path(g, x, y, tmask)
                    if pth is None or len(pth) < 4:
                        continue
                    interior_ok = any(
                        tmask & ~g.adj[v] == 0 for v in pth[1:-1]
                    )
                    assert interior_ok, (g.edges(), tset, pth)
                    checked += 1
    assert checked >= 20


def _induced_path(g, x, y, avoid):
    """Some induced x-y path of length >= 3 avoiding `avoid`, or None."""
    def dfs(pathv, used):
        v = pathv[-1]
        if v == y and len(pathv) >= 4:
            return pathv
        for w in bits(g.adj[v] & ~used & ~avoid):
            if w != y and g.adj[w] & used & ~(1 << v):
                continue
            if w == y and g.adj[w] & used & ~(1 << v):
                continue
            got = dfs(pathv + [w], used | (1 << w))
            if got:
                return got
        return None

    return dfs([x], 1 << x)


def test_contraction_preserves_chi_omega():
    rng = random.Random(34)
    done = 0
    while done < 30:
        g = random_graph(rng.randint(4, 11), rng.uniform(0.4, 0.7), rng)
        if is_weakly_triangulated(g) is not None:
            continue
        p = find_two_pair(g)
        if p is None:
            continue
        done += 1
        before = exact_invariants(g)
        h, _ = oracle_contract_pair(g, p.a, p.b)
        after = exact_invariants(h)
        assert after.chi == before.chi and after.omega == before.omega


def test_wt_coloring_uses_omega_colors():
    rng = random.Random(35)
    done = 0
    while done < 40:
        if rng.random() < 0.5:
            g = random_chordal(rng.randint(4, 16), rng)
        else:
            g = random_graph(rng.randint(4, 12), rng.uniform(0.4, 0.7), rng)
            if is_weakly_triangulated(g) is not None:
                continue
        done += 1
        col = color_weakly_triangulated(g)
        rep = exact_invariants(g)
        assert max(col) + 1 == rep.omega == rep.chi
        assert all(col[u] != col[v] for u, v in g.edges())


def test_wt_coloring_rejects_non_wt():
    with pytest.raises(GraphError):
        color_weakly_triangulated(cycle(5))
