"""Targeted families for the k-in-a-tree machinery: decorated
k-structures (certificates must survive attachments), bridge vertices
that break the decomposition (the failure analysis must recover the
tree), and the k = 6 transition to a K4-structure."""

import random

from inducta.graphs import Graph
from inducta.kintree import (
    induced_tree_exists,
    k_in_a_tree,
    validate_k4,
    validate_kstruct,
)


def k_structure(k: int, plen: int = 2) -> Graph:
    """Spine cycle s_1..s_k with a path of length plen to each terminal;
    terminals are the last k vertices."""
    n = k * (plen + 1)
    g = Graph(n)
    for i in range(k):
        g.add_edge_unchecked(i, (i + 1) % k)
    for i in range(k):
        prev = i
        for j in range(plen):
            v = k + j * k + i
            g.add_edge_unchecked(prev, v)
            prev = v
    return g


def terminals_of(k: int, plen: int = 2) -> list[int]:
    return [k + (plen - 1) * k + i for i in range(k)]


def test_plain_k_structures():
    for k in (5, 6, 7):
        g = k_structure(k)
        assert g.girth() == k
        res = k_in_a_tree(g, terminals_of(k))
        assert res.kind == "kstructure"
        assert validate_kstruct(res.graph, res.kstruct)


def test_decorated_k_structures_keep_certificates():
    """Pendant decorations hanging off one spine vertex keep the
    decomposition intact."""
    rng = random.Random(9)
    for k in (5, 6, 7):
        g = k_structure(k)
        base_n = g.n
        # hang a path of two extra vertices off spine vertex 0
        g = g.add_vertices(2, [[0], [base_n]])
        res = k_in_a_tree(g, terminals_of(k))
        assert res.kind == "kstructure"
        assert validate_kstruct(res.graph, res.kstruct)


def test_bridge_forces_tree():
    """A vertex joining two path interiors re-connects the terminals."""
    for k, plen, depth in ((5, 3, 1), (6, 2, 0), (5, 3, 0)):
        g = k_structure(k, plen)
        # interiors of paths 0 and 2 at the given layer
        u = k + depth * k + 0
        v = k + depth * k + 2
        g2 = g.add_vertices(1, [[u, v]])
        girth = g2.girth()
        if girth is not None and girth < k:
            continue  # the bridge closed a short cycle; not a valid instance
        terms = terminals_of(k, plen)
        res = k_in_a_tree(g2, terms)
        oracle = induced_tree_exists(g2, terms) is not None
        assert res.has_tree == oracle
        assert res.has_tree  # the bridge always rescues a tree here


def test_k6_transition_to_k4_structure():
    """A 6-structure plus the right hub vertex is a decomposing
    K4-structure; the solver must find it whatever order it grows in."""
    g = k_structure(6, plen=2)
    # w adjacent to the path-neighbors of s_1, s_3, s_5 (first path layer)
    w_attach = [6 + 0, 6 + 2, 6 + 4]
    g2 = g.add_vertices(1, [w_attach])
    assert g2.girth() == 6
    terms = terminals_of(6, plen=2)
    res = k_in_a_tree(g2, terms)
    oracle = induced_tree_exists(g2, terms) is not None
    assert res.has_tree == oracle
    if not res.has_tree:
        assert res.kind == "k4"
        assert validate_k4(res.graph, res.k4)


def test_k6_partial_hub_gives_tree():
    """Attaching to only two of the three alternating paths leaves a
    covering tree."""
    g = k_structure(6, plen=2)
    g2 = g.add_vertices(1, [[6 + 0, 6 + 2]])
    if g2.girth() < 6:
        return
    terms = terminals_of(6, plen=2)
    res = k_in_a_tree(g2, terms)
    assert res.has_tree == (induced_tree_exists(g2, terms) is not None)


def test_random_decorations_against_oracle():
    rng = random.Random(10)
    checked = 0
    for trial in range(220):
        k = rng.choice([5, 6, 7])
        plen = 2 if k == 7 else rng.choice([2, 3])
        g = k_structure(k, plen)
        extra = rng.randint(1, 3)
        ok = True
        for _ in range(extra):
            spots = rng.sample(range(g.n), rng.choice([1, 2]))
            g = g.add_vertices(1, [spots])
        girth = g.girth()
        if girth is not None and girth < k:
            continue
        terms = terminals_of(k, plen)
        if g.n - len(terms) > 16:
            continue
        res = k_in_a_tree(g, terms)
        assert res.has_tree == (induced_tree_exists(g, terms) is not None), (
            k, plen, g.edges())
        if res.kind == "kstructure":
            assert validate_kstruct(res.graph, res.kstruct)
        if res.kind == "k4":
            assert validate_k4(res.graph, res.k4)
        checked += 1
    assert checked >= 50


def test_square_structure_with_fat_classes():
    """A square structure whose S-classes have two vertices each."""
    g = Graph(12)
    # S_i = {i, 4+i}: complete to S_{i+1}
    for i in range(4):
        for a in (i, 4 + i):
            for b in ((i + 1) % 4, 4 + (i + 1) % 4):
                g.add_edge_unchecked(a, b)
    # terminals 8..11, A_i = {8+i} attached to both S_i vertices
    g2 = g.add_vertices(4, [[0, 4], [1, 5], [2, 6], [3, 7]])
    assert g2.girth() == 4
    res = k_in_a_tree(g2, [12, 13, 14, 15])
    oracle = induced_tree_exists(g2, [12, 13, 14, 15]) is not None
    assert res.has_tree == oracle
    if not res.has_tree:
        assert res.kind in ("square", "cubic")


def test_exhaustive_single_attachments_k5():
    """Every one-vertex attachment on two spots of a 5-structure."""
    from itertools import combinations

    g0 = k_structure(5, plen=2)
    terms = terminals_of(5, plen=2)
    checked = 0
    for u, v in combinations(range(g0.n), 2):
        if u in terms or v in terms:
            continue
        g = g0.add_vertices(1, [[u, v]])
        girth = g.girth()
        if girth is not None and girth < 5:
            continue
        res = k_in_a_tree(g, terms)
        assert res.has_tree == (induced_tree_exists(g, terms) is not None), (u, v)
        if res.kind == "kstructure":
            assert validate_kstruct(res.graph, res.kstruct)
        checked += 1
    assert checked >= 20


def test_exhaustive_triple_attachments_k6():
    """Every one-vertex attachment on three spots of a 6-structure, then
    every K4 member of that family with one pendant vertex: the
    K4-structure transition lives in these two families.

    Triples.  The new vertex keeps girth >= 6 only if its three spots
    are pairwise at distance >= 4 in the structure.  On the spine and
    first layer (vertices 0..11) that leaves two triples: two spine
    vertices are at most 3 apart, and spine vertex i is 4 away only from
    6 + (i + 3) % 6, so no third spot fits beside a spine spot; what is
    left are the alternating first-layer triples {6, 8, 10} and
    {7, 9, 11}, both K4-structures.  Spots on the terminals (12..17)
    are allowed too, which makes 148 members (146 tree, 2 k4).

    Pendants.  A pendant vertex never creates a covering induced tree:
    in such a tree it would be a non-terminal leaf, and dropping it
    leaves a tree that still covers the terminals.  So each K4 member
    with one pendant on any of its 19 vertices stays a K4-structure:
    2 * 19 = 38 more members."""
    from itertools import combinations

    g0 = k_structure(6, plen=2)
    terms = terminals_of(6, plen=2)
    checked = 0
    kinds = set()

    def check(g, label):
        nonlocal checked
        res = k_in_a_tree(g, terms)
        assert res.has_tree == (induced_tree_exists(g, terms) is not None), label
        if res.kind == "kstructure":
            assert validate_kstruct(res.graph, res.kstruct)
        if res.kind == "k4":
            assert validate_k4(res.graph, res.k4)
        kinds.add(res.kind)
        checked += 1
        return res.kind

    k4_members = []
    for spots in combinations(range(g0.n), 3):
        g = g0.add_vertices(1, [list(spots)])
        girth = g.girth()
        if girth is not None and girth < 6:
            continue
        if check(g, spots) == "k4":
            k4_members.append((spots, g))
    for spots, g in k4_members:
        for v in range(g.n):
            assert check(g.add_vertices(1, [[v]]), (spots, v)) == "k4", (spots, v)
    assert checked >= 10, (checked, sorted(kinds))
    assert "k4" in kinds, (checked, sorted(kinds))
