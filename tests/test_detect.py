import random

import pytest

from helpers import criterion_10_gadgets, induced_prism_subsets, oracle_hole_through_two, random_graph
from inducta.detect import (
    PrismWitness,
    detect_prism_pyramid_free,
    hole_through_two,
    validate_prism,
)
from inducta.graphs import Graph, GraphError
from inducta.named import complete, cycle, path, petersen
from inducta.sgraph import find_realization, prism_sgraph, pyramid_sgraph

PRISM6 = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])


def test_prism_detects_itself():
    w = detect_prism_pyramid_free(PRISM6)
    assert w is not None
    assert validate_prism(PRISM6, w)


def test_prism_on_triangle_free_named():
    assert detect_prism_pyramid_free(petersen()) is None
    assert detect_prism_pyramid_free(cycle(6)) is None


def test_prism_agreement_random():
    """Agreement with the realization search on pyramid-free graphs."""
    rng = random.Random(7)
    checked = 0
    for _ in range(160):
        g = random_graph(rng.randint(6, 9), rng.uniform(0.25, 0.55), rng)
        if find_realization(pyramid_sgraph(), g) is not None:
            continue
        checked += 1
        got = detect_prism_pyramid_free(g)
        expect = find_realization(prism_sgraph(), g)
        assert (got is not None) == (expect is not None), g.edges()
        if got is not None:
            assert validate_prism(g, got)
    assert checked >= 40


def _prism_plus_noise(rng):
    """The 6-prism plus a few extra vertices, kept pyramid-free."""
    g = PRISM6
    extra = rng.randint(1, 3)
    for _ in range(extra):
        attach = rng.sample(range(g.n), rng.randint(1, 2))
        g = g.add_vertices(1, [attach])
    return g


def test_prism_shortest_path_replay():
    """Replacing a path of a smallest prism by a qualifying shortest path
    keeps a prism of the same order."""
    rng = random.Random(8)
    replays = 0
    for _ in range(60):
        g = _prism_plus_noise(rng)
        if find_realization(pyramid_sgraph(), g) is not None:
            continue
        subs = list(induced_prism_subsets(g))
        if not subs:
            continue
        smallest = min(subs, key=lambda m: bin(m).count("1"))
        h, old = g.induced_mask(smallest)
        emb = find_realization(prism_sgraph(), h)
        tri_a = [old[emb.branch[i]] for i in range(3)]
        tri_b = [old[emb.branch[i]] for i in range(3, 6)]
        paths = [
            [old[v] for v in emb.paths[(i, i + 3)]] for i in range(3)
        ]
        order = sum(len(p) for p in paths)
        for i in range(3):
            others = [tri_a[(i + 1) % 3], tri_a[(i + 2) % 3], tri_b[(i + 1) % 3], tri_b[(i + 2) % 3]]
            banned = 0
            for o in others:
                banned |= g.closed_nb(o)
            banned &= ~(1 << tri_a[i]) & ~(1 << tri_b[i])
            r_i = g.shortest_path(tri_a[i], tri_b[i], g.full_mask() & ~banned)
            assert r_i is not None
            new_paths = [r_i if j == i else paths[j] for j in range(3)]
            w = PrismWitness(tuple(tri_a), tuple(tri_b), tuple(new_paths))
            assert validate_prism(g, w)
            assert sum(len(p) for p in new_paths) == order
            replays += 1
    assert replays >= 9


def test_hole_through_two_basics():
    c5 = cycle(5)
    got = hole_through_two(c5, 0, 2)
    assert got is not None and len(got) == 5
    assert hole_through_two(path(4), 0, 3) is None
    assert hole_through_two(complete(4), 0, 1) is None
    with pytest.raises(GraphError):
        hole_through_two(c5, 1, 1)


def test_hole_through_two_exhaustive_agreement():
    from inducta.oracle import enumerate_holes

    rng = random.Random(9)
    for _ in range(40):
        g = random_graph(rng.randint(4, 9), rng.uniform(0.2, 0.6), rng)
        holes = list(enumerate_holes(g, 4, g.n))
        for x in range(g.n):
            for y in range(x + 1, g.n):
                expect = any(x in h and y in h for h in holes)
                got = hole_through_two(g, x, y)
                assert (got is not None) == expect
                if got:
                    assert x in got and y in got
                    assert g.is_induced_cycle(got)


def test_hole_as_long_as_the_graph():
    """The search keeps its own stack, so a hole of 2,200 vertices is found
    as the whole cycle, the first half walked down from y."""
    hole = hole_through_two(cycle(2200), 0, 1100)
    assert hole == list(range(1100, -1, -1)) + list(range(2199, 1100, -1))


def test_holes_match_the_search_that_copied_its_path():
    """The same hole, or None, as the one-stack search that copied its
    path and ran a reach at every step: on criterion 10's gadgets and on
    every ordered pair of 150 seeded random graphs."""
    holes = 0
    for gg in criterion_10_gadgets():
        got = hole_through_two(gg.graph, gg.a, gg.b)
        assert got == oracle_hole_through_two(gg.graph, gg.a, gg.b)
        holes += got is not None
    rng = random.Random(11)
    for _ in range(150):
        g = random_graph(rng.randint(4, 12), rng.uniform(0.15, 0.6), rng)
        for x in range(g.n):
            for y in range(g.n):
                if x != y:
                    got = hole_through_two(g, x, y)
                    assert got == oracle_hole_through_two(g, x, y), (g.edges(), x, y)
                    holes += got is not None
    assert holes >= 1000
