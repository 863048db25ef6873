import random

import pytest

from helpers import random_graph
from inducta.graphs import Graph, TooLargeError, WeightedGraph
from inducta.named import complete, cycle, petersen, two_subdivision
from inducta.oracle import (
    chromatic_number,
    enumerate_antiholes,
    enumerate_holes,
    exact_invariants,
    induced_embedding,
    is_berge,
    isomorphic,
    max_weight_stable_set,
)


def test_c5_invariants():
    rep = exact_invariants(cycle(5))
    assert (rep.alpha, rep.omega, rep.theta, rep.chi) == (2, 2, 3, 3)


def test_k1_invariants():
    rep = exact_invariants(Graph(1))
    assert (rep.alpha, rep.omega, rep.theta, rep.chi) == (1, 1, 1, 1)


def test_petersen_invariants():
    rep = exact_invariants(petersen())
    assert (rep.alpha, rep.theta, rep.chi) == (4, 5, 3)


def test_weighted_alpha():
    wg = WeightedGraph(cycle(5), [3, 1, 1, 1, 1])
    val, wit = max_weight_stable_set(wg)
    assert val == 4
    assert wg.graph.is_stable_mask(wit)


def test_alpha_equals_omega_of_complement():
    rng = random.Random(0)
    for _ in range(25):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        a = exact_invariants(g).alpha
        o = exact_invariants(g.complement()).omega
        assert a == o


def test_chi_minimality_small():
    """No proper coloring with chi-1 colors exists (exhaustive, n <= 7)."""
    rng = random.Random(1)
    for _ in range(12):
        g = random_graph(rng.randint(2, 7), 0.5, rng)
        chi, col = chromatic_number(g)
        assert max(col) + 1 == chi
        assert all(col[u] != col[v] for u, v in g.edges())
        if chi > 1:
            assert not _colorable(g, chi - 1)


def _colorable(g, k):
    col = [-1] * g.n

    def rec(i):
        if i == g.n:
            return True
        for c in range(k):
            if all(col[w] != c for w in g.neighbors(i)):
                col[i] = c
                if rec(i + 1):
                    return True
                col[i] = -1
        return False

    return rec(0)


def test_two_subdivision_alpha_identity():
    rng = random.Random(2)
    for _ in range(10):
        g = random_graph(rng.randint(2, 8), 0.5, rng)
        f = two_subdivision(g)
        alpha_f = max_weight_stable_set(WeightedGraph(f), bound=70)[0]
        assert alpha_f == exact_invariants(g).alpha + g.edge_count()


def test_hole_enumeration_counts():
    assert len(list(enumerate_holes(cycle(6), 4, 6))) == 1
    holes = list(enumerate_holes(petersen(), 4, 5))
    assert len(holes) == 12
    assert all(len(h) == 5 for h in holes)
    assert list(enumerate_holes(complete(4), 4, 4)) == []


def test_hole_parity_filter():
    assert len(list(enumerate_holes(cycle(6), 4, 6, "odd"))) == 0
    assert len(list(enumerate_holes(cycle(7), 4, 7, "odd"))) == 1


def test_every_emitted_hole_is_chordless():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng.randint(4, 9), 0.4, rng)
        for h in enumerate_holes(g, 4, g.n):
            assert g.is_induced_cycle(h)


def test_antiholes():
    got = list(enumerate_antiholes(cycle(6).complement(), 6, 6))
    assert len(got) == 1


def test_is_berge():
    assert is_berge(cycle(6))
    assert not is_berge(cycle(5))
    assert not is_berge(cycle(7).complement())
    assert is_berge(petersen().complement()) is False  # petersen has C5s


def test_isomorphic_relabel():
    g = cycle(5)
    h = g.relabel([2, 3, 4, 0, 1])
    assert isomorphic(g, h) is not None
    assert isomorphic(petersen(), cycle(10)) is None


def test_isomorphic_matches_permutation_search():
    """On every graph with at most 5 vertices against one graph of each
    isomorphism class of its order, found by trying every permutation:
    isomorphic answers exactly when a permutation maps one edge set onto
    the other, and its bijection does."""
    from itertools import combinations, permutations

    for n in range(6):
        pairs = list(combinations(range(n), 2))
        graphs = [Graph(n, [p for i, p in enumerate(pairs) if m >> i & 1])
                  for m in range(1 << len(pairs))]
        perms = list(permutations(range(n)))

        def canon(g):
            return min(tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges()))
                       for p in perms)

        forms = [canon(g) for g in graphs]
        reps = {f: g for f, g in zip(forms, graphs)}
        for g, form in zip(graphs, forms):
            for rep_form, rep in reps.items():
                got = isomorphic(g, rep)
                assert (got is not None) == (form == rep_form)
                if got is not None:
                    assert sorted(got) == list(range(n))
                    assert sorted(tuple(sorted((got[u], got[v]))) for u, v in g.edges()) == rep.edges()


def test_isomorphism_bound():
    with pytest.raises(TooLargeError):
        isomorphic(Graph(70), Graph(70))


def test_induced_embedding():
    assert induced_embedding(cycle(5), petersen()) is not None
    assert induced_embedding(cycle(4), petersen()) is None
    assert induced_embedding(complete(3), petersen()) is None
