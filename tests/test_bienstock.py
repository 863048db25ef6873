import itertools
import random

import pytest

from helpers import count_triangles
from inducta.bienstock import (
    Cnf3,
    assignment_hole,
    format_dimacs_cnf,
    gamma_gadget,
    parse_dimacs_cnf,
    prism_reduction,
)
from inducta.detect import hole_through_two
from inducta.graphs import GraphError
from inducta.named import cycle
from inducta.sgraph import find_realization, prism_sgraph


def test_cnf_validation():
    with pytest.raises(GraphError):
        Cnf3.make(3, [(1, 2)])  # not 3 literals
    with pytest.raises(GraphError):
        Cnf3.make(3, [(1, 1, 2)])  # repeated variable
    with pytest.raises(GraphError):
        Cnf3.make(2, [(1, 2, 3)])  # out of range
    f = Cnf3.make(3, [(1, -2, 3)])
    assert f.satisfying_assignment() is not None


def test_dimacs_round_trip():
    f = Cnf3.make(4, [(1, -2, 3), (-1, 2, 4)])
    assert parse_dimacs_cnf(format_dimacs_cnf(f)) == f
    with pytest.raises(GraphError):
        parse_dimacs_cnf("1 2 3 0")  # no header


def test_gadget_shape():
    f = Cnf3.make(3, [(1, 2, 3)])
    gg = gamma_gadget(f)
    assert gg.graph.n == 8 * 3 + 5 * 1 + 2 == 31
    assert gg.graph.triangle() is None
    assert gg.graph.degree(gg.a) == 2 and gg.graph.degree(gg.b) == 2
    assert not gg.graph.has_edge(gg.a, gg.b)


def test_assignment_hole_replay():
    f = Cnf3.make(3, [(1, 2, 3), (-1, 2, -3)])
    gg = gamma_gadget(f)
    asg = f.satisfying_assignment()
    hole = assignment_hole(gg, f, asg)
    assert gg.a in hole and gg.b in hole


def test_sat_iff_hole_exhaustive_small():
    """All 3-variable CNFs with one or two distinct clauses."""
    all_clauses = [
        (s1 * 1, s2 * 2, s3 * 3)
        for s1 in (1, -1)
        for s2 in (1, -1)
        for s3 in (1, -1)
    ]
    formulas = [Cnf3.make(3, [c]) for c in all_clauses]
    formulas += [
        Cnf3.make(3, list(pair)) for pair in itertools.combinations(all_clauses, 2)
    ]
    for f in formulas:
        gg = gamma_gadget(f)
        sat = f.satisfying_assignment() is not None
        hole = hole_through_two(gg.graph, gg.a, gg.b)
        assert (hole is not None) == sat
        assert sat  # <= 7 distinct clauses on 3 variables always satisfiable


def test_unsat_means_no_hole():
    all_clauses = [
        (s1 * 1, s2 * 2, s3 * 3)
        for s1 in (1, -1)
        for s2 in (1, -1)
        for s3 in (1, -1)
    ]
    f = Cnf3.make(3, all_clauses)
    assert f.satisfying_assignment() is None
    gg = gamma_gadget(f)
    assert hole_through_two(gg.graph, gg.a, gg.b) is None


def test_prism_reduction_shape():
    f = Cnf3.make(3, [(1, 2, 3)])
    gg = gamma_gadget(f)
    out, labels = prism_reduction(gg.graph, gg.a, gg.b)
    assert out.n == gg.graph.n - 2 + 10
    assert count_triangles(out) == 2


def test_prism_reduction_preconditions():
    with pytest.raises(GraphError):
        prism_reduction(cycle(6), 0, 1)  # adjacent
    g = cycle(6)
    assert prism_reduction(g, 0, 3)[0].n == 14


def test_reduction_correctness_on_c6():
    g = cycle(6)
    out, _ = prism_reduction(g, 0, 3)
    assert find_realization(prism_sgraph(), out) is not None
    # break the hole: drop the far edge; the former antipodes keep degree
    # two but no longer lie on a common cycle
    from inducta.graphs import Graph

    p = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 0)])
    out2, _ = prism_reduction(p, 0, 3)
    assert find_realization(prism_sgraph(), out2) is None


def test_composition_random():
    rng = random.Random(77)
    for _ in range(12):
        n = rng.choice([3, 4])
        m = rng.randint(1, 4)
        clauses = set()
        while len(clauses) < m:
            vs = rng.sample(range(1, n + 1), 3)
            clauses.add(tuple(v * rng.choice([1, -1]) for v in vs))
        f = Cnf3.make(n, sorted(clauses))
        gg = gamma_gadget(f)
        sat = f.satisfying_assignment() is not None
        hole = hole_through_two(gg.graph, gg.a, gg.b)
        assert (hole is not None) == sat
        out, _ = prism_reduction(gg.graph, gg.a, gg.b)
        assert (find_realization(prism_sgraph(), out) is not None) == sat
