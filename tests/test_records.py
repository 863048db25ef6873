"""Answers compare by value: two calls of an entry point on one input
give equal answers, and an answer with any one field changed is unequal.
The benchmark's between-pass check compares repeated answers with ``!=``."""

import copy
import random

import pytest

from helpers import (cube_graph, k4_structure_figure, random_berge_instance, random_graph,
                     seven_structure_figure, smallest_square_structure)
from inducta import berge, decompose, detect, kintree, sgraph
from inducta.graphs import Graph, WeightedGraph


def _changed(rec, name):
    other = copy.copy(rec)
    setattr(other, name, object())
    return other


def _assert_value_equal(first, second):
    assert first is not second
    assert first == second and not first != second
    for name in first._fields():
        assert first != _changed(first, name), name


def _seeded(seed, accept):
    """The first random graph of a seeded stream that ``accept`` takes."""
    rng = random.Random(seed)
    for _ in range(500):
        g = random_graph(rng.randint(6, 9), rng.uniform(0.2, 0.55), rng)
        if accept(g):
            return g
    raise AssertionError("no accepted graph")


def test_berge_alpha_omega_answers_compare_by_value():
    rng = random.Random(3)
    g, _ = random_berge_instance(rng)
    wg = WeightedGraph(g, [rng.randint(0, 5) for _ in range(g.n)])
    _assert_value_equal(berge.berge_alpha_omega(wg), berge.berge_alpha_omega(wg))


def test_decompose_trees_compare_by_value_without_blocks():
    g, _ = random_berge_instance(random.Random(5))
    first, second = berge.decompose(g), berge.decompose(g)
    assert first.block is not None and first.block is not second.block
    _assert_value_equal(first, second)
    assert first == _changed(first, "block")


@pytest.mark.parametrize("kind,graph,terminals", [
    ("tree", Graph(9, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (2, 6), (0, 7), (7, 8)]),
     [3, 5, 6, 8]),
    ("square", smallest_square_structure(), [0, 1, 2, 3]),
    ("cubic", cube_graph().add_vertices(4, [[0], [3], [5], [6]]), [8, 9, 10, 11]),
    ("kstructure", seven_structure_figure(), list(range(14, 21))),
    ("k4", k4_structure_figure(), list(range(10, 16))),
])
def test_k_in_a_tree_answers_compare_by_value(kind, graph, terminals):
    first = kintree.k_in_a_tree(graph, terminals)
    assert first.kind == kind
    _assert_value_equal(first, kintree.k_in_a_tree(graph, terminals))
    certificate = {"tree": None, "square": first.square, "cubic": first.cubic,
                   "kstructure": first.kstruct, "k4": first.k4}[kind]
    if certificate is not None:
        _assert_value_equal(certificate, copy.deepcopy(certificate))


@pytest.mark.parametrize("member", [True, False])
def test_unique_chord_answers_compare_by_value(member):
    g = _seeded(11, lambda g: decompose.recognize_unique_chord_free(g).member == member)
    first = decompose.recognize_unique_chord_free(g)
    _assert_value_equal(first, decompose.recognize_unique_chord_free(g))
    if member:
        _assert_value_equal(first.tree, copy.deepcopy(first.tree))


def test_prism_witnesses_and_embeddings_compare_by_value():
    g = _seeded(7, lambda g: sgraph.find_realization(sgraph.pyramid_sgraph(), g) is None
                and detect.detect_prism_pyramid_free(g) is not None)
    _assert_value_equal(detect.detect_prism_pyramid_free(g), detect.detect_prism_pyramid_free(g))
    prism = sgraph.prism_sgraph()
    _assert_value_equal(sgraph.find_realization(prism, g), sgraph.find_realization(prism, g))


def test_frozen_records_hash_by_value_and_refuse_assignment():
    first, second = sgraph.prism_sgraph(), sgraph.prism_sgraph()
    assert first is not second and first == second and hash(first) == hash(second)
    assert first != sgraph.pyramid_sgraph()
    with pytest.raises(AttributeError):
        first.n = 7


def test_repr_names_the_compared_fields():
    """An ``ABCD`` goes into an error message as it is; a tree's solve
    block stays out of its repr."""
    assert repr(berge.ABCD(1, 2, 0, 3)) == "ABCD(a=1, b=2, c=0, d=3)"
    assert "block" not in repr(berge.decompose(Graph(3, [(0, 1), (1, 2)])))
