import random

import pytest

from helpers import criterion_10_gadgets, oracle_find_realization, random_graph
from inducta.bienstock import prism_reduction
from inducta.graphs import Graph, GraphError
from inducta.named import complete, complete_bipartite, cycle, petersen
from inducta.sgraph import (
    SGraph,
    find_realization,
    prism_sgraph,
    pyramid_sgraph,
    theta_sgraph,
)

PRISM6 = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])


def test_sgraph_validation():
    with pytest.raises(GraphError):
        SGraph.make(3, [(0, 1)], [(0, 1)])
    with pytest.raises(GraphError):
        SGraph.make(2, [(0, 2)], [])


def test_prism_in_itself():
    emb = find_realization(prism_sgraph(), PRISM6)
    assert emb is not None
    assert len(emb.used_vertices()) == 6


def test_theta_in_k23():
    emb = find_realization(theta_sgraph(), complete_bipartite(2, 3))
    assert emb is not None


def test_pyramid_needs_triangle():
    assert find_realization(pyramid_sgraph(), cycle(6)) is None
    assert find_realization(pyramid_sgraph(), complete(4)) is not None


def test_no_prism_in_petersen():
    assert find_realization(prism_sgraph(), petersen()) is None


def test_theta_in_petersen():
    # petersen has thetas: e.g. three paths between antipodal-ish vertices
    assert find_realization(theta_sgraph(), petersen()) is not None


def test_length_cap():
    # the third branch is long: with every subdivisible edge capped at
    # length 1 only two midpoints qualify, so no theta fits
    g = Graph(7, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 6), (6, 1)])
    assert find_realization(theta_sgraph(), g) is not None
    assert find_realization(theta_sgraph(), g, max_len=1) is None


def test_embedding_is_validated():
    emb = find_realization(prism_sgraph(), PRISM6)
    used = emb.used_vertices()
    assert used == list(range(6))
    for e, p in emb.paths.items():
        assert PRISM6.has_edge(p[0], p[1])


def test_embeddings_match_the_recursive_growth():
    """The same embedding, compared by repr so the order of its paths
    counts too, or None, as the search that grew each path by a recursion
    of its own and re-checked every pending edge after every step: for
    the prism, pyramid and theta on 150 seeded random graphs, with and
    without a length cap, and on the prism reductions of the first eight
    random formulas of criterion 10."""
    rng = random.Random(12)
    found = 0
    for _ in range(150):
        g = random_graph(rng.randint(5, 10), rng.uniform(0.2, 0.6), rng)
        for b in (prism_sgraph(), pyramid_sgraph(), theta_sgraph()):
            for max_len in (None, 2):
                got = find_realization(b, g, max_len)
                assert repr(got) == repr(oracle_find_realization(b, g, max_len)), (g.edges(), b, max_len)
                found += got is not None
    for gg in criterion_10_gadgets()[92:100]:
        out, _ = prism_reduction(gg.graph, gg.a, gg.b)
        got = find_realization(prism_sgraph(), out)
        assert repr(got) == repr(oracle_find_realization(prism_sgraph(), out))
        found += got is not None
    assert found >= 150
