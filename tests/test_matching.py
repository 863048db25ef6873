import random

import pytest

from helpers import random_graph
from inducta import matching
from inducta.graphs import Graph, InternalError, TooLargeError, WeightedGraph, bits
from inducta.matching import (
    StableSetFlow,
    has_perfect_matching,
    is_factor_critical,
    max_cardinality_matching,
    max_weight_matching,
)
from inducta.named import complete_bipartite, cycle, path, petersen, r35
from inducta.oracle import max_weight_stable_set


def test_matching_on_petersen():
    assert max_cardinality_matching(petersen())[0] == 5


def test_weighted_matching_with_parallel_edges():
    val, chosen = max_weight_matching(2, [(0, 1, 3), (0, 1, 7)])
    assert val == 7 and chosen == [(0, 1)]


def test_matching_is_a_matching():
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng.randint(2, 10), 0.5, rng)
        edges = [(u, v, rng.randint(1, 9)) for u, v in g.edges()]
        val, chosen = max_weight_matching(g.n, edges)
        seen = set()
        for u, v in chosen:
            assert u not in seen and v not in seen
            seen.update((u, v))
        assert val == sum(
            max(w for a, b, w in edges if (a, b) == (u, v)) for u, v in chosen
        )


def test_matching_bound_counts_vertices_with_edges():
    """Isolated vertices neither count against MATCHING_BOUND nor change
    the answer: a 30-node edge list on at most 20 touched vertices answers
    like the same list relabelled onto 20 nodes, in order."""
    rng = random.Random(8)
    for _ in range(5):
        g = random_graph(20, rng.uniform(0.1, 0.4), rng)
        edges = [(u, v, rng.randint(0, 9)) for u, v in g.edges()]
        spots = sorted(rng.sample(range(30), 20))
        val, chosen = max_weight_matching(20, edges)
        got = max_weight_matching(30, [(spots[u], spots[v], w) for u, v, w in edges])
        assert got == (val, [(spots[u], spots[v]) for u, v in chosen])
    with pytest.raises(TooLargeError):
        max_weight_matching(30, [(2 * i, 2 * i + 1, 1) for i in range(15)])


def test_factor_critical():
    assert is_factor_critical(cycle(5))
    assert is_factor_critical(cycle(7))
    assert is_factor_critical(r35())
    assert not is_factor_critical(cycle(4))
    # even order can never be factor-critical; petersen included
    assert not is_factor_critical(petersen())


def test_perfect_matching():
    assert has_perfect_matching(petersen())
    assert not has_perfect_matching(path(3))


def test_bipartite_stable_set_matches_oracle():
    rng = random.Random(6)
    done = 0
    while done < 20:
        g = random_graph(rng.randint(2, 12), 0.4, rng)
        if g.bipartition() is None:
            continue
        done += 1
        w = [rng.randint(0, 6) for _ in range(g.n)]
        wg = WeightedGraph(g, w)
        val, wit = StableSetFlow(g).solve(w)
        assert val == max_weight_stable_set(wg)[0]
        assert g.is_stable_mask(wit)
        assert wg.weight_of(wit) == val


def test_konig_weighted_path():
    assert StableSetFlow(path(3)).solve([5, 1, 5])[0] == 10


def test_k33_unit():
    assert StableSetFlow(complete_bipartite(3, 3)).solve([1] * 6)[0] == 3


def test_flow_witness_checks_raise(monkeypatch):
    """A wrong cut or a witness that is not stable is a broken invariant
    of a network built from a bipartite graph: InternalError, which,
    unlike an assert, survives python -O."""
    g, w = path(3), [5, 1, 5]
    real_flow = matching.Dinic.max_flow
    monkeypatch.setattr(matching.Dinic, "max_flow", lambda self, s, t: real_flow(self, s, t) + 1)
    with pytest.raises(InternalError, match="cut"):
        StableSetFlow(g).solve(w)
    monkeypatch.undo()
    left = set(bits(g.bipartition()[0]))
    monkeypatch.setattr(matching.Dinic, "reachable", lambda self, s: {s} | left)
    with pytest.raises(InternalError, match="stable"):
        StableSetFlow(g).solve(w)


def test_flow_network_serves_every_weighting(monkeypatch):
    """One network reused across 500 weightings answers as a fresh one on
    each, with the optimum of the oracle, and no solve changes the stored
    capacities; both witness checks still fire, and a solve that raised
    leaves the network usable."""
    rng = random.Random(58)
    g = Graph(14)
    for u in range(7):
        for v in range(7, 14):
            if rng.random() < 0.3:
                g.add_edge_unchecked(u, v)
    flow = StableSetFlow(g)
    built = list(flow.net.cap)
    for i in range(500):
        w = [rng.choice([0, 0, 1, 2, 3, 7]) for _ in range(g.n)]
        got = flow.solve(w)
        assert got == StableSetFlow(g).solve(w)
        if i % 10 == 0:
            assert got[0] == max_weight_stable_set(WeightedGraph(g, w))[0]
    w = [1 + v % 4 for v in range(g.n)]
    want = flow.solve(w)
    real_flow = matching.Dinic.max_flow
    monkeypatch.setattr(matching.Dinic, "max_flow", lambda self, s, t: real_flow(self, s, t) + 1)
    with pytest.raises(InternalError, match="cut"):
        flow.solve(w)
    monkeypatch.undo()
    monkeypatch.setattr(matching.Dinic, "reachable", lambda self, s: {s} | set(bits(flow.left)))
    with pytest.raises(InternalError, match="stable"):
        flow.solve(w)
    monkeypatch.undo()
    assert flow.solve(w) == want
    assert flow.net.cap == built
