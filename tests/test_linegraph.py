"""Line graphs and triangle-free roots; the per-edge root finder is
checked against the Bron-Kerbosch finder it replaced."""

import itertools
import random

from helpers import oracle_line_root_with_map, random_graph
from inducta.graphs import Graph
from inducta.linegraph import line_graph, line_root_with_map, maximal_cliques
from inducta.named import complete_bipartite, cycle, heawood, path, petersen
from inducta.oracle import isomorphic


def test_line_graph_of_path():
    assert line_graph(path(4)) == path(3)


def test_line_graph_of_cycle():
    assert isomorphic(line_graph(cycle(5)), cycle(5)) is not None


def test_root_of_cycle_is_itself():
    assert isomorphic(line_root_with_map(cycle(5))[0], cycle(5)) is not None


def test_root_of_claw_is_none():
    assert line_root_with_map(complete_bipartite(1, 3)) is None


def test_root_round_trip_random_triangle_free():
    rng = random.Random(4)
    done = 0
    while done < 15:
        g = random_graph(rng.randint(2, 8), 0.35, rng)
        if g.triangle() is not None or g.edge_count() == 0:
            continue
        done += 1
        lg = line_graph(g)
        root = line_root_with_map(lg)[0]
        assert root is not None
        assert isomorphic(line_graph(root), lg) is not None


def test_root_of_triangle_is_claw():
    # the one ambiguous case: the triangle-free root of K3 is the claw
    root = line_root_with_map(Graph(3, [(0, 1), (1, 2), (0, 2)]))[0]
    assert root is not None
    assert isomorphic(root, complete_bipartite(1, 3)) is not None


def test_roots_of_named():
    assert isomorphic(line_root_with_map(line_graph(petersen()))[0], petersen()) is not None
    assert isomorphic(line_root_with_map(line_graph(heawood()))[0], heawood()) is not None


def test_maximal_cliques_prism():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])
    cl = maximal_cliques(g)
    assert len(cl) == 5  # two triangles and three matching edges


def _same_root(g: Graph) -> bool:
    """Same verdict as the oracle; a root isomorphic to the oracle's,
    whose edge map realizes g.  Returns whether g has a root."""
    want = oracle_line_root_with_map(g)
    got = line_root_with_map(g)
    assert (got is None) == (want is None), f"verdicts differ on n={g.n} adj={g.adj}"
    if got is None:
        return False
    root, ends = got
    assert root == want[0] or isomorphic(root, want[0]) is not None, f"roots differ on adj={g.adj}"
    assert sorted(tuple(sorted(e)) for e in ends) == root.edges()
    for u, v in itertools.combinations(range(g.n), 2):
        a, b = ends[u]
        assert (a in ends[v] or b in ends[v]) == g.has_edge(u, v)
    return True


def test_root_finder_on_every_labelled_graph_on_six_vertices():
    found = 0
    for n in range(7):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            found += _same_root(Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1]))
    assert found == 7685


def test_root_finder_on_random_graphs_on_seven_and_eight_vertices():
    rng = random.Random(11)
    found = sum(_same_root(random_graph(rng.choice([7, 8]), rng.choice([0.15, 0.3, 0.5, 0.7]), rng))
                for _ in range(5000))
    assert found >= 1000


def _random_triangle_free(n: int, p: float, rng: random.Random) -> Graph:
    g = Graph(n)
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p and not g.adj[u] & g.adj[v]:
            g.add_edge_unchecked(u, v)
    return g


def test_root_finder_on_line_graphs_of_triangle_free_roots():
    rng = random.Random(12)
    roots = [petersen(), heawood()]
    roots += [_random_triangle_free(rng.randint(2, 14), rng.choice([0.2, 0.4, 0.7]), rng)
              for _ in range(150)]
    for root in roots:
        assert _same_root(line_graph(root))
