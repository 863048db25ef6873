"""The pruned 2-join search against the enumeration over all bipartitions:
the whole list of joins must agree, not only the join a node takes."""

import itertools
import random

import pytest

from helpers import (
    berge_family_graphs,
    chain_decompose,
    glue_two_sides,
    oracle_all_proper_nonpath_two_joins,
    prism_side,
    random_graph,
)
from inducta import berge
from inducta.berge import all_proper_nonpath_two_joins
from inducta.graphs import Graph, GraphError, TooLargeError
from inducta.named import complete, complete_bipartite


def _same_joins(g: Graph) -> bool:
    try:
        want = oracle_all_proper_nonpath_two_joins(g)
    except TooLargeError:
        with pytest.raises(TooLargeError):
            all_proper_nonpath_two_joins(g)
        return False
    got = all_proper_nonpath_two_joins(g)
    assert got == want, f"joins differ on n={g.n} adj={g.adj}"
    return bool(got)


def test_every_labelled_graph_on_six_vertices():
    found = 0
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])
            found += _same_joins(g)
    assert found > 0  # e.g. two triangles matched by two edges


def test_seeded_random_graphs_and_complements():
    """Random graphs at several densities up to the enumeration bound,
    plus graphs made of large complete bipartite pieces, which keep the
    most placements alive."""
    rng = random.Random(1010)
    graphs = [complete_bipartite(3, 4), complete_bipartite(4, 4), complete(7),
              glue_two_sides(prism_side(), prism_side())[0]]
    for n in range(7, berge.FULL_ENUM_BOUND + 1):
        for p in (0.15, 0.3, 0.5, 0.7, 0.85) * 3:
            graphs.append(random_graph(n, p, rng))
    found = sum(_same_joins(g) + _same_joins(g.complement()) for g in graphs)
    assert found >= 20


def test_every_graph_the_families_search(monkeypatch):
    """Each family graph, and every node graph its decomposition passes
    to the 2-join search (along balanced joins first, and along
    minimally sided joins only), has the same list of joins both ways."""
    real = berge.all_proper_nonpath_two_joins
    searched = {}

    def recorded(g):
        searched.setdefault(tuple(g.adj), g)
        return real(g)

    monkeypatch.setattr(berge, "all_proper_nonpath_two_joins", recorded)
    graphs = berge_family_graphs()
    for g in graphs:
        searched.setdefault(tuple(g.adj), g)
        for build in (berge.decompose, chain_decompose):
            try:
                build(g)
            except GraphError:
                pass
    monkeypatch.undo()
    found = sum(_same_joins(g) for g in searched.values())
    assert len(searched) >= 100 and found >= 50


def test_the_search_reads_splits_from_its_pieces():
    """A complete placement already holds its split, so the search finds
    every join with the enumeration's own split, A the smaller X1 part."""
    glued = glue_two_sides(prism_side(), prism_side())[0]
    graphs = [complete_bipartite(4, 4), glued, glued.complement()]
    found = [all_proper_nonpath_two_joins(g) for g in graphs]
    assert all(found)
    assert found == [oracle_all_proper_nonpath_two_joins(g) for g in graphs]
