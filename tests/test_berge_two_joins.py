"""The pruned 2-join search against the enumeration over all bipartitions:
the whole list of joins must agree, not only the join a node takes."""

import itertools
import random

import pytest

from helpers import (
    glue_two_sides,
    hub_side_even,
    ladder_side_odd,
    line_side_even,
    oracle_all_proper_nonpath_two_joins,
    prism_side,
    random_berge_instance,
    random_graph,
)
from inducta import berge
from inducta.berge import all_proper_nonpath_two_joins, derive_split, validate_split
from inducta.graphs import Graph, GraphError, TooLargeError, bit_count
from inducta.named import complete, complete_bipartite, cycle


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
    """Random graphs at several densities, plus graphs made of large
    complete bipartite pieces, which keep the most placements alive."""
    rng = random.Random(1010)
    graphs = [complete_bipartite(3, 4), complete_bipartite(4, 4), complete(7),
              glue_two_sides(prism_side(), prism_side())[0]]
    for n in range(7, 15):
        for p in (0.15, 0.3, 0.5, 0.7, 0.85) * 3:
            graphs.append(random_graph(n, p, rng))
    found = sum(_same_joins(g) + _same_joins(g.complement()) for g in graphs)
    assert found >= 20


def _family_graphs():
    """The graphs of the test_berge_* families and acceptance criteria 8
    and 9, with their complements."""
    out = [cycle(8), complete(4),
           Graph(7, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 5), (3, 4), (4, 5), (4, 6), (5, 6)])]
    for sides in ((ladder_side_odd(), prism_side()), (hub_side_even(), line_side_even()),
                  (prism_side(), prism_side())):
        out.append(glue_two_sides(*sides)[0])
    for seed, count, max_n in ((60, 30, 16), (61, 8, 14), (909, 50, 20)):
        rng = random.Random(seed)
        for _ in range(count):
            out.append(random_berge_instance(rng, max_n=max_n)[0])
            if seed != 61:
                [rng.randint(0, 4) for _ in range(out[-1].n)]  # the weights drawn there
    # criterion 8 draws exactly like this
    rng = random.Random(808)
    done = 0
    while done < 100:
        g, info = random_berge_instance(rng, max_n=20)
        s = derive_split(g, info["x1"], info["x2"])
        if s is None or not validate_split(g, s) or bit_count(s.x1) > 14 or bit_count(s.x2) > 14:
            continue
        [rng.randint(0, 4) for _ in range(g.n)]
        out.append(g)
        done += 1
    return out + [g.complement() for g in out]


def test_every_graph_the_families_search(monkeypatch):
    """Each family graph, and every node graph its decomposition passes
    to the 2-join search, has the same list of joins both ways."""
    real = berge.all_proper_nonpath_two_joins
    searched = {}

    def recorded(g):
        searched.setdefault(tuple(g.adj), g)
        return real(g)

    monkeypatch.setattr(berge, "all_proper_nonpath_two_joins", recorded)
    graphs = _family_graphs()
    for g in graphs:
        searched.setdefault(tuple(g.adj), g)
        try:
            berge.decompose(g)
        except GraphError:
            pass
    monkeypatch.undo()
    found = sum(_same_joins(g) for g in searched.values())
    assert len(searched) >= 100 and found >= 50
