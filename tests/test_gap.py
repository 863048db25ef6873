from inducta.gap import (
    factor_critical_components,
    gap_report,
    gap_value,
    has_simplicial_vertex,
    second_stable_set_property,
    verify_gap_chapter,
)
from inducta.graphs import bits
from inducta.linegraph import all_cliques
from inducta.named import cycle, disjoint_copies, petersen, r35, wagner
from inducta.oracle import exact_invariants


def test_gap_witness_values():
    assert gap_value(cycle(5)) == 1
    assert gap_value(disjoint_copies(cycle(5), 2)) == 2
    rep = exact_invariants(r35())
    assert rep.theta == 7 and rep.alpha == 4


def test_gap_c7_critical_not_extremal():
    rep = gap_report(cycle(7))
    assert rep.gap == 1 and rep.is_gap_critical


def test_disjoint_union_additivity():
    for t in range(1, 5):
        assert gap_value(disjoint_copies(cycle(5), t)) == t


def test_clique_removal_on_critical_graphs():
    for g in (cycle(5), cycle(7), r35()):
        rep = exact_invariants(g)
        for k in all_cliques(g):
            h, _ = g.delete_vertices(list(bits(k)))
            rep_h = exact_invariants(h)
            assert rep_h.theta == rep.theta - 1
            assert rep_h.alpha == rep.alpha


def test_simplicial():
    assert has_simplicial_vertex(cycle(5)) is None
    from inducta.named import path

    assert has_simplicial_vertex(path(3)) is not None


def test_second_stable_set_property():
    assert second_stable_set_property(wagner())
    assert second_stable_set_property(cycle(7))
    assert second_stable_set_property(r35())


def test_factor_critical_components():
    assert all(factor_critical_components(cycle(5)))
    assert all(factor_critical_components(disjoint_copies(cycle(5), 2)))
    # even order rules petersen out, despite the matching richness
    assert factor_critical_components(petersen()) == [False]


def test_vertex_deletion_decreases_gap():
    for g in (cycle(5), r35()):
        rep = gap_report(g)
        assert all(d > 0 for d in rep.vertex_gap_drops)


def test_chapter_harness_all_pass():
    rep = verify_gap_chapter()
    failing = [c.name for c in rep.checks if not c.passed]
    assert not failing, failing
    assert any("minimality" in n for n in rep.notes)
