import pytest

from inducta.graphs import GraphError
from inducta.named import (
    complete_bipartite,
    cycle,
    disjoint_copies,
    heawood,
    line_k33,
    named_graph,
    parse_named_spec,
    petersen,
    r35,
    two_subdivision,
    wagner,
)
from inducta.oracle import exact_invariants, isomorphic


def test_petersen_integrity():
    p = petersen()
    assert p.n == 10 and p.edge_count() == 15
    assert p.girth() == 5
    rep = exact_invariants(p)
    assert rep.alpha == 4 and rep.theta == 5 and rep.chi == 3


def test_heawood_integrity():
    h = heawood()
    assert h.n == 14 and h.edge_count() == 21
    assert h.girth() == 6
    assert h.bipartition() is not None
    assert all(h.degree(v) == 3 for v in range(14))


def test_wagner_integrity():
    w = wagner()
    assert w.n == 8 and w.edge_count() == 12
    rep = exact_invariants(w)
    assert rep.alpha == 3 and rep.omega == 2


def test_r35_integrity():
    r = r35()
    assert r.n == 13 and r.edge_count() == 26
    assert all(r.degree(v) == 4 for v in range(13))
    rep = exact_invariants(r)
    assert rep.omega == 2 and rep.alpha == 4


def test_l_k33_self_complementary():
    lk = line_k33()
    assert lk.n == 9
    assert all(lk.degree(v) == 4 for v in range(9))
    assert isomorphic(lk, lk.complement()) is not None


def test_two_subdivision_shape():
    g = cycle(3)
    f = two_subdivision(g)
    assert f.n == 3 + 2 * 3
    assert f.girth() == 9


def test_disjoint_copies():
    g = disjoint_copies(cycle(5), 3)
    assert g.n == 15 and len(g.components()) == 3


def test_named_graph_dispatch():
    assert named_graph("c", 7).n == 7
    assert named_graph("petersen").n == 10
    assert named_graph("k_mn", 2, 3) == complete_bipartite(2, 3)
    with pytest.raises(GraphError):
        named_graph("c", 2)
    with pytest.raises(GraphError):
        named_graph("nonsense")


def test_parse_named_spec():
    assert parse_named_spec("two-subdivision:k:5").n == 5 + 2 * 10
    assert parse_named_spec("copies:c:5,2").n == 10
    assert parse_named_spec("heawood").n == 14


@pytest.mark.parametrize("spec", [
    "k:x", "copies:petersen,x", "c:5,", "c:,5", "c:", "petersen:", "k_mn:2,,3", "copies:c:5,",
])
def test_bad_spec_parameter_is_a_graph_error(spec):
    """Every parameter after the ':' is an integer: an empty or
    non-integer one is refused, never dropped or left to int()."""
    with pytest.raises(GraphError, match="not an integer"):
        parse_named_spec(spec)


@pytest.mark.parametrize("spec,name", [
    ("twosub:k:5", "twosub"), ("disjoint:c:5,2", "disjoint"), ("cn:x", "cn"),
    ("two-subdivision:kn:5", "kn"), ("copies:pn:3,2", "pn"),
])
def test_unknown_name_is_reported_before_its_parameters(spec, name):
    """The name is looked up first: a misspelt one with parameters that
    are not integers is refused as unknown, not for its parameters."""
    with pytest.raises(GraphError, match=f"unknown named graph '{name}'"):
        parse_named_spec(spec)


@pytest.mark.parametrize("spec", [
    "r", "lk33", "cn:5", "pn:3", "kn:3", "kmn:2,3", "kbip:2,3", "disjoint:c:5,2", "twosub:k:5",
])
def test_removed_aliases_are_refused(spec):
    with pytest.raises(GraphError):
        parse_named_spec(spec)
