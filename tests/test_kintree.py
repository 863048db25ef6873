import random
from itertools import combinations

import pytest

from helpers import (ORACLE_CUBIC_LABELS, ORACLE_SQUARE_LABELS, ExtensionSpec, cube_graph, edge_flips,
                     k4_structure_figure, oracle_csp_split, oracle_is_induced_path, oracle_is_tree_mask,
                     oracle_pair_rule, oracle_prune_tree, oracle_validate_cubic_split, oracle_validate_k4,
                     oracle_validate_kstruct, oracle_validate_square_split, random_connected_girth,
                     random_graph_girth, seven_structure_figure, smallest_square_structure,
                     bench_workload)
from inducta.graphs import Graph, GraphError, TooLargeError, bits, mask_of, parse_graph
from inducta import berge, bienstock, classify, decompose, detect, gap, kintree, oracle, sgraph
from inducta.kintree import (
    K4Witness,
    KStructWitness,
    induced_tree_exists,
    k_in_a_tree,
    validate_cubic_split,
    validate_k4,
    validate_kstruct,
    validate_square_split,
)
from inducta.named import cycle, path


def test_preconditions():
    with pytest.raises(GraphError):
        k_in_a_tree(cycle(6), [0, 1])  # k >= 3
    with pytest.raises(GraphError, match="duplicate"):
        k_in_a_tree(cycle(6), [0, 1, 1])
    with pytest.raises(GraphError, match="out of range"):
        k_in_a_tree(cycle(6), [0, 1, 9])


def test_girth_error():
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 0), (4, 1), (5, 2)])  # triangle, girth 3
    with pytest.raises(GraphError, match="girth"):
        k_in_a_tree(g, [3, 4, 5, 0])


def test_square_structure_figure():
    """All-leaf terminals leave g as it is; otherwise the certificate
    refers to g with a pendant on each terminal."""
    g = smallest_square_structure()
    res = k_in_a_tree(g, [4, 5, 6, 7])
    assert res.kind == "square" and res.graph is g and res.pendants == {}
    assert validate_square_split(res.graph, res.graph.full_mask(), res.terminals, res.square)
    res = k_in_a_tree(g, [0, 1, 2, 3])
    assert res.kind == "square" and res.graph.n == g.n + 4
    assert res.pendants == {8: 0, 9: 1, 10: 2, 11: 3} and res.terminals == [8, 9, 10, 11]
    assert validate_square_split(res.graph, res.graph.full_mask(), res.terminals, res.square)


def test_cubic_structure_figure():
    g = cube_graph().add_vertices(4, [[0], [3], [5], [6]])
    res = k_in_a_tree(g, [8, 9, 10, 11])
    assert res.kind == "cubic"
    assert validate_cubic_split(res.graph, res.graph.full_mask(), res.terminals, res.cubic)


def test_k4_structure_figure():
    g = k4_structure_figure()
    assert g.girth() == 6
    res = k_in_a_tree(g, [10, 11, 12, 13, 14, 15])
    assert res.kind == "k4"
    assert validate_k4(res.graph, res.k4)


def test_seven_structure_figure():
    g = seven_structure_figure()
    res = k_in_a_tree(g, list(range(14, 21)))
    assert res.kind == "kstructure"
    assert validate_kstruct(res.graph, res.kstruct)


def test_trees_have_no_obstructions():
    """A tree answer carries g and the given terminals, also when a
    terminal of degree 3 gets a pendant inside the search."""
    t = Graph(9, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (2, 6), (0, 7), (7, 8)])
    for terms in ([3, 5, 6, 8], [1, 3, 5, 8]):
        res = k_in_a_tree(t, terms)
        assert res.has_tree and res.graph is t
        assert res.terminals == terms and res.pendants == {}
        assert set(res.tree) >= set(terms) and t.is_tree_mask(mask_of(res.tree))


@pytest.mark.parametrize("cls", [
    kintree.TreeOrCertificate, kintree.SquareSplit, kintree.CubicSplit,
    kintree.KStructWitness, kintree.K4Witness, decompose.DecompositionNode,
    decompose.UniqueChordResult, detect.PrismWitness, sgraph.Embedding,
    berge.ABCD, ExtensionSpec, decompose.CutsetWitness, oracle.InvariantReport,
    gap.GapReport, gap.CheckResult, gap.GapVerification, berge.BergeAnswer,
    berge.TreeNode, berge.TwoJoinSplit, berge.LeafInfo, classify.SmallClassification,
    classify.TwoPair, bienstock.Cnf3, bienstock.GadgetGraph, sgraph.SGraph,
], ids=lambda cls: cls.__name__)
def test_answer_classes_have_no_instance_dict(cls):
    obj = cls(*[None] * len(cls.__slots__))
    assert not hasattr(obj, "__dict__")


def test_five_structure_decomposes():
    g = Graph(15)
    for i in range(5):
        g.add_edge_unchecked(i, (i + 1) % 5)
        g.add_edge_unchecked(5 + i, i)
        g.add_edge_unchecked(10 + i, 5 + i)
    res = k_in_a_tree(g, list(range(10, 15)))
    assert res.kind == "kstructure"
    assert validate_kstruct(res.graph, res.kstruct)


def test_terminal_not_pendant_gets_reduced():
    # terminals of higher degree work through the pending-neighbor trick
    g = cycle(8)
    res = k_in_a_tree(g, [0, 2, 4, 6])
    # a tree covering four vertices of a cycle must drop one arc; the
    # cycle minus a vertex is a path covering all terminals unless the
    # missing vertex is a terminal, so a tree exists
    assert res.has_tree
    sub, _ = g.induced(res.tree)
    assert sub.edge_count() == sub.n - 1


def test_oracle_agreement_random():
    rng = random.Random(17)
    checked = 0
    kinds = set()
    for _ in range(150):
        k = rng.choice([4, 5, 6, 7])
        n = rng.randint(k + 1, 12)
        g = (
            random_connected_girth(n, k, rng)
            if rng.random() < 0.6
            else random_graph_girth(n, k, rng, rng.uniform(0.1, 0.35))
        )
        girth = g.girth()
        if girth is not None and girth < k:
            continue
        terms = rng.sample(range(n), k)
        res = k_in_a_tree(g, terms)
        kinds.add(res.kind)
        oracle = induced_tree_exists(g, terms) is not None
        assert res.has_tree == oracle, (g.edges(), terms, res.kind)
        checked += 1
        if res.kind == "square":
            assert validate_square_split(res.graph, res.graph.full_mask(), res.terminals, res.square)
        if res.kind == "cubic":
            assert validate_cubic_split(res.graph, res.graph.full_mask(), res.terminals, res.cubic)
        if res.kind == "kstructure":
            assert validate_kstruct(res.graph, res.kstruct)
        if res.kind == "k4":
            assert validate_k4(res.graph, res.k4)
        if res.has_tree:
            tm = mask_of(res.tree)
            assert g.is_tree_mask(tm)
            assert all(tm >> t & 1 for t in terms)
    assert checked >= 100


def test_decorated_square_structures():
    """Square structures with fattened classes and R-attachments."""
    rng = random.Random(23)
    for _ in range(12):
        g = smallest_square_structure()
        # fatten one S class: add a parallel cycle vertex
        i = rng.randrange(4)
        attach = [[(i + 1) % 4, (i - 1) % 4]]
        g = g.add_vertices(1, attach)
        # maybe hang an R blob on two opposite S vertices
        if rng.random() < 0.7:
            g = g.add_vertices(1, [[0, 2]])
        res = k_in_a_tree(g, [4, 5, 6, 7])
        oracle = induced_tree_exists(g, [4, 5, 6, 7]) is not None
        assert res.has_tree == oracle
        if res.kind == "square":
            assert validate_square_split(res.graph, res.graph.full_mask(), res.terminals, res.square)


def test_disconnected_terminals():
    g = Graph(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)])
    res = k_in_a_tree(g, [0, 3, 6])
    assert res.kind == "disconnected-terminals"


def test_three_terminals_every_small_graph():
    """k = 3 answers from the bounded exhaustive search: on every graph
    with 3-5 vertices and every terminal triple, a tree is returned
    exactly when the oracle finds one, and is valid; every other answer
    on terminals in one component is ``no-tree-exhaustive``."""
    calls = 0
    for n in range(3, 6):
        pairs = list(combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if code >> i & 1])
            for terms in combinations(range(n), 3):
                res = k_in_a_tree(g, list(terms))
                calls += 1
                assert res.has_tree == (induced_tree_exists(g, list(terms)) is not None)
                if res.has_tree:
                    tree = mask_of(res.tree)
                    assert g.is_tree_mask(tree) and all(tree >> t & 1 for t in terms)
                elif any(all(c >> t & 1 for t in terms) for c in g.components()):
                    assert res.kind == "no-tree-exhaustive"
                else:
                    assert res.kind == "disconnected-terminals"
    assert calls == 10504


def test_three_terminals_past_bound_too_large():
    with pytest.raises(TooLargeError):
        k_in_a_tree(path(24), [0, 11, 23])


def test_deletion_extract_route(monkeypatch):
    """A girth-6 graph whose six pendant terminals 21-26 take the
    ``tree-exists`` route: the tree is found by deleting vertices while a
    tree still exists, it is an induced tree covering the terminals, and
    the exhaustive oracle agrees on the graph under the pendants."""
    edges = [(0, 4), (0, 6), (0, 7), (0, 15), (0, 18), (1, 5), (2, 9), (2, 14), (2, 15),
             (3, 9), (3, 16), (3, 18), (3, 20), (5, 7), (5, 14), (5, 20), (7, 8), (7, 26),
             (9, 22), (10, 15), (10, 20), (11, 12), (11, 16), (13, 14), (14, 19), (15, 25),
             (16, 19), (17, 19), (18, 23), (19, 21), (20, 24)]
    g = Graph(27, edges)
    core, _ = g.induced(range(21))
    calls = []
    real = kintree._deletion_extract

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kintree, "_deletion_extract", spy)
    for h, terms in ((g, list(range(21, 27))), (core, [19, 9, 18, 20, 15, 7])):
        calls.clear()
        res = k_in_a_tree(h, terms)
        assert len(calls) == 1 and res.kind == "tree"
        assert set(terms) <= set(res.tree) and h.is_tree_mask(mask_of(res.tree))
    assert induced_tree_exists(core, [19, 9, 18, 20, 15, 7]) is not None


@pytest.fixture(scope="module")
def workload_answers():
    """Each answered k-in-a-tree instance of the benchmark's ``structure``
    workload, seeds 1-5, with its answer; the pinned instances (a time
    limit and three refusals) are left out.  Every ``_prune_tree`` and
    ``is_tree_mask`` call on the way is checked against its old form."""
    real_prune, real_tree = kintree._prune_tree, Graph.is_tree_mask
    calls = {"prune": 0, "tree": 0}

    def prune(g, mask, terms):
        got = real_prune(g, mask, terms)
        assert got == oracle_prune_tree(g, mask, terms), (g.edges(), mask, terms)
        calls["prune"] += 1
        return got

    def is_tree(g, mask):
        got = real_tree(g, mask)
        assert got == oracle_is_tree_mask(g, mask), (g.edges(), mask)
        calls["tree"] += 1
        return got

    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kintree, "_prune_tree", prune)
        mp.setattr(Graph, "is_tree_mask", is_tree)
        for seed in range(1, 6):
            for inst in bench_workload("structure", seed):
                if inst.family.startswith("k_in_a_tree/") and "pinned" not in inst.family:
                    g = parse_graph(inst.text).graph
                    out.append((g, inst.params["terminals"], k_in_a_tree(g, inst.params["terminals"])))
    assert calls["prune"] >= 1000 and calls["tree"] >= 1000, calls
    return out


def test_workload_trees_cover_their_terminals(workload_answers):
    """With every prune and tree check matching its old form (the
    fixture), each tree of the workload covers its terminals and induces
    a tree, and the five passes hold hundreds of trees and k-structures."""
    kinds = [res.kind for _, _, res in workload_answers]
    assert kinds.count("kstructure") >= 200 and kinds.count("tree") >= 500, set(kinds)
    for g, terms, res in workload_answers:
        if res.has_tree:
            assert all(t in res.tree for t in terms) and g.is_tree_mask(mask_of(res.tree))


def _mutants(g: Graph, w: KStructWitness, rng: random.Random, count: int):
    """Copies of ``w`` with one path changed: a vertex dropped, a vertex
    of g inserted, or a vertex replaced by one of g."""
    for _ in range(count):
        paths = [list(p) for p in w.paths]
        p = rng.choice(paths)
        i = rng.randrange(len(p))
        op = rng.choice(("drop", "insert", "replace"))
        if op == "drop":
            del p[i]
        elif op == "insert":
            p.insert(rng.randrange(len(p) + 1), rng.randrange(g.n))
        else:
            p[i] = rng.randrange(g.n)
        yield KStructWitness(paths)


def test_validate_kstruct_matches_pairwise_form(workload_answers):
    """One ``induces`` call over all paths and the cycle against the
    pairwise ``has_edge`` loop, and each path's induced-path test against
    the pairwise one: on every k-structure of the workload and on 20
    seeded mutants of each."""
    rng = random.Random(91)
    verdicts = {True: 0, False: 0}
    for _, _, res in workload_answers:
        if res.kind != "kstructure":
            continue
        h = res.graph
        for w in [res.kstruct, *_mutants(h, res.kstruct, rng, 20)]:
            got = validate_kstruct(h, w)
            assert got == oracle_validate_kstruct(h, w), (h.edges(), w.paths)
            for p in w.paths:
                assert h.is_induced_path(p) == oracle_is_induced_path(h, p), (h.edges(), p)
            verdicts[got] += 1
    assert verdicts[True] >= 500 and verdicts[False] >= 4000, verdicts


def test_prune_tree_matches_sweeping_form():
    """The worklist against repeated sweeps on seeded masks of seeded
    connected graphs of girth at least 3 to 6, with seeded terminal sets:
    the same fixpoint, whatever the mask induces."""
    rng = random.Random(92)
    for _ in range(300):
        g = random_connected_girth(rng.randint(5, 30), rng.randint(3, 6), rng)
        for _ in range(10):
            mask = rng.getrandbits(g.n) | rng.getrandbits(g.n)
            terms = rng.sample(range(g.n), rng.randint(0, 4))
            assert kintree._prune_tree(g, mask, terms) == oracle_prune_tree(g, mask, terms)


# -- the k = 4 rule table, validators and split search against the pairwise
# -- forms they replaced (``tests/helpers.py``)

def test_rule_tables_match_the_pair_rules():
    """Each entry of both rule tables against the label-based rule, on
    all 9² square and 17² cubic pairs of classes."""
    for kind, labels, rules in (("square", ORACLE_SQUARE_LABELS, kintree._SQUARE_RULES),
                                ("cubic", ORACLE_CUBIC_LABELS, kintree._CUBIC_RULES)):
        assert len(rules) == len(labels)
        for c, l1 in enumerate(labels):
            touch, need = rules[c]
            for d, l2 in enumerate(labels):
                rule = "require" if d in need else "free" if d in touch else "forbid"
                assert rule == oracle_pair_rule(l1, l2, kind), (kind, l1, l2)


_ORACLE_VALIDATORS = {"validate_square_split": oracle_validate_square_split,
                      "validate_cubic_split": oracle_validate_cubic_split,
                      "validate_k4": oracle_validate_k4}


@pytest.fixture
def checked_validators(monkeypatch):
    """Every square, cubic and K4 validator call the solver makes, checked
    against its pairwise form; yields the count of each (name, verdict)."""
    verdicts: dict[tuple[str, bool], int] = {}

    def checked(name, real):
        def check(*args, **kwargs):
            got = real(*args, **kwargs)
            assert got == _ORACLE_VALIDATORS[name](*args, **kwargs), (name, args[0].edges(), args[1:])
            verdicts[name, got] = verdicts.get((name, got), 0) + 1
            return got
        return check

    for name in _ORACLE_VALIDATORS:
        monkeypatch.setattr(kintree, name, checked(name, getattr(kintree, name)))
    return verdicts


def test_validators_match_pairwise_forms_on_the_workload(checked_validators):
    """Every validator call that ``k_in_a_tree`` makes on the k = 4 and
    k = 6 instances of the ``structure`` workload, seeds 1-5: the square
    growth's placements, and each K4-structure."""
    for seed in range(1, 6):
        for inst in bench_workload("structure", seed):
            terms = inst.params.get("terminals", ())
            if inst.family.startswith("k_in_a_tree/") and "pinned" not in inst.family \
                    and len(terms) in (4, 6):
                k_in_a_tree(parse_graph(inst.text).graph, terms)
    assert checked_validators.get(("validate_square_split", True), 0) >= 140, checked_validators
    assert checked_validators.get(("validate_square_split", False), 0) >= 1000, checked_validators
    assert checked_validators.get(("validate_k4", True), 0) >= 10, checked_validators


def _decorated_figures(count: int):
    """(graph, terminals) for the square and cubic figures with one or
    two new vertices, each on one or two seeded spots, kept when the
    girth stays at least 4."""
    rng = random.Random(94)
    cubic = cube_graph().add_vertices(4, [[0], [3], [5], [6]])
    for _ in range(count):
        g, terms = (cubic, [8, 9, 10, 11]) if rng.random() < 0.5 else (smallest_square_structure(), [4, 5, 6, 7])
        for _ in range(rng.randint(1, 2)):
            g = g.add_vertices(1, [rng.sample(range(g.n), rng.choice([1, 2]))])
        if (g.girth() or 4) >= 4:
            yield g, terms


def _split_certificates():
    """(answer, own graph) for each distinct square or cubic answer on the
    two figures, their seeded decorations and the k = 4 instances of the
    ``structure`` workload (seed 1 holds its whole fixed pool); the
    second item is False for the workload's answers."""
    cases = [(cube_graph().add_vertices(4, [[0], [3], [5], [6]]), [8, 9, 10, 11], True),
             (smallest_square_structure(), [4, 5, 6, 7], True)]
    cases += [(g, terms, True) for g, terms in _decorated_figures(80)]
    cases += [(parse_graph(inst.text).graph, inst.params["terminals"], False)
              for inst in bench_workload("structure", 1)
              if inst.family.startswith("k_in_a_tree/") and "pinned" not in inst.family
              and len(inst.params["terminals"]) == 4]
    seen = {}
    for g, terms, figure in cases:
        res = k_in_a_tree(g, terms)
        if res.kind in ("square", "cubic"):
            seen.setdefault(repr(res), (res, figure))
    return list(seen.values())


def test_split_validators_match_pairwise_forms_on_mutants():
    """Each square and cubic certificate, every single-vertex move to
    another class and every single-edge flip: the rule-table validators
    and the pairwise ones agree."""
    verdicts = {True: 0, False: 0}
    certificates = _split_certificates()
    kinds = [res.kind for res, _ in certificates]
    assert kinds.count("square") >= 15 and kinds.count("cubic") >= 10, kinds
    for res, _ in certificates:
        g, terms = res.graph, res.terminals
        if res.kind == "square":
            sp, validate, oracle = res.square, validate_square_split, oracle_validate_square_split
            parts = [*sp.a, *sp.s, sp.r]
        else:
            sp, validate, oracle = res.cubic, validate_cubic_split, oracle_validate_cubic_split
            parts = [*sp.a, *sp.b, *sp.s, sp.r]
        cases = [(h, sp) for h in edge_flips(g)]
        for c, p in enumerate(parts):
            for v in bits(p):
                for d in range(len(parts)):
                    if d != c:
                        moved = list(parts)
                        moved[c] ^= 1 << v
                        moved[d] |= 1 << v
                        cases.append((g, kintree._split(res.kind, moved)))
        for h, cand in cases:
            got = validate(h, h.full_mask(), terms, cand)
            assert got == oracle(h, h.full_mask(), terms, cand), (h.edges(), terms, cand)
            verdicts[got] += 1
    assert verdicts[True] >= 200 and verdicts[False] >= 6500, verdicts


def _k4_mutants(g: Graph, w: K4Witness):
    """(graph, witness) pairs: every used vertex replaced by each other
    vertex of g, every path vertex dropped, and w on every single-edge
    flip of g."""
    yield from ((h, w) for h in edge_flips(g))
    for key in w.hubs:
        for v in range(g.n):
            if v != w.hubs[key]:
                yield g, K4Witness({**w.hubs, key: v}, w.paths)
    for ij, p in w.paths.items():
        for i in range(len(p)):
            yield g, K4Witness(w.hubs, {**w.paths, ij: p[:i] + p[i + 1:]})
            for v in range(g.n):
                if v != p[i]:
                    yield g, K4Witness(w.hubs, {**w.paths, ij: p[:i] + [v] + p[i + 1:]})


def test_validate_k4_matches_pairwise_form_on_mutants():
    """The K4 figure, the figure with a pendant on each terminal (paths of
    three vertices) and the figure with a pendant on a hub, with every
    mutant of each certificate checked with and without the
    decomposition test."""
    fig = k4_structure_figure()
    cases = [(fig, list(range(10, 16))),
             (fig.add_vertices(6, [[t] for t in range(10, 16)]), list(range(16, 22))),
             (fig.add_vertices(1, [[0]]), list(range(10, 16)))]
    verdicts = {True: 0, False: 0}
    for g, terms in cases:
        res = k_in_a_tree(g, terms)
        assert res.kind == "k4"
        for h, w in _k4_mutants(res.graph, res.k4):
            for decomposes in (True, False):
                got = validate_k4(h, w, decomposes)
                assert got == oracle_validate_k4(h, w, decomposes), (h.edges(), w, decomposes)
                verdicts[got] += 1
    assert verdicts[True] >= 30 and verdicts[False] >= 2500, verdicts


def test_csp_split_matches_label_search():
    """Both split searches, square and cubic, on the graph and terminals
    of each certificate of the figures and their decorations, and the
    search of the certificate's own kind on the workload's graphs (a
    cubic search there takes the label search seconds); the cubic figure
    is the input whose growth reaches the search."""
    calls = []
    real = kintree._csp_split

    def spy(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kintree, "_csp_split", spy)
        k_in_a_tree(cube_graph().add_vertices(4, [[0], [3], [5], [6]]), [8, 9, 10, 11])
    assert calls
    found = 0
    cases = list(calls)
    for res, figure in _split_certificates():
        g = res.graph
        cases += [(g, g.full_mask(), res.terminals, kind)
                  for kind in (("square", "cubic") if figure else (res.kind,))]
    for g, universe, terms, kind in cases:
        got = real(g, universe, terms, kind)
        want = oracle_csp_split(g, universe, terms, kind)
        assert (None if got is None else kintree._split(kind, got)) == want, (g.edges(), terms, kind)
        found += want is not None
    assert len(cases) >= 55 and found >= 30, (len(cases), found)
