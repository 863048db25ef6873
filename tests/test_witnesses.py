"""``Graph.induces`` and the witness validators built on it, each against
its pairwise form on every single-vertex move of real witnesses and
every edge flip of their hosts."""

import itertools
import random

import pytest

from helpers import (all_labelled_graphs, bench_workload, edge_flips, k4_structure_figure,
                     oracle_is_induced_cycle, oracle_replay_tree, oracle_validate_embedding,
                     oracle_validate_k4, oracle_validate_kstruct, oracle_validate_prism,
                     seven_structure_figure)
from inducta.decompose import recognize_unique_chord_free, replay_tree
from inducta.detect import PrismWitness, detect_prism_pyramid_free, validate_prism
from inducta.graphs import Graph, parse_graph
from inducta.kintree import K4Witness, KStructWitness, k_in_a_tree, validate_k4, validate_kstruct
from inducta.named import complete, complete_bipartite, cycle, path, petersen
from inducta.sgraph import (Embedding, _validate_embedding, find_realization, prism_sgraph,
                            pyramid_sgraph, theta_sgraph)

PRISM6 = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])
# triangles 0,1,2 and 0,3,4 sharing vertex 0, with 1-5-3 and 2-6-4
BUTTERFLY = Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (1, 5), (5, 3), (2, 6), (6, 4)])


def test_induces_fails_closed():
    """The listed pairs must be exactly the induced edges, each listed
    once, on distinct vertices.  A repeated pair that stands in for an
    unlisted edge keeps the pair count and the degree sum right, and is
    refused all the same."""
    p3, tri = path(3), complete(3)
    assert p3.induces([0, 1, 2], [(0, 1), (2, 1)])
    assert p3.induces([], []) and p3.induces([1], [])
    assert not p3.induces([0, 1, 1], [(0, 1), (1, 2)])            # repeated vertex
    assert not p3.induces([0, 1, 2], [(0, 1), (0, 1)])            # repeated pair
    assert not p3.induces([0, 1, 2], [(0, 1), (1, 0)])
    assert not tri.induces([0, 1, 2], [(0, 1), (0, 1), (1, 2)])
    assert not p3.induces([0, 1, 2], [(0, 1), (1, 2), (0, 1)])
    assert not p3.induces([0, 1], [(0, 1), (1, 2)])               # an end outside seq
    assert not p3.induces([0, 1], [(1, 2)])
    assert not p3.induces([0], [(1, 2)])
    assert not p3.induces([0, 1, 2], [(0, 1), (1, 2), (0, 2)])    # a non-edge
    assert not p3.induces([0, 1, 2], [(0, 1), (1, 1)])
    assert not p3.induces([0, 1, 2], [(0, 1)])                    # an edge left unlisted


def test_is_induced_cycle_matches_pairwise_test():
    """Every sequence of distinct vertices of every labelled graph with at
    most 5 vertices."""
    for g in all_labelled_graphs(5):
        for r in range(g.n + 1):
            for seq in itertools.permutations(range(g.n), r):
                assert g.is_induced_cycle(seq) == oracle_is_induced_cycle(g, seq), (g.edges(), seq)


def _moves(fixed: list[list[int]], paths: list[list[int]], n: int):
    """(fixed, paths) with one vertex moved: each entry replaced by each
    other vertex of a host on n vertices, and each path entry dropped."""
    parts = fixed + paths
    for i, p in enumerate(parts):
        for j in range(len(p)):
            news = [p[:j] + [v] + p[j + 1:] for v in range(n) if v != p[j]]
            if i >= len(fixed):
                news.append(p[:j] + p[j + 1:])
            for new in news:
                moved = parts[:i] + [new] + parts[i + 1:]
                yield moved[:len(fixed)], moved[len(fixed):]


def _agree(g: Graph, fixed, paths, build, validate, oracle, verdicts) -> None:
    """``validate`` and ``oracle`` agree on the witness ``build`` makes of
    (fixed, paths), on every move of it, and on every edge flip of g."""
    cases = [(g, fixed, paths)] + [(h, fixed, paths) for h in edge_flips(g)]
    cases += [(g, f, p) for f, p in _moves(fixed, paths, g.n)]
    for h, f, p in cases:
        w = build(f, p)
        got = validate(h, w)
        assert got == oracle(h, w), (h.edges(), w)
        verdicts[got] += 1


def _prism(fixed, paths):
    return PrismWitness(tuple(fixed[0]), tuple(fixed[1]), tuple(paths))


def _prism_hosts():
    """Prisms with paths of one to three edges and one to three seeded
    extra vertices on one or two spots each, and the 6-prism itself."""
    rng = random.Random(61)
    hosts = [PRISM6]
    for _ in range(30):
        lengths = [rng.randint(1, 3) for _ in range(3)]
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        for i, length in enumerate(lengths):
            inner = list(range(g.n, g.n + length - 1))
            g = g.add_vertices(length - 1)
            for a, b in zip([i, *inner], [*inner, 3 + i]):
                g.add_edge_unchecked(a, b)
        for _ in range(rng.randint(1, 3)):
            g = g.add_vertices(1, [rng.sample(range(g.n), rng.randint(1, 2))])
        hosts.append(g)
    return hosts


def test_validate_prism_refuses_the_butterfly():
    """Two triangles sharing a vertex, with a one-vertex path through it,
    passed the pairwise form; so does no witness with fewer than three
    paths, which made it raise."""
    w = PrismWitness((0, 1, 2), (0, 3, 4), ([0], [1, 5, 3], [2, 6, 4]))
    assert oracle_validate_prism(BUTTERFLY, w)
    assert not validate_prism(BUTTERFLY, w)
    short = PrismWitness((0, 1, 2), (3, 4, 5), ([0, 3], [1, 4]))
    with pytest.raises(IndexError):
        oracle_validate_prism(PRISM6, short)
    assert not validate_prism(PRISM6, short)
    assert detect_prism_pyramid_free(BUTTERFLY) is None


def test_validate_prism_matches_pairwise_form():
    """The detector's witnesses and the prism realizations, read as
    prisms: both forms agree on every move and flip, none of which
    leaves a path of one vertex (the butterfly's case)."""
    verdicts = {True: 0, False: 0}
    witnesses = 0
    for g in _prism_hosts():
        found = [detect_prism_pyramid_free(g), find_realization(prism_sgraph(), g)]
        if found[1] is not None:
            emb = found[1]
            found[1] = PrismWitness((emb.branch[0], emb.branch[1], emb.branch[2]),
                                    (emb.branch[3], emb.branch[4], emb.branch[5]),
                                    (emb.paths[(0, 3)], emb.paths[(1, 4)], emb.paths[(2, 5)]))
        for w in found:
            if w is not None:
                witnesses += 1
                _agree(g, [list(w.triangle_a), list(w.triangle_b)], [list(p) for p in w.paths],
                       _prism, validate_prism, oracle_validate_prism, verdicts)
    assert witnesses >= 40 and verdicts[True] >= 1000 and verdicts[False] >= 10000, (witnesses, verdicts)


@pytest.mark.parametrize("sgraph", [prism_sgraph, pyramid_sgraph, theta_sgraph])
def test_validate_embedding_matches_pairwise_form(sgraph):
    """Realizations of the prism, pyramid and theta s-graphs: the branch
    images are fixed entries, the routed paths path entries."""
    b = sgraph()
    edges = sorted(b.sub_edges)

    def build(fixed, paths):
        return Embedding(dict(enumerate(fixed[0])), dict(zip(edges, paths)))

    verdicts = {True: 0, False: 0}
    hosts = _prism_hosts() + [petersen(), complete_bipartite(2, 3), complete(4), cycle(6)]
    for g in hosts:
        emb = find_realization(b, g)
        if emb is not None:
            _agree(g, [[emb.branch[v] for v in range(b.n)]], [list(emb.paths[e]) for e in edges],
                   build, lambda h, e: _validate_embedding(b, h, e),
                   lambda h, e: oracle_validate_embedding(b, h, e), verdicts)
    assert verdicts[True] >= 300 and verdicts[False] >= 2000, verdicts


def _kintree_certificates():
    """The k-structure and K4 answers on the figures, on the K4 figure
    with a pendant on each terminal, and on the ``structure`` workload's
    k-in-a-tree instances of seed 1 (its first 12 k-structures)."""
    g5 = Graph(15, [e for i in range(5) for e in ((i, (i + 1) % 5), (5 + i, i), (10 + i, 5 + i))])
    k4 = k4_structure_figure()
    cases = [(g5, list(range(10, 15))), (seven_structure_figure(), list(range(14, 21))),
             (k4, list(range(10, 16))),
             (k4.add_vertices(6, [[t] for t in range(10, 16)]), list(range(16, 22)))]
    cases += [(parse_graph(inst.text).graph, inst.params["terminals"])
              for inst in bench_workload("structure", 1)
              if inst.family.startswith("k_in_a_tree/") and "pinned" not in inst.family
              and len(inst.params["terminals"]) >= 5]
    kstructs = 0
    for g, terms in cases:
        res = k_in_a_tree(g, terms)
        if res.kind == "k4" or res.kind == "kstructure" and kstructs < 14:
            kstructs += res.kind == "kstructure"
            yield res


def test_kstruct_and_k4_validators_match_pairwise_forms():
    """Each k-structure and K4 certificate: its paths are path entries,
    a K4's hubs fixed entries; both K4 forms run with and without the
    decomposition test."""
    verdicts = {True: 0, False: 0}
    kinds = {"kstructure": 0, "k4": 0}
    for res in _kintree_certificates():
        kinds[res.kind] += 1
        g = res.graph
        if res.kind == "kstructure":
            _agree(g, [], [list(p) for p in res.kstruct.paths], lambda f, p: KStructWitness(p),
                   validate_kstruct, oracle_validate_kstruct, verdicts)
            continue
        w = res.k4
        for decomposes in (True, False):
            _agree(g, [[w.hubs[h] for h in "abcd"]], [list(w.paths[ij]) for ij in K4Witness.PAIRS],
                   lambda f, p: K4Witness(dict(zip("abcd", f[0])), dict(zip(K4Witness.PAIRS, p))),
                   lambda h, x: validate_k4(h, x, decomposes),
                   lambda h, x: oracle_validate_k4(h, x, decomposes), verdicts)
    assert kinds["kstructure"] == 14 and kinds["k4"] >= 3, kinds
    assert verdicts[True] >= 250 and verdicts[False] >= 25000, verdicts


def test_replay_tree_matches_set_form():
    """The unique-chord tree of every labelled member with at most 6
    vertices on every edge flip of g; and on the members with at most 5
    vertices and every eighth one with 6, every leaf vertex and 1-join
    entry replaced by each vertex of g or the marker -1, or dropped."""
    verdicts = {True: 0, False: 0}
    sixes = 0

    def check(h, tree):
        got = replay_tree(h, tree)
        assert got == oracle_replay_tree(h, tree), (h.edges(), tree)
        verdicts[got] += 1

    for g in all_labelled_graphs(6):
        res = recognize_unique_chord_free(g)
        if not res.member:
            continue
        tree = res.tree
        for h in edge_flips(g):
            check(h, tree)
        if g.n == 6:
            sixes += 1
            if sixes % 8:
                continue
        todo = [tree]
        while todo:
            node = todo.pop()
            todo += node.children
            for entries in (node.vertices, node.join_a, node.join_b):
                for j, was in enumerate(entries):
                    for v in range(-1, g.n):
                        entries[j] = v
                        check(g, tree)
                    del entries[j]
                    check(g, tree)
                    entries.insert(j, was)
    assert verdicts[True] >= 120000 and verdicts[False] >= 130000, verdicts
