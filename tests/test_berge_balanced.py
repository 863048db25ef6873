"""The balanced join against the chain of minimally sided joins it
replaced as the first choice, and the one 2-join enumeration that it
leaves a member of the class."""

import itertools
import random

from helpers import (bench_workload, berge_family_graphs, glue_two_sides, hub_side_even, line_side_even,
                     minimally_sided_joins)
from inducta import berge
from inducta.berge import OutsideClassError, berge_alpha_omega, color_berge
from inducta.graphs import Graph, TooLargeError, WeightedGraph, mask_of, parse_graph
from inducta.oracle import max_weight_clique, max_weight_stable_set
from test_berge_fuzz import _fuzz_input


def _answers(wg: WeightedGraph):
    """(alpha, omega, colours) with every witness validated, or None when
    the graph is refused."""
    g = wg.graph
    try:
        ans = berge_alpha_omega(wg)
        col = color_berge(g)
    except (OutsideClassError, TooLargeError):
        return None
    assert g.is_stable_mask(ans.alpha_mask) and g.is_clique_mask(ans.omega_mask)
    assert wg.weight_of(ans.alpha_mask) == ans.alpha
    assert wg.weight_of(ans.omega_mask) == ans.omega
    assert ans.alpha_set == sorted(ans.alpha_set) and mask_of(ans.alpha_set) == ans.alpha_mask
    assert all(col[u] != col[v] for u, v in g.edges())
    colours = len(set(col))
    assert sorted(set(col)) == list(range(colours))
    return ans.alpha, ans.omega, colours


def _differential_inputs() -> list[WeightedGraph]:
    """The fuzz seeds of ``test_seeded_berge_fuzz``, every labelled graph
    on at most five vertices, the Berge families, the graphs with n <= 16
    of seeds 1-10 of both Berge workloads, and hub/line members with
    n = 15 and 16, whose chains outgrow the 2-join enumeration bound."""
    rng = random.Random(67)
    out = [_fuzz_input(seed) for seed in range(300)]
    for middles in (5, 6):
        g, _ = glue_two_sides(hub_side_even(middles=middles), line_side_even(lengths=(3, 5)))
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            out.append(WeightedGraph(g.relabel(perm), [rng.randint(0, 4) for _ in range(g.n)]))
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            out.append(WeightedGraph(Graph(n, [e for i, e in enumerate(pairs) if chosen >> i & 1])))
    out += [WeightedGraph(g, [rng.randint(0, 4) for _ in range(g.n)]) for g in berge_family_graphs()]
    for workload in ("berge-color", "berge-alpha"):
        for seed in range(1, 11):
            out += [wg for inst in bench_workload(workload, seed)
                    if (wg := parse_graph(inst.text)).graph.n <= 16]
    return out


def test_balanced_joins_answer_as_the_chain():
    """Where the chain of minimally sided joins answers, alpha, omega and
    the number of colours are the chain's; where it refuses, an answer is
    allowed only if the oracles confirm it."""
    compared = newly = 0
    for i, wg in enumerate(_differential_inputs()):
        got = _answers(wg)
        with minimally_sided_joins():
            want = _answers(wg)
        if want is not None:
            assert got == want, f"input {i}: {got} != {want} (n = {wg.graph.n}, adj {wg.graph.adj})"
            compared += 1
        elif got is not None:
            g = wg.graph
            omega = max_weight_clique(WeightedGraph(g), bound=g.n)[0]
            assert got == (max_weight_stable_set(wg, bound=g.n)[0], max_weight_clique(wg, bound=g.n)[0],
                           omega), f"input {i}"
            newly += 1
    assert compared >= 2500 and newly >= 6, (compared, newly)


def test_one_enumeration_per_member(monkeypatch):
    """Over seeds 1-3 of both Berge workloads, every member with n <= 16
    enumerates its 2-joins once, for one weighting as for a coloring,
    and is one join above two leaves; a complemented root enumerates
    twice, the failed attempt on the graph and then its complement."""
    real = berge.all_proper_nonpath_two_joins
    calls = []

    def counted(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(berge, "all_proper_nonpath_two_joins", counted)
    seen = {"member": 0, "complement": 0, "color_berge": 0}
    for workload in ("berge-color", "berge-alpha"):
        for seed in (1, 2, 3):
            for inst in bench_workload(workload, seed):
                entry, _, rest = inst.family.partition("/")
                kind = entry if entry == "color_berge" else rest.partition("/")[0]
                wg = parse_graph(inst.text)
                if kind not in seen or wg.graph.n > 16:
                    continue
                calls.clear()
                if kind == "color_berge":
                    color_berge(wg.graph)
                    complemented = False
                else:
                    complemented = berge_alpha_omega(wg).complemented
                assert complemented == (kind == "complement"), inst.family
                assert len(calls) == 1 + complemented, (inst.family, calls)
                tree = berge.decompose(wg.graph)
                assert tree.kind == "join" and tree.children[0].kind == "leaf", inst.family
                seen[kind] += 1
    assert seen["member"] >= 100 and seen["complement"] >= 30 and seen["color_berge"] >= 90, seen
