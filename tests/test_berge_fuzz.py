"""Seeded fuzz of the Berge pipeline on small random graphs: every call
either matches the oracles with validated witnesses or refuses the
graph as outside the class.  Any other error, a failed witness check
included, fails the test and names its seed, which reproduces it alone.
The same graphs and the Berge families then compare the pipeline's
answers under the per-edge root finder and the Bron-Kerbosch one."""

import random

from helpers import berge_family_graphs, complement_leaf_graphs, oracle_line_root_with_map, random_graph
from inducta import berge
from inducta.berge import OutsideClassError, TreeNode, berge_alpha_omega, color_berge
from inducta.graphs import TooLargeError, WeightedGraph, mask_of
from inducta.oracle import max_weight_clique, max_weight_stable_set


def _fuzz_input(seed: int) -> WeightedGraph:
    rng = random.Random(seed)
    g = random_graph(rng.randint(5, 10), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]), rng)
    return WeightedGraph(g, [rng.randint(0, 4) for _ in range(g.n)])


def _fuzz_one(seed: int) -> tuple[bool, bool]:
    """Whether the weighted solve and the coloring answered (else they
    refused the graph)."""
    wg = _fuzz_input(seed)
    g = wg.graph
    answered = []
    try:
        ans = berge_alpha_omega(wg)
    except OutsideClassError:
        answered.append(False)
    else:
        answered.append(True)
        assert ans.alpha == max_weight_stable_set(wg)[0] and ans.omega == max_weight_clique(wg)[0]
        assert g.is_stable_mask(mask_of(ans.alpha_set)) and g.is_clique_mask(mask_of(ans.omega_set))
        assert wg.weight_of(mask_of(ans.alpha_set)) == ans.alpha
        assert wg.weight_of(mask_of(ans.omega_set)) == ans.omega
    try:
        col = color_berge(g)
    except OutsideClassError:
        answered.append(False)
    else:
        answered.append(True)
        omega = max_weight_clique(WeightedGraph(g))[0]
        assert all(col[u] != col[v] for u, v in g.edges())
        assert sorted(set(col)) == list(range(omega))
    return answered[0], answered[1]


def test_seeded_berge_fuzz():
    answered = [0, 0]
    for seed in range(300):
        try:
            solved, colored = _fuzz_one(seed)
        except Exception as err:
            raise AssertionError(f"berge fuzz seed {seed}: {err!r}") from err
        answered[0] += solved
        answered[1] += colored
    assert min(answered) >= 100


def _leaf_kinds(node: TreeNode) -> list:
    out = [(node.kind, node.leaf and node.leaf.kind, node.side_leaf and node.side_leaf.kind,
            node.complemented)]
    for child in node.children:
        out += _leaf_kinds(child)
    return out


def test_answers_match_the_bron_kerbosch_root_finder(monkeypatch):
    """Root labels follow edge order now, so matching may pick other
    optimal witnesses; trees, weights and refusals must not change.  A
    refusal is a graph outside the class or over an enumeration bound;
    any other error fails the test and names the input."""
    real = berge.decompose
    trees = []

    def recorded(g):
        trees.append(real(g))
        return trees[-1]

    monkeypatch.setattr(berge, "decompose", recorded)

    def answer(i: int, wg: WeightedGraph):
        g = wg.graph
        try:
            ans = berge_alpha_omega(wg)
        except (OutsideClassError, TooLargeError) as err:
            return type(err), str(err)
        except Exception as err:
            raise AssertionError(f"input {i} (n = {g.n}, adj {g.adj}): {err!r}") from err
        assert g.is_stable_mask(mask_of(ans.alpha_set)) and g.is_clique_mask(mask_of(ans.omega_set))
        assert wg.weight_of(mask_of(ans.alpha_set)) == ans.alpha
        assert wg.weight_of(mask_of(ans.omega_set)) == ans.omega
        return _leaf_kinds(trees[-1]), ans.alpha, ans.omega, ans.complemented

    rng = random.Random(66)
    inputs = [_fuzz_input(seed) for seed in range(300)]
    graphs = berge_family_graphs() + complement_leaf_graphs(rng)
    inputs += [WeightedGraph(g, [rng.randint(0, 4) for _ in range(g.n)]) for g in graphs]
    new = [answer(i, wg) for i, wg in enumerate(inputs)]
    monkeypatch.setattr(berge, "line_root_with_map", oracle_line_root_with_map)
    old = [answer(i, wg) for i, wg in enumerate(inputs)]
    for i, (got, want) in enumerate(zip(new, old)):
        assert got == want, f"input {i}: {got} != {want}"
    assert sum(isinstance(a[0], list) for a in new) >= 500
