"""Seeded fuzz of the Berge pipeline on small random graphs: every call
either matches the oracles with validated witnesses or refuses the
graph as outside the class.  Any other error, a failed witness check
included, fails the test and names its seed, which reproduces it alone."""

import random

from helpers import random_graph
from inducta.berge import OutsideClassError, berge_alpha_omega, color_berge
from inducta.graphs import WeightedGraph, mask_of
from inducta.oracle import max_weight_clique, max_weight_stable_set


def _fuzz_one(seed: int) -> tuple[bool, bool]:
    """Whether the weighted solve and the coloring answered (else they
    refused the graph)."""
    rng = random.Random(seed)
    g = random_graph(rng.randint(5, 10), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]), rng)
    wg = WeightedGraph(g, [rng.randint(0, 4) for _ in range(g.n)])
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
