"""Exhaustive exact computations at desk scale.

Everything here is deliberately brute force but exact: weighted maximum
stable sets by branch and bound over bitsets, chromatic number by branch
and bound over color classes with a clique lower bound, clique cover as
coloring of the complement, hole enumeration by canonical DFS, and
induced embedding (isomorphism too) by degree-filtered backtracking.
The size bounds are module constants that the bounded searches take as
default arguments; exceeding one raises TooLargeError rather than
silently approximating.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import (Graph, InternalError, Record, TooLargeError, WeightedGraph, bit_count, bits,
                     mask_of)

ALPHA_BOUND = 30
CHI_BOUND = 24
ISO_BOUND = 64


# -- maximum weight stable set ----------------------------------------

def max_weight_stable_set(wg: WeightedGraph, bound: int = ALPHA_BOUND) -> tuple[int, int]:
    """Exact (weight, witness bitset) of a maximum weight stable set.

    Branch and bound: pick the heaviest remaining vertex, branch on
    including or excluding it, prune with the total remaining weight.
    The witness excludes zero-weight vertices (canonical form).
    """
    g, w = wg.graph, wg.weights
    if g.n > bound:
        raise TooLargeError(f"n={g.n} exceeds alpha oracle bound {bound}")
    adj = g.adj

    best_w = 0
    best_set = 0

    def rec(mask: int, cur_w: int, cur_set: int, remaining: int) -> None:
        nonlocal best_w, best_set
        if cur_w + remaining <= best_w:
            return
        if mask == 0:
            if cur_w > best_w:
                best_w, best_set = cur_w, cur_set
            return
        # heaviest remaining vertex
        v, wv = -1, -1
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if w[i] > wv:
                v, wv = i, w[i]
            m ^= low
        removed = (adj[v] | (1 << v)) & mask
        lost = sum(w[i] for i in bits(removed))
        rec(mask & ~removed, cur_w + wv, cur_set | (1 << v), remaining - lost)
        rec(mask & ~(1 << v), cur_w, cur_set, remaining - wv)

    live = mask_of(v for v in range(g.n) if w[v] > 0)
    rec(live, 0, 0, sum(w[v] for v in bits(live)))
    return best_w, best_set


def max_weight_clique(wg: WeightedGraph, bound: int = ALPHA_BOUND) -> tuple[int, int]:
    comp = WeightedGraph(wg.graph.complement(), wg.weights)
    return max_weight_stable_set(comp, bound)


# -- chromatic number ---------------------------------------------------

def _greedy_coloring(g: Graph, order: list[int]) -> list[int]:
    color = [-1] * g.n
    for v in order:
        used = {color[w] for w in bits(g.adj[v]) if color[w] >= 0}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return color


def _max_clique_mask(g: Graph) -> int:
    if g.n == 0:
        return 0
    _, mask = max_weight_clique(WeightedGraph(g), bound=max(ALPHA_BOUND, g.n))
    return mask


def chromatic_number(g: Graph, bound: int = CHI_BOUND) -> tuple[int, list[int]]:
    """Exact (chi, coloring).  Branch and bound over color classes."""
    if g.n > bound:
        raise TooLargeError(f"n={g.n} exceeds chi oracle bound {bound}")
    if g.n == 0:
        return 0, []
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    greedy = _greedy_coloring(g, order)
    best_k = max(greedy) + 1
    best_coloring = greedy[:]
    clique = _max_clique_mask(g)
    lower = bit_count(clique)
    if lower == best_k:
        return best_k, best_coloring

    color = [-1] * g.n
    # seed: clique vertices get distinct colors, fixed
    clique_vs = list(bits(clique))
    for i, v in enumerate(clique_vs):
        color[v] = i
    rest = [v for v in order if color[v] < 0]

    def rec(idx: int, used: int) -> None:
        nonlocal best_k, best_coloring
        if used >= best_k:
            return
        if idx == len(rest):
            best_k = used
            best_coloring = color[:]
            return
        v = rest[idx]
        taken = {color[w] for w in bits(g.adj[v]) if color[w] >= 0}
        for c in range(min(used + 1, best_k)):
            if c in taken:
                continue
            color[v] = c
            rec(idx + 1, max(used, c + 1))
            color[v] = -1
            if best_k == lower:
                return

    rec(0, lower)
    return best_k, best_coloring


def clique_cover(g: Graph, bound: int = CHI_BOUND) -> tuple[int, list[int]]:
    """theta(G) with a witness cover, computed as chi of the complement."""
    k, coloring = chromatic_number(g.complement(), bound)
    return k, coloring


# -- invariant report ---------------------------------------------------

class InvariantReport(Record):
    __slots__ = ("alpha", "omega", "theta", "chi", "alpha_witness", "omega_witness",
                 "theta_cover", "chi_coloring")

    def __init__(self, alpha: int, omega: int, theta: int, chi: int, alpha_witness: int,
                 omega_witness: int, theta_cover: list[int] | None = None,
                 chi_coloring: list[int] | None = None):
        self.alpha = alpha
        self.omega = omega
        self.theta = theta
        self.chi = chi
        self.alpha_witness, self.omega_witness = alpha_witness, omega_witness
        self.theta_cover = [] if theta_cover is None else theta_cover
        self.chi_coloring = [] if chi_coloring is None else chi_coloring


def exact_invariants(
    wg: WeightedGraph | Graph,
    alpha_bound: int = ALPHA_BOUND,
    chi_bound: int = CHI_BOUND,
) -> InvariantReport:
    """Exact alpha/omega (weighted) and theta/chi (cardinality), all with
    validating witnesses.  Raises TooLargeError above the bounds."""
    if isinstance(wg, Graph):
        wg = WeightedGraph(wg)
    g = wg.graph
    a, a_set = max_weight_stable_set(wg, alpha_bound)
    o, o_set = max_weight_clique(wg, alpha_bound)
    chi, coloring = chromatic_number(g, chi_bound)
    theta, cover = clique_cover(g, chi_bound)
    rep = InvariantReport(a, o, theta, chi, a_set, o_set, cover, coloring)
    if not (
        g.is_stable_mask(a_set)
        and g.is_clique_mask(o_set)
        and g.is_proper_coloring(coloring)
        and all(g.is_clique_mask(mask_of(v for v in range(g.n) if cover[v] == c)) for c in set(cover))
    ):
        raise InternalError("an exact invariant's witness fails its check")
    return rep


# -- hole and antihole enumeration --------------------------------------

def enumerate_holes(
    g: Graph,
    min_len: int = 4,
    max_len: int | None = None,
    parity: str = "any",
) -> Iterator[list[int]]:
    """Yield every hole (induced cycle, length >= 4) within the bounds.

    Canonical form: the smallest vertex comes first and its smaller
    neighbor second, so each hole is emitted exactly once.  Every
    emitted cycle is re-validated as chordless.
    """
    if max_len is None:
        max_len = g.n
    max_len = min(max_len, g.n)
    if min_len < 4:
        min_len = 4

    def want(k: int) -> bool:
        if k < min_len or k > max_len:
            return False
        if parity == "odd":
            return k % 2 == 1
        if parity == "even":
            return k % 2 == 0
        return True

    n = g.n
    for s in range(n):
        # grow induced paths from s through vertices > s; emitting with
        # second vertex < last vertex kills the reflected duplicate
        stack = [(s, [s], 1 << s)]
        while stack:
            v, path, used = stack.pop()
            for w in bits(g.adj[v]):
                if w <= s or used >> w & 1:
                    continue
                if g.adj[w] & used & ~(1 << v) & ~(1 << s):
                    continue  # chord against the path interior
                closes = g.has_edge(w, s)
                new_path = path + [w]
                k = len(new_path)
                if closes and k >= 4 and new_path[1] < new_path[-1] and want(k):
                    if not g.is_induced_cycle(new_path):
                        raise InternalError(f"enumerated hole {new_path} has a chord")
                    yield new_path
                # a vertex adjacent to s may only end a cycle, never sit
                # in the interior of a longer one
                if k < max_len and (k == 2 or not closes):
                    stack.append((w, new_path, used | (1 << w)))


def enumerate_antiholes(
    g: Graph, min_len: int = 4, max_len: int | None = None, parity: str = "any"
) -> Iterator[list[int]]:
    return enumerate_holes(g.complement(), min_len, max_len, parity)


def is_berge(g: Graph) -> bool:
    """No odd hole and no odd antihole (exhaustive; desk scale)."""
    for _ in enumerate_holes(g, 5, g.n, "odd"):
        return False
    for _ in enumerate_antiholes(g, 5, g.n, "odd"):
        return False
    return True


# -- isomorphism and induced embedding -----------------------------------

def isomorphic(g1: Graph, g2: Graph, bound: int = ISO_BOUND) -> list[int] | None:
    """An adjacency-preserving bijection g1 -> g2, or None.

    Vertex count, edge count and degree-sequence prefilter, then the
    induced embedding search: between graphs of one order an induced
    injection is an isomorphism.
    """
    if g1.n > bound or g2.n > bound:
        raise TooLargeError(f"isomorphism bound {bound} exceeded")
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return None
    if sorted(map(g1.degree, range(g1.n))) != sorted(map(g2.degree, range(g2.n))):
        return None
    return induced_embedding(g1, g2)


def induced_embedding(pattern: Graph, host: Graph) -> list[int] | None:
    """An injection mapping ``pattern`` onto an induced subgraph of ``host``."""
    if pattern.n > host.n:
        return None
    pn = pattern.n
    degp = [pattern.degree(v) for v in range(pn)]
    degh = [host.degree(v) for v in range(host.n)]
    cands = [[u for u in range(host.n) if degh[u] >= degp[v]] for v in range(pn)]
    order = sorted(range(pn), key=lambda v: len(cands[v]))
    mapping = [-1] * pn
    used = set()

    def rec(i: int) -> bool:
        if i == pn:
            return True
        v = order[i]
        for u in cands[v]:
            if u in used:
                continue
            ok = True
            for w in range(pn):
                mw = mapping[w]
                if mw >= 0 and pattern.has_edge(v, w) != host.has_edge(u, mw):
                    ok = False
                    break
            if ok:
                mapping[v] = u
                used.add(u)
                if rec(i + 1):
                    return True
                mapping[v] = -1
                used.discard(u)
        return False

    return mapping if rec(0) else None
