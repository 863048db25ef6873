"""What each instance asks of the library, and how its answer is checked.

``solve`` is the only code inside the timed window.  ``check`` runs
afterwards and compares every answer with a brute-force oracle from
``inducta.oracle`` or validates its witness; a failed check means the
library returned a wrong answer, which fails the whole run.

Library modules are reached through ``lib`` (a namespace of the modules
as imported after set-up) and looked up at call time, so the tracer and
the tests can swap a function in and out.
"""

from __future__ import annotations

import json


class WrongAnswer(Exception):
    """A returned answer or witness failed its check."""


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


# -- independent graph predicates (not the library's) ------------------------

def _adj_sets(g) -> list[set[int]]:
    return [{w for w in range(g.n) if g.adj[v] >> w & 1} for v in range(g.n)]


def _proper(g, color: list[int]) -> bool:
    return len(color) == g.n and all(
        color[u] != color[w] for u in range(g.n) for w in range(u + 1, g.n) if g.adj[u] >> w & 1
    )


def _is_tree(g, vs: list[int]) -> bool:
    s = set(vs)
    if not s or len(s) != len(vs):
        return False
    adj = _adj_sets(g)
    edges = sum(len(adj[v] & s) for v in s) // 2
    if edges != len(s) - 1:
        return False
    seen, stack = set(), [next(iter(s))]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adj[v] & s - seen)
    return seen == s


def _is_hole(g, cyc: list[int]) -> bool:
    k = len(cyc)
    if k < 4 or len(set(cyc)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            want = j == i + 1 or (i == 0 and j == k - 1)
            if bool(g.adj[cyc[i]] >> cyc[j] & 1) != want:
                return False
    return True


def _is_bipartite(g) -> bool:
    side = {}
    adj = _adj_sets(g)
    for s in range(g.n):
        if s in side:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in side:
                    side[w] = 1 - side[v]
                    stack.append(w)
                elif side[w] == side[v]:
                    return False
    return True


def _unique_chord_cycle(g, cyc: list[int], chord: tuple[int, int]) -> bool:
    """cyc is a cycle of g whose only chord is ``chord``."""
    k = len(cyc)
    if k < 4 or len(set(cyc)) != k:
        return False
    ring = {frozenset((cyc[i], cyc[(i + 1) % k])) for i in range(k)}
    extra = set()
    for i in range(k):
        for j in range(i + 1, k):
            e = frozenset((cyc[i], cyc[j]))
            if g.adj[cyc[i]] >> cyc[j] & 1:
                if e not in ring:
                    extra.add(e)
            elif e in ring:
                return False
    return extra == {frozenset(chord)}


def _stable(g, vs) -> bool:
    vs = list(vs)
    return all(not (g.adj[u] >> w & 1) for i, u in enumerate(vs) for w in vs[i + 1:])


def _clique(g, vs) -> bool:
    vs = list(vs)
    return all(g.adj[u] >> w & 1 for i, u in enumerate(vs) for w in vs[i + 1:])


# -- solve: the timed part ------------------------------------------------------

def solve(lib, inst, wg):
    """Answer one instance.  ``wg`` is the parsed WeightedGraph."""
    f = inst.family
    g = wg.graph
    if f.startswith("color_berge/"):
        return lib.berge.color_berge(g)
    if f.startswith("berge_alpha_omega/"):
        return lib.berge.berge_alpha_omega(wg)
    if f.startswith("k_in_a_tree/"):
        return lib.kintree.k_in_a_tree(g, inst.params["terminals"])
    if f == "unique_chord_free":
        got = lib.decompose.recognize_unique_chord_free(g)
        return got, (lib.decompose.chi_unique_chord_free(g) if got.member else None)
    if f == "chordless":
        return lib.decompose.is_chordless(g), lib.decompose.three_color_chordless(g)
    if f == "color_weakly_triangulated":
        return lib.classify.color_weakly_triangulated(g)
    if f == "detect_prism_pyramid_free":
        return lib.detect.detect_prism_pyramid_free(g)
    if f == "find_realization":
        return lib.sgraph.find_realization(lib.sgraph.prism_sgraph(), g)
    if f == "hole_through_two":
        return lib.detect.hole_through_two(g, inst.params["x"], inst.params["y"])
    raise ValueError(f"unknown family {f}")


# -- check: after the timed window ------------------------------------------------

def check(lib, inst, wg, ans) -> None:
    """Raise WrongAnswer unless ``ans`` is a correct answer for ``inst``."""
    f = inst.family
    g = wg.graph
    if f.startswith("color_berge/"):
        omega = lib.oracle.max_weight_clique(lib.graphs.WeightedGraph(g), bound=g.n)[0]
        _need(_proper(g, ans), "color_berge: coloring is not proper")
        _need(min(ans) >= 0 and len(set(ans)) == omega,
              f"color_berge: {len(set(ans))} colors, omega is {omega}")
    elif f.startswith("berge_alpha_omega/"):
        alpha = lib.oracle.max_weight_stable_set(wg, bound=g.n)[0]
        omega = lib.oracle.max_weight_clique(wg, bound=g.n)[0]
        _need(ans.alpha == alpha, f"alpha {ans.alpha}, oracle {alpha}")
        _need(ans.omega == omega, f"omega {ans.omega}, oracle {omega}")
        _need(_stable(g, ans.alpha_set), "alpha witness is not stable")
        _need(_clique(g, ans.omega_set), "omega witness is not a clique")
        _need(sum(wg.weights[v] for v in ans.alpha_set) == alpha, "alpha witness weight")
        _need(sum(wg.weights[v] for v in ans.omega_set) == omega, "omega witness weight")
    elif f.startswith("k_in_a_tree/"):
        _check_kin(lib, inst, g, ans)
    elif f == "unique_chord_free":
        got, chi_col = ans
        if got.member:
            _need(lib.decompose.replay_tree(g, got.tree), "unique-chord tree does not replay")
            chi, col = chi_col
            _need(_proper(g, col) and len(set(col)) <= chi, "unique-chord coloring")
            if chi >= 4:
                omega = lib.oracle.max_weight_clique(lib.graphs.WeightedGraph(g), bound=g.n)[0]
                _need(chi == omega, f"chi {chi} above omega {omega}")
            elif chi == 3:
                _need(not _is_bipartite(g), "chi 3 on a bipartite graph")
            _need(chi >= (1 if g.n else 0) and (chi >= 2 or not any(g.adj)), "chi too small")
        else:
            _need(_unique_chord_cycle(g, got.witness_cycle, got.witness_chord),
                  "unique-chord witness is not a cycle with exactly one chord")
    elif f == "chordless":
        verdict, col = ans
        _need(verdict is None, "a 2-subdivision reported as not chordless")
        _need(_proper(g, col) and max(col, default=0) <= 2, "chordless 3-coloring")
    elif f == "color_weakly_triangulated":
        _need(_proper(g, ans), "weakly triangulated coloring is not proper")
        _need(len(set(ans)) == inst.expect["omega"],
              f"{len(set(ans))} colors, omega is {inst.expect['omega']}")
    elif f == "detect_prism_pyramid_free":
        _need(ans is not None and lib.detect.validate_prism(g, ans), "prism missed or invalid")
    elif f == "find_realization":
        _need(ans is not None, "prism realization missed")
        _need(_realizes_prism(g, ans), "prism realization is not induced")
    elif f == "hole_through_two":
        x, y = inst.params["x"], inst.params["y"]
        _need((ans is not None) == inst.expect["sat"], "hole verdict disagrees with 3-SAT")
        if ans is not None:
            _need(_is_hole(g, ans) and x in ans and y in ans, "hole witness invalid")
    else:
        raise ValueError(f"unknown family {f}")


def _realizes_prism(g, emb) -> bool:
    used = emb.used_vertices()
    br = emb.branch
    want = {frozenset((br[u], br[v])) for u, v in ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))}
    interiors = []
    for (u, v), p in emb.paths.items():
        if {p[0], p[-1]} != {br[u], br[v]}:
            return False
        want |= {frozenset(e) for e in zip(p, p[1:])}
        interiors += p[1:-1]
    if len(set(br.values())) != 6 or len(interiors) != len(set(interiors)):
        return False
    return all(
        bool(g.adj[u] >> v & 1) == (frozenset((u, v)) in want)
        for i, u in enumerate(used) for v in used[i + 1:]
    )


# the exhaustive tree oracle runs when the graph has at most this many
# non-terminal vertices; larger answers are checked by their witness alone
ORACLE_FREE_LIMIT = 14


def _check_kin(lib, inst, g, res) -> None:
    kt = lib.kintree
    terms = inst.params["terminals"]
    expect = inst.expect.get("kind")
    if expect is not None:
        _need(res.kind == expect, f"figure gave {res.kind}, expected {expect}")
    if res.has_tree:
        _need(set(terms) <= set(res.tree) and _is_tree(g, res.tree),
              "k-in-a-tree: returned vertices are not an induced tree on the terminals")
        return
    h = res.graph
    ok = {
        "square": lambda: kt.validate_square_split(h, h.full_mask(), res.terminals, res.square),
        "cubic": lambda: kt.validate_cubic_split(h, h.full_mask(), res.terminals, res.cubic),
        "kstructure": lambda: kt.validate_kstruct(h, res.kstruct),
        "k4": lambda: kt.validate_k4(h, res.k4),
    }.get(res.kind)
    _need(ok is not None, f"k-in-a-tree: unexpected verdict {res.kind}")
    _need(ok(), f"k-in-a-tree: {res.kind} certificate fails validation")
    if g.n - len(terms) <= ORACLE_FREE_LIMIT:
        _need(kt.induced_tree_exists(g, terms, bound=ORACLE_FREE_LIMIT) is None,
              "k-in-a-tree: certificate given but the oracle finds a tree")


# -- cli ------------------------------------------------------------------------------

def cli_expected_code(lib, inst, wg) -> int:
    """The exit code the README documents for this call."""
    if "code" in inst.expect:
        return inst.expect["code"]
    f = inst.family
    g = wg.graph if wg is not None else None
    if f == "cli/detect-k-in-a-tree":
        return 0 if lib.kintree.k_in_a_tree(g, inst.params["terminals"]).has_tree else 1
    if f == "cli/recognize":
        return 0 if lib.decompose.recognize_unique_chord_free(g).member else 1
    if f == "cli/classify":
        named = lib.named.parse_named_spec(inst.params["spec"])
        return 0 if lib.classify.classify_small(named, "paw").in_class else 1
    return 0


def check_cli(lib, inst, wg, code: int, stdout: str) -> None:
    """Validate the json-lines record of a call that exited as documented."""
    f = inst.family
    recs = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    if code >= 2:
        _need(not recs, f"{f}: an error exit printed a record")
        return
    _need(bool(recs), f"{f}: no json-lines record")
    rec = recs[0]
    g = wg.graph if wg is not None else None
    if f == "cli/invariants":
        named = lib.named.parse_named_spec(inst.params["spec"])
        rep = lib.oracle.exact_invariants(named)
        _need([rec[k] for k in ("alpha", "omega", "theta", "chi")] ==
              [rep.alpha, rep.omega, rep.theta, rep.chi], f"{f}: invariants differ from the oracle")
        _need(_stable(named, rec["alpha_witness"]) and len(rec["alpha_witness"]) == rep.alpha,
              f"{f}: alpha witness")
        _need(_clique(named, rec["omega_witness"]) and len(rec["omega_witness"]) == rep.omega,
              f"{f}: omega witness")
    elif f == "cli/detect-prism":
        p = rec["prism"]
        w = lib.detect.PrismWitness(tuple(p["triangles"][0]), tuple(p["triangles"][1]),
                                    tuple(p["paths"]))
        _need(lib.detect.validate_prism(g, w), f"{f}: prism witness invalid")
    elif f == "cli/detect-k-in-a-tree":
        if code == 0:
            _need(set(inst.params["terminals"]) <= set(rec["tree"]) and _is_tree(g, rec["tree"]),
                  f"{f}: tree invalid")
        else:
            res = lib.kintree.k_in_a_tree(g, inst.params["terminals"])
            _check_kin(lib, inst, g, res)
            _need(rec["certificate"] == res.kind, f"{f}: certificate kind differs")
    elif f == "cli/detect-hole-through":
        hole = rec["hole"]
        if code == 0:
            _need(_is_hole(g, hole) and inst.params["x"] in hole and inst.params["y"] in hole,
                  f"{f}: hole invalid")
        else:
            _need(hole is None, f"{f}: negative answer carries a hole")
    elif f == "cli/recognize":
        res = lib.decompose.recognize_unique_chord_free(g)
        _need(rec["member"] == res.member, f"{f}: membership differs")
        if not res.member:
            _need(_unique_chord_cycle(g, rec["cycle"], tuple(rec["chord"])), f"{f}: witness invalid")
    elif f == "cli/classify":
        named = lib.named.parse_named_spec(inst.params["spec"])
        _need(rec["verdict"] == lib.classify.classify_small(named, "paw").verdict,
              f"{f}: verdict differs")
    elif f == "cli/color":
        col = rec["coloring"]
        _need(_proper(g, col) and rec["colors"] == inst.expect["omega"] == len(set(col)),
              f"{f}: coloring is not an omega-coloring")
    elif f == "cli/gap-compute":
        named = lib.named.parse_named_spec(inst.params["spec"])
        rep = lib.oracle.exact_invariants(named)
        _need((rec["theta"], rec["alpha"], rec["gap"]) == (rep.theta, rep.alpha, rep.theta - rep.alpha),
              f"{f}: gap differs from the oracle")
    elif f == "cli/verify-gap":
        _need(all(r.get("passed", True) for r in recs), f"{f}: a chapter check failed")
    elif f == "cli/berge-alpha":
        alpha = lib.oracle.max_weight_stable_set(wg, bound=g.n)[0]
        _need(rec["alpha"] == alpha, f"{f}: alpha {rec['alpha']}, oracle {alpha}")
        _need(_stable(g, rec["stable_set"]) and
              sum(wg.weights[v] for v in rec["stable_set"]) == alpha, f"{f}: witness invalid")
    elif f == "cli/gadget-gamma":
        cnf = lib.bienstock.parse_dimacs_cnf(inst.params["cnf"])
        gg = lib.bienstock.gamma_gadget(cnf)
        _need((rec["n"], rec["a"], rec["b"]) == (gg.graph.n, gg.a, gg.b) and
              [tuple(e) for e in rec["edges"]] == gg.graph.edges(), f"{f}: gadget differs")
    else:
        raise ValueError(f"unknown cli family {f}")
