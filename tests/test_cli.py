import argparse
import ast
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import cube_graph, k4_structure_figure, seven_structure_figure, smallest_square_structure
import inducta
from inducta import decompose, oracle
from inducta.cli import build_parser, main
from inducta.graphs import WeightedGraph, format_graph
from inducta.named import cycle, octahedron


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_recognize_member(capsys):
    code, out = run(capsys, "recognize", "--class=unique-chord-free", "--named=petersen")
    assert code == 0 and "member" in out


def test_recognize_non_member(capsys, tmp_path):
    p = tmp_path / "diamond.g"
    p.write_text("4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n")
    code, out = run(capsys, "recognize", "--class=unique-chord-free", str(p))
    assert code == 1 and "unique chord" in out


def test_recognize_weakly_triangulated(capsys, tmp_path):
    anti = tmp_path / "anti7.g"
    anti.write_text(format_graph(cycle(7).complement()))
    code, out = run(capsys, "recognize", "--class=weakly-triangulated", str(anti), "--format=json-lines")
    rec = json.loads(out)
    assert code == 1 and rec["witness_kind"] == "antihole"
    assert len(rec["witness"]) == 7 and cycle(7).is_induced_cycle(rec["witness"])
    code, out = run(capsys, "recognize", "--class=weakly-triangulated", "--named=c:5", "--format=json-lines")
    assert code == 1 and json.loads(out) == {
        "weakly_triangulated": False, "witness_kind": "hole", "witness": [0, 1, 2, 3, 4]}
    chordal = tmp_path / "chordal.g"
    chordal.write_text("5 6\n0 1\n0 2\n1 2\n1 3\n2 3\n3 4\n")
    code, out = run(capsys, "recognize", "--class=weakly-triangulated", str(chordal))
    assert code == 0 and out == "weakly triangulated\n"


def test_color_chordless(capsys):
    code, out = run(capsys, "color", "--class=chordless", "--named=two-subdivision:k:5")
    assert code == 0 and out.startswith("3 colors")


def test_color_class_breach_exit_2(capsys):
    code, _ = run(capsys, "color", "--class=wt", "--named=c:5")
    assert code == 2


@pytest.mark.parametrize("text", [
    "4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n",
    "7 7\n0 1\n0 2\n0 5\n1 4\n1 6\n2 6\n4 5\n",
], ids=["diamond", "bipartite"])
def test_color_chordless_refuses_a_chorded_cycle_exit_2(capsys, tmp_path, text):
    p = tmp_path / "g.g"
    p.write_text(text)
    code, out, err = run_err(capsys, "color", "--class=chordless", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("error: graph has a chorded cycle") and err.count("\n") == 1


def test_gap_verify(capsys):
    code, out = run(capsys, "verify", "gap")
    assert code == 0
    assert "FAIL" not in out


def test_invariants_json_deterministic(capsys):
    code, out1 = run(capsys, "invariants", "--named=petersen", "--format=json-lines")
    code, out2 = run(capsys, "invariants", "--named=petersen", "--format=json-lines")
    assert code == 0 and out1 == out2
    rec = json.loads(out1)
    assert rec["alpha"] == 4 and rec["theta"] == 5


K_IN_A_TREE_CERTIFICATES = {
    "square": (smallest_square_structure(), "4,5,6,7",
               '{"certificate": "square", "square": {"A": [[4], [5], [6], [7]], "R": [], '
               '"S": [[0], [1], [2], [3]]}}'),
    "cubic": (cube_graph().add_vertices(4, [[0], [3], [5], [6]]), "8,9,10,11",
              '{"certificate": "cubic", "cubic": {"A": [[8], [10], [9], [11]], "B": [[], [], [], []], '
              '"R": [], "S": [[0], [5], [3], [6], [7], [2], [4], [1]]}}'),
    "k4": (k4_structure_figure(), "10,11,12,13,14,15",
           '{"certificate": "k4", "k4": {"hubs": {"a": 3, "b": 0, "c": 1, "d": 2}, "paths": '
           '{"ab": [12, 6], "ac": [14, 8], "ad": [15, 9], "bc": [10, 4], "bd": [11, 5], "cd": [13, 7]}}}'),
    "kstructure": (seven_structure_figure(), "14,15,16,17,18,19,20",
                   '{"certificate": "kstructure", "kstructure": {"paths": [[14, 7, 0], [15, 8, 1], '
                   '[16, 9, 2], [17, 10, 3], [18, 11, 4], [19, 12, 5], [20, 13, 6]]}}'),
}


def test_detect_k_in_a_tree(capsys, tmp_path):
    """The certificate of each figure, byte for byte, with exit 1, in
    both output formats."""
    p = tmp_path / "g.g"
    for kind, (g, terms, want) in K_IN_A_TREE_CERTIFICATES.items():
        p.write_text(format_graph(g))
        code, out = run(capsys, "detect", "k-in-a-tree", str(p), f"--terminals={terms}",
                        "--format=json-lines")
        assert (code, out) == (1, want + "\n")
        code, out = run(capsys, "detect", "k-in-a-tree", str(p), f"--terminals={terms}")
        assert (code, out) == (1, f"no tree: {kind} certificate\n")


def test_gadget_round_trip(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    code, out = run(capsys, "gadget", "gamma", f"--cnf={cnf}", "--format=json-lines")
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 31


def test_each_runs_every_file(capsys, tmp_path):
    """--each runs the command once per file, in name order, under a
    header per file, and exits with the worst code."""
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "a.g").write_text(format_graph(cycle(6)))
    (d / "b.g").write_text("4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n")  # a diamond
    code, out = run(capsys, "recognize", "--class=chordless", f"--each={d}", "--format=json-lines")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 4
    assert lines[0] == "== a.g" and json.loads(lines[1]) == {"chordless": True}
    assert lines[2] == "== b.g" and json.loads(lines[3])["chordless"] is False


def test_each_needs_a_directory(capsys, tmp_path):
    f = tmp_path / "a.g"
    f.write_text(format_graph(cycle(6)))
    code = main(["recognize", "--class=chordless", f"--each={f}", "--format=json-lines"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_parse_error_exit_3(capsys, tmp_path):
    p = tmp_path / "bad.g"
    p.write_text("2 1\n0 0\n")
    code, _ = run(capsys, "invariants", str(p))
    assert code == 3


@pytest.mark.parametrize("text", ["p cnf x 1\n1 2 3 0\n", "p cnf 3 1\n1 two 3 0\n", "p cnf 3 x\n1 2 3 0\n"],
                         ids=["vars", "literal", "clauses"])
def test_malformed_dimacs_number_exit_3(capsys, tmp_path, text):
    """A number in a DIMACS file that does not parse is a parse error
    naming its line: exit 3, one error line."""
    cnf = tmp_path / "f.cnf"
    cnf.write_text(text)
    code, out, err = run_err(capsys, "gadget", "gamma", f"--cnf={cnf}")
    assert (code, out) == (3, "")
    assert err.startswith("error: line ") and err.count("\n") == 1


def test_long_chorded_cycle(capsys, tmp_path):
    """C_1400 plus the chord (0, 700): the flow that finds the chorded
    cycle walks augmenting paths as long as the cycle without recursing,
    so recognition answers with a cycle and chord that check, and
    colouring refuses the graph with the same cycle."""
    n = 1400
    g = cycle(n)
    g.add_edge_unchecked(0, n // 2)
    p = tmp_path / "c.g"
    p.write_text(format_graph(g))
    code, out = run(capsys, "recognize", "--class=chordless", str(p), "--format=json-lines")
    rec = json.loads(out)
    cyc, (u, v) = rec["cycle"], rec["chord"]
    assert code == 1 and rec["chordless"] is False
    assert len(set(cyc)) == len(cyc) >= 4
    assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
    at = {x: i for i, x in enumerate(cyc)}
    assert g.has_edge(u, v) and (at[u] - at[v]) % len(cyc) not in (1, len(cyc) - 1)
    code, out, err = run_err(capsys, "color", "--class=chordless", str(p))
    assert (code, out) == (2, "") and err.startswith("error: graph has a chorded cycle")


def test_missing_file_exit_3(capsys):
    code, _ = run(capsys, "invariants", "/nonexistent/file.g")
    assert code == 3


def test_berge_alpha(capsys, tmp_path):
    p = tmp_path / "k33.g"
    from inducta.named import complete_bipartite

    p.write_text(format_graph(complete_bipartite(3, 3)))
    code, out = run(capsys, "berge", "alpha", str(p))
    assert code == 0 and "alpha=3" in out


def test_graph_file_may_follow_the_options(capsys, tmp_path):
    """The file comes after an action's options as well as before them."""
    p = tmp_path / "c6.g"
    p.write_text(format_graph(cycle(6)))
    for argv in (["berge", "omega"], ["gap", "compute"], ["detect", "prism"]):
        assert run(capsys, *argv, str(p), "--format=json-lines") == \
            run(capsys, *argv, "--format=json-lines", str(p))


def test_berge_outside_class_exit_2(capsys):
    code, _ = run(capsys, "berge", "alpha", "--named=c:5")
    assert code == 2


def test_graph_roundtrip_machine_output(capsys):
    code, out = run(capsys, "detect", "hole-through", "--named=c:6", "--x=0", "--y=3",
                    "--format=json-lines")
    assert code == 0
    rec = json.loads(out)
    assert 0 in rec["hole"] and 3 in rec["hole"]


def test_bad_terminals_exit_3(capsys, tmp_path):
    p = tmp_path / "sq.g"
    p.write_text("8 8\n0 1\n1 2\n2 3\n0 3\n0 4\n1 5\n2 6\n3 7\n")
    code = main(["detect", "k-in-a-tree", str(p), "--terminals=a,b"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_bad_oracle_bound_env_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("INDUCTA_ORACLE_BOUND", "x")
    code = main(["invariants", "--named=petersen"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_oracle_bound_floor_is_alpha_bound(capsys, monkeypatch):
    """The stable-set and clique searches of ``invariants`` are capped at
    the larger of --oracle-bound and ``oracle.ALPHA_BOUND``."""
    monkeypatch.setattr(oracle, "ALPHA_BOUND", 5)
    code = main(["invariants", "--named=petersen", "--oracle-bound=3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "alpha oracle bound 5" in captured.err


def run_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["detect", "hole-through", "--named=c:6", "--x=0", "--y=0"],
    ["detect", "hole-through", "--named=c:6", "--x=0", "--y=6"],
    ["gadget", "prism", "--named=c:6", "--x=0", "--y=6"],
    ["detect", "k-in-a-tree", "--named=petersen", "--terminals=0,1"],
])
def test_library_graph_error_exit_2(capsys, argv):
    code, out, err = run_err(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("spec", [
    "k:x", "copies:petersen,x", "c:5,", "c:,5", "r", "kmn:2,3", "twosub:k:5", "disjoint:c:5,2",
])
def test_bad_named_spec_exit_3(capsys, spec):
    code, out, err = run_err(capsys, "invariants", f"--named={spec}")
    assert (code, out) == (3, "")
    assert err.startswith("error: bad named graph spec:")


def test_misspelt_named_graph_is_reported_as_unknown(capsys):
    code, out, err = run_err(capsys, "invariants", "--named=twosub:k:5")
    assert (code, out) == (3, "")
    assert err.startswith("error: bad named graph spec: unknown named graph 'twosub'")


def test_deeply_nested_named_spec(capsys):
    """Nested prefixes are unwrapped in a loop: 1,200 of them, past the
    default recursion limit, still parse."""
    code, out, _ = run_err(capsys, "invariants", "--named=" + "two-subdivision:" * 1200 + "k:1")
    assert (code, out) == (0, "alpha=1 omega=1 theta=1 chi=1\n")


def test_paw_on_the_null_graph_exit_2(capsys, tmp_path):
    p = tmp_path / "null.g"
    p.write_text("0 0\n")
    code, out, err = run_err(capsys, "classify", "--theorem=paw", str(p))
    assert (code, out) == (2, "")
    assert "connected" in err


def _readme_cli_lines() -> list[list[str]]:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("inducta ")]


def test_readme_cli_lines_parse():
    lines = _readme_cli_lines()
    assert len(lines) >= 14
    for argv in lines:
        args = build_parser().parse_args(argv)
        assert callable(args.fn), argv


# Each spelling passes an option to a command or action that never reads it,
# or names a removed alias (``berge color`` for ``color --class=berge``,
# ``gap verify`` for ``verify gap``): a usage error, never a silent no-op.
_UNREAD = [
    ["--format=json-lines", "invariants", "--named=c:5"],
    ["--oracle-bound=3", "invariants", "--named=c:5"],
    ["--each=d", "invariants", "--named=c:5"],
    ["detect", "prism", "--named=c:6", "--oracle-bound=1"],
    ["recognize", "--class=chordless", "--named=c:6", "--oracle-bound=1"],
    ["classify", "--theorem=paw", "--named=c:6", "--oracle-bound=1"],
    ["color", "--class=wt", "--named=c:6", "--oracle-bound=1"],
    ["gap", "compute", "--named=c:5", "--oracle-bound=1"],
    ["berge", "alpha", "--named=c:6", "--oracle-bound=1"],
    ["gadget", "gamma", "--cnf=f.cnf", "--oracle-bound=1"],
    ["verify", "gap", "--oracle-bound=1"],
    ["gap", "verify", "--each=d"],
    ["gadget", "gamma", "--cnf=f.cnf", "--each=d"],
    ["verify", "gap", "--each=d"],
    ["gap", "verify", "--named=c:5"],
    ["gap", "verify", "g.g"],
    ["gadget", "gamma", "--cnf=f.cnf", "--named=c:5"],
    ["gadget", "gamma", "g.g", "--cnf=f.cnf"],
    ["detect", "prism", "--named=c:6", "--terminals=0,1,2"],
    ["detect", "hole-through", "--named=c:6", "--x=0", "--y=3", "--terminals=0,1,2"],
    ["detect", "prism", "--named=c:6", "--x=0"],
    ["detect", "prism", "--named=c:6", "--y=3"],
    ["detect", "k-in-a-tree", "--named=c:6", "--terminals=0,2,4", "--x=0"],
    ["detect", "k-in-a-tree", "--named=c:6", "--terminals=0,2,4", "--y=3"],
    ["gadget", "prism", "--named=c:6", "--x=0", "--y=3", "--cnf=f.cnf"],
    ["gadget", "gamma", "--cnf=f.cnf", "--x=0"],
    ["gadget", "gamma", "--cnf=f.cnf", "--y=3"],
    ["berge", "color", "--named=c:6"],
    ["gap", "verify"],
]


@pytest.mark.parametrize("argv", _UNREAD, ids=" ".join)
def test_unread_option_or_alias_exit_3(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 3 and captured.out == ""


def _options(parser: argparse.ArgumentParser, prefix: str = "") -> dict[str, list[str]]:
    """Every parser of the tree by its command words: its option strings,
    and its positionals (with their choices) other than subcommands."""
    out = {prefix: []}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sp in action.choices.items():
                out.update(_options(sp, f"{prefix} {name}".strip()))
        elif action.option_strings:
            out[prefix] += action.option_strings
        else:
            out[prefix].append(action.dest + ("=" + "|".join(action.choices) if action.choices else ""))
    return out


def test_option_sets_are_pinned():
    """Each command and action declares exactly the options it reads; a new
    option shows up here."""
    graph = ["--format", "input", "--named", "--each"]
    assert _options(build_parser()) == {
        "": ["-h", "--help"],
        "invariants": ["-h", "--help", *graph, "--oracle-bound"],
        "detect": ["-h", "--help"],
        "detect prism": ["-h", "--help", *graph],
        "detect k-in-a-tree": ["-h", "--help", *graph, "--terminals"],
        "detect hole-through": ["-h", "--help", *graph, "--x", "--y"],
        "recognize": ["-h", "--help", *graph, "--class"],
        "classify": ["-h", "--help", *graph, "--theorem"],
        "color": ["-h", "--help", *graph, "--class"],
        "gap": ["-h", "--help"],
        "gap compute": ["-h", "--help", *graph],
        "berge": ["-h", "--help"],
        "berge alpha": ["-h", "--help", *graph],
        "berge omega": ["-h", "--help", *graph],
        "gadget": ["-h", "--help"],
        "gadget gamma": ["-h", "--help", "--format", "--cnf"],
        "gadget prism": ["-h", "--help", *graph, "--x", "--y"],
        "verify": ["-h", "--help", "--format", "what=gap"],
    }


def test_usage_error_exit_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recognize", "--named=c:5"])
    captured = capsys.readouterr()
    assert exc.value.code == 3
    assert captured.out == "" and "--class" in captured.err


def test_unexpected_exception_exit_4(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise IndexError("boom")

    monkeypatch.setattr(oracle, "exact_invariants", broken)
    code, out, err = run_err(capsys, "invariants", "--named=petersen")
    assert (code, out) == (4, "")
    assert err == "error: internal: IndexError: boom\n"


def test_broken_third_color_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(decompose, "_third_color", lambda g, include, exclude: 0)
    code, out, err = run_err(capsys, "color", "--class=unique-chord-free", "--named=c:7")
    assert (code, out) == (4, "")
    assert err.startswith("error: internal") and "bipartite remainder" in err


def test_missing_third_color_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(decompose, "_third_color", lambda g, include, exclude: None)
    code, out, err = run_err(capsys, "color", "--class=unique-chord-free", "--named=c:7")
    assert (code, out) == (4, "")
    assert err.startswith("error: internal: ") and err.count("\n") == 1


def test_third_color_outside_the_vertex_pair_exit_4(capsys, monkeypatch):
    """The third color must hold the min-degree vertex's neighbourhood
    and miss the vertex.  A member for which that search finds none is a
    broken invariant, even when an unconstrained third color exists."""
    from inducta.graphs import InternalError

    real = decompose._third_color
    monkeypatch.setattr(decompose, "_third_color",
                        lambda g, include, exclude: None if include else real(g, include, exclude))
    with pytest.raises(InternalError, match="no third color"):
        decompose.chi_unique_chord_free(cycle(7))
    code, out, err = run_err(capsys, "color", "--class=unique-chord-free", "--named=c:7")
    assert (code, out) == (4, "")
    assert err.startswith("error: internal: ") and err.count("\n") == 1


def test_failed_berge_lift_exit_4(capsys, monkeypatch):
    """A lifted witness that fails its check is a broken invariant, not a
    graph outside the class: exit 4, one error line."""
    from inducta import berge
    from inducta.graphs import InternalError, WeightedGraph

    monkeypatch.setattr(berge, "_expand_alpha_witness", lambda blk, mask, gadget_map: [0, 1])
    with pytest.raises(InternalError, match="stable set fails"):
        berge.berge_alpha_omega(WeightedGraph(cycle(6)))
    code, out, err = run_err(capsys, "berge", "alpha", "--named=c:6")
    assert (code, out) == (4, "")
    assert err.startswith("error: internal: ") and err.count("\n") == 1


def test_broken_hitting_set_exit_4(capsys, monkeypatch):
    """The hitting-set loop runs only on graphs the decomposition
    accepted, so a loop that never closes a color class is a broken
    invariant: InternalError, exit 4, one error line."""
    from inducta import berge
    from inducta.graphs import InternalError

    monkeypatch.setattr(berge, "_hitting_stable_set", lambda tree, cliques: [])
    with pytest.raises(InternalError, match="hitting-set loop"):
        berge.color_berge(octahedron())
    code, out, err = run_err(capsys, "color", "--class=berge", "--named=octahedron")
    assert (code, out) == (4, "")
    assert err.startswith("error: internal: ") and err.count("\n") == 1


def _short_hitting_set(monkeypatch):
    """Alpha-only solves (the hitting weightings) return one vertex short."""
    from inducta import berge

    real = berge._solve_halves

    def short(tree, weights, alpha, omega):
        a, o = real(tree, weights, alpha, omega)
        return ((a[0], a[1][1:]) if alpha and not omega else a), o

    monkeypatch.setattr(berge, "_solve_halves", short)


def _low_omega_probe(monkeypatch):
    """Omega-only solves (the coloring probes) report a clique of two, so
    the octahedron (omega 3) goes straight to the bipartite finish."""
    from inducta import berge

    real = berge._solve_halves

    def low(tree, weights, alpha, omega):
        a, o = real(tree, weights, alpha, omega)
        return a, ((2, o[1][:2]) if omega and not alpha else o)

    monkeypatch.setattr(berge, "_solve_halves", low)


def _wrong_cut(monkeypatch):
    from inducta import matching

    real = matching.Dinic.max_flow
    monkeypatch.setattr(matching.Dinic, "max_flow", lambda self, s, t: real(self, s, t) + 1)


@pytest.mark.parametrize("patch, solve, match, argv", [
    (_short_hitting_set, lambda berge: berge.color_berge(octahedron()), "missed a clique",
     ["color", "--class=berge", "--named=octahedron"]),
    (_low_omega_probe, lambda berge: berge.color_berge(octahedron()), "not bipartite",
     ["color", "--class=berge", "--named=octahedron"]),
    (_wrong_cut, lambda berge: berge.berge_alpha_omega(WeightedGraph(cycle(6))), "cut bound",
     ["berge", "alpha", "--named=c:6"]),
], ids=["hitting-set", "bipartite-rest", "flow-cut"])
def test_failed_berge_check_exit_4(capsys, monkeypatch, patch, solve, match, argv):
    """The hitting set's checks run on cliques the coloring loop found,
    the bipartite finish on a part of a decomposed (so Berge) graph whose
    omega is at most 2, and the flow's witness checks on a network built
    from a graph found bipartite, so a failed check is a broken
    invariant: InternalError, exit 4, one error line."""
    from inducta import berge
    from inducta.graphs import InternalError

    patch(monkeypatch)
    with pytest.raises(InternalError, match=match):
        solve(berge)
    code, out, err = run_err(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: internal: ") and err.count("\n") == 1


def _subprocess_env() -> dict:
    src = str(Path(inducta.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_skips_sgraph():
    """The CLI has no s-graph command, so importing it must not load the
    s-graph search."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, inducta.cli; print('inducta.sgraph' in sys.modules)"],
        capture_output=True, text=True, env=_subprocess_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


_LOADED_BY_MAIN = """
import json, sys
before = set(sys.modules)
from inducta.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps({
    "inducta": sorted(m for m in sys.modules if m.startswith("inducta")),
    "heavy": [m for m in ("dataclasses", "inspect") if m in sys.modules and m not in before],
}), file=sys.stderr)
sys.exit(code)
"""

_CLI_BASE = {"inducta", "inducta.cli", "inducta.graphs", "inducta.named"}


@pytest.mark.parametrize("argv,code,extra", [
    ([], 0, set()),
    (["invariants", "--named=petersen"], 0, {"inducta.oracle"}),
    (["invariants", "/nonexistent/file.g"], 3, set()),
    (["detect", "k-in-a-tree", "{sq}", "--terminals=a,b"], 3, set()),
    (["recognize", "--class=unique-chord-free", "--named=heawood"], 0,
     {"inducta.decompose", "inducta.detect", "inducta.matching"}),
])
def test_cli_loads_only_the_solver_it_runs(tmp_path, argv, code, extra):
    """Importing the CLI loads no solver module; a command loads its own
    solver and nothing else, and only once the checks that exit 3 pass.
    No command newly loads ``dataclasses`` or ``inspect``."""
    sq = tmp_path / "sq.g"
    sq.write_text("8 8\n0 1\n1 2\n2 3\n0 3\n0 4\n1 5\n2 6\n3 7\n")
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_MAIN] + [a.format(sq=sq) for a in argv],
        capture_output=True, text=True, env=_subprocess_env(), timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    loaded = json.loads(proc.stderr.splitlines()[-1])
    assert set(loaded["inducta"]) == _CLI_BASE | extra
    assert loaded["heavy"] == []


_PATCHED_MAIN = """
import sys
from inducta.graphs import Graph
setattr(Graph, sys.argv[1], lambda self, *args: False)
from inducta.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("validator,argv", [
    ("is_induced_cycle", ["detect", "hole-through", "--named=c:6", "--x=0", "--y=3"]),
    ("is_tree_mask", ["detect", "k-in-a-tree", "{sq}", "--terminals=4,5,6,7"]),
    ("is_tree_mask", ["detect", "k-in-a-tree", "{spider}", "--terminals=1,2,3"]),
])
def test_witness_checks_survive_python_O(tmp_path, validator, argv):
    """A validator that rejects every witness must stop the answer even
    with asserts stripped: exit 4, one error line, nothing on stdout.
    For k = 3 the exhaustive search finds the tree by its own test, so
    the rejecting tree check stops it as it stops k >= 4."""
    sq = tmp_path / "sq.g"
    sq.write_text("8 8\n0 1\n1 2\n2 3\n0 3\n0 4\n1 5\n2 6\n3 7\n")
    spider = tmp_path / "spider.g"
    spider.write_text("4 3\n0 1\n0 2\n0 3\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PATCHED_MAIN, validator]
        + [a.format(sq=sq, spider=spider) for a in argv],
        capture_output=True, text=True, env=_subprocess_env(), timeout=60,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: internal") and proc.stderr.count("\n") == 1


def test_no_assert_in_the_library():
    """Checks in src/ raise, so ``python -O`` cannot strip them: no module
    may hold an ``assert`` statement."""
    found = []
    for path in sorted(Path(inducta.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
