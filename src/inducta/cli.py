"""The inducta command line: parse graphs, dispatch the library, report
witnesses.

Exit codes: 0 = answer produced, 1 = negative answer with witness,
2 = precondition or class breach, 3 = I/O, parse or usage error,
4 = internal error (a failed self-check; please report it).  Machine
output (--format=json-lines) is deterministic: identical commands on
identical inputs print byte-identical records.

Each command imports its solver module when it runs, after the checks
that can exit 3, so `import inducta.cli` loads only `graphs` and
`named`.  Commands look solvers up through the module object, so a
patched module attribute still reaches them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .graphs import GraphError, WeightedGraph, bits, format_graph, parse_graph
from .named import parse_named_spec


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_graph(args) -> WeightedGraph:
    if args.named:
        try:
            return WeightedGraph(parse_named_spec(args.named))
        except GraphError as e:
            raise CliError(3, f"bad named graph spec: {e}")
    path = args.input
    if path is None:
        raise CliError(3, "no input graph: pass a file or --named=...")
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as e:
        raise CliError(3, f"cannot read {path}: {e}")
    try:
        return parse_graph(text)
    except GraphError as e:
        raise CliError(3, f"parse error in {path}: {e}")


def _emit(args, record: dict, human: str):
    if args.format == "json-lines":
        print(json.dumps(record, sort_keys=True))
    else:
        print(human)


def _oracle_bound(args) -> int:
    if args.oracle_bound is not None:
        return args.oracle_bound
    env = os.environ.get("INDUCTA_ORACLE_BOUND")
    if not env:
        from . import oracle

        return oracle.CHI_BOUND
    try:
        return int(env)
    except ValueError:
        raise CliError(3, f"INDUCTA_ORACLE_BOUND={env}: expected an integer") from None


def cmd_invariants(args) -> int:
    wg = _load_graph(args)
    bound = _oracle_bound(args)
    from . import oracle

    rep = oracle.exact_invariants(wg, alpha_bound=max(bound, oracle.ALPHA_BOUND), chi_bound=bound)
    rec = {
        "alpha": rep.alpha,
        "omega": rep.omega,
        "theta": rep.theta,
        "chi": rep.chi,
        "alpha_witness": sorted_bits(rep.alpha_witness),
        "omega_witness": sorted_bits(rep.omega_witness),
    }
    _emit(args, rec, f"alpha={rep.alpha} omega={rep.omega} theta={rep.theta} chi={rep.chi}")
    return 0


def sorted_bits(mask: int) -> list[int]:
    return sorted(bits(mask))


def cmd_prism(args) -> int:
    g = _load_graph(args).graph
    from . import detect

    w = detect.detect_prism_pyramid_free(g)
    if w is None:
        _emit(args, {"prism": None}, "no prism (assuming pyramid-free input)")
        return 1
    rec = {
        "prism": {
            "triangles": [list(w.triangle_a), list(w.triangle_b)],
            "paths": [list(p) for p in w.paths],
        }
    }
    _emit(args, rec, f"prism on triangles {w.triangle_a} and {w.triangle_b}")
    return 0


def cmd_hole_through(args) -> int:
    g = _load_graph(args).graph
    from . import detect

    hole = detect.hole_through_two(g, args.x, args.y)
    if hole is None:
        _emit(args, {"hole": None}, "no hole through the two vertices")
        return 1
    _emit(args, {"hole": hole}, f"hole: {hole}")
    return 0


def cmd_k_in_a_tree(args) -> int:
    g = _load_graph(args).graph
    try:
        terms = [int(t) for t in args.terminals.split(",")]
    except ValueError:
        raise CliError(3, f"--terminals={args.terminals}: expected integers a,b,c,...") from None
    from . import kintree

    res = kintree.k_in_a_tree(g, terms)
    if res.has_tree:
        _emit(args, {"tree": res.tree}, f"tree: {res.tree}")
        return 0
    rec = {"certificate": res.kind}
    if res.square:
        rec["square"] = {
            "A": [sorted_bits(m) for m in res.square.a],
            "S": [sorted_bits(m) for m in res.square.s],
            "R": sorted_bits(res.square.r),
        }
    if res.cubic:
        rec["cubic"] = {
            "A": [sorted_bits(m) for m in res.cubic.a],
            "B": [sorted_bits(m) for m in res.cubic.b],
            "S": [sorted_bits(m) for m in res.cubic.s],
            "R": sorted_bits(res.cubic.r),
        }
    if res.kstruct:
        rec["kstructure"] = {"paths": res.kstruct.paths}
    if res.k4:
        rec["k4"] = {"hubs": res.k4.hubs, "paths": res.k4.paths}
    _emit(args, rec, f"no tree: {res.kind} certificate")
    return 1


def cmd_recognize(args) -> int:
    wg = _load_graph(args)
    g = wg.graph
    if args.klass == "chordless":
        from . import decompose

        got = decompose.is_chordless(g)
        if got is None:
            _emit(args, {"chordless": True}, "chordless")
            return 0
        cyc, chord = got
        _emit(
            args,
            {"chordless": False, "cycle": cyc, "chord": list(chord)},
            f"not chordless: cycle {cyc} with chord {chord}",
        )
        return 1
    if args.klass == "unique-chord-free":
        from . import decompose

        res = decompose.recognize_unique_chord_free(g)
        if res.member:
            leaves = [l.kind for l in res.tree.leaves()]
            _emit(args, {"member": True, "leaves": leaves}, f"member; leaves: {leaves}")
            return 0
        _emit(
            args,
            {
                "member": False,
                "cycle": res.witness_cycle,
                "chord": list(res.witness_chord),
            },
            f"not a member: cycle {res.witness_cycle} with unique chord {res.witness_chord}",
        )
        return 1
    from . import classify

    got = classify.is_weakly_triangulated(g)
    if got is None:
        _emit(args, {"weakly_triangulated": True}, "weakly triangulated")
        return 0
    kind, wit = got
    _emit(
        args,
        {"weakly_triangulated": False, "witness_kind": kind, "witness": wit},
        f"not weakly triangulated: long {kind} {wit}",
    )
    return 1


def cmd_classify(args) -> int:
    wg = _load_graph(args)
    theorem = args.theorem.replace("-", "_")
    from . import classify

    res = classify.classify_small(wg.graph, theorem)
    rec = {"verdict": res.verdict}
    if res.witness:
        rec["witness"] = res.witness
        rec["witness_name"] = res.witness_name
    if res.complement_of is not None:
        rec["complement_of"] = res.complement_of.verdict
    _emit(args, rec, f"{res.verdict}" + (f" (witness {res.witness_name}: {res.witness})" if res.witness else ""))
    return 0 if res.in_class else 1


def cmd_color(args) -> int:
    wg = _load_graph(args)
    g = wg.graph
    if args.klass == "chordless":
        from . import decompose

        col = decompose.three_color_chordless(g)
    elif args.klass == "wt":
        from . import classify

        col = classify.color_weakly_triangulated(g)
    elif args.klass == "unique-chord-free":
        from . import decompose

        chi, col = decompose.chi_unique_chord_free(g)
    else:
        from . import berge

        col = berge.color_berge(g)
    k = max(col) + 1 if col else 0
    _emit(args, {"colors": k, "coloring": col}, f"{k} colors: {col}")
    return 0


def cmd_gap(args) -> int:
    wg = _load_graph(args)
    from . import gap

    rep = gap.gap_report(wg.graph)
    rec = {
        "theta": rep.theta,
        "alpha": rep.alpha,
        "gap": rep.gap,
        "gap_critical": rep.is_gap_critical,
        "factor_critical_components": rep.component_factor_critical,
    }
    _emit(
        args,
        rec,
        f"gap={rep.gap} (theta={rep.theta}, alpha={rep.alpha})"
        + (" gap-critical" if rep.is_gap_critical else ""),
    )
    return 0


def cmd_berge(args) -> int:
    wg = _load_graph(args)
    from . import berge

    ans = berge.berge_alpha_omega(wg)
    if args.action == "alpha":
        rec = {"alpha": ans.alpha, "stable_set": ans.alpha_set}
        _emit(args, rec, f"alpha={ans.alpha} witness={ans.alpha_set}")
    else:
        rec = {"omega": ans.omega, "clique": ans.omega_set}
        _emit(args, rec, f"omega={ans.omega} witness={ans.omega_set}")
    return 0


def cmd_gamma(args) -> int:
    try:
        text = sys.stdin.read() if args.cnf == "-" else Path(args.cnf).read_text()
    except OSError as e:
        raise CliError(3, f"cannot read {args.cnf}: {e}")
    from . import bienstock

    try:
        f = bienstock.parse_dimacs_cnf(text)
        gg = bienstock.gamma_gadget(f)
    except GraphError as e:
        raise CliError(3, str(e))
    if args.format == "json-lines":
        rec = {
            "n": gg.graph.n,
            "a": gg.a,
            "b": gg.b,
            "edges": gg.graph.edges(),
            "labels": {str(k): v for k, v in gg.labels.items()},
        }
        print(json.dumps(rec, sort_keys=True))
    else:
        sys.stdout.write(format_graph(gg.graph))
        print(f"# a={gg.a} b={gg.b}")
        for v in range(gg.graph.n):
            print(f"# label {v} {gg.labels[v]}")
    return 0


def cmd_prism_reduction(args) -> int:
    wg = _load_graph(args)
    from . import bienstock

    out, labels = bienstock.prism_reduction(wg.graph, args.x, args.y)
    if args.format == "json-lines":
        print(json.dumps({"n": out.n, "edges": out.edges()}, sort_keys=True))
    else:
        sys.stdout.write(format_graph(out))
        for v, lab in sorted(labels.items()):
            print(f"# label {v} {lab}")
    return 0


def cmd_verify(args) -> int:
    from . import gap

    rep = gap.verify_gap_chapter()
    if args.format == "json-lines":
        for c in rep.checks:
            print(json.dumps({"check": c.name, "passed": c.passed, "detail": c.detail}, sort_keys=True))
        for note in rep.notes:
            print(json.dumps({"note": note}, sort_keys=True))
    else:
        for c in rep.checks:
            print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}" + (f"  ({c.detail})" if c.detail else ""))
        for note in rep.notes:
            print(f"note: {note}")
    return 0 if rep.ok() else 1


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 3, like every other bad
    argument; its subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """Each option is declared by the command, or the action, that reads
    it: the top level takes none, ``--oracle-bound`` belongs to
    ``invariants`` and ``--each`` to the commands that read a graph.
    Shared options come from parent parsers, which argparse copies more
    cheaply than it adds arguments."""
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=["human", "json-lines"], default="human")
    graph = _Parser(add_help=False, parents=[fmt])
    graph.add_argument("input", nargs="?", help="graph file ('-' for stdin)")
    graph.add_argument("--named", help="named graph spec, e.g. petersen or c:7")
    graph.add_argument("--each", metavar="DIR",
                       help="run once per graph file in DIR, with independent reports")

    def command(parent, name, fn, base=graph, **kw):
        sp = parent.add_parser(name, parents=[base], **kw)
        sp.set_defaults(fn=fn)
        return sp

    def vertex_pair(sp):
        sp.add_argument("--x", type=int, required=True)
        sp.add_argument("--y", type=int, required=True)

    p = _Parser(prog="inducta", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    command(sub, "invariants", cmd_invariants, help="exact alpha/omega/theta/chi").add_argument(
        "--oracle-bound", type=int)

    det = sub.add_parser("detect", help="induced-substructure detectors").add_subparsers(
        dest="what", required=True)
    command(det, "prism", cmd_prism)
    command(det, "k-in-a-tree", cmd_k_in_a_tree).add_argument("--terminals", required=True)
    vertex_pair(command(det, "hole-through", cmd_hole_through))

    command(sub, "recognize", cmd_recognize, help="class recognition with witnesses").add_argument(
        "--class", dest="klass", required=True,
        choices=["chordless", "unique-chord-free", "weakly-triangulated"])
    command(sub, "classify", cmd_classify, help="small decomposition theorems").add_argument(
        "--theorem", required=True, choices=["p3", "paw", "hh", "claw-coclaw"])
    command(sub, "color", cmd_color, help="class-specific optimal colorings").add_argument(
        "--class", dest="klass", required=True,
        choices=["chordless", "wt", "unique-chord-free", "berge"])

    # an action parser of its own lets a graph file follow the action's options
    gap = sub.add_parser("gap", help="gap computations").add_subparsers(dest="action", required=True)
    command(gap, "compute", cmd_gap)
    brg = sub.add_parser("berge", help="2-join optimization pipeline").add_subparsers(
        dest="action", required=True)
    command(brg, "alpha", cmd_berge)
    command(brg, "omega", cmd_berge)

    gad = sub.add_parser("gadget", help="hardness gadget generators").add_subparsers(
        dest="kind", required=True)
    command(gad, "gamma", cmd_gamma, fmt).add_argument("--cnf", required=True)
    vertex_pair(command(gad, "prism", cmd_prism_reduction))

    command(sub, "verify", cmd_verify, fmt, help="verification harnesses").add_argument(
        "what", choices=["gap"])
    return p


def _run_one(args) -> int:
    """Run one command; the only place that turns exceptions into exit
    codes.  Anything but a CliError or a GraphError (which covers
    TooLargeError and OutsideClassError) is an internal failure: one
    line on stderr, no traceback, exit 4."""
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except GraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "each", None):
        base = Path(args.each)
        if not base.is_dir():
            print(f"error: {base} is not a directory", file=sys.stderr)
            return 3
        worst = 0
        for f in sorted(base.iterdir()):
            if not f.is_file():
                continue
            print(f"== {f.name}")
            args.input = str(f)
            args.named = None
            worst = max(worst, _run_one(args))
        return worst
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
