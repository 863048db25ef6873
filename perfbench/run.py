"""inducta benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload berge-color --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload structure --seed 1 --seconds 15 --trace 1

Run from the root of a checkout.  ``--trace 0`` runs one workload as a
single-client closed loop for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` is the traced run: one fixed pass of every
workload, untraced and then traced, reporting the per-layer metrics of
all four (named ``<workload>.<metric>``) whatever ``--workload`` says.
Every answer is checked after the timed window; a wrong answer prints
``"correct": false`` and exits 1.  The last line of stdout is the JSON
result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from speed import SpeedClock

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench_cache"
LIB_MODULES = ("graphs", "named", "oracle", "matching", "linegraph", "sgraph", "detect",
               "classify", "decompose", "kintree", "berge", "gap", "bienstock", "cli")
SETUP_REPEATS = 11
MAX_LOOP_FACTOR = 6
# per-instance time limits in seconds; the traced passes allow TRACE_SLACK
# times more so that tracing cannot push a normal instance over the limit
TIME_LIMIT = {"berge-color": 5.0, "berge-alpha": 5.0, "structure": 2.0, "cli": 20.0}
TRACE_SLACK = 1.5
# the CLI workload's speed probe: a bare child interpreter between every two
# calls, rescaled to CHILD_REF_S (see speed.py); on a shared 2-vCPU VM
# process start-up scatters by 20-40% from call to call, in runs that a
# probe taken on both sides of each call cancels
CHILD_REF_S = 0.06
CHILD_EVERY = 0.0
# the traced run uses this share of each workload's pass
TRACE_SCALE = {"berge-color": 0.25, "berge-alpha": 0.5, "structure": 0.5, "cli": 0.3}

END_TO_END = [("setup_s", "s"), ("instances_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("failed_frac", "ratio"), ("peak_rss_mb", "MB")]

_BERGE = ["graphs.bit_count.calls", "graphs.bits.calls", "graphs.induced.calls",
          "berge.berge_alpha_omega.calls", "berge.find_two_join.calls", "berge.find_two_join.busy_s",
          "berge.all_proper_nonpath_two_joins.calls", "berge.all_proper_nonpath_two_joins.busy_s",
          "berge.derive_split.calls", "berge.derive_split.hit_ratio",
          "berge.route.join_frac", "berge.route.complemented_frac"]
_BERGE_ALPHA = ["berge.side_parity.busy_s", "berge.classify_leaf.calls", "berge.classify_leaf.busy_s",
                "berge.line_extension_transform.busy_s", "berge.self_s",
                "matching.max_weight_matching.calls", "matching.max_weight_matching.busy_s",
                "matching.bipartite_max_weight_stable_set.busy_s", "linegraph.line_root_with_map.busy_s",
                "oracle.max_weight_stable_set.calls", "oracle.max_weight_stable_set.busy_s",
                "oracle.max_weight_clique.busy_s"]
_STRUCTURE = ["graphs.components_of.calls", "graphs.components_of.busy_s",
              "graphs.is_tree_mask.calls", "graphs.is_tree_mask.busy_s", "graphs.girth.busy_s",
              "oracle.induced_embedding.busy_s", "oracle.enumerate_holes.busy_s",
              "kintree.k_in_a_tree.busy_s", "kintree.self_s", "kintree.induced_tree_exists.calls",
              "kintree.induced_tree_exists.busy_s", "kintree.validate.busy_s",
              "kintree.kind.tree.count", "kintree.kind.square.count", "kintree.kind.cubic.count",
              "kintree.kind.kstructure.count", "kintree.kind.k4.count",
              "decompose.recognize_unique_chord_free.busy_s", "decompose.find_unique_chord_cycle.busy_s",
              "decompose.chi_unique_chord_free.busy_s", "decompose.is_chordless.busy_s",
              "decompose.self_s", "detect.hole_through_two.calls", "detect.hole_through_two.busy_s",
              "detect.detect_prism_pyramid_free.busy_s", "sgraph.find_realization.busy_s",
              "classify.find_two_pair.busy_s", "classify.color_weakly_triangulated.busy_s",
              "timelimited.calls"]
CLI_SUBCOMMANDS = ("invariants", "detect", "recognize", "classify", "color", "gap", "verify",
                   "berge", "gadget")
_CLI = ["cli.interpreter_ms", "cli.import_ms"] + [f"cli.{s}.p50_ms" for s in CLI_SUBCOMMANDS]
_EVERY = ["fail.too_large.count", "fail.time_limit.count", "fail.other.count", "trace.overhead_frac"]
PER_LAYER = {"berge-color": _BERGE + _EVERY, "berge-alpha": _BERGE + _BERGE_ALPHA + _EVERY,
             "structure": _STRUCTURE + _EVERY, "cli": _CLI + _EVERY}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


class TimeLimit(BaseException):
    """Raised by SIGALRM inside the library; a BaseException so that no
    ``except Exception`` in the library can swallow it."""


def _alarm(signum, frame):
    raise TimeLimit()


# -- set-up --------------------------------------------------------------------

def import_library() -> SimpleNamespace:
    import importlib

    importlib.import_module("inducta")
    return SimpleNamespace(**{m: importlib.import_module("inducta." + m) for m in LIB_MODULES})


def setup(instances) -> tuple[SimpleNamespace, list, list[float]]:
    """Import the package and parse every graph text, SETUP_REPEATS times
    from a clean module table; returns the last library and parse and the
    rescaled set-up times."""
    clock = SpeedClock()
    times = []
    done = {}

    def once():
        gc.collect()
        for name in [n for n in sys.modules if n == "inducta" or n.startswith("inducta.")]:
            del sys.modules[name]
        done["lib"] = lib = import_library()
        done["parsed"] = [lib.graphs.parse_graph(inst.text) if inst.text else None
                          for inst in instances]

    once()  # warm the bytecode cache; not counted
    for _ in range(SETUP_REPEATS):
        times.append(clock.timed(once))
    return done["lib"], done["parsed"], times


def cli_env() -> dict:
    """The pinned environment of every CLI child: source on PYTHONPATH, a
    benchmark-owned bytecode cache, and nothing inherited but PATH."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": "src",
            "PYTHONPYCACHEPREFIX": str(CACHE / "pyc"), "PYTHONHASHSEED": "0", "LC_ALL": "C.UTF-8"}


def interpreter_info() -> dict:
    env = {k: v for k, v in cli_env().items() if k != "PATH"}
    return {"interpreter": sys.executable, "version": sys.version.split()[0],
            "flags": [f for f in ("optimize", "dont_write_bytecode", "no_site", "isolated")
                      if getattr(sys.flags, f)], "cli_env": env}


def prepare_cli(instances, seed: int) -> None:
    """Write the CLI inputs and warm the bytecode cache with one import."""
    work = CACHE / "cli" / str(seed)
    work.mkdir(parents=True, exist_ok=True)
    for i, inst in enumerate(instances):
        files = {"{file}": work / f"g{i}.txt", "{cnf}": work / f"f{i}.cnf",
                 "{missing}": work / f"missing{i}.txt"}
        if inst.text or "file_text" in inst.params:
            files["{file}"].write_text(inst.text or inst.params["file_text"])
        if "cnf" in inst.params:
            files["{cnf}"].write_text(inst.params["cnf"])
        inst.params["cmd"] = [sys.executable, "-m", "inducta.cli"] + [
            _fill(a, files) for a in inst.params["argv"]]
    subprocess.run([sys.executable, "-c", "import inducta.cli"], env=cli_env(), cwd=ROOT,
                   check=True, timeout=120)


def _fill(arg: str, files: dict) -> str:
    for key, path in files.items():
        arg = arg.replace(key, str(path))
    return arg


# -- the closed loop ---------------------------------------------------------------

def attempt(lib, tasks, workload: str, inst, wg, limit: float):
    """One instance: (outcome, latency in s, answer)."""
    if workload == "cli":
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(inst.params["cmd"], env=cli_env(), cwd=ROOT,
                                  capture_output=True, text=True, timeout=limit)
        except subprocess.TimeoutExpired:
            return "time_limit", time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        outcome = "ok" if proc.returncode == inst.params["want_code"] else "other"
        return outcome, dt, (proc.returncode, proc.stdout)
    answer = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            answer = tasks.solve(lib, inst, wg)
            outcome = "ok"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TimeLimit:
        outcome = "time_limit"
    except lib.graphs.TooLargeError:
        outcome = "too_large"
    except Exception:  # any other refusal or crash counts as a failed instance
        outcome = "other"
    return outcome, time.perf_counter() - t0, answer


def closed_loop(lib, tasks, workload, instances, parsed, limit, seconds=None, tracer=None):
    """Run whole passes over the instances until ``seconds`` of wall time
    have passed (exactly one pass when ``seconds`` is None), so that every
    instance counts equally often.  Returns the records (index, outcome,
    rescaled latency, answer, wall latency) and the wall time elapsed."""
    clock = SpeedClock(child_probe_time, CHILD_REF_S, CHILD_EVERY) if workload == "cli" else SpeedClock()
    raw = []
    t_start = time.perf_counter()
    i = 0
    while True:
        idx = i % len(instances)
        at = clock.maybe_probe()
        if tracer is not None:
            tracer.begin_instance(idx)
        # the limit holds at reference speed, like every reported time
        wall_limit = limit * clock.probes[at][1] / clock.ref
        outcome, dt, answer = attempt(lib, tasks, workload, instances[idx], parsed[idx], wall_limit)
        if tracer is not None:
            tracer.end_instance(outcome == "time_limit")
        raw.append((idx, outcome, dt, answer, at))
        i += 1
        elapsed = time.perf_counter() - t_start
        if i % len(instances) == 0 and (seconds is None or elapsed >= seconds):
            break
        if seconds is not None and elapsed >= MAX_LOOP_FACTOR * max(seconds, 10.0):
            break  # a pass that has become this slow ends early, so the run still ends
    clock.probe()
    records = [(idx, outcome, dt * clock.scale(at), answer, dt) for idx, outcome, dt, answer, at in raw]
    return records, elapsed


def check_records(lib, tasks, workload, instances, parsed, records) -> list[str]:
    """Check each answered instance once against its oracle or witness
    validator, and every repeat of it against that first answer."""
    errors = []
    first: dict[int, object] = {}
    for idx, outcome, _, answer, _ in records:
        if outcome != "ok":
            continue
        if idx in first:
            if answer != first[idx]:
                errors.append(f"{instances[idx].family}#{idx}: answer changed between passes")
            continue
        first[idx] = answer
        try:
            if workload == "cli":
                tasks.check_cli(lib, instances[idx], parsed[idx], *answer)
            else:
                tasks.check(lib, instances[idx], parsed[idx], answer)
        except tasks.WrongAnswer as e:
            errors.append(f"{instances[idx].family}#{idx}: {e}")
    return errors


def prepare(workload: str, seed: int, scale: float):
    import tasks
    import workloads

    instances = workloads.generate(workload, seed, scale)
    lib, parsed, setup_times = setup(instances)
    if workload == "cli":
        prepare_cli(instances, seed)
        for inst, wg in zip(instances, parsed):
            inst.params["want_code"] = tasks.cli_expected_code(lib, inst, wg)
    return tasks, instances, lib, parsed, setup_times


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def run_untraced(workload: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    tasks, instances, lib, parsed, setup_times = prepare(workload, seed, scale)
    records, elapsed = closed_loop(lib, tasks, workload, instances, parsed,
                                   TIME_LIMIT[workload], seconds=seconds)
    rss = peak_rss_mb(workload)
    errors = check_records(lib, tasks, workload, instances, parsed, records)
    answered = [r[2] * 1000.0 for r in records if r[1] == "ok"]
    busy = sum(r[2] for r in records)
    failed = len(records) - len(answered)
    metrics = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "instances_per_s": (len(answered) / busy, len(answered)),
        "latency_p50_ms": (statistics.median(answered) if answered else 0.0, len(answered)),
        "latency_p90_ms": (_p90(answered), len(answered)),
        "failed_frac": (failed / len(records), len(records)),
        "peak_rss_mb": (rss, 1),
    }
    return {"workload": workload, "errors": errors, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": v, "unit": dict(END_TO_END)[k], "samples": n}
                        for k, (v, n) in metrics.items()},
            "outcomes": _outcome_counts(records),
            "failed_by_family": _failed_by_family(instances, records),
            "wall": {"elapsed_s": elapsed, "busy_s": sum(r[4] for r in records),
                     "latency_p50_ms": statistics.median(r[4] * 1000.0 for r in records
                                                         if r[1] == "ok") if answered else 0.0}}


def _outcome_counts(records) -> dict:
    out = {"too_large": 0, "time_limit": 0, "other": 0}
    for r in records:
        if r[1] != "ok":
            out[r[1]] += 1
    return out


def _failed_by_family(instances, records) -> dict:
    out: dict[str, int] = {}
    for idx, outcome, *_ in records:
        if outcome != "ok":
            key = f"{instances[idx].family}:{outcome}"
            out[key] = out.get(key, 0) + 1
    return out


# -- the traced run ----------------------------------------------------------------

def _child_wall(code: str) -> float:
    """Wall time of ``python -c code`` in the CLI environment."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=cli_env(), cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t0


def child_probe_time() -> float:
    """The CLI workload's speed probe: a bare interpreter child."""
    return _child_wall("pass")


def _child_ms(code: str, repeats: int = 5) -> float:
    return statistics.median(_child_wall(code) * 1000.0 for _ in range(repeats))


def trace_workload(workload: str, seed: int, scale: float) -> dict:
    """One untraced and one traced pass over the same instances."""
    from tracer import Tracer

    tasks, instances, lib, parsed, _ = prepare(workload, seed, scale * TRACE_SCALE[workload])
    limit = TIME_LIMIT[workload] * TRACE_SLACK
    plain, _ = closed_loop(lib, tasks, workload, instances, parsed, limit)
    tracer = Tracer()
    if workload != "cli":
        tracer.install(lib)
    try:
        traced, _ = closed_loop(lib, tasks, workload, instances, parsed, limit, tracer=tracer)
    finally:
        tracer.uninstall()
    errors = check_records(lib, tasks, workload, instances, parsed, plain + traced)
    m = dict(tracer.main)
    for kind, count in _outcome_counts(traced).items():
        m[f"fail.{kind}.count"] = count
    t_plain, t_traced = sum(r[2] for r in plain), sum(r[2] for r in traced)
    m["trace.overhead_frac"] = t_traced / t_plain - 1.0
    calls = m.get("berge.derive_split.calls", 0)
    m["berge.derive_split.hit_ratio"] = m.get("berge.derive_split.hits", 0) / calls if calls else 0.0
    answers = m.get("berge.route.answers", 0)
    for route in ("join", "complemented"):
        m[f"berge.route.{route}_frac"] = m.get(f"berge.route.{route}", 0) / answers if answers else 0.0
    m["timelimited.calls"] = sum(v for k, v in tracer.limited.items() if k.endswith(".calls"))
    if workload == "cli":
        m["cli.interpreter_ms"] = _child_ms("pass")
        m["cli.import_ms"] = _child_ms("import inducta.cli")
        by_sub: dict[str, list[float]] = {}
        for idx, _, dt, *_ in traced:
            by_sub.setdefault(instances[idx].params["argv"][0], []).append(dt * 1000.0)
        for sub in CLI_SUBCOMMANDS:
            m[f"cli.{sub}.p50_ms"] = statistics.median(by_sub[sub]) if sub in by_sub else 0.0
    metrics = {f"{workload}.{name}": {"value": m.get(name, 0), "unit": unit_of(name)}
               for name in PER_LAYER[workload]}
    # busy time as a share of the traced pass; the entry points come first
    busy = {k: v for k, v in tracer.main.items() if k.endswith(".busy_s")}
    top = [(k, v, v / t_traced) for k, v in sorted(busy.items(), key=lambda kv: -kv[1])[:6]]
    return {"workload": workload, "errors": errors, "attempted": len(traced),
            "failed": sum(_outcome_counts(traced).values()), "metrics": metrics,
            "spans": len(tracer.spans), "traced_s": t_traced, "untraced_s": t_plain,
            "top_busy": top}


def run_traced(seed: int, scale: float = 1.0) -> list[dict]:
    import workloads

    return [trace_workload(w, seed, scale) for w in workloads.WORKLOADS]


# -- entry point ---------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["berge-color", "berge-alpha", "structure", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "inducta" / "__init__.py").is_file():
        print(f"error: no inducta sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    sys.pycache_prefix = str(CACHE / "pyc")
    sys.dont_write_bytecode = False
    signal.signal(signal.SIGALRM, _alarm)
    print(json.dumps({"info": interpreter_info()}))

    if args.trace:
        parts = run_traced(args.seed)
        errors = [e for r in parts for e in r["errors"]]
        metrics = {k: v for r in parts for k, v in r["metrics"].items()}
        for r in parts:
            print(json.dumps({"workload": r["workload"], "spans": r["spans"],
                              "untraced_s": r["untraced_s"], "traced_s": r["traced_s"],
                              "top_busy_s_share": r["top_busy"]}))
        attempted = sum(r["attempted"] for r in parts)
        failed = sum(r["failed"] for r in parts)
    else:
        r = run_untraced(args.workload, args.seed, args.seconds)
        errors = r["errors"]
        for name, m in r["metrics"].items():
            print(f"{args.workload:12s} {name:16s} {m['value']:14.6f} {m['unit']:6s} n={m['samples']}")
        print(json.dumps({"outcomes": r["outcomes"], "failed_by_family": r["failed_by_family"],
                          "wall": r["wall"]}))
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in r["metrics"].items()}
        attempted, failed = r["attempted"], r["failed"]
    for e in errors[:20]:
        print("WRONG ANSWER:", e, file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
