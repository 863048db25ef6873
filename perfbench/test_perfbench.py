"""The benchmark's own tests.  Run from the root of a checkout:

    python3 -m pytest -q perfbench

They run every workload at a tiny size, inject wrong answers, and check
that traced counts repeat exactly.
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = 0.05


@pytest.fixture(autouse=True)
def _fast(monkeypatch):
    import signal

    signal.signal(signal.SIGALRM, run._alarm)
    # the pinned _csp_split instance costs one time limit per pass
    monkeypatch.setitem(run.TIME_LIMIT, "structure", 0.3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_every_metric_with_unit(workload):
    r = run.run_untraced(workload, seed=1, seconds=0, scale=TINY)
    assert r["errors"] == []
    assert r["attempted"] >= 1
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    assert got == dict(run.END_TO_END)
    assert all(v["value"] > 0 for k, v in r["metrics"].items())


def _inject(monkeypatch, module: str, name: str, corrupt):
    """Make every freshly imported library return corrupted answers."""
    real_import = run.import_library

    def patched():
        lib = real_import()
        mod = getattr(lib, module)
        original = getattr(mod, name)
        setattr(mod, name, lambda *a, **k: corrupt(original(*a, **k)))
        return lib

    monkeypatch.setattr(run, "import_library", patched)


def _wrong_coloring(col):
    return [0] * len(col)


def _wrong_stable_set(ans):
    ans.alpha_set = ans.alpha_set[1:]
    return ans


def _wrong_tree(res):
    if res.has_tree:
        res.tree = res.tree[:2]  # k >= 4 terminals never fit in two vertices
    return res


@pytest.mark.parametrize("workload, module, name, corrupt", [
    ("berge-color", "berge", "color_berge", _wrong_coloring),
    ("berge-alpha", "berge", "berge_alpha_omega", _wrong_stable_set),
    ("structure", "kintree", "k_in_a_tree", _wrong_tree),
])
def test_injected_wrong_answer_fails_the_run(monkeypatch, workload, module, name, corrupt):
    _inject(monkeypatch, module, name, corrupt)
    r = run.run_untraced(workload, seed=1, seconds=0, scale=TINY)
    assert r["errors"]


def _counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count" and not k.endswith("timelimited.calls")}


@pytest.mark.parametrize("workload", ["berge-alpha", "structure"])
def test_two_traced_runs_give_identical_counts(workload):
    a = run.trace_workload(workload, seed=3, scale=TINY)
    b = run.trace_workload(workload, seed=3, scale=TINY)
    assert a["errors"] == b["errors"] == []
    assert _counts(a) == _counts(b)
    assert any(v > 0 for v in _counts(a).values())


def test_traced_run_reports_every_layer_metric_and_overhead():
    r = run.trace_workload("berge-color", seed=1, scale=TINY)
    names = {k.split(".", 1)[1] for k in r["metrics"]}
    assert names == set(run.PER_LAYER["berge-color"])
    overhead = r["metrics"]["berge-color.trace.overhead_frac"]["value"]
    assert math.isfinite(overhead) and overhead > 0
    assert r["metrics"]["berge-color.berge.all_proper_nonpath_two_joins.busy_s"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
