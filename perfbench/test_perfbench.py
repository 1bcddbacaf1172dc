"""Smoke tests of the benchmark itself, at the smallest run size.

Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import harness  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
# Counts that depend only on the field and the seed, never on timing.
EXACT = ("arith.modmul.mul_ops", "arith.modmul.add_ops",
         "arith.modmul.shift_ops", "arith.modmul.mask_ops",
         "arith.invert.modmuls_per_op", "model.mul_ratio",
         "tables.search.candidates", "tables.search.found")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_pair(request):
    """Two traced runs of one workload, one pass over its inputs each."""
    wl = WORKLOADS[request.param]
    return [harness.run(wl, SEED, 0, True, SRC) for _ in range(2)]


def test_exact_counts_repeat(traced_pair):
    first, second = (r["per_layer"] for r in traced_pair)
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    assert traced_pair[0]["digest"] == traced_pair[1]["digest"]


def test_no_failures_and_every_metric(traced_pair, spec):
    for report in traced_pair:
        assert report["failed"] == 0
        assert report["fail_ratio"] == 0
        line = run.result_line(report)
        assert line["correct"] and line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
        for name, metric in report["per_layer"].items():
            assert metric["samples"] >= 1, name
        assert set(report["end_to_end"]) == {
            m["name"] for m in spec["end_to_end"]}


def test_workloads_match_spec(spec):
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def _tampered(name, gf, state, item):
    """A wrong result for one op of each workload."""
    wl = WORKLOADS[name]
    out = wl.op(gf, state, item)
    assert wl.check(state, item, out)
    if name == "ladder":
        comps = (out.comps[0] + 1,) + out.comps[1:]
        return gf.Residue(comps, out.params)
    if name == "roundtrip":
        return (out[0] + 1,) + out[1:]
    return [] if item[2] else gf.search_grps(5, 59, 3, 3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_flags_wrong_result(name):
    gf = harness.import_grpfield(SRC)
    state = WORKLOADS[name].setup(gf, SEED)
    items = state.items[:1]
    if name == "search":  # one prime and one composite candidate
        items = [next(i for i in state.items if i[2]),
                 next(i for i in state.items if not i[2])]
    for item in items:
        wrong = _tampered(name, gf, state, item)
        assert not WORKLOADS[name].check(state, item, wrong)


def _run_cli(cwd, *extra):
    cmd = [sys.executable, *extra, "perfbench/run.py", "--workload",
           "roundtrip", "--seed", "1", "--seconds", "0", "--trace", "0"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def test_refuses_optimize_flag():
    proc = _run_cli(ROOT, "-O")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_cli(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cli_result_line():
    proc = _run_cli(ROOT)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert metric["value"] > 0
