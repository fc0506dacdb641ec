"""Tests of the benchmark itself: inputs, span arithmetic, patch hygiene, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

workloads.bootstrap(ROOT)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = {
    "spectral.sturm_pivots", "dynamics.point_updates", "profile.value_points", "cli.report_bytes",
    "stability.kernel_check_useful_ratio", "stability.inertia_calls_per_verdict",
    "vk.value_calls_per_quadrature", "profile.points_per_value_call",
}


def test_benchmark_json_declares_the_workloads_and_metrics_the_code_reports():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(tracer.PER_LAYER)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    w = workloads.WORKLOADS[name]
    assert w.make_inputs(7, 64) == w.make_inputs(7, 64)
    assert w.make_inputs(7, 64) != w.make_inputs(8, 64)
    for raw in w.make_inputs(7, 64):
        w.prepare(raw)  # every drawn input is admissible


def test_self_time_subtracts_direct_children_only():
    #  op [0, 10]
    #  ├── a [1, 6]
    #  │   ├── b [2, 3]
    #  │   └── c [4, 5.5]
    #  └── d [7, 9]
    start = [0.0, 1.0, 2.0, 4.0, 7.0]
    end = [10.0, 6.0, 3.0, 5.5, 9.0]
    parent = [-1, 0, 1, 1, 0]
    selfs = tracer.self_times(start, end, parent)
    assert selfs == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])
    assert sum(selfs) == pytest.approx(end[0] - start[0])
    assert tracer.accounting_problems(selfs, [10.0], [10.005]) == []


def test_accounting_catches_overlapping_spans_and_untimed_ops():
    # b outlasts its parent a, so a's self time is negative.
    start, end, parent = [0.0, 1.0, 2.0], [10.0, 4.0, 6.0], [-1, 0, 1]
    selfs = tracer.self_times(start, end, parent)
    assert any("self time" in p for p in tracer.accounting_problems(selfs, [10.0], [10.0]))
    # A root span longer than the op's own timer, or much shorter than it.
    ok = tracer.self_times([0.0], [10.0], [-1])
    assert tracer.accounting_problems(ok, [10.0], [9.0]) != []
    assert tracer.accounting_problems(ok, [10.0], [11.0]) != []
    assert tracer.accounting_problems(ok, [10.0], [10.0, 1.0]) != []


def test_host_speed_scales_wall_time_to_reference_seconds():
    ref = hostspeed.REFERENCE_SECONDS
    assert hostspeed.HostSpeed.factor(ref, ref) == pytest.approx(1.0)
    # A host running at half speed doubles both the op and the reference work.
    assert 2.0 * hostspeed.HostSpeed.factor(2.0 * ref, 2.0 * ref) == pytest.approx(1.0)
    assert hostspeed.HostSpeed.factor(ref, 3.0 * ref) == pytest.approx(0.5)
    assert hostspeed.HostSpeed().sample() > 0.0


def _bindings():
    """Every attribute of every peakwave module and class, by identity."""
    seen = {}
    for mod in tracer._library_modules():
        for attr, obj in vars(mod).items():
            seen[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__.startswith("peakwave"):
                for key, raw in vars(obj).items():
                    seen[(mod.__name__, attr, key)] = raw
    return seen


def test_traced_run_restores_every_original():
    import peakwave
    import time

    from peakwave import cli, stability, vk

    w = workloads.WORKLOADS["verdict-sweep"]
    before = _bindings()
    original = peakwave.validate_params
    t = tracer.Tracer()
    with t.installed():
        # Names imported into other modules are patched where they are bound.
        assert vk.validate_params is cli.validate_params is peakwave.validate_params
        assert vk.validate_params is not original
        began = time.perf_counter()
        with t.op_span(0, True):
            stability.compare(w.prepare(w.make_inputs(3, 1)[0]))
        seconds = time.perf_counter() - began
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    metrics, problems = t.metrics(1, [seconds])
    assert problems == []
    assert metrics["stability.compare.calls"] == 1
    assert metrics["spectral.inertia_below.calls"] > 0
    assert metrics["trace.accounted_frac"] == pytest.approx(1.0, abs=1e-3)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_runs_report_every_declared_metric_and_repeat_counts(name):
    last = json.loads(_run("--workload", name, "--seed", "5", "--seconds", "1",
                           "--trace", "0", "--smoke").stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == 1 and last["failed"] == 0
    assert list(last["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in last["metrics"].values())

    traced = []
    for _ in range(2):
        out = _run("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
        traced.append(json.loads(out.stdout.splitlines()[-1]))
    assert list(traced[0]["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for a, b in zip(traced[0]["metrics"].items(), traced[1]["metrics"].items()):
        if a[0].endswith((".calls", ".errors")) or a[0] in EXACT:
            assert a == b


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verdict-sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
