"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run as bench  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, hook_targets, layer_metrics, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children_within_the_parent():
    root = Span("flow.run", 0.0, 10.0)
    a = Span("energy.hvp", 1.0, 3.0, root)
    b = Span("energy.grad", 2.0, 5.0, root)  # overlaps a
    c = Span("energy.value", 8.0, 12.0, root)  # runs past the parent's end
    leaf = Span("norms.hess", 1.5, 2.5, a)
    st = self_times([root, a, b, c, leaf])
    assert st[id(root)] == pytest.approx(10.0 - 4.0 - 2.0)
    assert st[id(a)] == pytest.approx(1.0)
    assert st[id(b)] == pytest.approx(3.0)
    assert st[id(c)] == pytest.approx(4.0)
    assert st[id(leaf)] == pytest.approx(1.0)


def test_a_gone_hook_makes_its_metrics_absent_not_zero():
    installed = {hook.span for _, hook in hook_targets()} - {"energy.hvp"}
    metrics = layer_metrics([], installed, newton_iters=0)
    assert "energy.hvp_calls" not in metrics and "energy.hvp_s" not in metrics
    assert metrics["energy.grad_calls"] == 0


def test_tracer_wraps_every_target_and_restores_it_by_identity():
    originals = [(owner, hook.attr, vars(owner)[hook.attr]) for owner, hook in hook_targets()]
    with Tracer():
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in originals)
    assert all(vars(owner)[attr] is orig for owner, attr, orig in originals)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_traced_with_no_failed_operation(name):
    w = workloads.tiny(workloads.WORKLOADS[name])
    originals = [(owner, hook.attr, vars(owner)[hook.attr]) for owner, hook in hook_targets()]
    result = bench.measure(w, seed=0, seconds=0, traced=True)
    assert all(vars(owner)[attr] is orig for owner, attr, orig in originals)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * w.ops_per_run  # warm-up, untraced, traced
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["experiments.members"] == (5 if w.sweep else 0)
    assert metrics["flow.steps"] == w.steps * (5 if w.sweep else 1)
    assert metrics["energy.hvp_calls"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_untraced_pass_runs_every_input_and_reports_the_end_to_end_metrics(name):
    w = workloads.tiny(workloads.WORKLOADS[name])
    result = bench.measure(w, seed=0, seconds=0, traced=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (w.inputs + 1) * w.ops_per_run  # one warm-up run
    assert sorted(result["metrics"]) == ["setup_s", "solve_s", "total_s"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0 < metrics["setup_s"] and 0 < metrics["solve_s"] < metrics["total_s"]


def test_per_input_mean_weighs_every_input_equally():
    assert bench.per_input_mean([[3.0, 1.0, 2.0], [5.0, 4.0]]) == pytest.approx(3.25)


def test_reference_check_rejects_a_relative_miss_above_tolerance():
    want = {"phi_reg": 2.0, "e_h": [1.0, 0.5]}
    assert workloads.matches({"phi_reg": 2.0 * (1 + 5e-7), "e_h": [1.0, 0.5]}, want)
    assert not workloads.matches({"phi_reg": 2.0 * (1 + 2e-6), "e_h": [1.0, 0.5]}, want)
    assert not workloads.matches({"phi_reg": 2.0, "e_h": [1.0]}, want)
