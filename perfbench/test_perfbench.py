"""Tests of the benchmark itself: exact counts repeat, output matches the manifest.

Run from the repository root with ``python3 -m pytest perfbench``; it
takes about a minute.
"""

from __future__ import annotations

import dataclasses

import pytest

import run
import tracing
import workloads
from workloads import WORKLOADS, instance_seeds, make_instances, run_pass


def traced(workload, envs):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        outcomes = run_pass(workload, envs, tracer)
    counts = {k: v for k, (v, unit) in tracing.layer_metrics(tracer).items()
              if unit not in ("s", "us")}
    return counts, [o.makespan for o in outcomes]


def test_search_counts_and_makespans_repeat_exactly():
    workload = WORKLOADS["search-medium"]
    envs = make_instances(workload, instance_seeds(7, 1))
    first, second = traced(workload, envs), traced(workload, envs)
    assert first == second
    # ga re-scores its best individual once more when it returns
    assert first[0]["evaluator.makespan_of.calls"] == workload.scored_per_instance + 1


def test_model_and_solver_counts_repeat_exactly_when_no_budget_binds():
    # 100 s per sub-solve on a small grid: HiGHS always stops on its own
    workload = dataclasses.replace(
        WORKLOADS["anytime-medium"], preset="small",
        methods=(("altermilp", workloads._altermilp(3, 600.0)),))
    envs = make_instances(workload, instance_seeds(7, 1))
    first, second = traced(workload, envs), traced(workload, envs)
    assert first == second
    counts = first[0]
    assert counts["model.fixed-yz.rows"] > 0 and counts["model.fixed-x.rows"] > 0
    assert counts["alternating.steps"] == 6


def test_tracer_restores_every_boundary():
    before = [getattr(owner, attr) for owner, attr, _, _ in tracing.BOUNDARIES]
    with tracing.installed(tracing.Tracer()):
        assert all(getattr(owner, attr) is not fn for (owner, attr, _, _), fn
                   in zip(tracing.BOUNDARIES, before))
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.BOUNDARIES] == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.spans = [["baselines.ga", 0.0, 10.0, -1, "r"],
                    ["evaluator.makespan_of", 2.0, 5.0, 0, "r"],
                    ["evaluator.makespan_of", 6.0, 7.0, 0, "r"]]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["baselines.ga.self_s"] == (6.0, "s")
    assert metrics["evaluator.makespan_of.s"] == (4.0, "s")
    assert metrics["evaluator.makespan_of.calls"] == (2, "count")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_matches_manifest_and_passes_the_gate(name, trace):
    doc = run.run_workload(name, seed=0, seconds=0, trace=trace, instances=1)
    assert run.schema_problems(doc) == []
    assert doc["problems"] == []
    assert doc["result"]["correct"]
