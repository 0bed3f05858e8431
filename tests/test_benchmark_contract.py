"""The benchmark's tracer (perfbench/tracing.py) against the library it patches.

The tracer wraps library functions by name and reads solve results and
models through fixed attributes; a rename or a changed view would only
show in the benchmark's own suite, which is not part of this one.
"""

import importlib.util
from pathlib import Path

import gridopt
from gridopt import AlterMilpConfig, baselines

from conftest import tiny_env


def _tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _NoIncumbent:
    """A backend that finds nothing, so every solve keeps its warm start."""

    name = "no-incumbent"

    def solve_raw(self, model, budget):
        return None, "limit", "scripted"


def _traced_run(tracing, backend):
    tracer = tracing.Tracer()
    config = AlterMilpConfig(iterations=1, total_budget=2.0, backend=backend,
                             early_stop=False)
    with tracing.installed(tracer):
        schedule, trace = gridopt.run_altermilp(tiny_env(1), config)
    schedule.validate(tiny_env(1))
    metrics = {name: value for name, (value, _) in tracing.layer_metrics(tracer).items()}
    solves = sum(1 for span in tracer.spans if span[0] == "solver.solve")
    return metrics, solves, trace


def test_one_iteration_altermilp_under_the_tracer():
    tracing = _tracing()
    for backend in (None, _NoIncumbent()):
        metrics, solves, trace = _traced_run(tracing, backend)
        assert solves == 2
        assert sum(metrics[f"solver.status.{s}"] for s in tracing.SOLVER_STATUSES) == solves
        assert metrics["alternating.steps"] == len(trace.steps) - 1 == 2
        for kind in tracing.MODEL_KINDS:
            for size in ("vars", "rows", "nnz"):
                assert metrics[f"model.{kind}.{size}"] > 0
        assert metrics["model.extract_schedule.s"] > 0
        if backend is not None:
            assert metrics["solver.warm_start_kept"] == solves


def test_search_methods_under_the_tracer():
    # every replay goes through kernels.replay as the tracer patched it: a
    # caller holding its own reference to the kernel would read 0 calls
    tracing = _tracing()
    env, generations = tiny_env(1), 3
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        baselines.ga(env, baselines.GaConfig(population=4, generations=generations))
        baselines.ensemble_greedy(env, 0, runs=5)
    metrics = {name: value for name, (value, _) in tracing.layer_metrics(tracer).items()}
    # each method re-scores its answer once, through makespan_of
    assert metrics["kernels.replay.calls"] >= metrics["evaluator.makespan_of.calls"] == 2
    assert metrics["baselines.ga.generations"] == generations
