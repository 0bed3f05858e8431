"""The benchmark's tracer (perfbench/tracing.py) against the library it patches.

The tracer wraps library functions by name and reads solve results and
models through fixed attributes; a rename or a changed view would only
show in the benchmark's own suite, which is not part of this one.
"""

import importlib.util
from pathlib import Path

import gridopt
from gridopt import AlterMilpConfig, baselines
from gridopt.alternating import min_exe

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


def _traced(tracing, method):
    """(layer metrics, solve count, what ``method()`` returned) under a tracer."""
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        out = method()
    metrics = {name: value for name, (value, _) in tracing.layer_metrics(tracer).items()}
    solves = sum(1 for span in tracer.spans if span[0] == "solver.solve")
    return metrics, solves, out


def test_one_iteration_altermilp_under_the_tracer():
    tracing = _tracing()
    env = tiny_env(1)
    for backend in (None, _NoIncumbent()):
        config = AlterMilpConfig(iterations=1, total_budget=2.0, backend=backend,
                                 early_stop=False)
        metrics, solves, (schedule, trace) = _traced(
            tracing, lambda: gridopt.run_altermilp(env, config))
        schedule.validate(env)
        assert solves == 2
        assert sum(metrics[f"solver.status.{s}"] for s in tracing.SOLVER_STATUSES) == solves
        assert metrics["alternating.steps"] == len(trace.steps) - 1 == 2
        # altermilp's half-steps build the erd-assignment and fixed-xy
        # models, neither of which the tracer sizes; min_exe builds the
        # fixed-yz one, and no builder makes a fixed-x one any more
        assert metrics["model.build_fixed_x.s"] > 0
        exe_metrics, exe_solves, run = _traced(tracing, lambda: min_exe(env, 1.0, 0, backend))
        run.schedule.validate(env)
        assert exe_solves == 1
        x_metrics, _, _ = _traced(
            tracing, lambda: gridopt.alternating.build_fixed_x(env, schedule))
        # the tracer still finds and times the placement builder
        assert x_metrics["model.build_fixed_x.s"] > 0
        assert set(tracing.MODEL_KINDS) == {"fixed-yz", "fixed-x"}
        for size in ("vars", "rows", "nnz"):
            assert exe_metrics[f"model.fixed-yz.{size}"] > 0
            assert metrics[f"model.fixed-yz.{size}"] == 0
            for traced in (metrics, exe_metrics, x_metrics):
                assert traced[f"model.fixed-x.{size}"] == 0
        assert metrics["model.extract_schedule.s"] > 0
        if backend is not None:
            assert metrics["solver.warm_start_kept"] == solves
            assert exe_metrics["solver.warm_start_kept"] == exe_solves


def test_every_pair_sub_solve_is_counted_by_the_tracer():
    # the sweep's sub-solves go through alternating.solve as the tracer
    # patched it, each with its time limit as the second positional argument
    tracing = _tracing()
    env = gridopt.generate(gridopt.preset_config("small"), seed=3)
    config = AlterMilpConfig(iterations=1, total_budget=4.0, early_stop=False)
    metrics, solves, (_, trace) = _traced(tracing, lambda: gridopt.run_altermilp(env, config))
    sub_solves = int(trace.steps[1].diagnostics.split(" sub-solves", 1)[0].split()[-1])
    assert sub_solves >= env.num_cns - 1
    # the sweep is the whole assignment half-step: its sub-solves, then
    # the placement solve
    assert solves == sub_solves + 1
    assert sum(metrics[f"solver.status.{s}"] for s in tracing.SOLVER_STATUSES) == solves
    assert metrics["alternating.steps"] == 2


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
