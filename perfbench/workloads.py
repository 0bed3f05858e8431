"""The benchmark's workloads, their method runs and the correctness gate.

Every workload turns one run seed into a fixed list of instance seeds; each
instance seed draws one environment from the workload's preset and seeds
every method run on it.  The methods only ever see that environment and
their own config, so a workload's work per pass is fixed by the seed.

Methods are looked up on their modules at call time (``baselines.ga``,
``gridopt.run_altermilp``) so that the tracer's wrappers, installed by
patching those names, see every call.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

import gridopt
from gridopt import baselines
from gridopt.schedule import InvalidScheduleError

GA_POPULATION = 50
GA_GENERATIONS = 10
ENSGREEDY_RUNS = 200

# anytime-medium: 2 s per sub-solve at the medium preset, where every
# assignment sub-solve times out; the budget binds on purpose.
ANYTIME_ITERATIONS = 2
ANYTIME_TOTAL_BUDGET = 8.0


@dataclass(frozen=True)
class Outcome:
    """One method run on one instance, as the correctness gate sees it."""

    method: str
    instance: int
    wall: float
    schedule: gridopt.Schedule | None = None
    makespan: float | None = None
    statuses: tuple[str, ...] = ()
    trace_makespans: tuple[float, ...] = ()
    degraded: bool = False
    error: str | None = None


def _baseline(run):
    return run.schedule, run.makespan, run.solver_statuses, (), run.degraded


def _ga(env, seed):
    return _baseline(baselines.ga(env, baselines.GaConfig(
        population=GA_POPULATION, generations=GA_GENERATIONS, seed=seed)))


def _ensgreedy(env, seed):
    return _baseline(baselines.ensemble_greedy(env, seed, runs=ENSGREEDY_RUNS))


def _altermilp(iterations, total_budget):
    def run(env, seed):
        schedule, trace = gridopt.run_altermilp(env, gridopt.AlterMilpConfig(
            iterations=iterations, total_budget=total_budget,
            early_stop=False, seed=seed))
        statuses = tuple(s.status for s in trace.steps if s.stage != "init")
        return (schedule, trace.steps[-1].makespan, statuses,
                tuple(trace.makespans()), trace.degraded)
    return run


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    instances: int              # environments per pass
    pass_seconds: float         # nominal length of one pass on a 2-CPU machine
    methods: tuple              # (label, runner) pairs, run in this order per instance
    scored_per_instance: int    # candidate schedules the configs make the methods score
    budget: float | None        # wall budget requested per instance, where one binds

    def passes(self, seconds: float) -> int:
        """Passes in a run of ``seconds``: set by the request, never by the speed
        measured, so every commit times the same work."""
        return max(1, round(seconds / self.pass_seconds))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="search-medium", preset="medium", instances=16, pass_seconds=12.0,
            methods=(("ga", _ga), ("ensgreedy", _ensgreedy)),
            scored_per_instance=GA_POPULATION * GA_GENERATIONS + ENSGREEDY_RUNS,
            budget=None),
        Workload(
            name="anytime-medium", preset="medium", instances=3, pass_seconds=33.0,
            methods=(("altermilp", _altermilp(ANYTIME_ITERATIONS, ANYTIME_TOTAL_BUDGET)),),
            scored_per_instance=1 + 2 * ANYTIME_ITERATIONS,
            budget=ANYTIME_TOTAL_BUDGET),
    )
}


def instance_seeds(seed: int, count: int) -> list[int]:
    """The run's instance seeds, a pure function of the run seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def make_instances(workload: Workload, seeds) -> list:
    config = gridopt.preset_config(workload.preset)
    return [(s, gridopt.generate(config, seed=s)) for s in seeds]


def run_pass(workload: Workload, instances, tracer=None) -> list[Outcome]:
    """Run every method on every instance once, timing each run."""
    outcomes = []
    for seed, env in instances:
        for label, runner in workload.methods:
            if tracer is not None:
                tracer.run_id = f"{workload.name}/{seed}/{label}"
            start = time.perf_counter()
            try:
                schedule, makespan, statuses, trace, degraded = runner(env, seed)
            except Exception:  # a crashed method is a failed run, not a dead benchmark
                outcomes.append(Outcome(label, seed, time.perf_counter() - start,
                                        error=traceback.format_exc()))
                continue
            outcomes.append(Outcome(label, seed, time.perf_counter() - start, schedule,
                                    float(makespan), tuple(statuses), trace, degraded))
    return outcomes


def check(workload: Workload, env, outcome: Outcome) -> list[str]:
    """Problems with one outcome; empty when it passes the gate."""
    if outcome.error is not None:
        return ["raised: " + outcome.error.strip().splitlines()[-1]]
    problems = []
    try:
        outcome.schedule.validate(env)
    except InvalidScheduleError as exc:
        problems.append(f"invalid schedule: {exc}")
    else:
        replayed = gridopt.evaluate(env, outcome.schedule).makespan
        if not math.isclose(replayed, outcome.makespan, rel_tol=1e-9):
            problems.append(f"reported makespan {outcome.makespan!r} but replay "
                            f"gives {replayed!r}")
    trace = outcome.trace_makespans
    if any(later > earlier for earlier, later in zip(trace, trace[1:])):
        problems.append(f"trace regressed: {list(trace)}")
    if outcome.degraded:
        problems.append("degraded: no sub-solve succeeded")
    return problems
