"""Alternating MILP optimization of assignment vs order-and-placement.

The loop starts from the greedy schedule of a seeded random job order.  One
iteration solves two restricted models back to back, each warm-started
from the best point so far: first the job assignment under the current order
and placement, then the order and placement under the new assignment.  The
warm-start contract of :func:`gridopt.solver.solve` makes the replayed
makespan non-increasing across completed steps, so the loop is an anytime
algorithm: interrupting it after any step leaves a valid schedule no worse
than the initial one.  A half-step whose restricted model was already solved
to optimality (same pinned assignment, or same pinned order and placement)
is not solved again: the current iterate attains that optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import greedy
from .environment import GridEnvironment, check_budget, save_document
from .evaluator import makespan_of
from .model import build_fixed_x, build_fixed_yz, extract_schedule
from .schedule import Schedule
from .solver import solve

TRACE_SCHEMA = "optimization-trace/1"

# an iteration improving the makespan by less than this fraction is quiet;
# two quiet iterations in a row stop the loop early
EARLY_STOP_REL = 1e-9


@dataclass(frozen=True)
class AlterMilpConfig:
    iterations: int = 3
    total_budget: float = 3.0       # seconds of solver time over all 2T solves
    seed: int = 0                   # seeds the job order of the greedy start
    backend: object | None = None   # solver backend; None -> HiGHS
    optimize_order: bool = True     # False pins the order in the second half-step
    early_stop: bool = True

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        check_budget(self.total_budget, "total_budget")


@dataclass(frozen=True)
class TraceStep:
    iteration: int          # 0 for the initial point
    stage: str              # "init", "assignment" or "order-placement"
    status: str             # solver status, or "init"
    model_objective: float | None
    makespan: float         # replayed makespan of the iterate after this step
    wall_time: float
    schedule: Schedule

    def to_document(self) -> dict:
        return {
            "iteration": self.iteration,
            "stage": self.stage,
            "status": self.status,
            "model_objective": self.model_objective,
            "makespan": self.makespan,
            "wall_time": self.wall_time,
            "schedule": self.schedule.to_document(),
        }


@dataclass(frozen=True)
class OptimizationTrace:
    steps: tuple[TraceStep, ...]
    stop_reason: str        # "completed", "converged"
    degraded: bool          # True when not a single sub-solve succeeded

    def makespans(self) -> list[float]:
        return [s.makespan for s in self.steps]

    def best(self) -> TraceStep:
        return min(self.steps, key=lambda s: (s.makespan, s.iteration))

    def to_document(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "stop_reason": self.stop_reason,
            "degraded": self.degraded,
            "steps": [s.to_document() for s in self.steps],
        }

    def save(self, path) -> None:
        save_document(self.to_document(), path)


def run(env: GridEnvironment, config: AlterMilpConfig) -> tuple[Schedule, OptimizationTrace]:
    """Alternating optimization from the greedy schedule of a seeded job order.

    A sub-solve that fails outright keeps the previous iterate for that
    half-step; the trace records the failure.  A skipped repeat of an
    optimal sub-solve is recorded as "optimal" with zero wall time.  The
    returned schedule is the best iterate seen (under the warm-start
    contract that is also the last).
    """
    order = np.random.default_rng(config.seed).permutation(env.num_jobs)
    current = greedy(env, order=order).schedule
    current_mk = makespan_of(env, current)
    steps = [TraceStep(0, "init", "init", None, current_mk, 0.0, current)]
    budget = config.total_budget / (2 * config.iterations)    # per solve
    any_success = False
    quiet_iterations = 0
    proven = {}     # stage -> (pinned arrays, objective) of its last optimal solve

    for it in range(1, config.iterations + 1):
        mk_before = current_mk
        for stage in ("assignment", "order-placement"):
            if stage == "assignment":
                pinned = (current.order, current.object_sn)
            elif config.optimize_order:
                pinned = (current.job_cn,)
            else:
                pinned = (current.job_cn, current.order)
            known = proven.get(stage)
            if known is not None and all(map(np.array_equal, known[0], pinned)):
                steps.append(TraceStep(it, stage, "optimal", known[1], current_mk, 0.0,
                                       current))
                continue
            if stage == "assignment":
                mdl = build_fixed_yz(env, current)
            else:
                mdl = build_fixed_x(env, current, pin_order=not config.optimize_order)
            res = solve(mdl, budget, backend=config.backend)
            if res.status == "optimal":
                proven[stage] = (pinned, res.objective)
            if res.ok:
                any_success = True
                candidate = extract_schedule(mdl, res.x)
                candidate_mk = makespan_of(env, candidate)
                # extraction can only tighten timings, never worsen them
                if candidate_mk <= current_mk:
                    current, current_mk = candidate, candidate_mk
            steps.append(TraceStep(it, stage, res.status, res.objective,
                                   current_mk, res.wall_time, current))
        improvement = (mk_before - current_mk) / max(1.0, mk_before)
        quiet_iterations = quiet_iterations + 1 if improvement < EARLY_STOP_REL else 0
        if config.early_stop and quiet_iterations >= 2 and it < config.iterations:
            trace = OptimizationTrace(tuple(steps), "converged", not any_success)
            return current, trace

    trace = OptimizationTrace(tuple(steps), "completed", not any_success)
    return current, trace
