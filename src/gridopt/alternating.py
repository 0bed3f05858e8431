"""Restricted MILP steps: the alternating optimizer and the one-sided baselines.

:func:`step` solves a model built from a schedule, whose builder pins part
of it (``build_fixed_yz`` the order and placement, ``build_fixed_x`` the
assignment and order) and warm-starts the rest from it, and keeps the
answer only if it replays strictly lower, else returns that schedule
itself.  Min-exe and min-trans are one step from a random schedule.
Altermilp starts from the greedy schedule of a seeded random job order and
alternates two half-steps: :func:`pair_sweep` on the assignment, with every
CN queue in ERD order, which solves two CNs at a time exactly, each pair a
slice of the assignment model, until a whole pass keeps nothing or the
share is spent; then a step on the placement under that order, until an
iteration keeps nothing.  So its replayed makespan never increases:
interrupted after any step, it leaves a valid schedule no worse than its
start.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from .baselines import BaselineRun, _finish, greedy
from .environment import (GridEnvironment, check_budget, check_seed, echo, is_kind,
                          save_document)
from .evaluator import makespan_of
from .kernels import replay_batch
from .model import build_erd_assignment, build_fixed_x, build_fixed_yz, extract_schedule
from .schedule import Schedule, random_schedule
from .solver import HighsBackend, SolveResult, solve

TRACE_SCHEMA = "optimization-trace/1"


@dataclass(frozen=True)
class AlterMilpConfig:
    iterations: int = 3
    total_budget: float = 3.0       # seconds shared equally by the 2T half-steps
    seed: int = 0                   # seeds the job order of the greedy start
    backend: object | None = None   # solver backend; None -> HiGHS
    early_stop: bool = True         # stop at the first iteration that keeps nothing

    def __post_init__(self):
        check_seed(self.iterations, "iterations", minimum=1)
        check_budget(self.total_budget, "total_budget")
        check_seed(self.seed, "seed")
        if not is_kind(self.early_stop, bool):
            raise ValueError(f"early_stop must be a bool, got {echo(self.early_stop)}")


@dataclass(frozen=True)
class TraceStep:
    iteration: int          # 0 for the initial point
    stage: str              # "init", "erd-assignment" (the pair sweep) or "placement"
    status: str             # solver status, or "init"
    model_objective: float | None   # the objective of the step's last solve
    makespan: float         # replayed makespan of the iterate after this step
    wall_time: float        # backend seconds of this step's solves
    diagnostics: str        # the last solve's notes, ending in what it proved; "" at init
    schedule: Schedule

    def to_document(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "schedule": self.schedule.to_document()}


@dataclass(frozen=True)
class OptimizationTrace:
    steps: tuple[TraceStep, ...]
    stop_reason: str        # "converged" (an iteration before the last kept nothing), "completed"
    degraded: bool          # True when not a single sub-solve succeeded

    def makespans(self) -> list[float]:
        return [s.makespan for s in self.steps]

    def to_document(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "stop_reason": self.stop_reason,
            "degraded": self.degraded,
            "steps": [s.to_document() for s in self.steps],
        }

    def save(self, path) -> None:
        save_document(self.to_document(), path)


def step(model, makespan: float, budget: float,
         backend=None) -> tuple[Schedule, float, SolveResult]:
    """Solve ``model`` within ``budget`` seconds, extract its answer and replay
    it on ``model.env`` against ``makespan``, the replayed makespan of
    ``model.schedule``.

    Returns (schedule, makespan, solve result): the extracted answer if it
    replays strictly lower, else the ``model.schedule`` object itself, which
    a failed solve also keeps.  This is the module's one keep rule, so
    ``schedule is model.schedule`` says the solve kept nothing.
    """
    res = solve(model, budget, backend=backend)
    if res.ok:
        candidate = extract_schedule(model, res.x)
        candidate_mk = makespan_of(model.env, candidate)
        if candidate_mk < makespan:
            return candidate, candidate_mk, res
    return model.schedule, makespan, res


def pair_sweep(env: GridEnvironment, schedule: Schedule, makespan: float, budget: float,
               backend=None, *, iteration: int = 1) -> tuple[TraceStep, bool]:
    """Re-assign the jobs of two CNs at a time, each pair solved exactly,
    within ``budget`` seconds of wall time; the ``erd-assignment`` trace step
    of ``iteration``.

    The critical CN (largest replayed finish, ties to the lower id) is
    paired with every other CN in ascending order of finish, ties to the
    lower id.  Each pair's sub-problem is ``build_erd_assignment(env,
    schedule, pair)``: the jobs on those two CNs, every other job in place.
    It is solved with whatever is left of ``budget``, which is charged
    every second the sweep takes.  Its answer, the whole grid in ERD order,
    is kept only if it replays strictly lower; the sweep then restarts from
    the new critical CN.  It stops when a whole pass keeps nothing (it
    converged) or the budget is spent.  It keeps counts, not results, so a
    sub-solve's model is garbage once the next sub-solve returns.

    Returns the trace step and whether any sub-solve succeeded.  Its status
    is "optimal" when the sweep converged and every sub-solve of its last
    pass proved optimal (with one CN there is no pair, so none runs), the
    last sub-solve's status when it converged and none succeeded, and
    otherwise "feasible-timeout", as when the budget ran out first.  Its
    objective is the last sub-solve's, its wall time every backend second of
    the sweep, and its diagnostics the sweep's counts, then the last
    sub-solve's message.
    """
    check_budget(budget)
    deadline = time.perf_counter() + budget
    statuses, improved, backend_s, any_ok = Counter(), 0, 0.0, False
    last_status = objective = message = None      # of the last sub-solve
    converged = out_of_time = False
    while not (converged or out_of_time):
        finish = replay_batch(env, schedule.job_cn[None], schedule.order[None],
                              schedule.object_sn[None])[0]
        critical = int(finish.argmax())
        pass_optimal = True
        for partner in np.argsort(finish, kind="stable"):
            if partner == critical:
                continue
            left = deadline - time.perf_counter()
            out_of_time = left <= 0
            if out_of_time:
                break
            mdl = build_erd_assignment(env, schedule, np.sort([critical, partner]))
            kept, makespan, res = step(mdl, makespan, left, backend)
            statuses[res.status] += 1
            backend_s += res.wall_time
            any_ok |= res.ok
            pass_optimal &= res.status == "optimal"
            last_status, objective, message = res.status, res.objective, res.diagnostics
            if kept is not schedule:
                schedule, improved = kept, improved + 1
                break
        else:
            converged = True

    if converged and pass_optimal:
        status = "optimal"
    elif converged and not any_ok:
        status = last_status
    else:
        status = "feasible-timeout"
    note = (f"sweep: {sum(statuses.values())} sub-solves, {improved} improved"
            + "".join(f", {s}={n}" for s, n in sorted(statuses.items()))
            + f", {backend_s:.3f}s backend")
    if message is not None:
        note += "; " + message
    return (TraceStep(iteration, "erd-assignment", status, objective, makespan, backend_s,
                      note, schedule),
            any_ok)


def _one_step(env: GridEnvironment, build, budget: float, seed, backend) -> BaselineRun:
    """One :func:`step` on ``build(env, random_schedule(env, seed))``."""
    init = random_schedule(env, seed)
    schedule, _, res = step(build(env, init), makespan_of(env, init), budget, backend)
    return _finish(env, schedule, statuses=(res.status,), degraded=not res.ok,
                   diagnostics=res.diagnostics)


def min_trans(env: GridEnvironment, budget: float, seed, backend=None) -> BaselineRun:
    """Keep a random assignment and order; optimize only the data placement."""
    return _one_step(env, build_fixed_x, budget, seed, backend)


def min_exe(env: GridEnvironment, budget: float, seed, backend=None) -> BaselineRun:
    """Keep a random order and placement; optimize only the job assignment."""
    return _one_step(env, build_fixed_yz, budget, seed, backend)


def run(env: GridEnvironment, config: AlterMilpConfig) -> tuple[Schedule, OptimizationTrace]:
    """Alternating optimization from the greedy schedule of a seeded job order.

    Each iteration is a half-step on the assignment in ERD order (a
    :func:`pair_sweep`), then a :func:`step` on the placement with the order
    pinned to the ERD order the sweep left: given the assignment and
    placement, ERD is the best order, so the placement step needs no order
    variables, and the next sweep re-sorts by ERD under the new placement.
    Each half-step has a share of ``total_budget / 2T`` seconds: the
    placement solve's time limit, and the sweep's wall-clock deadline; a
    sweep ends when a whole pass keeps nothing or its share is spent,
    whichever comes first.  With ``early_stop`` the run ends after the
    first iteration that keeps nothing, a fixed point.  One backend, built
    before any share starts, runs every solve.  The trace records each
    half-step's status, backend wall time and diagnostics, failed solves
    included.  The returned schedule is the last iterate, also the best.
    """
    backend = HighsBackend() if config.backend is None else config.backend
    order = np.random.default_rng(config.seed).permutation(env.num_jobs)
    first = greedy(env, order=order)
    current, current_mk = first.schedule, first.makespan
    steps = [TraceStep(0, "init", "init", None, current_mk, 0.0, "", current)]
    share = config.total_budget / (2 * config.iterations)    # per half-step
    any_success = False

    for it in range(1, config.iterations + 1):
        start = current
        half_step, ok = pair_sweep(env, current, current_mk, share, backend, iteration=it)
        steps.append(half_step)
        any_success |= ok
        current, current_mk = half_step.schedule, half_step.makespan
        current, current_mk, res = step(build_fixed_x(env, current), current_mk, share, backend)
        any_success |= res.ok
        steps.append(TraceStep(it, "placement", res.status, res.objective, current_mk,
                               res.wall_time, res.diagnostics, current))
        if config.early_stop and current is start and it < config.iterations:
            return current, OptimizationTrace(tuple(steps), "converged", not any_success)
    return current, OptimizationTrace(tuple(steps), "completed", not any_success)
