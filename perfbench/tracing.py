"""Spans and counts at gridopt's layer boundaries, for the traced run.

The tracer wraps each boundary function under the name its caller looks up
at call time (``gridopt.alternating.solve``, ``gridopt.baselines.makespan_of``,
``gridopt.kernels.replay``, ``MilpModel.check_assignment``,
``HighsBackend.solve_raw``, ...), so the library runs unmodified.  Spans are
kept in memory as ``[name, start, end, parent index, run id]`` and written
out by the caller when the run ends.  A span's self time is its duration
minus the durations of its children; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import gridopt
from gridopt import alternating, baselines, kernels
from gridopt.model import MilpModel
from gridopt.schedule import Schedule
from gridopt.solver import HighsBackend

MODEL_KINDS = ("fixed-yz", "fixed-x")
SOLVER_STATUSES = ("optimal", "feasible-timeout", "infeasible", "error")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._open: list[int] = []

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span per call, then ``after(tracer, index, args, kwargs, result)``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.run_id]
            self.spans.append(span)
            self._open.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(self, index, args, kwargs, result)
            return result
        return traced

    def children(self, index, name):
        return [s for s in self.spans[index + 1:] if s[3] == index and s[0] == name]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _count_model(tracer, index, args, kwargs, model):
    tracer.counts[f"model.{model.kind}.vars"] += model.num_vars
    tracer.counts[f"model.{model.kind}.rows"] += model.num_rows
    tracer.counts[f"model.{model.kind}.nnz"] += int(model.data.size)


def _count_solve(tracer, index, args, kwargs, result):
    tracer.counts[f"solver.status.{result.status}"] += 1
    model = args[0]
    if result.assignment is not None and result.assignment == model.warm_start:
        tracer.counts["solver.warm_start_kept"] += 1
    budget = args[1]  # callers pass solve(model, budget, backend=...)
    for _, start, end, _, _ in tracer.children(index, "solver.backend"):
        tracer.counts["solver.grace_used_s"] += max(0.0, end - start - budget)


def _count_generations(tracer, index, args, kwargs, run):
    tracer.counts["baselines.ga.generations"] += run.extra["generations"]


def _count_steps(tracer, index, args, kwargs, result):
    makespans = result[1].makespans()
    tracer.counts["alternating.steps"] += len(makespans) - 1
    tracer.counts["alternating.improving_steps"] += sum(
        later < earlier for earlier, later in zip(makespans, makespans[1:]))


# (owner, attribute, span name, count hook); one row per lookup site
BOUNDARIES = (
    (gridopt, "run_altermilp", "alternating.run", _count_steps),
    (baselines, "ga", "baselines.ga", _count_generations),
    (baselines, "ensemble_greedy", "baselines.ensemble_greedy", None),
    (baselines, "greedy", "baselines.greedy", None),
    (alternating, "build_fixed_yz", "model.build_fixed_yz", _count_model),
    (alternating, "build_fixed_x", "model.build_fixed_x", _count_model),
    (alternating, "extract_schedule", "model.extract_schedule", None),
    (alternating, "solve", "solver.solve", _count_solve),
    (MilpModel, "check_assignment", "model.check_assignment", None),
    (HighsBackend, "solve_raw", "solver.backend", None),
    (alternating, "makespan_of", "evaluator.makespan_of", None),
    (baselines, "makespan_of", "evaluator.makespan_of", None),
    (kernels, "replay", "kernels.replay", None),
    (Schedule, "validate", "schedule.validate", None),
)


@contextmanager
def installed(tracer: Tracer):
    """Patch every boundary with ``tracer``'s wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, hook in BOUNDARIES:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, ``name -> (value, unit)``, from spans and counts.

    Layers a workload never enters report zero calls and zero seconds.
    """
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    covered = defaultdict(float)
    for span in tracer.spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    for index, (name, start, end, _, _) in enumerate(tracer.spans):
        total[name] += end - start
        self_time[name] += end - start - covered[index]
        calls[name] += 1
    c = tracer.counts
    steps = c["alternating.steps"]
    metrics = {
        "evaluator.makespan_of.calls": (calls["evaluator.makespan_of"], "count"),
        "evaluator.makespan_of.s": (total["evaluator.makespan_of"], "s"),
        "kernels.replay.calls": (calls["kernels.replay"], "count"),
        "kernels.replay.us_per_call": (
            1e6 * total["kernels.replay"] / max(1, calls["kernels.replay"]), "us"),
        "baselines.ga.self_s": (self_time["baselines.ga"], "s"),
        "baselines.ga.generations": (c["baselines.ga.generations"], "count"),
        "baselines.greedy.calls": (calls["baselines.greedy"], "count"),
        "baselines.greedy.self_s": (self_time["baselines.greedy"], "s"),
        "schedule.validate.s": (total["schedule.validate"], "s"),
        "model.build_fixed_yz.s": (total["model.build_fixed_yz"], "s"),
        "model.build_fixed_x.s": (total["model.build_fixed_x"], "s"),
        "model.check_assignment.calls": (calls["model.check_assignment"], "count"),
        "model.check_assignment.s": (total["model.check_assignment"], "s"),
        "model.extract_schedule.s": (total["model.extract_schedule"], "s"),
    }
    for kind in MODEL_KINDS:
        for size in ("vars", "rows", "nnz"):
            key = f"model.{kind}.{size}"
            metrics[key] = (c[key], "count")
    metrics.update({
        "solver.solve.self_s": (self_time["solver.solve"], "s"),
        "solver.backend.s": (total["solver.backend"], "s"),
        "solver.grace_used_s": (c["solver.grace_used_s"], "s"),
        "solver.warm_start_kept": (c["solver.warm_start_kept"], "count"),
    })
    for status in SOLVER_STATUSES:
        metrics[f"solver.status.{status}"] = (c[f"solver.status.{status}"], "count")
    metrics.update({
        "alternating.steps": (steps, "count"),
        "alternating.improving_ratio": (
            c["alternating.improving_steps"] / steps if steps else 0.0, "ratio"),
    })
    return metrics
