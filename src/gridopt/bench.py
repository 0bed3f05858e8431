"""Benchmark harness: paired multi-seed comparisons, sweeps, persistence.

Every method in an experiment sees the identical environment per seed, so
comparisons are paired.  Results land in two comma-separated files with
fixed headers (see ROWS_HEADER and AGGREGATE_HEADER), the resolved config is
stored alongside as JSON, and each (method, seed) run leaves a short log.
A failed run never aborts the experiment; it is recorded with status
"failed" and excluded (but counted) in aggregates.
"""

from __future__ import annotations

import csv
import dataclasses
import inspect
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines
from .alternating import AlterMilpConfig, min_exe, min_trans, run as altermilp_run
from .environment import (GenerationConfig, GRID_PRESETS, build_from_document,
                          check_budget, check_document, check_seed, echo,
                          config_from_document, generate, is_kind, load_document,
                          preset_config, read_field, save_document)
from .schedule import Schedule

EXPERIMENT_SCHEMA = "experiment-config/1"

ROWS_HEADER = ["setup", "seed", "method", "makespan", "wall_time_s", "status",
               "solver_statuses", "rel_improvement_vs_random", "budget",
               "iterations"]

AGGREGATE_HEADER = ["setup", "method", "budget", "iterations", "n_rows",
                    "n_failed", "mean_makespan", "min_makespan",
                    "max_makespan", "mean_rel_improvement_vs_random",
                    "mean_wall_time_s", "rank"]


def _ga(env, seed, budget, *, population=50, generations=1_000_000) -> baselines.BaselineRun:
    return baselines.ga(env, baselines.GaConfig(
        population=population, generations=generations, seed=seed, budget=budget))


def _altermilp(env, seed, budget, *, iterations=3, early_stop=True) -> baselines.BaselineRun:
    schedule, trace = altermilp_run(env, AlterMilpConfig(
        iterations=iterations, total_budget=budget, seed=seed, early_stop=early_stop))
    return baselines._finish(env, schedule, [s.status for s in trace.steps[1:]],
                             trace.degraded, trace=trace)


# The method registry: name -> runner(env, seed, budget, **params).  A
# runner's keyword-only parameters are the params the method takes, and
# their defaults are the method's defaults.
RUNNERS = {
    "random": lambda env, seed, budget: baselines.random_baseline(env, seed),
    "mintrans": lambda env, seed, budget: min_trans(env, budget, seed),
    "minexe": lambda env, seed, budget: min_exe(env, budget, seed),
    "greedy": lambda env, seed, budget: baselines.greedy(env),
    "ensgreedy": lambda env, seed, budget, *, runs=None: baselines.ensemble_greedy(
        env, seed, runs=runs, budget=budget),
    "diana": lambda env, seed, budget, *, threshold=1.0: baselines.diana(
        env, threshold=threshold),
    "ga": _ga,
    "altermilp": _altermilp,
}

METHODS = tuple(RUNNERS)

# The type of each param whose default is None, which names no type.
NONE_DEFAULT_KINDS = {"runs": int}


def _check_distinct(values, name: str) -> None:
    """Reject a repeated value of ``name``: its runs would share one log file."""
    if len(set(values)) != len(values):
        raise ValueError(f"{name} must be distinct, got {echo(list(values))}")


def check_path(path, name: str) -> None:
    """Reject an empty output path, naming it: it would silently write nothing."""
    if path == "":
        raise ValueError(f"{name} must be a non-empty path, got ''")


def method_params(method: str) -> dict:
    """The params ``method`` takes, name -> default."""
    return {p.name: p.default
            for p in inspect.signature(RUNNERS[method]).parameters.values()
            if p.kind is p.KEYWORD_ONLY}


@dataclass(frozen=True)
class MethodSpec:
    """One benchmarked method: registry key, row label, extra parameters."""

    method: str
    label: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; known: {', '.join(METHODS)}"
            )
        # the label names each run's log file
        if self.label is not None and (not self.label or {"/", "\\"} & set(self.label)):
            raise ValueError(f"label must be non-empty and hold no / or \\, "
                             f"got {echo(self.label)}")
        takes = method_params(self.method)
        for name, value in self.params.items():
            if name not in takes:
                raise ValueError(
                    f"method {self.method!r} takes no param {name!r}; "
                    f"known: {', '.join(takes) or 'none'}"
                )
            # a value must have its default's type, or be the None default
            default = takes[name]
            kind = NONE_DEFAULT_KINDS[name] if default is None else type(default)
            if not (value is None and default is None or is_kind(value, kind)):
                raise ValueError(f"method {self.method!r} param {name!r} must be "
                                 f"{kind.__name__}, got {echo(value)}")

    @property
    def name(self) -> str:
        return self.label or self.method

    def to_document(self) -> dict:
        return {"method": self.method, "label": self.label, "params": dict(self.params)}


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: one environment setup, several methods and seeds.

    Exactly one of ``preset`` (a named grid size) and ``generation`` (an
    explicit GenerationConfig) must be given.  ``budget`` is the per-run
    solver/wall budget in seconds.
    """

    methods: tuple[MethodSpec, ...]
    seeds: tuple[int, ...]
    budget: float
    preset: str | None = None
    generation: GenerationConfig | None = None
    parallelism: int = 1
    output_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        seeds = tuple(self.seeds)
        if not self.methods:
            raise ValueError("an experiment needs at least one method")
        if not seeds:
            raise ValueError("an experiment needs at least one seed")
        for seed in seeds:
            check_seed(seed, "seeds")
        object.__setattr__(self, "seeds", tuple(int(s) for s in seeds))
        _check_distinct(self.seeds, "seeds")
        check_budget(self.budget)
        if (self.preset is None) == (self.generation is None):
            raise ValueError("give exactly one of preset and generation")
        if self.generation is not None and self.generation.rng_seed != 0:
            raise ValueError(f"generation.rng_seed must be 0 in an experiment, got "
                             f"{echo(self.generation.rng_seed)}; the grids are seeded by seeds")
        if self.preset is not None and self.preset not in GRID_PRESETS:
            raise ValueError(
                f"unknown preset {self.preset!r}; known: {sorted(GRID_PRESETS)}"
            )
        check_seed(self.parallelism, "parallelism", minimum=1)
        labels = [m.name for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ValueError("method labels must be unique within an experiment")
        check_path(self.output_dir, "output_dir")

    @property
    def setup_name(self) -> str:
        return self.preset if self.preset is not None else "custom"

    def environment_for(self, seed: int):
        if self.preset is not None:
            return generate(preset_config(self.preset), seed=seed)
        return generate(self.generation, seed=seed)

    def to_document(self) -> dict:
        return {
            "schema": EXPERIMENT_SCHEMA,
            "preset": self.preset,
            "generation": None if self.generation is None
                          else self.generation.to_document(),
            "methods": [m.to_document() for m in self.methods],
            "seeds": list(self.seeds),
            "budget": self.budget,
            "parallelism": self.parallelism,
            "output_dir": self.output_dir,
        }

    def save(self, path) -> None:
        save_document(self.to_document(), path)


def _method_from_document(entry) -> MethodSpec:
    check_document(entry, None, ("method",), ("label", "params"))
    return build_from_document(
        MethodSpec, method=read_field(entry, "method", str),
        label=read_field(entry, "label", str, nullable=True),
        params=read_field(entry, "params", dict, nullable=True) or {})


# field -> (JSON kind, list depth, nullable) of an experiment document; the
# first three are required
_EXPERIMENT_FIELDS = {
    "methods": (dict, 1, False), "seeds": (int, 1, False),
    "budget": (float, 0, False), "preset": (str, 0, True),
    "generation": (dict, 0, True), "parallelism": (int, 0, False),
    "output_dir": (str, 0, True),
}


def experiment_from_document(doc: dict) -> ExperimentConfig:
    names = list(_EXPERIMENT_FIELDS)
    check_document(doc, EXPERIMENT_SCHEMA, names[:3], names[3:])
    kwargs = {name: read_field(doc, name, *_EXPERIMENT_FIELDS[name])
              for name in names if name in doc}
    kwargs["methods"] = tuple(map(_method_from_document, kwargs["methods"]))
    kwargs["budget"] = float(kwargs["budget"])
    if kwargs.get("generation") is not None:
        kwargs["generation"] = config_from_document(kwargs["generation"])
    return build_from_document(ExperimentConfig, **kwargs)


def load_experiment(path) -> ExperimentConfig:
    return experiment_from_document(load_document(path))


@dataclass(frozen=True)
class ResultRow:
    setup: str
    seed: int
    method: str
    makespan: float | None
    wall_time: float
    status: str                      # "ok", "degraded" or "failed"
    solver_statuses: tuple[str, ...]
    rel_improvement: float | None    # (random - m) / random, positive = better
    budget: float
    iterations: int | None
    log: str = ""
    schedule: Schedule | None = None   # None when the run failed

    def as_csv(self) -> list:
        return [
            self.setup, self.seed, self.method,
            "" if self.makespan is None else repr(self.makespan),
            f"{self.wall_time:.6f}", self.status,
            "|".join(self.solver_statuses),
            "" if self.rel_improvement is None else repr(self.rel_improvement),
            repr(self.budget),
            "" if self.iterations is None else self.iterations,
        ]


@dataclass(frozen=True)
class AggregateRow:
    setup: str
    method: str
    budget: float
    iterations: int | None
    n_rows: int
    n_failed: int
    mean_makespan: float | None
    min_makespan: float | None
    max_makespan: float | None
    mean_rel_improvement: float | None
    mean_wall_time: float
    rank: float | None

    def as_csv(self) -> list:
        def opt(x):
            return "" if x is None else repr(x)
        return [self.setup, self.method, repr(self.budget),
                "" if self.iterations is None else self.iterations,
                self.n_rows, self.n_failed, opt(self.mean_makespan),
                opt(self.min_makespan), opt(self.max_makespan),
                opt(self.mean_rel_improvement), f"{self.mean_wall_time:.6f}",
                opt(self.rank)]


@dataclass
class ExperimentResult:
    rows: list[ResultRow]
    aggregates: list[AggregateRow]
    output_dir: Path | None = None


def run_method(env, spec: MethodSpec, seed: int, budget: float) -> baselines.BaselineRun:
    """Run one method through the registry.

    The seed and the budget are checked even for methods that ignore them.
    """
    check_seed(seed)
    check_budget(budget)
    return RUNNERS[spec.method](env, seed, budget, **spec.params)


def _iterations_label(spec: MethodSpec) -> int | None:
    """The iteration count of a method that takes one, default included."""
    default = method_params(spec.method).get("iterations")
    if default is None:
        return None
    return int(spec.params.get("iterations", default))


def _log(run: baselines.BaselineRun) -> str:
    """A run's log: an altermilp run's trace steps, else its statuses and extras."""
    if run.trace is not None:
        return "\n".join(
            f"iter {s.iteration} {s.stage}: status={s.status} "
            f"makespan={s.makespan!r} wall={s.wall_time:.3f}s diagnostics={s.diagnostics!r}"
            for s in run.trace.steps
        ) + f"\nstop_reason={run.trace.stop_reason}"
    log = f"statuses={run.solver_statuses} degraded={run.degraded}"
    if run.extra:
        log += f" extra={json.dumps({k: v for k, v in run.extra.items() if k != 'history'})}"
    return log


def _execute_item(payload) -> ResultRow:
    """One (seed, method, budget) run; module-level so pools can pickle it."""
    config, seed, spec, budget = payload
    env = config.environment_for(seed)
    random_ref = baselines.random_baseline(env, seed).makespan
    iterations = _iterations_label(spec)
    start = time.perf_counter()
    try:
        run = run_method(env, spec, seed, budget)
        wall = time.perf_counter() - start
        rel = (random_ref - run.makespan) / random_ref
        status = "degraded" if run.degraded else "ok"
    except Exception as exc:
        wall = time.perf_counter() - start
        return ResultRow(config.setup_name, seed, spec.name, None, wall,
                         "failed", (), None, budget, iterations,
                         log=f"failed: {exc!r}")
    return ResultRow(config.setup_name, seed, spec.name, run.makespan, wall,
                     status, run.solver_statuses, rel, budget, iterations,
                     log=_log(run), schedule=run.schedule)


def aggregate_rows(rows) -> list[AggregateRow]:
    """Collapse raw rows into per-(setup, method, budget, iterations) stats.

    Rank is assigned within each (setup, budget) group by ascending mean
    makespan, ties sharing the average rank; groups whose rows all failed
    get no rank.
    """
    # imported here so that processes which only run methods skip scipy.stats
    from scipy.stats import rankdata

    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault((row.setup, row.method, row.budget, row.iterations),
                          []).append(row)
    aggregates = []
    for (setup, method, budget, iterations), members in groups.items():
        good = [r.makespan for r in members if r.makespan is not None]
        rels = [r.rel_improvement for r in members if r.rel_improvement is not None]
        aggregates.append(AggregateRow(
            setup=setup, method=method, budget=budget, iterations=iterations,
            n_rows=len(members), n_failed=len(members) - len(good),
            mean_makespan=float(np.mean(good)) if good else None,
            min_makespan=float(np.min(good)) if good else None,
            max_makespan=float(np.max(good)) if good else None,
            mean_rel_improvement=float(np.mean(rels)) if rels else None,
            mean_wall_time=float(np.mean([r.wall_time for r in members])),
            rank=None,
        ))
    ranked = []
    by_cell: dict[tuple, list[AggregateRow]] = {}
    for agg in aggregates:
        by_cell.setdefault((agg.setup, agg.budget), []).append(agg)
    for cell in by_cell.values():
        scored = [a for a in cell if a.mean_makespan is not None]
        ranks = rankdata([a.mean_makespan for a in scored], method="average")
        ranked += [dataclasses.replace(a, rank=float(r)) for a, r in zip(scored, ranks)]
        ranked += [a for a in cell if a.mean_makespan is None]
    ranked.sort(key=lambda a: (a.setup, a.budget, a.iterations or 0,
                               a.mean_makespan if a.mean_makespan is not None
                               else float("inf")))
    return ranked


def _persist(config: ExperimentConfig, result: ExperimentResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "rows.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROWS_HEADER)
        writer.writerows(r.as_csv() for r in result.rows)
    with open(out_dir / "aggregate.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_HEADER)
        writer.writerows(a.as_csv() for a in result.aggregates)
    config.save(out_dir / "config.json")
    logs = out_dir / "logs"
    logs.mkdir(exist_ok=True)
    for row in result.rows:
        name = f"{row.method}_seed{row.seed}"
        if row.iterations is not None:
            name += f"_T{row.iterations}"
        # the shortest form that reads back as the budget, so two budgets never
        # share a log; a whole budget drops its ".0" (2.0 -> B2)
        name += f"_B{repr(row.budget).removesuffix('.0')}.log"
        with open(logs / name, "w") as fh:
            fh.write(f"setup={row.setup} method={row.method} seed={row.seed} "
                     f"budget={row.budget}\nstatus={row.status} "
                     f"makespan={row.makespan!r} wall={row.wall_time:.3f}s\n")
            if row.log:
                fh.write(row.log + "\n")
    result.output_dir = out_dir


def _run_and_persist(config: ExperimentConfig, cells, out_dir) -> ExperimentResult:
    """Run (seed, spec, budget) cells, aggregate the rows and persist them.

    ``out_dir`` (or else ``config.output_dir``) receives rows.csv,
    aggregate.csv, config.json and per-run logs; with neither, nothing is
    written.  An empty ``out_dir`` is rejected before any cell runs.
    """
    check_path(out_dir, "out_dir")
    payloads = [(config, seed, spec, float(budget)) for seed, spec, budget in cells]
    if config.parallelism > 1:
        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            rows = list(pool.map(_execute_item, payloads))
    else:
        rows = [_execute_item(p) for p in payloads]
    result = ExperimentResult(rows=rows, aggregates=aggregate_rows(rows))
    target = out_dir if out_dir is not None else config.output_dir
    if target:
        _persist(config, result, Path(target))
    return result


def run_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """All (seed, method) cells of one experiment, plus aggregates.

    Deterministic given the config, except for wall times and
    budget-dependent method internals.
    """
    return _run_and_persist(config, [(seed, spec, config.budget)
                                     for seed in config.seeds
                                     for spec in config.methods], out_dir)


def sweep_budget(config: ExperimentConfig, budgets, out_dir=None) -> ExperimentResult:
    """Rerun every method at each budget; rows carry their budget."""
    if not budgets:
        raise ValueError("budgets must be non-empty")
    for budget in budgets:
        check_budget(budget)
    _check_distinct(budgets, "budgets")
    return _run_and_persist(config, [(seed, spec, budget)
                                     for budget in budgets
                                     for seed in config.seeds
                                     for spec in config.methods], out_dir)


def sweep_iterations(config: ExperimentConfig, ts, mode: str,
                     out_dir=None) -> ExperimentResult:
    """Iteration sweep for the methods that take an ``iterations`` param.

    mode "divided": config.budget is the fixed total, so more iterations
    mean less time per iteration.  mode "same": config.budget is the fixed
    per-iteration allowance, so the total grows linearly with T.  Specs for
    other methods run once, with their usual budget (flat reference lines).
    """
    if mode not in ("divided", "same"):
        raise ValueError(f"mode must be 'divided' or 'same', got {echo(mode)}")
    if not ts:
        raise ValueError("ts must be a non-empty list of positive iteration counts")
    for t in ts:
        check_seed(t, "ts", minimum=1)
    _check_distinct(ts, "ts")
    iterative = [spec for spec in config.methods if "iterations" in method_params(spec.method)]
    cells = []
    for t in ts:
        for seed in config.seeds:
            for spec in iterative:
                spec_t = MethodSpec(spec.method, spec.label,
                                    {**spec.params, "iterations": int(t)})
                budget = config.budget if mode == "divided" else config.budget * t
                cells.append((seed, spec_t, budget))
    # non-iterative methods give one flat reference row set, not one per T
    cells += [(seed, spec, config.budget) for seed in config.seeds
              for spec in config.methods if spec not in iterative]
    return _run_and_persist(config, cells, out_dir)
