import csv
import json
import re

import pytest

from gridopt import bench
from gridopt.bench import (AGGREGATE_HEADER, METHODS, ROWS_HEADER,
                           ExperimentConfig, MethodSpec, ResultRow,
                           aggregate_rows, experiment_from_document,
                           NONE_DEFAULT_KINDS, load_experiment, method_params,
                           run_experiment, sweep_budget, sweep_iterations)
from gridopt.environment import DocumentError

from conftest import tiny_config


def test_headers_are_frozen_contracts():
    assert ROWS_HEADER == ["setup", "seed", "method", "makespan", "wall_time_s",
                           "status", "solver_statuses",
                           "rel_improvement_vs_random", "budget", "iterations"]
    assert AGGREGATE_HEADER == ["setup", "method", "budget", "iterations",
                                "n_rows", "n_failed", "mean_makespan",
                                "min_makespan", "max_makespan",
                                "mean_rel_improvement_vs_random",
                                "mean_wall_time_s", "rank"]
    assert METHODS == ("random", "mintrans", "minexe", "greedy", "ensgreedy",
                       "diana", "ga", "altermilp")


def test_method_spec_validation():
    with pytest.raises(ValueError, match="unknown method"):
        MethodSpec("simulated-annealing")
    assert MethodSpec("random").name == "random"
    assert MethodSpec("random", label="baseline").name == "baseline"
    # params are checked against the method's runner when the spec is built
    assert method_params("greedy") == {}
    assert method_params("altermilp")["iterations"] == 3
    assert method_params("ga") == {"population": 50, "generations": 1_000_000}
    MethodSpec("ga", params={"population": 4, "generations": 2})
    with pytest.raises(ValueError, match="'ga' takes no param 'populaton'"):
        MethodSpec("ga", params={"populaton": 4, "generations": 2})
    for param in ("backend", "optimize_order"):
        with pytest.raises(ValueError, match=f"'altermilp' takes no param '{param}'"):
            MethodSpec("altermilp", params={param: False})
    for param, value in (("tournament", 3), ("mutation_rate", None), ("elitism", 1)):
        with pytest.raises(ValueError, match=f"'ga' takes no param '{param}'"):
            MethodSpec("ga", params={param: value})
    # values must have the type of the runner's default
    MethodSpec("diana", params={"threshold": 2})
    MethodSpec("ensgreedy", params={"runs": None})
    for method, param, value in (("ga", "population", "abc"), ("ga", "population", True),
                                 ("ga", "population", 8.0), ("diana", "threshold", False),
                                 ("altermilp", "early_stop", 1),
                                 # params whose default is None are typed by name
                                 ("ensgreedy", "runs", True), ("ensgreedy", "runs", 2.5),
                                 ("ensgreedy", "runs", "3")):
        with pytest.raises(ValueError, match=f"'{method}' param '{param}' must be"):
            MethodSpec(method, params={param: value})
    # and every such param has a kind
    assert {name for method in METHODS for name, default in method_params(method).items()
            if default is None} == set(NONE_DEFAULT_KINDS)


def _config(**overrides):
    kw = dict(
        methods=(MethodSpec("random"), MethodSpec("greedy")),
        seeds=(0, 1),
        budget=1.0,
        generation=tiny_config(0),
    )
    kw.update(overrides)
    return ExperimentConfig(**kw)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="method"):
        _config(methods=())
    with pytest.raises(ValueError, match="seed"):
        _config(seeds=())
    for budget in (0.0, float("inf")):
        with pytest.raises(ValueError, match="budget"):
            _config(budget=budget)
    with pytest.raises(ValueError, match="exactly one"):
        _config(preset="small")
    with pytest.raises(ValueError, match="exactly one"):
        _config(generation=None)
    with pytest.raises(ValueError, match="preset"):
        _config(generation=None, preset="enormous")
    for bad in (0, True, 2.0):
        with pytest.raises(ValueError, match=f"^parallelism must be an integer >= 1, got {bad!r}$"):
            _config(parallelism=bad)
    # each seed draws its own grid, so a generation seed would be ignored
    with pytest.raises(ValueError, match=r"generation\.rng_seed must be 0 .*got 5; .* seeds"):
        _config(generation=tiny_config(5))
    with pytest.raises(ValueError, match="labels"):
        _config(methods=(MethodSpec("random"), MethodSpec("random")))
    # same method twice under distinct labels is allowed
    _config(methods=(MethodSpec("random", label="a"), MethodSpec("random", label="b")))
    assert _config().setup_name == "custom"
    assert _config(generation=None, preset="small").setup_name == "small"


def test_experiment_document_round_trip(tmp_path):
    cfg = _config(methods=(MethodSpec("altermilp", params={"early_stop": False}),),
                  parallelism=2)
    doc = cfg.to_document()
    assert doc["schema"] == "experiment-config/1"
    again = experiment_from_document(doc)
    assert again.to_document() == doc
    path = tmp_path / "exp.json"
    cfg.save(path)
    assert load_experiment(path).to_document() == doc


def test_a_label_that_cannot_name_a_log_file_is_rejected():
    # a label names each run's log file: one that is empty or holds a path
    # separator would fail only after every run, when the logs are written
    doc = _config().to_document()
    for label in ("", "rand/1", "rand\\1"):
        doc["methods"] = [{"method": "random", "label": label}]
        with pytest.raises(DocumentError, match=f"label must be .*, got {re.escape(repr(label))}"):
            experiment_from_document(doc)
    doc["methods"] = [{"method": "random", "label": "rand-1"}]
    assert experiment_from_document(doc).methods[0].name == "rand-1"


def test_experiment_document_rejections():
    good = _config().to_document()
    with pytest.raises(DocumentError, match="JSON object"):
        experiment_from_document([])
    with pytest.raises(DocumentError, match="schema"):
        experiment_from_document({**good, "schema": "nope/9"})
    for missing in ("methods", "seeds", "budget"):
        doc = dict(good)
        del doc[missing]
        with pytest.raises(DocumentError, match=missing):
            experiment_from_document(doc)
    with pytest.raises(DocumentError, match="parallelizm"):
        experiment_from_document({**good, "parallelizm": 4})
    with pytest.raises(DocumentError, match="parms"):
        experiment_from_document({**good, "methods": [{"method": "ga",
                                                       "parms": {"populaton": 9}}]})
    bad = dict(good)
    bad["methods"] = [{"method": "simulated-annealing"}]
    with pytest.raises(DocumentError):
        experiment_from_document(bad)
    # a misspelt or foreign param fails loudly instead of running on defaults
    for method, param in (("ga", "populaton"), ("greedy", "threshold")):
        bad["methods"] = [{"method": method, "params": {param: 4}}]
        with pytest.raises(DocumentError, match=f"'{method}'.*'{param}'"):
            experiment_from_document(bad)


def test_an_empty_output_path_is_rejected_before_any_run(monkeypatch):
    # an empty path wrote no file and reported no output directory
    doc = {**_config().to_document(), "output_dir": ""}
    with pytest.raises(DocumentError, match="^ExperimentConfig rejected: output_dir must be "
                                            "a non-empty path, got ''$"):
        experiment_from_document(doc)
    monkeypatch.setattr(bench, "_execute_item", lambda item: pytest.fail("a cell ran"))
    cfg = _config()
    for run in (lambda: run_experiment(cfg, out_dir=""),
                lambda: sweep_budget(cfg, [1.0], out_dir=""),
                lambda: sweep_iterations(cfg, [1], mode="same", out_dir="")):
        with pytest.raises(ValueError, match="^out_dir must be a non-empty path, got ''$"):
            run()


def _fast_methods():
    return (
        MethodSpec("random"),
        MethodSpec("greedy"),
        MethodSpec("diana"),
        MethodSpec("ensgreedy", params={"runs": 5}),
        MethodSpec("ga", params={"population": 8, "generations": 4}),
        MethodSpec("altermilp", params={"iterations": 1}),
    )


def test_run_experiment_produces_full_paired_grid(tmp_path):
    cfg = _config(methods=_fast_methods(), seeds=(0, 1), budget=2.0)
    result = run_experiment(cfg, out_dir=tmp_path / "out")
    assert len(result.rows) == 2 * len(_fast_methods())
    for row in result.rows:
        assert row.status == "ok"
        assert row.makespan is not None and row.makespan > 0
        assert row.setup == "custom"
        if row.method == "random":
            assert row.rel_improvement == 0.0
        else:
            # paired against the same random schedule, never fabricated
            assert row.rel_improvement is not None
    agg = {a.method: a for a in result.aggregates}
    assert set(agg) == {m.name for m in _fast_methods()}
    for a in agg.values():
        assert a.n_rows == 2 and a.n_failed == 0
        assert a.min_makespan <= a.mean_makespan <= a.max_makespan
    ranks = sorted(a.rank for a in agg.values())
    # averaged ties always sum to n(n+1)/2
    assert sum(ranks) == pytest.approx(len(agg) * (len(agg) + 1) / 2)
    assert 1.0 <= ranks[0] and ranks[-1] <= len(agg)


def test_run_experiment_is_deterministic_modulo_wall_time():
    cfg = _config(methods=_fast_methods(), seeds=(3,), budget=2.0)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    key = lambda rows: [(r.method, r.seed, r.makespan) for r in rows]
    assert key(first.rows) == key(second.rows)


def test_persisted_files_round_trip(tmp_path):
    out = tmp_path / "exp"
    cfg = _config(methods=(MethodSpec("random"), MethodSpec("greedy")),
                  seeds=(0, 1), budget=1.0)
    result = run_experiment(cfg, out_dir=out)
    with open(out / "rows.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ROWS_HEADER
    assert len(rows) == 1 + len(result.rows)
    makespans = {(r[2], int(r[1])): float(r[3]) for r in rows[1:]}
    for row in result.rows:
        assert makespans[(row.method, row.seed)] == row.makespan
    with open(out / "aggregate.csv", newline="") as fh:
        agg = list(csv.reader(fh))
    assert agg[0] == AGGREGATE_HEADER
    assert len(agg) == 1 + len(result.aggregates)
    reloaded = load_experiment(out / "config.json")
    assert reloaded.to_document() == cfg.to_document()
    logs = sorted(p.name for p in (out / "logs").iterdir())
    assert len(logs) == len(result.rows)
    assert all(name.endswith(".log") for name in logs)


def test_row_logs_hold_the_trace_or_the_statuses_and_extras(tmp_path):
    out = tmp_path / "exp"
    cfg = _config(methods=(MethodSpec("altermilp", params={"iterations": 2}),
                           MethodSpec("ga", params={"population": 4, "generations": 3}),
                           MethodSpec("minexe")),
                  seeds=(0,), budget=2.0)
    result = run_experiment(cfg, out_dir=out)
    alter, ga, minexe = sorted(result.rows, key=lambda r: r.method)
    trace = (out / "logs" / "altermilp_seed0_T2_B2.log").read_text().splitlines()
    steps = [line for line in trace if line.startswith("iter ")]
    assert [line.split(":")[0] for line in steps] == [
        "iter 0 init", "iter 1 erd-assignment", "iter 1 placement",
        "iter 2 erd-assignment", "iter 2 placement"]
    statuses = [line.split(": status=")[1].split()[0] for line in steps]
    assert statuses == ["init", *alter.solver_statuses]
    assert all("diagnostics='" in line and "dual_bound=" in line for line in steps[1:])
    assert trace[-1] == "stop_reason=completed"
    log = (out / "logs" / "ga_seed0_B2.log").read_text()
    assert f"statuses={ga.solver_statuses} degraded=False extra=" in log
    assert '"generations": 3' in log and "history" not in log
    # a one-solve method's extras say what its solve proved
    log = (out / "logs" / "minexe_seed0_B2.log").read_text()
    assert f"statuses={minexe.solver_statuses}" in log and "dual_bound=" in log


def test_failed_method_is_recorded_not_raised():
    cfg = _config(methods=(MethodSpec("random"),
                           MethodSpec("ga", params={"population": 1})),
                  seeds=(0, 1), budget=1.0)
    result = run_experiment(cfg)
    failed = [r for r in result.rows if r.method == "ga"]
    assert len(failed) == 2
    for row in failed:
        assert row.status == "failed"
        assert row.makespan is None and row.rel_improvement is None
        assert "population" in row.log
    agg = {a.method: a for a in result.aggregates}
    assert agg["ga"].n_rows == 2 and agg["ga"].n_failed == 2
    assert agg["ga"].mean_makespan is None and agg["ga"].rank is None
    assert agg["random"].rank == 1.0


def _row(method, makespan, setup="custom", seed=0, budget=1.0, iterations=None):
    ok = makespan is not None
    return ResultRow(setup, seed, method, makespan, 0.01,
                     "ok" if ok else "failed", (), 0.0 if ok else None,
                     budget, iterations)


def test_rank_by_value():
    def ranks(rows):
        return {a.method: a.rank for a in aggregate_rows(rows)}
    assert ranks([]) == {}
    assert ranks([_row("a", 5.0), _row("b", 1.0), _row("c", 3.0)]) == \
        {"a": 3.0, "b": 1.0, "c": 2.0}
    # equal means share the average rank; a method with no makespan gets none
    assert ranks([_row("a", 1.0), _row("b", 1.0), _row("c", 2.0), _row("d", None)]) == \
        {"a": 1.5, "b": 1.5, "c": 3.0, "d": None}
    assert ranks([_row("a", 2.0), _row("b", 2.0), _row("c", 2.0)]) == \
        {"a": 2.0, "b": 2.0, "c": 2.0}
    # two seeds: equal means from different makespans still tie
    assert ranks([_row("a", 1.0, seed=0), _row("a", 2.0, seed=1),
                  _row("b", 2.0, seed=0), _row("b", 1.0, seed=1)]) == {"a": 1.5, "b": 1.5}


def test_aggregate_groups_by_budget_and_iterations():
    rows = [_row("altermilp", 2.0, budget=1.0, iterations=1),
            _row("altermilp", 1.5, budget=1.0, iterations=3),
            _row("altermilp", 1.0, budget=2.0, iterations=3)]
    aggs = aggregate_rows(rows)
    assert len(aggs) == 3
    # ranks live inside a (setup, budget) cell
    cell = [a for a in aggs if a.budget == 1.0]
    assert sorted(a.rank for a in cell) == [1.0, 2.0]
    assert [a.rank for a in aggs if a.budget == 2.0] == [1.0]


def test_sweep_budget_tags_rows(tmp_path):
    cfg = _config(methods=(MethodSpec("random"), MethodSpec("greedy")),
                  seeds=(0,), budget=1.0)
    with pytest.raises(ValueError, match="budgets"):
        sweep_budget(cfg, [])
    with pytest.raises(ValueError, match="budget"):
        sweep_budget(cfg, [0.5, float("nan")])
    result = sweep_budget(cfg, [0.5, 1.5], out_dir=tmp_path / "sweep")
    assert len(result.rows) == 2 * 2
    assert sorted({r.budget for r in result.rows}) == [0.5, 1.5]
    # deterministic methods do not change with the budget
    by_budget = {}
    for r in result.rows:
        by_budget.setdefault(r.budget, {})[r.method] = r.makespan
    assert by_budget[0.5] == by_budget[1.5]


def test_each_row_gets_its_own_log_file(tmp_path):
    cfg = _config(methods=(MethodSpec("random"),), seeds=(0,), budget=1.0)
    # :g printed both budgets as 1, and the second log overwrote the first
    result = sweep_budget(cfg, [1.0, 1.0000001, 2.0, 1234567.0], out_dir=tmp_path / "sweep")
    logs = sorted(p.name for p in (tmp_path / "sweep" / "logs").iterdir())
    assert len(logs) == len(result.rows) == 4
    assert logs == ["random_seed0_B1.0000001.log", "random_seed0_B1.log",
                    "random_seed0_B1234567.log", "random_seed0_B2.log"]
    # a repeated seed, budget or T would write two rows to one log
    with pytest.raises(ValueError, match=r"^seeds must be distinct, got \[0, 1, 0\]$"):
        _config(seeds=(0, 1, 0))
    with pytest.raises(ValueError, match=r"^budgets must be distinct, got \[1, 2.0, 1.0\]$"):
        sweep_budget(cfg, [1, 2.0, 1.0])
    with pytest.raises(ValueError, match=r"^ts must be distinct, got \[2, 2\]$"):
        sweep_iterations(cfg, [2, 2], mode="same")


def test_sweep_budget_singleton_matches_plain_run():
    cfg = _config(methods=(MethodSpec("random"), MethodSpec("diana")),
                  seeds=(0, 1), budget=1.0)
    plain = run_experiment(cfg)
    swept = sweep_budget(cfg, [1.0])
    key = lambda rows: sorted((r.method, r.seed, r.makespan) for r in rows)
    assert key(plain.rows) == key(swept.rows)


def test_sweep_iterations_validation():
    cfg = _config()
    with pytest.raises(ValueError, match="mode"):
        sweep_iterations(cfg, [1, 2], mode="other")
    with pytest.raises(ValueError, match="ts"):
        sweep_iterations(cfg, [], mode="same")
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="ts"):
            sweep_iterations(cfg, [bad, 2], mode="divided")


def test_sweep_iterations_divided_keeps_the_total_budget():
    cfg = _config(methods=(MethodSpec("altermilp"), MethodSpec("greedy")),
                  seeds=(0,), budget=2.0)
    result = sweep_iterations(cfg, [1, 2], mode="divided")
    alter = [r for r in result.rows if r.method == "altermilp"]
    flat = [r for r in result.rows if r.method == "greedy"]
    assert sorted(r.iterations for r in alter) == [1, 2]
    assert all(r.budget == 2.0 for r in alter)
    # the reference method runs once, not once per T
    assert len(flat) == 1 and flat[0].iterations is None


def test_sweep_iterations_same_scales_the_total_budget():
    cfg = _config(methods=(MethodSpec("altermilp"),), seeds=(0,), budget=1.5)
    result = sweep_iterations(cfg, [1, 2], mode="same")
    budgets = {r.iterations: r.budget for r in result.rows}
    assert budgets == {1: 1.5, 2: 3.0}


def test_parallel_runs_match_serial_runs():
    methods = (MethodSpec("random"), MethodSpec("greedy"), MethodSpec("diana"))
    serial = run_experiment(_config(methods=methods, seeds=(0, 1), budget=1.0,
                                    parallelism=1))
    parallel = run_experiment(_config(methods=methods, seeds=(0, 1), budget=1.0,
                                      parallelism=2))
    key = lambda rows: sorted((r.method, r.seed, r.makespan) for r in rows)
    assert key(serial.rows) == key(parallel.rows)
