import json
import re

import numpy as np
import pytest

from gridopt.bench import ExperimentConfig, MethodSpec, run_experiment
from gridopt.cli import build_parser, main
from gridopt.environment import _GENERATION_FIELDS, load_environment
from gridopt.evaluator import makespan_of
from gridopt.schedule import Schedule, load_schedule, random_schedule

from conftest import run_python, tiny_config, tiny_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_with_preset(tmp_path, capsys):
    out = tmp_path / "env.json"
    code, stdout, _ = run_cli(capsys, "gen", "--preset", "small",
                              "--seed", "7", "--out", str(out))
    assert code == 0
    info = json.loads(stdout)
    assert info == {"out": str(out), "jobs": 10, "objects": 20, "cns": 10,
                    "local_sns": 10, "remote_sns": 10, "seed": 7}
    env = load_environment(out)
    assert env.num_jobs == 10 and env.num_objects == 20


def test_gen_preset_accepts_overrides(tmp_path, capsys):
    out = tmp_path / "env.json"
    code, stdout, _ = run_cli(capsys, "gen", "--preset", "small",
                              "--num-jobs", "4", "--gamma", "2.5",
                              "--out", str(out))
    assert code == 0
    env = load_environment(out)
    assert env.num_jobs == 4
    assert env.gamma == 2.5


def test_gen_custom_dimensions(tmp_path, capsys):
    out = tmp_path / "env.json"
    code, _, _ = run_cli(capsys, "gen", "--out", str(out),
                         "--num-jobs", "3", "--num-objects", "4",
                         "--num-cns", "2", "--num-local-sns", "2",
                         "--num-remote-sns", "2",
                         "--object-size-range", "100", "200")
    assert code == 0
    env = load_environment(out)
    assert env.num_jobs == 3 and env.num_objects == 4
    assert env.object_sizes.min() >= 100 and env.object_sizes.max() <= 200


def test_gen_has_a_flag_for_every_generation_field(capsys):
    args = build_parser().parse_args(["gen", "--out", "x.json",
                                      "--object-size-range", "100", "200"])
    assert set(vars(args)) - {"command", "preset", "seed", "out"} == (
        set(_GENERATION_FIELDS) - {"rng_seed"})
    assert args.object_size_range_kb == [100.0, 200.0]
    with pytest.raises(SystemExit):
        main(["gen", "--help"])
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert flags - {"--help", "--preset", "--seed", "--out"} == {
        "--num-jobs", "--num-objects", "--num-cns", "--num-local-sns", "--num-remote-sns",
        "--object-size-range", "--wan-bandwidth-range", "--lan-bandwidth-range",
        "--cn-speed-range", "--gamma", "--zipf-exponent", "--objects-per-job"}


def test_gen_without_preset_requires_all_dimensions(tmp_path, capsys):
    with pytest.raises(SystemExit, match="--num-cns"):
        main(["gen", "--out", str(tmp_path / "x.json"), "--num-jobs", "3"])


def test_gen_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "gen", "--preset", "small", "--seed", "3", "--out", str(a))
    run_cli(capsys, "gen", "--preset", "small", "--seed", "3", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_gen_rejects_invalid_dimensions(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "--out", str(tmp_path / "x.json"),
                           "--num-jobs", "0", "--num-objects", "4",
                           "--num-cns", "2", "--num-local-sns", "2",
                           "--num-remote-sns", "2")
    assert code == 1
    assert err.startswith("error:")


@pytest.fixture
def env_file(tmp_path):
    env = tiny_env(0)
    path = tmp_path / "env.json"
    env.save(path)
    return env, path


def test_evaluate_matches_the_library(env_file, tmp_path, capsys):
    env, env_path = env_file
    schedule = random_schedule(env, 5)
    sched_path = tmp_path / "sched.json"
    schedule.save(sched_path)
    code, stdout, _ = run_cli(capsys, "evaluate", "--env", str(env_path),
                              "--schedule", str(sched_path))
    assert code == 0
    doc = json.loads(stdout)
    assert doc["schema"] == "makespan-report/1"
    assert doc["makespan"] == pytest.approx(makespan_of(env, schedule))
    assert len(doc["ready"]) == env.num_jobs


def test_evaluate_rejects_a_mismatched_schedule(env_file, tmp_path, capsys):
    _, env_path = env_file
    # five jobs cannot fit a three-job environment
    schedule = Schedule(job_cn=np.zeros(5, dtype=np.int64),
                        order=np.arange(5, dtype=np.int64),
                        object_sn=np.zeros(3, dtype=np.int64))
    bad = tmp_path / "bad.json"
    schedule.save(bad)
    code, _, err = run_cli(capsys, "evaluate", "--env", str(env_path),
                           "--schedule", str(bad))
    assert code == 1
    assert err.startswith("error:")


def _edit_document(path, **fields):
    path.write_text(json.dumps({**json.loads(path.read_text()), **fields}))


def _fails_naming(capsys, field, *argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert field in err


def test_evaluate_names_an_unknown_environment_field(env_file, tmp_path, capsys):
    env, env_path = env_file
    _edit_document(env_path, gama=1.0)
    sched_path = tmp_path / "sched.json"
    random_schedule(env, 5).save(sched_path)
    _fails_naming(capsys, "gama", "evaluate", "--env", str(env_path),
                  "--schedule", str(sched_path))


def test_evaluate_names_an_id_beyond_int64(env_file, tmp_path, capsys):
    env, env_path = env_file
    sched_path = tmp_path / "sched.json"
    random_schedule(env, 5).save(sched_path)
    _edit_document(sched_path, job_cn=[10**30] * env.num_jobs)
    _fails_naming(capsys, "job_cn", "evaluate", "--env", str(env_path),
                  "--schedule", str(sched_path))


def test_evaluate_names_a_ragged_table(env_file, tmp_path, capsys):
    env, env_path = env_file
    _edit_document(env_path, wan_bandwidth=[[1.0, 2.0], [3.0]])
    sched_path = tmp_path / "sched.json"
    random_schedule(env, 5).save(sched_path)
    _fails_naming(capsys, "wan_bandwidth", "evaluate", "--env", str(env_path),
                  "--schedule", str(sched_path))


def test_evaluate_names_a_file_that_is_not_json(env_file, tmp_path, capsys):
    env, env_path = env_file
    bad = tmp_path / "bad.json"
    random_schedule(env, 5).save(bad)
    bad.write_text(bad.read_text()[:11])
    _fails_naming(capsys, "bad.json", "evaluate", "--env", str(env_path),
                  "--schedule", str(bad))


def test_evaluate_missing_file_exits_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, "evaluate", "--env", str(tmp_path / "no.json"),
                           "--schedule", str(tmp_path / "nope.json"))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("extra", [
    ["--method", "random"],
    ["--method", "greedy"],
    ["--method", "diana", "--param", "threshold=2.0"],
    ["--method", "ensgreedy", "--param", "runs=3"],
    ["--method", "ga", "--param", "population=6", "--param", "generations=3"],
    ["--method", "mintrans", "--budget", "2.0"],
    ["--method", "minexe", "--budget", "2.0"],
])
def test_optimize_methods_emit_valid_schedules(env_file, tmp_path, capsys, extra):
    env, env_path = env_file
    out = tmp_path / "sched.json"
    code, stdout, _ = run_cli(capsys, "optimize", "--env", str(env_path),
                              "--out", str(out), "--seed", "1", *extra)
    assert code == 0
    info = json.loads(stdout)
    assert info["method"] == extra[1]
    assert not info["degraded"]
    schedule = load_schedule(out)
    schedule.validate(env)
    assert info["makespan"] == pytest.approx(makespan_of(env, schedule))


def test_optimize_altermilp_writes_a_trace(env_file, tmp_path, capsys):
    env, env_path = env_file
    out = tmp_path / "sched.json"
    trace_path = tmp_path / "trace.json"
    code, stdout, _ = run_cli(capsys, "optimize", "--env", str(env_path),
                              "--method", "altermilp", "--param", "iterations=1",
                              "--budget", "2.0", "--out", str(out),
                              "--trace", str(trace_path))
    assert code == 0
    info = json.loads(stdout)
    assert info["trace_file"] == str(trace_path)
    trace_doc = json.loads(trace_path.read_text())
    assert trace_doc["schema"] == "optimization-trace/1"
    assert len(trace_doc["steps"]) == 3
    final = load_schedule(out)
    assert info["makespan"] == pytest.approx(makespan_of(env, final))
    # the written schedule is the trace's last iterate
    assert trace_doc["steps"][-1]["schedule"] == final.to_document()


def test_optimize_prints_one_json_document_while_highs_prints(tmp_path):
    # on this instance HiGHS prints a note from inside the minexe solve
    env_path = str(tmp_path / "env.json")
    gen = run_python("-m", "gridopt.cli", "gen", "--preset", "small", "--seed", "7",
                     "--out", env_path)
    assert gen.returncode == 0, gen.stderr
    proc = run_python("-m", "gridopt.cli", "optimize", "--env", env_path,
                      "--method", "minexe", "--seed", "7", "--budget", "3")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["method"] == "minexe"


def test_optimize_rejects_an_unknown_param(env_file, capsys):
    _, env_path = env_file
    code, stdout, err = run_cli(capsys, "optimize", "--env", str(env_path),
                                "--method", "greedy", "--param", "threshold=2.0")
    assert code == 1 and stdout == ""
    assert err.startswith("error:")
    assert "'greedy'" in err and "'threshold'" in err
    for bad in ("population", "population=abc", "population=true"):
        code, stdout, err = run_cli(capsys, "optimize", "--env", str(env_path),
                                    "--method", "ga", "--param", bad)
        assert code == 1 and stdout == ""
        assert err.startswith("error:")
        assert "'population'" in err


# nan and inf could never stop a budget-bound loop, and 0 or less is no budget
@pytest.mark.parametrize("method", ["ensgreedy", "ga", "greedy"])
@pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1"])
def test_optimize_rejects_a_budget_that_cannot_stop_a_run(env_file, capsys, method, budget):
    _, env_path = env_file
    code, stdout, err = run_cli(capsys, "optimize", "--env", str(env_path),
                                "--method", method, "--budget", budget)
    assert code == 1 and stdout == ""
    assert err.startswith("error:") and "budget" in err


@pytest.mark.parametrize("method, params", [
    ("random", {}),
    ("mintrans", {}),
    ("minexe", {}),
    ("greedy", {}),
    ("ensgreedy", {"runs": 4}),
    ("diana", {"threshold": 0.5}),
    ("ga", {"population": 6, "generations": 3}),
    ("altermilp", {"iterations": 1, "early_stop": False}),
])
def test_optimize_matches_the_bench(tmp_path, capsys, method, params):
    seed, budget = 2, 3.0
    cfg = ExperimentConfig(methods=(MethodSpec(method, params=params),),
                           seeds=(seed,), budget=budget, generation=tiny_config(0))
    env_path = tmp_path / "env.json"
    cfg.environment_for(seed).save(env_path)
    out = tmp_path / "sched.json"
    argv = ["optimize", "--env", str(env_path), "--method", method,
            "--seed", str(seed), "--budget", str(budget), "--out", str(out)]
    for name, value in params.items():
        argv += ["--param", f"{name}={json.dumps(value)}"]
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    [row] = run_experiment(cfg).rows
    assert row.status == "ok"
    assert json.loads(out.read_text()) == row.schedule.to_document()
    assert json.loads(stdout)["makespan"] == row.makespan


def _experiment_file(tmp_path, methods):
    cfg = ExperimentConfig(methods=methods, seeds=(0, 1), budget=1.0,
                           generation=tiny_config(0))
    path = tmp_path / "exp.json"
    cfg.save(path)
    return path


def test_bench_run_from_config(tmp_path, capsys):
    path = _experiment_file(tmp_path, (MethodSpec("random"), MethodSpec("greedy")))
    out = tmp_path / "results"
    code, stdout, _ = run_cli(capsys, "bench", "run", "--config", str(path),
                              "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["rows"] == 4 and summary["failed"] == 0
    assert summary["output_dir"] == str(out)
    assert {a["method"] for a in summary["aggregate"]} == {"random", "greedy"}
    assert (out / "rows.csv").exists() and (out / "aggregate.csv").exists()


def test_bench_sweep_budget(tmp_path, capsys):
    path = _experiment_file(tmp_path, (MethodSpec("random"),))
    code, stdout, _ = run_cli(capsys, "bench", "sweep-budget",
                              "--config", str(path), "--budgets", "0.5,1.0")
    assert code == 0
    summary = json.loads(stdout)
    assert summary["rows"] == 4
    assert {a["budget"] for a in summary["aggregate"]} == {0.5, 1.0}


def test_bench_sweep_budget_requires_budgets(tmp_path, capsys):
    path = _experiment_file(tmp_path, (MethodSpec("random"),))
    with pytest.raises(SystemExit, match="--budgets"):
        main(["bench", "sweep-budget", "--config", str(path)])


@pytest.mark.parametrize("action, flag, text, bad", [
    ("sweep-budget", "--budgets", "1,abc", "'abc'"),
    ("sweep-budget", "--budgets", "1,,2", "''"),
    ("sweep-iters", "--ts", "1.5", "'1.5'"),
])
def test_bench_sweep_names_a_bad_list_item(tmp_path, capsys, action, flag, text, bad):
    path = _experiment_file(tmp_path, (MethodSpec("random"),))
    code, _, err = run_cli(capsys, "bench", action, "--config", str(path),
                           flag, text, "--mode", "divided")
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag in err and f"got {bad}" in err


def test_bench_sweep_iters(tmp_path, capsys):
    path = _experiment_file(tmp_path, (MethodSpec("altermilp"),
                                       MethodSpec("greedy")))
    code, stdout, _ = run_cli(capsys, "bench", "sweep-iters",
                              "--config", str(path), "--ts", "1,2",
                              "--mode", "divided")
    assert code == 0
    summary = json.loads(stdout)
    iters = {a["iterations"] for a in summary["aggregate"]
             if a["method"] == "altermilp"}
    assert iters == {1, 2}


def test_bench_sweep_iters_requires_mode(tmp_path, capsys):
    path = _experiment_file(tmp_path, (MethodSpec("altermilp"),))
    with pytest.raises(SystemExit, match="--ts and --mode"):
        main(["bench", "sweep-iters", "--config", str(path), "--ts", "1,2"])


def test_bench_missing_config_exits_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, "bench", "run",
                           "--config", str(tmp_path / "none.json"))
    assert code == 1
    assert err.startswith("error:")


def test_bench_names_the_removed_reproduction_mode_field(tmp_path, capsys):
    path = _experiment_file(tmp_path, (MethodSpec("random"),))
    _edit_document(path, reproduction_mode=False)
    _fails_naming(capsys, "reproduction_mode", "bench", "run", "--config", str(path))


@pytest.mark.parametrize("command", ["gen", "optimize", "bench"])
def test_a_negative_seed_fails_naming_the_seed(env_file, tmp_path, capsys, command):
    _, env_path = env_file
    if command == "gen":
        argv = ["gen", "--preset", "small", "--seed", "-1", "--out", str(tmp_path / "x.json")]
    elif command == "optimize":
        argv = ["optimize", "--env", str(env_path), "--method", "greedy", "--seed", "-1"]
    else:
        path = _experiment_file(tmp_path, (MethodSpec("random"),))
        _edit_document(path, seeds=[0, -1])
        argv = ["bench", "run", "--config", str(path), "--out", str(tmp_path / "out")]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 1 and stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "seed" in err and "got -1" in err


@pytest.mark.parametrize("command, flag", [("gen", "--out"), ("optimize", "--out"),
                                           ("optimize", "--trace"), ("bench", "--out")])
def test_an_empty_output_path_fails_naming_the_flag(env_file, tmp_path, capsys, command, flag):
    # an empty path wrote nothing, yet optimize printed it as its schedule_file
    _, env_path = env_file
    if command == "gen":
        argv = ["gen", "--preset", "small"]
    elif command == "optimize":
        argv = ["optimize", "--env", str(env_path), "--method", "altermilp", "--budget", "1"]
    else:
        argv = ["bench", "run", "--config",
                str(_experiment_file(tmp_path, (MethodSpec("random"),)))]
    before = sorted(tmp_path.iterdir())
    code, stdout, err = run_cli(capsys, *argv, flag, "")
    assert code == 1 and stdout == ""
    assert err == f"error: {flag} must be a non-empty path, got ''\n"
    assert sorted(tmp_path.iterdir()) == before
