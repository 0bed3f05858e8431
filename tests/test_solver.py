import dataclasses
import itertools
import math
import re
import sys

import numpy as np
import pytest

from gridopt.baselines import (GaConfig, diana, ensemble_greedy, ga, greedy,
                               random_baseline)
from gridopt.environment import GenerationConfig, generate, preset_config
from gridopt.evaluator import evaluate, makespan_of, makespans_of
from gridopt.model import (build_erd_assignment, build_fixed_all, build_fixed_x,
                           build_fixed_yz, build_monolithic)
from gridopt.schedule import random_schedule
from gridopt.solver import (HighsBackend, InstanceTooLargeError, SolveResult,
                            brute_force_optimal, candidate_count, solve)

from conftest import run_python, tiny_config, tiny_env


def test_solve_rejects_bad_budgets(env_tiny):
    mdl = build_fixed_all(env_tiny, random_schedule(env_tiny, 0))
    for budget in (0.0, -1.0, math.inf, math.nan, True, "3", 10**400):
        with pytest.raises(ValueError, match="budget"):
            solve(mdl, budget)


def test_optimal_solve_passes_its_own_check(env_tiny):
    s = random_schedule(env_tiny, 1)
    mdl = build_fixed_yz(env_tiny, s)
    res = solve(mdl, budget=10.0)
    assert res.status == "optimal"
    assert res.ok
    assert mdl.check_assignment(res.x) == []
    assert res.objective == pytest.approx(mdl.objective_value(res.x))
    assert res.wall_time >= 0


def test_short_budget_binds_on_a_medium_assignment_model():
    # HiGHS's feasibility-jump heuristic ignores the time limit and ran for
    # 1-2 s on this model before the root node
    env = generate(preset_config("medium"), seed=2968811710)
    start = greedy(env, order=np.random.default_rng(2968811710).permutation(env.num_jobs))
    mdl = build_fixed_yz(env, start.schedule)
    res = solve(mdl, budget=0.1)
    assert res.ok
    assert res.wall_time < 1.0


def test_warm_started_solve_never_regresses():
    for seed in range(5):
        env = tiny_env(seed)
        s = random_schedule(env, seed + 100)
        warm_mk = evaluate(env, s).makespan
        mdl = build_fixed_yz(env, s)
        res = solve(mdl, budget=10.0)
        assert res.ok
        assert res.objective <= warm_mk + 1e-9


class _StubBackend:
    """Scripted backend for exercising the wrapper's trust boundaries."""

    name = "stub"

    def __init__(self, script):
        self.script = script

    def solve_raw(self, model, budget):
        item = self.script
        if item == "raise":
            raise RuntimeError("backend exploded")
        x, raw = item
        if callable(x):
            x = x(model)
        return x, raw, "scripted"


def _warm_model(seed=0):
    env = tiny_env(seed)
    s = random_schedule(env, seed)
    mdl = build_fixed_yz(env, s)
    return mdl, evaluate(env, s).makespan


def test_timeout_without_incumbent_falls_back_to_warm_start():
    mdl, warm_mk = _warm_model()
    res = solve(mdl, 1.0, backend=_StubBackend((None, "limit")))
    assert res.status == "feasible-timeout"
    assert res.objective == pytest.approx(warm_mk)
    assert mdl.check_assignment(res.x) == []


def test_timeout_without_incumbent_or_warm_start_is_an_error():
    mdl, _ = _warm_model()
    mdl.warm_x = None
    res = solve(mdl, 1.0, backend=_StubBackend((None, "limit")))
    assert res.status == "error"
    assert res.x is None
    assert "no incumbent" in res.diagnostics


def test_infeasible_claim_contradicted_by_warm_start():
    mdl, warm_mk = _warm_model()
    res = solve(mdl, 1.0, backend=_StubBackend((None, "infeasible")))
    assert res.status == "error"
    assert "warm start" in res.diagnostics
    assert res.objective == pytest.approx(warm_mk)


def test_infeasible_without_warm_start_is_reported():
    mdl, _ = _warm_model()
    mdl.warm_x = None
    res = solve(mdl, 1.0, backend=_StubBackend((None, "infeasible")))
    assert res.status == "infeasible"
    assert res.x is None


def test_crashing_backend_is_absorbed_by_warm_start():
    mdl, warm_mk = _warm_model()
    res = solve(mdl, 1.0, backend=_StubBackend("raise"))
    assert res.status == "feasible-timeout"
    assert res.objective == pytest.approx(warm_mk)


def test_invalid_backend_solution_is_rejected():
    mdl, warm_mk = _warm_model()

    def garbage(model):
        return np.zeros(model.num_vars)  # violates the assignment rows

    res = solve(mdl, 1.0, backend=_StubBackend((garbage, "optimal")))
    # the "proof" is discarded along with the point; the warm start survives
    assert res.status == "feasible-timeout"
    assert res.objective == pytest.approx(warm_mk)
    assert "rejected" in res.diagnostics


def test_claimed_optimum_worse_than_warm_start_is_distrusted():
    mdl, _ = _warm_model()
    # the warm m is the largest tail-row activity, which may differ from the
    # replay in the last bit
    warm_obj = mdl.objective_value(mdl.warm_x)
    for factor, status in ((10.0, "feasible-timeout"),  # clearly worse: the proof is void
                           (1.0 + 1e-9, "optimal")):    # within OPTIMUM_TOL: float noise
        inflated = mdl.warm_x.copy()
        inflated[mdl.names.index("m")] = warm_obj * factor
        res = solve(mdl, 1.0, backend=_StubBackend((inflated, "optimal")))
        assert res.status == status
        # the better point comes back either way
        assert res.objective == warm_obj
        assert "warm start beat" in res.diagnostics


def test_an_optimal_claim_without_a_point_is_an_error():
    env = generate(preset_config("small"), seed=0)
    mdl = build_monolithic(env)     # no warm start to fall back on
    res = solve(mdl, 1.0, backend=_StubBackend((None, "optimal")))
    assert res.status == "error" and not res.ok
    assert res.x is None and res.objective is None
    assert "no incumbent (optimal)" in res.diagnostics


@pytest.mark.parametrize("warm", [True, False])
@pytest.mark.parametrize("script", [
    (None, "optimal"), (None, "limit"), (None, "infeasible"), "raise",
    (lambda mdl: np.zeros(mdl.num_vars), "optimal"),
    (lambda mdl: mdl.warm_x[:-1], "optimal"),
    (lambda mdl: mdl.warm_x, "optimal"), (lambda mdl: mdl.warm_x, "limit")])
def test_an_ok_result_carries_a_point(script, warm):
    mdl, _ = _warm_model()
    if not isinstance(script, str) and callable(script[0]):
        script = (script[0](mdl), script[1])     # a point of the warm-started model
    if not warm:
        mdl.warm_x = None
    res = solve(mdl, 1.0, backend=_StubBackend(script))
    assert not res.ok or (res.x is not None and mdl.check_assignment(res.x) == [])


@pytest.mark.parametrize("extra", [-1, 1])
def test_an_answer_of_the_wrong_length_is_dropped_for_the_warm_start(extra):
    mdl, _ = _warm_model()
    n = mdl.num_vars

    def wrong_length(model):
        return np.resize(model.warm_x, n + extra)

    res = solve(mdl, 1.0, backend=_StubBackend((wrong_length, "optimal")))
    assert res.status == "feasible-timeout"
    assert res.x is mdl.warm_x
    assert f"backend solution rejected: x has shape ({n + extra},), not ({n},)" in res.diagnostics


NOISY_SOLVE = """
import ctypes, os
from gridopt.environment import generate, preset_config
from gridopt.model import build_erd_assignment
from gridopt.schedule import random_schedule
from gridopt.solver import solve

class Noisy:
    name = "noisy"

    def solve_raw(self, model, budget):
        ctypes.CDLL(None).printf(b"from printf\\n")
        os.write(1, b"from os.write\\n")
        print("from print")
        return None, "limit", "scripted"

env = generate(preset_config("small"), seed=0)
assert solve(build_erd_assignment(env, random_schedule(env, 0)), 1.0, Noisy()).ok
"""


def test_a_backend_writes_nothing_to_stdout():
    # HiGHS prints some notes with a bare printf; the command line's stdout
    # must hold only its JSON
    proc = run_python("-c", NOISY_SOLVE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    for line in ("from printf", "from os.write", "from print"):
        assert line in proc.stderr


def test_candidate_count_formula(env_tiny):
    # every (assignment, placement) pair once; its order is ERD, not one of J!
    expected = (env_tiny.num_cns ** env_tiny.num_jobs
                * env_tiny.num_local_sns ** env_tiny.num_objects)
    assert candidate_count(env_tiny) == expected == 64


def test_brute_force_refuses_large_instances(env_tiny):
    with pytest.raises(InstanceTooLargeError) as err:
        brute_force_optimal(env_tiny, max_candidates=63)
    assert err.value.count == 64


def _every_schedule_optimum(env):
    """Minimum makespan over every (assignment, order, placement), J! orders included."""
    rows = list(itertools.product(
        itertools.product(range(env.num_cns), repeat=env.num_jobs),
        itertools.permutations(range(env.num_jobs)),
        itertools.product(range(env.num_local_sns), repeat=env.num_objects)))
    job_cns, orders, object_sns = (np.array(part, dtype=np.int64) for part in zip(*rows))
    return makespans_of(env, job_cns, orders, object_sns).min()


def test_brute_force_over_erd_orders_reaches_the_every_order_optimum():
    for seed in range(10):
        env = generate(dataclasses.replace(tiny_config(seed), gamma=0.5 + 0.15 * seed))
        best, best_mk = brute_force_optimal(env)
        assert best_mk == makespan_of(env, best)
        assert best_mk == pytest.approx(_every_schedule_optimum(env), rel=1e-12)


def test_no_heuristic_beats_the_oracle_on_a_grid_of_7776_candidates():
    # 3**5 assignments * 2**5 placements; with every order it would be 933,120
    for seed in range(2):
        env = generate(GenerationConfig(num_jobs=5, num_objects=5, num_cns=3,
                                        num_local_sns=2, num_remote_sns=2,
                                        objects_per_job=(1, 3), gamma=1.3, rng_seed=seed))
        assert candidate_count(env) == 7776
        best, oracle = brute_force_optimal(env)
        assert oracle == makespan_of(env, best)
        for run in (random_baseline(env, seed), greedy(env), diana(env),
                    ensemble_greedy(env, seed, runs=20),
                    ga(env, GaConfig(population=16, generations=10, seed=seed))):
            # ERD is optimal up to the rounding of its release dates
            assert run.makespan >= oracle * (1 - 1e-12)


def test_brute_force_optimum_dominates_samples(env_tiny):
    best, best_mk = brute_force_optimal(env_tiny)
    best.validate(env_tiny)
    assert best_mk == pytest.approx(makespan_of(env_tiny, best), rel=1e-15)
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert makespan_of(env_tiny, random_schedule(env_tiny, rng)) >= best_mk - 1e-12


def test_brute_force_is_deterministic():
    env = generate(GenerationConfig(num_jobs=2, num_objects=2, num_cns=2,
                                    num_local_sns=2, num_remote_sns=1,
                                    rng_seed=8))
    a, mk_a = brute_force_optimal(env)
    b, mk_b = brute_force_optimal(env)
    assert mk_a == mk_b
    assert a.to_document() == b.to_document()


def test_monolithic_solve_matches_brute_force(env_tiny):
    _, oracle = brute_force_optimal(env_tiny)
    res = solve(build_monolithic(env_tiny, warm_schedule=random_schedule(env_tiny, 5)),
                budget=60.0)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(oracle, rel=1e-9)


def test_a_highs_solve_error_is_solved_again_without_presolve():
    # HiGHS's presolve leaves this grid's optimum at 1e-6 below a precedence
    # row's bound, and its closing check then rounds that to a violation
    env = generate(GenerationConfig(num_jobs=4, num_objects=4, num_cns=1, num_local_sns=1,
                                    num_remote_sns=1, rng_seed=1))
    res = solve(build_monolithic(env), budget=10.0)
    assert res.status == "optimal", res.diagnostics
    assert res.objective == pytest.approx(brute_force_optimal(env)[1], rel=1e-9)


# -- the HiGHS session --------------------------------------------------------


def _medium_erd_model():
    env = generate(preset_config("medium"), seed=2968811710)
    start = greedy(env, order=np.random.default_rng(2968811710).permutation(env.num_jobs))
    return build_erd_assignment(env, start.schedule)


def _proved(diagnostics):
    """(dual bound, gap, nodes) from the backend's message."""
    found = re.search(r"dual_bound=(\S+) gap=(\S+) nodes=(\d+)\)", diagnostics)
    return float(found[1]), float(found[2]), int(found[3])


def _small_models():
    for seed in range(3):
        env = generate(preset_config("small"), seed=seed)
        s = random_schedule(env, seed)
        yield from (build_erd_assignment(env, s), build_fixed_yz(env, s),
                    build_fixed_x(env, s))


def test_highs_starts_from_the_warm_start():
    # in 0.2 s HiGHS proves the small models optimal with or without the
    # start; the medium one it cannot, so only the start keeps it this good
    backend = HighsBackend()
    for mdl in (*_small_models(), _medium_erd_model()):
        warm_obj = mdl.objective_value(mdl.warm_x)
        x, raw, _ = backend.solve_raw(mdl, 0.2)
        assert raw in ("optimal", "limit") and x is not None, mdl.kind
        x[mdl.integer] = np.round(x[mdl.integer])
        assert mdl.check_assignment(x) == [], mdl.kind
        assert mdl.objective_value(x) <= warm_obj * (1 + 1e-9), mdl.kind
        res = solve(mdl, 0.2, backend)
        assert res.ok and "warm start beat" not in res.diagnostics, mdl.kind


def test_time_limit_is_the_budget():
    mdl = _medium_erd_model()
    res = solve(mdl, 1.0)
    assert res.ok
    assert res.wall_time <= 1.0 + 0.1


def test_diagnostics_say_what_highs_proved():
    mdl = _medium_erd_model()
    res = solve(mdl, 0.5)
    assert res.status == "feasible-timeout"
    dual_bound, gap, nodes = _proved(res.diagnostics)
    assert dual_bound <= res.objective
    assert 0.0 < gap <= 1.0 and nodes >= 0
    env = tiny_env(0)
    res = solve(build_fixed_yz(env, random_schedule(env, 0)), 10.0)
    assert res.status == "optimal"
    assert _proved(res.diagnostics)[0] == pytest.approx(res.objective, rel=1e-9)


def test_backend_names_what_an_old_scipy_lacks(monkeypatch):
    import scipy

    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    with pytest.raises(ImportError, match=re.escape(
            f"scipy.optimize._highspy._core._Highs, which scipy {scipy.__version__} "
            "does not provide")):
        HighsBackend()
