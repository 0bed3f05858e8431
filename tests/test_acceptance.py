"""Acceptance gate for the whole toolkit.

Nine behavior-level bars, one test each, ordered from consistency checks to
end-to-end quality comparisons.  Every test prints a single PASS/FAIL line
with its measured numbers (visible under -s, or in the failure report), then
asserts the bar.  Module-level unit tests live in the other files; these are
the slow, integrated checks.
"""

import time

import numpy as np

from gridopt.alternating import AlterMilpConfig, min_exe, min_trans, run as altermilp, step
from gridopt.baselines import (GaConfig, diana, ensemble_greedy, ga, greedy,
                               random_baseline)
from gridopt.bench import ExperimentConfig, MethodSpec, experiment_from_document
from gridopt.environment import (GenerationConfig, environment_from_document,
                                 generate, preset_config)
from gridopt.evaluator import compute_big_a, makespan_of
from gridopt.model import (build_fixed_all, build_fixed_x, build_fixed_yz,
                           build_monolithic, extract_schedule)
from gridopt.schedule import random_schedule, schedule_from_document
from gridopt.solver import brute_force_optimal, solve

from conftest import random_env, tiny_env

SEEDS = range(10)


def small_env(seed):
    return generate(preset_config("small"), seed=seed)


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return f"{name}: {detail}"


def test_criterion_1_evaluator_agrees_with_the_pinned_model():
    start = time.perf_counter()
    worst = 0.0
    for k in range(100):
        env = small_env(k)
        schedule = random_schedule(env, 1000 + k)
        replayed = makespan_of(env, schedule)
        res = solve(build_fixed_all(env, schedule), budget=10.0)
        assert res.status == "optimal", f"pair {k}: solver said {res.status}"
        worst = max(worst, abs(res.objective - replayed) / abs(replayed))
    ok = worst <= 1e-6
    detail = report("1 evaluator/LP consistency", ok,
                    f"100 pairs, worst rel dev {worst:.3e}, "
                    f"{time.perf_counter() - start:.1f}s")
    assert ok, detail


def test_criterion_2_joint_model_matches_exhaustive_search():
    start = time.perf_counter()
    worst = worst_replay = 0.0
    for seed in SEEDS:
        env = tiny_env(seed)
        _, oracle = brute_force_optimal(env)
        mono = build_monolithic(env)
        res = solve(mono, budget=60.0)
        assert res.status == "optimal", f"seed {seed}: solver said {res.status}"
        worst = max(worst, abs(res.objective - oracle) / abs(oracle))
        # the replay is ground truth; presolve may spend its row tolerance on
        # the objective, but the schedule read back must replay to the optimum
        replayed = makespan_of(env, extract_schedule(mono, res.x))
        worst_replay = max(worst_replay, abs(replayed - oracle) / abs(oracle))
    ok = worst <= 1e-9 and worst_replay <= 1e-9
    detail = report("2 exact optimum on tiny instances", ok,
                    f"10 instances, worst rel dev {worst:.3e}, "
                    f"replayed {worst_replay:.3e}, "
                    f"{time.perf_counter() - start:.1f}s")
    assert ok, detail


def test_criterion_3_alternating_solves_near_optimal_on_tiny_instances():
    start = time.perf_counter()
    gaps = []
    for seed in SEEDS:
        env = tiny_env(seed)
        _, oracle = brute_force_optimal(env)
        final, _ = altermilp(env, AlterMilpConfig(iterations=3,
                                                  total_budget=10.0, seed=seed))
        gaps.append((makespan_of(env, final) - oracle) / oracle)
    hits = sum(g <= 0.05 for g in gaps)
    ok = hits >= 9
    detail = report("3 alternating near-optimality", ok,
                    f"{hits}/10 within 5% (worst gap {max(gaps):.2%}), "
                    f"{time.perf_counter() - start:.1f}s")
    assert ok, detail


def test_criterion_4_traces_never_regress():
    start = time.perf_counter()
    violations = 0
    for seed in SEEDS:
        env = small_env(seed)
        _, trace = altermilp(env, AlterMilpConfig(iterations=3,
                                                  total_budget=3.0, seed=seed))
        mks = trace.makespans()
        violations += sum(b > a + 1e-9 * max(1.0, a)
                          for a, b in zip(mks, mks[1:]))
    ok = violations == 0
    detail = report("4 anytime monotonicity", ok,
                    f"10 traces, {violations} regressions, "
                    f"{time.perf_counter() - start:.1f}s")
    assert ok, detail


def test_criterion_5_beats_the_reference_methods_at_small_scale():
    start = time.perf_counter()
    budget = 3.0
    means = {m: [] for m in ("altermilp", "random", "mintrans", "minexe",
                             "ensgreedy")}
    for seed in SEEDS:
        env = small_env(seed)
        final, _ = altermilp(env, AlterMilpConfig(iterations=3,
                                                  total_budget=budget, seed=seed))
        means["altermilp"].append(makespan_of(env, final))
        means["random"].append(random_baseline(env, seed).makespan)
        means["mintrans"].append(min_trans(env, budget, seed).makespan)
        means["minexe"].append(min_exe(env, budget, seed).makespan)
        means["ensgreedy"].append(ensemble_greedy(env, seed, budget=budget).makespan)
    mean = {k: float(np.mean(v)) for k, v in means.items()}
    ratio = mean["altermilp"] / mean["random"]
    ok = (ratio <= 0.70
          and mean["altermilp"] <= mean["mintrans"]
          and mean["altermilp"] <= mean["minexe"]
          and mean["altermilp"] <= mean["ensgreedy"])
    detail = report(
        "5 small-scale ordering", ok,
        f"alter/random {ratio:.3f} (bar 0.70); means alter {mean['altermilp']:.0f}"
        f" vs mintrans {mean['mintrans']:.0f}, minexe {mean['minexe']:.0f},"
        f" ensgreedy {mean['ensgreedy']:.0f}; {time.perf_counter() - start:.1f}s")
    assert ok, detail


def test_criterion_6_each_optimization_stage_earns_its_keep():
    start = time.perf_counter()
    budget = 3.0
    assignment_only, full, placement_only = [], [], []
    for seed in SEEDS:
        env = small_env(seed)
        # the paper's half-steps once each: the assignment under the start's
        # order and placement, then the placement alone
        s1 = greedy(env, order=np.random.default_rng(seed).permutation(env.num_jobs)).schedule
        m1 = makespan_of(env, s1)
        for build in (build_fixed_yz, build_fixed_x):
            s1, m1, _ = step(build(env, s1), m1, budget / 2)
        assignment_only.append(m1)
        s2, _ = altermilp(env, AlterMilpConfig(iterations=3, total_budget=budget,
                                               seed=seed))
        full.append(makespan_of(env, s2))
        placement_only.append(min_trans(env, budget, seed).makespan)
    m_partial = float(np.mean(assignment_only))
    m_full = float(np.mean(full))
    m_placement = float(np.mean(placement_only))
    ok = m_partial <= m_placement and m_full <= m_partial * 1.02
    detail = report(
        "6 ablation trend", ok,
        f"means placement-only {m_placement:.0f} >= assignment+placement "
        f"{m_partial:.0f} >= full loop {m_full:.0f} (2% slack); "
        f"{time.perf_counter() - start:.1f}s")
    assert ok, detail


def test_criterion_7_budget_sensitivity():
    start = time.perf_counter()
    budgets = (0.5, 1.0, 3.0)
    minexe_means = {}
    for b in budgets:
        minexe_means[b] = float(np.mean(
            [min_exe(small_env(seed), b, seed).makespan for seed in SEEDS]))
    spread = ((max(minexe_means.values()) - min(minexe_means.values()))
              / min(minexe_means.values()))
    alter = {}
    for b in (0.5, 3.0):
        finals = []
        for seed in SEEDS:
            env = small_env(seed)
            final, _ = altermilp(env, AlterMilpConfig(iterations=3,
                                                      total_budget=b, seed=seed))
            finals.append(makespan_of(env, final))
        alter[b] = float(np.mean(finals))
    ok = spread < 0.10 and alter[3.0] <= alter[0.5]
    detail = report(
        "7 budget sweep", ok,
        f"minexe spread {spread:.2%} over {budgets}; alter mean "
        f"{alter[3.0]:.0f} @3s vs {alter[0.5]:.0f} @0.5s; "
        f"{time.perf_counter() - start:.1f}s")
    assert ok, detail


def test_criterion_8_cross_module_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    # random schedules are always valid, serialize losslessly, and stay
    # under the big-A ceiling
    for _ in range(20):
        env = random_env(rng)
        env2 = environment_from_document(env.to_document())
        assert env2.to_document() == env.to_document()
        ceiling = compute_big_a(env)
        for k in range(3):
            s = random_schedule(env, int(rng.integers(0, 2**31)))
            s.validate(env)
            assert schedule_from_document(s.to_document()).to_document() == s.to_document()
            assert makespan_of(env, s) < ceiling

    # no method beats exhaustive search
    for seed in range(3):
        env = tiny_env(seed)
        _, oracle = brute_force_optimal(env)
        for run in (random_baseline(env, seed), greedy(env), diana(env),
                    ensemble_greedy(env, seed, runs=5),
                    ga(env, GaConfig(population=8, generations=6, seed=seed)),
                    min_trans(env, 5.0, seed), min_exe(env, 5.0, seed)):
            assert run.makespan >= oracle - 1e-9

    # generated numbers respect their configured ranges
    cfg = preset_config("small")
    env = generate(cfg, seed=1)
    lo, hi = cfg.object_size_range_kb
    assert env.object_sizes.min() >= lo and env.object_sizes.max() <= hi
    lo, hi = cfg.cn_speed_range
    assert env.cn_speeds.min() >= lo and env.cn_speeds.max() <= hi
    lo, hi = cfg.wan_bandwidth_range
    assert env.wan_bandwidth.min() >= lo and env.wan_bandwidth.max() <= hi
    lo, hi = cfg.lan_bandwidth_range
    assert env.lan_bandwidth.min() >= lo and env.lan_bandwidth.max() <= hi

    # popularity skew: low object ids are requested more than high ones
    skew_env = generate(GenerationConfig(num_jobs=60, num_objects=20,
                                         num_cns=2, num_local_sns=2,
                                         num_remote_sns=2,
                                         objects_per_job=(1, 2), rng_seed=3))
    counts = np.zeros(20)
    for objs in skew_env.job_inputs:
        for d in objs:
            counts[d] += 1
    assert counts[:10].sum() > counts[10:].sum()

    # experiment configs round-trip
    exp = ExperimentConfig(methods=(MethodSpec("random"),), seeds=(0,),
                           budget=1.0, preset="small")
    assert experiment_from_document(exp.to_document()).to_document() == exp.to_document()

    report("8 property suite", True,
           f"validity, dominance, ranges, skew, round-trips; "
           f"{time.perf_counter() - start:.1f}s")


def test_criterion_9_altermilp_beats_ensgreedy_at_medium_scale():
    start = time.perf_counter()
    budget = 2.0
    alter, ens = [], []
    for seed in range(3):
        env = generate(preset_config("medium"), seed=seed)
        final, _ = altermilp(env, AlterMilpConfig(iterations=2, total_budget=budget,
                                                  seed=seed))
        alter.append(makespan_of(env, final))
        ens.append(ensemble_greedy(env, seed, budget=budget).makespan)
    ok = np.mean(alter) <= np.mean(ens)
    detail = report(
        "9 medium-scale ordering", ok,
        f"means alter {np.mean(alter):.0f} vs ensgreedy {np.mean(ens):.0f} at "
        f"{budget:g} s over 3 seeds; {time.perf_counter() - start:.1f}s")
    assert ok, detail
