import hashlib
import itertools
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridopt import baselines
from gridopt.alternating import min_exe, min_trans
from gridopt.baselines import (ELITISM, GREEDY_BLOCK, BaselineRun, GaConfig,
                               _breed, _order_crossover_rows, _ox_slice_ends,
                               classify_jobs, diana,
                               ensemble_greedy, ga, greedy,
                               greedy_data_assignment, random_baseline)
from gridopt.environment import (GenerationConfig, GridEnvironment, generate,
                                 preset_config)
from gridopt.evaluator import makespan_of, makespans_of
from gridopt.schedule import Schedule
from gridopt.solver import brute_force_optimal

from conftest import grids, tiny_env


@pytest.fixture(scope="module")
def tiny_oracle():
    env = tiny_env(0)
    _, best = brute_force_optimal(env)
    return env, best


def _all_methods(env, seed):
    return {
        "random": random_baseline(env, seed),
        "mintrans": min_trans(env, budget=5.0, seed=seed),
        "minexe": min_exe(env, budget=5.0, seed=seed),
        "greedy": greedy(env),
        "ensgreedy": ensemble_greedy(env, seed, runs=8),
        "diana": diana(env),
        "ga": ga(env, GaConfig(population=12, generations=15, seed=seed)),
    }


def test_every_baseline_is_valid_and_dominated_by_the_oracle(tiny_oracle):
    env, oracle = tiny_oracle
    for name, run in _all_methods(env, seed=0).items():
        assert isinstance(run, BaselineRun), name
        run.schedule.validate(env)
        assert run.makespan == pytest.approx(makespan_of(env, run.schedule)), name
        assert run.makespan >= oracle - 1e-9, name
        assert not run.degraded, name


def test_solver_backed_baselines_never_regress_from_their_start(tiny_oracle):
    env, _ = tiny_oracle
    for seed in range(4):
        start = random_baseline(env, seed).makespan
        assert min_trans(env, budget=5.0, seed=seed).makespan <= start
        assert min_exe(env, budget=5.0, seed=seed).makespan <= start


def test_min_trans_with_one_local_sn_is_the_random_baseline():
    env = generate(GenerationConfig(num_jobs=3, num_objects=3, num_cns=2,
                                    num_local_sns=1, num_remote_sns=2,
                                    rng_seed=11))
    run = min_trans(env, budget=5.0, seed=11)
    # only one placement exists, so optimizing it changes nothing
    assert run.makespan == pytest.approx(random_baseline(env, 11).makespan, rel=1e-15)


def test_min_exe_with_one_cn_is_the_random_baseline():
    env = generate(GenerationConfig(num_jobs=3, num_objects=3, num_cns=1,
                                    num_local_sns=2, num_remote_sns=2,
                                    rng_seed=12))
    run = min_exe(env, budget=5.0, seed=12)
    assert run.makespan == pytest.approx(random_baseline(env, 12).makespan, rel=1e-15)


class _RefusingBackend:
    name = "refuses"

    def solve_raw(self, model, budget):
        return None, "infeasible", "scripted refusal"


def test_solver_failure_degrades_to_the_initial_schedule(tiny_oracle):
    env, _ = tiny_oracle
    for method in (min_trans, min_exe):
        run = method(env, budget=1.0, seed=3, backend=_RefusingBackend())
        assert run.degraded
        assert run.solver_statuses == ("error",)
        assert run.makespan == pytest.approx(random_baseline(env, 3).makespan)


# -- greedy --------------------------------------------------------------------


def _lan_env(num_jobs, num_cns, lan_row):
    # one object per job, all hosted on the single remote SN, one local SN
    return GridEnvironment(
        object_sizes=[10240.0] * num_jobs,
        hosting=[0] * num_jobs,
        job_inputs=tuple((d,) for d in range(num_jobs)),
        cn_speeds=[5120.0] * num_cns,
        wan_bandwidth=[[1024.0]],
        lan_bandwidth=[lan_row],
        gamma=1.0,
    )


def test_greedy_spreads_jobs_over_free_cns():
    env = _lan_env(num_jobs=2, num_cns=2, lan_row=[10240.0, 10240.0])
    run = greedy(env)
    assert run.schedule.job_cn[0] == 0          # tie goes to the lowest id
    assert sorted(run.schedule.job_cn) == [0, 1]
    assert np.array_equal(run.schedule.order, [0, 1])


def test_greedy_with_one_cn_stacks_everything():
    env = _lan_env(num_jobs=3, num_cns=1, lan_row=[10240.0])
    run = greedy(env)
    assert np.array_equal(run.schedule.job_cn, [0, 0, 0])


def test_greedy_respects_a_custom_order():
    env = _lan_env(num_jobs=3, num_cns=2, lan_row=[10240.0, 10240.0])
    run = greedy(env, order=[2, 0, 1])
    assert np.array_equal(run.schedule.order, [2, 0, 1])
    assert run.schedule.job_cn[2] == 0          # first visited takes CN 0


def _placement_env(wan_row, lan_cols):
    # one object, two local SNs, one CN; wan_row is (L,), lan_cols is (L,)
    return GridEnvironment(
        object_sizes=[1000.0],
        hosting=[0],
        job_inputs=((0,),),
        cn_speeds=[1000.0],
        wan_bandwidth=[list(wan_row)],
        lan_bandwidth=[[lan_cols[0]], [lan_cols[1]]],
        gamma=1.0,
    )


def test_greedy_placement_picks_the_cheaper_sn():
    env = _placement_env(wan_row=(10.0, 1000.0), lan_cols=(10.0, 1000.0))
    # costs: 1000/10 + 1000/10 = 200 on SN 0 vs 1 + 1 = 2 on SN 1
    assert greedy_data_assignment(env).tolist() == [1]


def test_greedy_placement_breaks_ties_low():
    env = _placement_env(wan_row=(10.0, 1000.0), lan_cols=(1000.0, 10.0))
    # both SNs cost 100 + 1 = 101
    assert greedy_data_assignment(env).tolist() == [0]


# -- ensemble greedy -----------------------------------------------------------


def test_ensemble_rejects_nonpositive_runs(tiny_oracle):
    env, _ = tiny_oracle
    for runs in (0, True, 2.5, 2.0):
        with pytest.raises(ValueError, match=f"^runs must be an integer >= 1, got {runs!r}$"):
            ensemble_greedy(env, seed=0, runs=runs)
    for budget in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="budget"):
            ensemble_greedy(env, seed=0, budget=budget)


def test_ensemble_is_deterministic_and_monotone_in_runs(tiny_oracle):
    env, _ = tiny_oracle
    five = ensemble_greedy(env, seed=2, runs=5)
    again = ensemble_greedy(env, seed=2, runs=5)
    ten = ensemble_greedy(env, seed=2, runs=10)
    assert five.schedule.to_document() == again.schedule.to_document()
    assert five.extra["runs"] == 5 and ten.extra["runs"] == 10
    # the first five orders coincide, so more runs can only help
    assert ten.makespan <= five.makespan


def test_ensemble_budget_mode_has_a_floor_of_ten_runs(tiny_oracle):
    env, _ = tiny_oracle
    run = ensemble_greedy(env, seed=1, budget=1e-9)
    assert run.extra["runs"] == 10


def test_ensemble_stops_at_whichever_of_runs_and_budget_comes_first(tiny_oracle):
    env, _ = tiny_oracle
    # a budget that does not bind leaves a runs-only result unchanged
    runs_only = ensemble_greedy(env, seed=2, runs=300)
    both = ensemble_greedy(env, seed=2, runs=300, budget=60.0)
    assert both.schedule.to_document() == runs_only.schedule.to_document()
    assert both.extra["runs"] == runs_only.extra["runs"] == 300
    # a budget that binds stops a run count far out of reach
    env = generate(preset_config("medium"), seed=0)
    start = time.perf_counter()
    run = ensemble_greedy(env, seed=0, runs=10**6, budget=0.3)
    assert time.perf_counter() - start < 2.0
    assert run.extra["runs"] < 10**6


def test_ensemble_defaults_to_fifty_runs(tiny_oracle):
    env, _ = tiny_oracle
    assert ensemble_greedy(env, seed=1).extra["runs"] == 50


def _scalar_greedy(env, order):
    """Greedy one job at a time, scored by a separate replay."""
    object_sn = greedy_data_assignment(env)
    t_remote = env.object_sizes / env.wan_bandwidth[env.hosting, object_sn]
    cn_free = np.zeros(env.num_cns)
    job_cn = np.zeros(env.num_jobs, dtype=np.int64)
    for j in order:
        c = int(np.argmin(cn_free))
        job_cn[j] = c
        start = cn_free[c]
        ready = start
        total = 0.0
        for d in env.job_inputs[j]:
            begin = max(start, t_remote[d])
            ready = max(ready, begin + env.object_sizes[d] / env.lan_bandwidth[object_sn[d], c])
            total += env.object_sizes[d]
        cn_free[c] = ready + env.gamma * total / env.cn_speeds[c]
    schedule = Schedule(job_cn=job_cn, order=order, object_sn=object_sn)
    return schedule, makespan_of(env, schedule)


_REFERENCE_ENVS = {
    "tiny": lambda: tiny_env(0),
    "small": lambda: generate(preset_config("small"), seed=0),
    "many-inputs": lambda: generate(GenerationConfig(
        num_jobs=12, num_objects=30, num_cns=3, num_local_sns=4,
        num_remote_sns=3, objects_per_job=(6, 12), rng_seed=4)),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_ENVS))
def test_greedy_matches_the_scalar_reference(name):
    env = _REFERENCE_ENVS[name]()
    rng = np.random.default_rng(8)
    for order in [np.arange(env.num_jobs)] + [rng.permutation(env.num_jobs) for _ in range(5)]:
        run = greedy(env, order=order)
        schedule, makespan = _scalar_greedy(env, order)
        assert run.schedule.to_document() == schedule.to_document()
        assert run.makespan == makespan


@settings(max_examples=80, deadline=None)
@given(env=grids, order_seed=st.integers(0, 2**31 - 1))
def test_greedy_matches_the_scalar_reference_on_random_grids(env, order_seed):
    order = np.random.default_rng(order_seed).permutation(env.num_jobs)
    run = greedy(env, order=order)
    schedule, makespan = _scalar_greedy(env, order)
    assert run.schedule.to_document() == schedule.to_document()
    assert run.makespan == makespan


@pytest.mark.parametrize("name", sorted(_REFERENCE_ENVS))
def test_ensemble_matches_the_scalar_reference(name):
    env = _REFERENCE_ENVS[name]()
    counts = [*range(1, 31), GREEDY_BLOCK + 3]      # the last spans two blocks
    rng = np.random.default_rng(3)
    candidates = [_scalar_greedy(env, rng.permutation(env.num_jobs))
                  for _ in range(max(counts))]
    for runs in counts:
        best = candidates[0]
        for candidate in candidates[1:runs]:
            if candidate[1] < best[1]:
                best = candidate
        run = ensemble_greedy(env, seed=3, runs=runs)
        assert run.schedule.to_document() == best[0].to_document(), runs
        assert run.makespan == best[1], runs
        assert run.extra["runs"] == runs


def test_ensemble_orders_are_the_stream_of_one_permutation_per_row():
    # ensemble_greedy permutes a tiled arange in one call; it must draw the
    # same orders, and leave the generator in the same state, as one
    # rng.permutation(J) per row
    for num_jobs, rows in itertools.product((1, 7, 10, 50, 100), (5, 10, GREEDY_BLOCK)):
        per_row, batched = np.random.default_rng(11), np.random.default_rng(11)
        expected = np.stack([per_row.permutation(num_jobs) for _ in range(rows)])
        orders = batched.permuted(np.tile(np.arange(num_jobs), (rows, 1)), axis=1)
        assert orders.dtype == expected.dtype
        assert np.array_equal(orders, expected), (num_jobs, rows)
        assert batched.bit_generator.state == per_row.bit_generator.state


# -- diana ---------------------------------------------------------------------


def test_diana_threshold_validation(tiny_oracle):
    env, _ = tiny_oracle
    for bad in (0.0, -1.0, float("inf"), float("nan"), True, "1"):
        with pytest.raises(ValueError, match="threshold"):
            diana(env, threshold=bad)


def test_classification_saturates_at_extreme_thresholds(tiny_oracle):
    env, _ = tiny_oracle
    object_sn = greedy_data_assignment(env)
    ratios, low = classify_jobs(env, object_sn, threshold=1e-12)
    _, high = classify_jobs(env, object_sn, threshold=1e12)
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)
    assert low.all()
    assert not high.any()


def _uniform_jobs_env(lan_row):
    # four identical jobs sharing one object; two CNs with equal speed
    return GridEnvironment(
        object_sizes=[1000.0],
        hosting=[0],
        job_inputs=((0,), (0,), (0,), (0,)),
        cn_speeds=[100.0, 100.0],
        wan_bandwidth=[[50.0]],
        lan_bandwidth=[lan_row],
        gamma=1.0,
    )


def test_diana_compute_branch_balances_load():
    env = _uniform_jobs_env(lan_row=[100.0, 100.0])
    run = diana(env, threshold=1e-12)       # everything counts as compute-heavy
    assert run.schedule.job_cn.tolist() == [0, 1, 0, 1]


def test_diana_data_branch_chases_the_fast_link():
    env = _uniform_jobs_env(lan_row=[100.0, 10.0])
    run = diana(env, threshold=1e12)        # everything counts as data-heavy
    assert run.schedule.job_cn.tolist() == [0, 0, 0, 0]
    assert "ratios" in run.extra and len(run.extra["ratios"]) == 4


# -- genetic algorithm ---------------------------------------------------------


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population=1)
    with pytest.raises(ValueError):
        GaConfig(generations=0)
    for budget in (float("nan"), float("inf"), -1.0, True, "3"):
        with pytest.raises(ValueError, match="budget"):
            GaConfig(budget=budget)
    # a count is an integer: a bool or a float fails naming its field
    for name, bad in (("population", 3.5), ("population", True), ("generations", True),
                      ("generations", 2.0)):
        with pytest.raises(ValueError, match=f"^{name} must be .*integer.*, got {bad!r}$"):
            GaConfig(**{name: bad})


def _scalar_order_crossover(a, b, lo, hi):
    """Classic OX on one pair: keep a[lo:hi], fill the rest in b's order."""
    n = a.size
    child = np.full(n, -1, dtype=np.int64)
    child[lo:hi] = a[lo:hi]
    taken = set(child[lo:hi].tolist())
    fill = [g for g in b if g not in taken]
    spots = [k for k in range(n) if not lo <= k < hi]
    for k, g in zip(spots, fill):
        child[k] = g
    return child


def test_order_crossover_yields_permutations():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a, b = rng.permutation(n), rng.permutation(n)
        lo, hi = sorted(rng.choice(n + 1, size=2, replace=False))
        child = _order_crossover_rows(a[None], b[None], np.array([lo]), np.array([hi]))[0]
        assert sorted(child.tolist()) == list(range(n))


@st.composite
def _crossover_cases(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 8))
    perms = st.permutations(range(n))
    a = np.array([draw(perms) for _ in range(rows)], dtype=np.int64)
    b = np.array([draw(perms) for _ in range(rows)], dtype=np.int64)
    lo = [draw(st.integers(0, n - 1)) for _ in range(rows)]
    hi = [draw(st.integers(low + 1, n)) for low in lo]
    return a, b, np.array(lo), np.array(hi)


@settings(max_examples=200, deadline=None)
@given(case=_crossover_cases())
def test_order_crossover_rows_matches_the_scalar_reference(case):
    a, b, lo, hi = case
    children = _order_crossover_rows(a, b, lo, hi)
    assert children.shape == a.shape
    for r in range(a.shape[0]):
        assert children[r].tolist() == _scalar_order_crossover(a[r], b[r], lo[r], hi[r]).tolist()


@pytest.mark.parametrize("span", range(2, 10))
def test_ox_slice_ends_cover_every_ordered_pair_once(span):
    first, offset = (a.ravel() for a in np.meshgrid(np.arange(span), np.arange(1, span),
                                                    indexing="ij"))
    lo, hi = _ox_slice_ends(first, offset, span)
    second = lo + hi - first
    pairs = list(zip(first.tolist(), second.tolist()))
    # (first, offset) -> (first, second) is a bijection onto the ordered
    # distinct pairs, the support of choice(span, 2, replace=False), which
    # it covers uniformly
    assert sorted(pairs) == list(itertools.permutations(range(span), 2))
    assert (lo < hi).all()
    assert Counter(zip(lo.tolist(), hi.tolist())) == Counter(
        (min(p), max(p)) for p in itertools.permutations(range(span), 2))


@st.composite
def _breed_cases(draw):
    size = draw(st.integers(2, 7))
    nj, nd = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    nc, nl = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    mut = draw(st.sampled_from([0.0, 0.2, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    population = (rng.integers(0, nc, size=(size, nj)),
                  rng.permuted(np.tile(np.arange(nj), (size, 1)), axis=1),
                  rng.integers(0, nl, size=(size, nd)))
    scores = rng.integers(0, 4, size=size).astype(float)   # ties are likely
    return mut, nc, nl, scores, population, seed


def _is_splice(child, rows):
    """Whether ``child`` is rows[a][:cut] + rows[b][cut:] for some a, b, cut."""
    n = child.size
    prefix = (rows == child).astype(int).cumprod(axis=1).sum(axis=1)   # matching head
    suffix = (rows == child)[:, ::-1].astype(int).cumprod(axis=1).sum(axis=1)
    return prefix.max() + suffix.max() >= n


def _is_order_crossover(child, rows):
    """Whether ``child`` is OX(rows[a], rows[b], lo, hi) for some a, b, lo < hi."""
    n = child.size
    for a, b in itertools.product(rows, repeat=2):
        for lo, hi in itertools.combinations(range(n + 1), 2):
            if np.array_equal(_scalar_order_crossover(a, b, lo, hi), child):
                return True
    return False


@settings(max_examples=150, deadline=None)
@given(case=_breed_cases())
def test_breed_invariants(case):
    mut, nc, nl, scores, (job_cn, order, object_sn), seed = case
    size, nj = order.shape
    nd = object_sn.shape[1]
    new = _breed(np.random.default_rng(seed), mut, nc, nl, scores, job_cn, order, object_sn)
    assert [a.shape for a in new] == [(size, nj), (size, nj), (size, nd)]
    elite = np.argsort(scores)[:ELITISM]
    for old, bred in zip((job_cn, order, object_sn), new):
        assert np.array_equal(bred[:ELITISM], old[elite])
    new_cn, new_order, new_sn = new
    assert (np.sort(new_order, axis=1) == np.arange(nj)).all()
    assert ((0 <= new_cn) & (new_cn < nc)).all()
    assert ((0 <= new_sn) & (new_sn < nl)).all()
    if mut == 0:
        for r in range(ELITISM, size):
            assert _is_splice(new_cn[r], job_cn)
            assert _is_splice(new_sn[r], object_sn)
            assert _is_order_crossover(new_order[r], order)


class _CountingGenerator:
    """Wraps a Generator and appends the name of each method call to ``calls``."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)
        return counted


def test_ga_draws_a_fixed_number_of_times_per_generation(monkeypatch):
    # a generation is a fixed handful of vector draws whatever the population,
    # so a per-child draw loop cannot come back unnoticed
    env = generate(preset_config("small"), seed=0)
    default_rng = np.random.default_rng
    counts = {}
    for size in (10, 40):
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng",
                          lambda seed: _CountingGenerator(default_rng(seed), calls))
            ga(env, GaConfig(population=size, generations=6, seed=0))
        counts[size] = len(calls)
    # three draws for the initial population, eleven per bred generation
    assert counts == {10: 3 + 11 * 5, 40: 3 + 11 * 5}


def test_ga_history_tracks_the_best_ever(tiny_oracle):
    env, oracle = tiny_oracle
    run = ga(env, GaConfig(population=16, generations=20, seed=0))
    history = run.extra["history"]
    assert len(history) == run.extra["generations"]
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert run.makespan == pytest.approx(history[-1])
    assert run.makespan >= oracle - 1e-9


def test_ga_is_deterministic(tiny_oracle):
    env, _ = tiny_oracle
    a = ga(env, GaConfig(population=10, generations=10, seed=5))
    b = ga(env, GaConfig(population=10, generations=10, seed=5))
    assert a.schedule.to_document() == b.schedule.to_document()
    assert a.extra["history"] == b.extra["history"]


def test_ga_on_a_one_point_search_space():
    env = generate(GenerationConfig(num_jobs=1, num_objects=1, num_cns=1,
                                    num_local_sns=1, num_remote_sns=1,
                                    rng_seed=2))
    _, oracle = brute_force_optimal(env)
    run = ga(env, GaConfig(population=4, generations=5, seed=0))
    assert run.makespan == pytest.approx(oracle)
    assert run.extra["history"] == [run.makespan] * 5


# sha256 over (job_cn, order, object_sn, [makespan] + history, generations)
# of the returned run, recorded when each generation drew every kind of
# random number in one vector call
_GA_FINGERPRINTS = {
    "tiny3": (lambda: tiny_env(3), dict(population=12, generations=20, seed=5),
              "5227f454fce718f0f27a63ec28c2ec8ea3a55ef21b316e323f7e5d9a9948b4f4"),
    "small": (lambda: generate(preset_config("small"), seed=0),
              dict(population=30, generations=40, seed=1),
              "7a473c08c94a1a26280dd2c46cd31f4712a3921e4da1ddf12f0bab6856cd2972"),
    # the shape the search benchmark runs
    "medium": (lambda: generate(preset_config("medium"), seed=0),
               dict(population=50, generations=10, seed=0),
               "900a971c870223a31b6af5739f6514bb08451498d00f3ad087e19628b1af1d25"),
}


@pytest.mark.parametrize("name", sorted(_GA_FINGERPRINTS))
def test_ga_matches_recorded_fingerprints(name):
    make_env, params, expected = _GA_FINGERPRINTS[name]
    run = ga(make_env(), GaConfig(**params))
    digest = hashlib.sha256()
    for arr in (run.schedule.job_cn, run.schedule.order, run.schedule.object_sn):
        digest.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    digest.update(np.asarray([run.makespan] + run.extra["history"], dtype=np.float64).tobytes())
    digest.update(str(run.extra["generations"]).encode())
    assert digest.hexdigest() == expected


def test_ga_budget_cuts_the_run_short(tiny_oracle):
    env, _ = tiny_oracle
    run = ga(env, GaConfig(population=10, generations=1000, seed=0, budget=1e-9))
    assert run.extra["generations"] == 1
    assert len(run.extra["history"]) == 1


def test_ga_budget_counts_the_initial_population(tiny_oracle, monkeypatch):
    env, _ = tiny_oracle
    budget = 0.05
    calls = []

    def slow_first_call(*args):
        if not calls:
            time.sleep(2 * budget)
        calls.append(1)
        return makespans_of(*args)

    monkeypatch.setattr(baselines, "makespans_of", slow_first_call)
    run = ga(env, GaConfig(population=10, generations=1000, seed=0, budget=budget))
    assert run.extra["generations"] == 1
    assert len(calls) == 1
