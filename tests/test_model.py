import functools
import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridopt import kernels, model
from gridopt.environment import GenerationConfig, GridEnvironment, generate, preset_config
from gridopt.evaluator import compute_big_a, evaluate, makespan_of, makespans_of
from gridopt.kernels import erd_orders
from gridopt.model import (build_erd_assignment, build_fixed_all, build_fixed_x,
                           build_fixed_yz, build_monolithic, extract_schedule)
from gridopt.schedule import InvalidScheduleError, Schedule, random_schedule
from gridopt.solver import brute_force_optimal, solve

from conftest import grids, tiny_env


def _env_and_schedule(seed):
    env = tiny_env(seed)
    return env, random_schedule(env, seed)


def test_fixed_all_lp_matches_replay():
    for seed in range(5):
        env, s = _env_and_schedule(seed)
        rep = evaluate(env, s)
        res = solve(build_fixed_all(env, s), budget=10.0)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(rep.makespan, rel=1e-9)


def test_every_builder_produces_a_feasible_warm_start():
    env, s = _env_and_schedule(1)
    rep = evaluate(env, s)
    models = [
        build_monolithic(env, warm_schedule=s),
        build_fixed_yz(env, s),
        build_fixed_x(env, s),
    ]
    for mdl in models:
        assert mdl.warm_x is not None
        assert mdl.check_assignment(mdl.warm_x) == []
        assert mdl.objective_value(mdl.warm_x) == pytest.approx(rep.makespan, rel=1e-12)


tiny_grids = st.builds(
    lambda env_seed, num_jobs, num_objects, num_cns, num_local_sns, num_remote_sns: generate(
        GenerationConfig(num_jobs=num_jobs, num_objects=num_objects, num_cns=num_cns,
                         num_local_sns=num_local_sns, num_remote_sns=num_remote_sns,
                         rng_seed=env_seed)),
    env_seed=st.integers(0, 2**31 - 1), num_jobs=st.integers(1, 4),
    num_objects=st.integers(1, 4), num_cns=st.integers(1, 3),
    num_local_sns=st.integers(1, 3), num_remote_sns=st.integers(1, 2))


@settings(max_examples=40, deadline=None)
@given(env=tiny_grids, schedule_seed=st.integers(0, 2**31 - 1))
# HiGHS proved this joint model "optimal" 1.23e-3 below the exhaustive
# optimum under its default integrality tolerance
@example(env=generate(GenerationConfig(num_jobs=3, num_objects=3, num_cns=3, num_local_sns=3,
                                       num_remote_sns=1, rng_seed=44952973)),
         schedule_seed=0)
def test_every_builder_agrees_with_the_replay(env, schedule_seed):
    s = random_schedule(env, schedule_seed)
    mk = evaluate(env, s).makespan
    res = solve(build_fixed_all(env, s), budget=10.0)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(mk, rel=1e-9)
    for mdl in (build_monolithic(env, warm_schedule=s), build_fixed_yz(env, s),
                build_fixed_x(env, s)):
        assert mdl.check_assignment(mdl.warm_x) == []
        assert mdl.objective_value(mdl.warm_x) == pytest.approx(mk, rel=1e-12)
        assert makespan_of(env, extract_schedule(mdl, mdl.warm_x)) == pytest.approx(mk, rel=1e-12)
    # the joint model proves the exhaustive optimum, on single-CN and
    # single-SN grids too, where a switched-off row's bound matters
    mono = build_monolithic(env)
    res = solve(mono, budget=10.0)
    best = brute_force_optimal(env)[1]
    assert res.status == "optimal"
    assert makespan_of(env, extract_schedule(mono, res.x)) == pytest.approx(best, rel=1e-9)
    # HiGHS holds a row to 1e-6 absolute, and its presolve can spend that on
    # the makespan: 1.6e-9 relative at a makespan of 614 s
    assert res.objective == pytest.approx(best, rel=1e-9, abs=1e-5)


def test_build_solve_extract_formats_no_name(monkeypatch):
    formatted = []
    monkeypatch.setattr(model, "_labels", lambda fmt, keys: formatted.append(fmt) or [])
    env, s = _env_and_schedule(2)
    for mdl in (build_fixed_yz(env, s), build_fixed_x(env, s), build_erd_assignment(env, s)):
        res = solve(mdl, budget=10.0)
        assert res.ok
        extract_schedule(mdl, res.x).validate(env)
    assert formatted == []


def test_model_kinds():
    env, s = _env_and_schedule(2)
    assert build_monolithic(env).kind == "monolithic"
    assert build_fixed_yz(env, s).kind == "fixed-yz"
    assert build_fixed_x(env, s).kind == "fixed-xy"
    assert build_fixed_all(env, s).kind == "fixed-xyz"
    assert build_erd_assignment(env, s).kind == "erd-assignment"


def test_builder_argument_validation():
    env, s = _env_and_schedule(4)
    with pytest.raises(InvalidScheduleError):
        build_fixed_x(env, Schedule(job_cn=np.full(env.num_jobs, env.num_cns),
                                    order=s.order, object_sn=s.object_sn))
    with pytest.raises(InvalidScheduleError):
        build_fixed_yz(env, Schedule(job_cn=s.job_cn, order=np.zeros(env.num_jobs, dtype=int),
                                     object_sn=s.object_sn))
    with pytest.raises(InvalidScheduleError):
        build_fixed_yz(env, Schedule(job_cn=s.job_cn, order=s.order,
                                     object_sn=np.full(env.num_objects, -1)))
    with pytest.raises(InvalidScheduleError):
        build_erd_assignment(env, Schedule(job_cn=s.job_cn, order=s.order,
                                           object_sn=np.full(env.num_objects, -1)))


def test_placement_model_holds_only_the_read_objects_placement():
    env = generate(GenerationConfig(num_jobs=4, num_objects=8, num_cns=2, num_local_sns=3,
                                    num_remote_sns=2, objects_per_job=(1, 2), rng_seed=5))
    s = random_schedule(env, 5)
    nj, nl = env.num_jobs, env.num_local_sns
    read = np.unique(np.concatenate(env.job_inputs))
    unread = np.setdiff1d(np.arange(env.num_objects), read)
    assert unread.size > 0
    pos = s.positions()
    pairs = int(np.sum((s.job_cn[:, None] == s.job_cn) & (pos[:, None] < pos)))
    n_in = sum(map(len, env.job_inputs))
    for mdl in (build_fixed_x(env, s), build_fixed_all(env, s)):
        assert mdl.x_vars is None and mdl.y_vars is None, mdl.kind
        assert {re.match(r"\w+", n).group() for n in mdl.names} == {"m", "u", "v", "t", "Z"}
        assert [n for n in mdl.names if n.startswith("t[")] == [f"t[{d}]" for d in read]
        assert [n for n in mdl.names if n.startswith("Z[")] == [
            f"Z[{d},{l}]" for d in read for l in range(nl)]
        assert mdl.num_vars == 1 + 2 * nj + read.size * (1 + nl)
        assert mdl.num_rows == nj + 2 * read.size + pairs + 2 * n_in
    # fixed-xyz pins Z by bounds
    pinned = build_fixed_all(env, s)
    for d in read:
        for l in range(nl):
            i = pinned.names.index(f"Z[{d},{l}]")
            assert pinned.lower[i] == pinned.upper[i] == float(s.object_sn[d] == l)
    # extraction reads Z for the read objects and keeps the input's SN for the rest
    mdl = build_fixed_x(env, s)
    moved = (s.object_sn + 1) % nl
    x = mdl.warm_x.copy()
    x[mdl.z_vars[read]] = np.eye(nl)[moved[read]]
    found = extract_schedule(mdl, x)
    np.testing.assert_array_equal(found.object_sn[read], moved[read])
    np.testing.assert_array_equal(found.object_sn[unread], s.object_sn[unread])
    np.testing.assert_array_equal(found.job_cn, s.job_cn)
    np.testing.assert_array_equal(found.order, s.order)


def test_precedence_rows_are_emitted_sparsely():
    env, s = _env_and_schedule(6)
    nj, nc = env.num_jobs, env.num_cns

    def prec_rows(mdl):
        return [r for r in mdl.row_names if r.startswith("prec[")]

    mono = build_monolithic(env)
    assert len(prec_rows(mono)) == nj * (nj - 1) * nc
    shared = sum(1 for i in range(nj) for j in range(nj)
                 if i != j and s.job_cn[i] == s.job_cn[j])
    fa = build_fixed_all(env, s)
    assert len(prec_rows(fa)) == shared // 2


def test_fixed_all_carries_no_big_a_coefficients():
    env, s = _env_and_schedule(7)
    mdl = build_fixed_all(env, s)
    assert np.abs(mdl.data).max() < compute_big_a(env)
    assert np.all(np.isfinite(mdl.row_lower) | np.isfinite(mdl.row_upper))


def test_product_variables_only_in_monolithic():
    # no model has one: the joint model switches a row off by big-A or big-M
    # instead of linearizing a product of binaries with a variable of its own
    env, s = _env_and_schedule(8)
    groups = {"m", "u", "v", "e", "t", "X", "Y", "Z"}
    for kind, mdl in _every_builder(env, s).items():
        assert {re.match(r"\w+", n).group() for n in mdl.names} <= groups, kind
    nj, nc, nd, nl = env.num_jobs, env.num_cns, env.num_objects, env.num_local_sns
    n_in = sum(map(len, env.job_inputs))
    mono = build_monolithic(env)
    assert mono.num_vars == 1 + 3 * nj + nd + nj * nc + nj * (nj - 1) + nd * nl
    assert mono.num_rows == (4 * nj + nj * (nj - 1) // 2 + 2 * nd
                             + nj * (nj - 1) * nc + 2 * n_in * nc)
    small = build_monolithic(generate(preset_config("small"), seed=0))
    assert (small.num_vars, small.num_rows, small.data.size) == (441, 1505, 12410)


def test_objective_selects_makespan_variable():
    env, s = _env_and_schedule(9)
    mdl = build_fixed_all(env, s)
    nz = np.flatnonzero(mdl.objective)
    assert nz.tolist() == [mdl.names.index("m")]
    assert mdl.objective[nz[0]] == 1.0


def test_extract_schedule_roundtrip():
    for seed in range(6):
        env, s = _env_and_schedule(seed)
        mdl = build_monolithic(env, warm_schedule=s)
        rebuilt = extract_schedule(mdl, mdl.warm_x)
        np.testing.assert_array_equal(rebuilt.job_cn, s.job_cn)
        np.testing.assert_array_equal(rebuilt.object_sn, s.object_sn)
        # order agrees wherever it matters: within each CN
        assert evaluate(env, rebuilt).makespan == pytest.approx(
            evaluate(env, s).makespan, rel=1e-12)
        # the assignment model's tail rows follow the pinned order, and so
        # does the order it extracts
        yz = build_fixed_yz(env, s)
        np.testing.assert_array_equal(extract_schedule(yz, yz.warm_x).order, s.order)


def _y_block(mdl, x):
    """The (J, J) Y block of a variable vector, 0 on the diagonal."""
    return np.where(mdl.y_vars >= 0, x[mdl.y_vars], 0.0)


def _point(mdl, job_cn, wins, object_sn):
    """A variable vector of ``mdl`` holding the given X, Y and Z, 0 elsewhere."""
    x = np.zeros(mdl.num_vars)
    x[mdl.x_vars] = np.eye(mdl.x_vars.shape[1])[job_cn]
    off = mdl.y_vars >= 0
    x[mdl.y_vars[off]] = np.asarray(wins)[off]
    x[mdl.z_vars] = np.eye(mdl.z_vars.shape[1])[object_sn]
    return x


def test_y_encodes_the_priority_positions(env_tiny):
    s = Schedule(job_cn=[0, 0, 1], order=[2, 0, 1], object_sn=[0, 0, 0])
    np.testing.assert_array_equal(s.positions(), [1, 2, 0])
    expected = [[0, 1, 0], [0, 0, 0], [1, 1, 0]]
    warm = build_monolithic(env_tiny, warm_schedule=s)
    np.testing.assert_array_equal(_y_block(warm, warm.warm_x), expected)


def test_y_is_a_strict_total_order_with_a_zero_diagonal():
    rng = np.random.default_rng(3)
    for seed in range(5):
        env = tiny_env(seed)
        mdl = build_monolithic(env, warm_schedule=random_schedule(env, rng))
        y = _y_block(mdl, mdl.warm_x)
        assert np.all(np.diag(y) == 0)
        assert np.all(y + y.T + np.eye(env.num_jobs) == 1)


def test_extract_keeps_a_pinned_schedules_same_cn_order():
    rng = np.random.default_rng(7)
    for seed in range(10):
        env = tiny_env(seed)
        s = random_schedule(env, rng)
        mdl = build_fixed_x(env, s)
        rebuilt = extract_schedule(mdl, mdl.warm_x)
        # the placement model holds no order: extraction hands the pinned one back
        np.testing.assert_array_equal(rebuilt.order, s.order)
        np.testing.assert_array_equal(rebuilt.job_cn, s.job_cn)


def test_extract_interleaves_cns_by_job_id(env_tiny):
    wins = [[0, 0, 1],
            [1, 0, 1],
            [0, 0, 0]]
    mdl = build_monolithic(env_tiny)
    order = extract_schedule(mdl, _point(mdl, [0, 0, 1], wins, [0, 0, 0])).order
    # job 1 beats job 0 inside CN 0; the lone CN-1 job ranks 0 and ties are
    # broken by id
    assert order.tolist() == [1, 2, 0]


def _per_cn_order(wins, job_cn):
    """Rank each job by its same-CN wins, one CN at a time; ties by job id."""
    rank = np.zeros(job_cn.size, dtype=np.int64)
    for cn in np.unique(job_cn):
        members = np.flatnonzero(job_cn == cn)
        rank[members] = members.size - 1 - wins[np.ix_(members, members)].sum(axis=1)
    return sorted(range(job_cn.size), key=lambda j: (rank[j], j))


@functools.lru_cache(maxsize=None)
def _free_model(num_jobs, num_cns):
    return build_monolithic(generate(GenerationConfig(
        num_jobs=num_jobs, num_objects=1, num_cns=num_cns, num_local_sns=1,
        num_remote_sns=1)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), num_jobs=st.integers(1, 9), num_cns=st.integers(1, 4))
def test_extract_decodes_the_order_like_a_per_cn_loop(data, num_jobs, num_cns):
    job_cn = np.array(data.draw(st.lists(st.integers(0, num_cns - 1),
                                         min_size=num_jobs, max_size=num_jobs)))
    pos = np.array(data.draw(st.permutations(range(num_jobs))))
    noise = np.array(data.draw(st.lists(st.integers(0, 1), min_size=num_jobs ** 2,
                                        max_size=num_jobs ** 2))).reshape(num_jobs, num_jobs)
    # a strict total order between jobs sharing a CN; anything between the others
    wins = np.where(job_cn[:, None] == job_cn, pos[:, None] < pos, noise)
    np.fill_diagonal(wins, 0)
    mdl = _free_model(num_jobs, num_cns)
    order = extract_schedule(mdl, _point(mdl, job_cn, wins, [0])).order
    assert order.tolist() == _per_cn_order(wins, job_cn)


# -- the ERD assignment model -------------------------------------------------


def _erd_schedule(env, s):
    """``s`` with every CN queue in ERD order, as kernels.erd_orders gives it."""
    order = erd_orders(env, s.job_cn[None], s.object_sn[None])[0]
    return Schedule(job_cn=s.job_cn, order=order, object_sn=s.object_sn)


def _lan_bound_env(seed, num_jobs=5, num_cns=3):
    """A grid whose LAN transfers rival its replication, so that the ERD
    order differs from CN to CN; on generated grids replication dominates
    and every CN orders its jobs alike."""
    rng = np.random.default_rng(seed)
    num_objects, num_local_sns = 5, 2
    return GridEnvironment(
        object_sizes=rng.uniform(1e3, 1e5, num_objects),
        hosting=rng.integers(0, 2, num_objects),
        job_inputs=[sorted(rng.choice(num_objects, size=rng.integers(2, 4),
                                      replace=False).tolist()) for _ in range(num_jobs)],
        cn_speeds=rng.uniform(1e3, 1e4, num_cns),
        wan_bandwidth=rng.uniform(1e2, 1e3, (2, num_local_sns)),
        lan_bandwidth=10 ** rng.uniform(1, 3, (num_local_sns, num_cns)),
        gamma=1.0)


def _cn_orders_differ(env, object_sn):
    nj, nc = env.num_jobs, env.num_cns
    job_cns = np.broadcast_to(np.arange(nc)[:, None], (nc, nj))
    orders = erd_orders(env, job_cns, np.broadcast_to(object_sn, (nc, env.num_objects)))
    return bool(np.any(orders != orders[0]))


erd_grids = st.one_of(grids, st.builds(_lan_bound_env, st.integers(0, 2**31 - 1),
                                       st.integers(1, 7), st.integers(1, 4)))


@settings(max_examples=80, deadline=None)
@given(env=erd_grids, schedule_seed=st.integers(0, 2**31 - 1))
def test_erd_warm_start_is_the_erd_replay(env, schedule_seed):
    s = random_schedule(env, schedule_seed)
    mdl = build_erd_assignment(env, s)
    erd = _erd_schedule(env, s)
    assert mdl.check_assignment(mdl.warm_x) == []
    assert mdl.objective_value(mdl.warm_x) == pytest.approx(makespan_of(env, erd), rel=1e-12)
    # extraction keeps the placement and orders by ERD, bit for bit
    assert extract_schedule(mdl, mdl.warm_x).to_document() == erd.to_document()


@settings(max_examples=40, deadline=None)
@given(env=erd_grids, schedule_seed=st.integers(0, 2**31 - 1))
def test_erd_model_size(env, schedule_seed):
    mdl = build_erd_assignment(env, random_schedule(env, schedule_seed))
    nj, nc = env.num_jobs, env.num_cns
    assert mdl.num_vars == nj * nc + 1
    assert mdl.num_rows == nj + nj * nc
    # X in the assignment rows, m in each tail row, and the tail row of ERD
    # position k lists the J - k jobs at or after it
    assert mdl.data.size == 2 * nj * nc + nc * nj * (nj + 1) // 2
    assert np.all(mdl.data != 0)


def test_a_pair_model_slices_the_whole_grid_model():
    # on two CNs the pair is the whole grid, array for array and name for name
    for seed in range(4):
        env = tiny_env(seed)
        s = random_schedule(env, seed)
        whole, pair = build_erd_assignment(env, s), build_erd_assignment(env, s, [0, 1])
        for name in ("lower", "upper", "integer", "objective", "row_lower", "row_upper",
                     "indptr", "indices", "data", "warm_x", "x_vars"):
            a, b = getattr(pair, name), getattr(whole, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert pair.names == whole.names and pair.row_names == whole.row_names
    # on more, it holds X only for the pair's jobs and CNs, named by grid ids
    env = generate(preset_config("small"), seed=0)
    s = random_schedule(env, 0)
    cns = np.array([2, 7])
    jobs = np.flatnonzero(np.isin(s.job_cn, cns))
    pair = build_erd_assignment(env, s, cns)
    held = np.zeros((env.num_jobs, env.num_cns), dtype=bool)
    held[np.ix_(jobs, cns)] = True
    np.testing.assert_array_equal(pair.x_vars >= 0, held)
    assert pair.names == ["m"] + [f"X[{j},{c}]" for j in jobs for c in cns]
    assert pair.row_names[:jobs.size] == [f"assign[{j}]" for j in jobs]
    assert extract_schedule(pair, pair.warm_x).to_document() == _erd_schedule(env, s).to_document()


@settings(max_examples=60, deadline=None)
@given(env=st.builds(_lan_bound_env, st.integers(0, 2**31 - 1), st.integers(1, 7),
                     st.integers(2, 4)),
       schedule_seed=st.integers(0, 2**31 - 1), data=st.data())
def test_a_pair_model_extracts_the_erd_order_of_its_answer(env, schedule_seed, data):
    # CNs order their jobs differently here, so the order must follow the answer
    s = random_schedule(env, schedule_seed)
    j = data.draw(st.integers(0, env.num_jobs - 1))
    home = int(s.job_cn[j])
    other = data.draw(st.integers(0, env.num_cns - 1).filter(lambda c: c != home))
    pair = build_erd_assignment(env, s, [home, other])
    assert pair.check_assignment(pair.warm_x) == []
    assert extract_schedule(pair, pair.warm_x).to_document() == _erd_schedule(env, s).to_document()
    # job j moved to the other CN: the extracted order is ERD of that assignment
    x = pair.warm_x.copy()
    x[pair.x_vars[j, home]], x[pair.x_vars[j, other]] = 0.0, 1.0
    moved = Schedule(job_cn=np.where(np.arange(env.num_jobs) == j, other, s.job_cn),
                     order=s.order, object_sn=s.object_sn)
    assert extract_schedule(pair, x).to_document() == _erd_schedule(env, moved).to_document()


def test_a_tail_model_computes_job_pairs_for_its_own_cns_alone(monkeypatch):
    env = generate(preset_config("small"), seed=0)
    s = random_schedule(env, 0)
    rows = []

    def recording(env, job_cns, object_sns):
        rows.append(job_cns.shape[0])
        # row i puts every job on one CN
        assert np.all(job_cns == job_cns[:, :1])
        return kernels.job_pairs(env, job_cns, object_sns)

    monkeypatch.setattr(model, "job_pairs", recording)
    empty = int(np.setdiff1d(np.arange(env.num_cns), s.job_cn)[0])
    for cns in ([int(s.job_cn[0]), empty], [int(s.job_cn[0])], None):
        build_erd_assignment(env, s, cns)
    build_fixed_yz(env, s)
    assert rows == [2, 1, env.num_cns, env.num_cns]



def test_a_pair_model_rejects_cns_that_are_not_distinct_cn_ids_holding_a_job():
    env = generate(preset_config("small"), seed=0)
    s = random_schedule(env, 0)
    empty = np.setdiff1d(np.arange(env.num_cns), s.job_cn)[:2]
    assert empty.size == 2
    for bad in ([0, env.num_cns], [-1, 0], [2, 2], [], [[0, 1]], [0.0, 1.0], [True, False],
                empty):
        with pytest.raises(ValueError, match="^cns must be distinct CN ids, one holding a job"):
            build_erd_assignment(env, s, bad)
    # one CN of the pair may be empty: the sweep pairs the critical CN with it
    pair = build_erd_assignment(env, s, [int(s.job_cn[0]), int(empty[0])])
    assert (pair.x_vars >= 0).any(axis=0).sum() == 2

def _every_assignment_in_erd_order(env, object_sn):
    """min over all C**J assignments of the ERD replay at ``object_sn``."""
    nj, nc = env.num_jobs, env.num_cns
    index = np.arange(nc ** nj)
    job_cns = index[:, None] // nc ** np.arange(nj) % nc
    object_sns = np.broadcast_to(object_sn, (job_cns.shape[0], env.num_objects))
    orders = erd_orders(env, job_cns, object_sns)
    return float(makespans_of(env, job_cns, orders, object_sns).min())


def test_erd_optimum_is_the_best_assignment_in_erd_order():
    envs = [tiny_env(seed) for seed in range(6)]
    envs += [generate(GenerationConfig(num_jobs=5, num_objects=5, num_cns=3, num_local_sns=2,
                                       num_remote_sns=2, gamma=1.3, rng_seed=seed))
             for seed in range(3)]
    envs += [_lan_bound_env(seed) for seed in range(6)]
    starts = [random_schedule(env, seed) for seed, env in enumerate(envs)]
    assert sum(_cn_orders_differ(env, s.object_sn) for env, s in zip(envs, starts)) >= 3
    for env, s in zip(envs, starts):
        mdl = build_erd_assignment(env, s)
        res = solve(mdl, budget=10.0)
        assert res.status == "optimal"
        best = _every_assignment_in_erd_order(env, s.object_sn)
        assert res.objective == pytest.approx(best, rel=1e-6)
        found = extract_schedule(mdl, res.x)
        np.testing.assert_array_equal(found.object_sn, s.object_sn)
        assert makespan_of(env, found) == pytest.approx(best, rel=1e-9)


def _every_assignment_in_order(env, order, object_sn):
    """min over all C**J assignments of the replay in ``order`` at ``object_sn``."""
    nj, nc = env.num_jobs, env.num_cns
    job_cns = np.arange(nc ** nj)[:, None] // nc ** np.arange(nj) % nc
    n = job_cns.shape[0]
    return float(makespans_of(env, job_cns, np.broadcast_to(order, (n, nj)),
                              np.broadcast_to(object_sn, (n, env.num_objects))).min())


def test_fixed_yz_optimum_is_the_best_assignment_in_the_pinned_order():
    envs = [tiny_env(seed) for seed in range(6)] + [_lan_bound_env(seed) for seed in range(6)]
    starts = [random_schedule(env, seed) for seed, env in enumerate(envs)]
    bests = [_every_assignment_in_order(env, s.order, s.object_sn)
             for env, s in zip(envs, starts)]
    # the pinned order is not ERD's: on some starts it costs makespan
    assert sum(best > _every_assignment_in_erd_order(env, s.object_sn) * (1 + 1e-9)
               for env, s, best in zip(envs, starts, bests)) >= 2
    for env, s, best in zip(envs, starts, bests):
        mdl = build_fixed_yz(env, s)
        res = solve(mdl, budget=10.0)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(best, rel=1e-9)
        found = extract_schedule(mdl, res.x)
        np.testing.assert_array_equal(found.order, s.order)
        np.testing.assert_array_equal(found.object_sn, s.object_sn)
        assert makespan_of(env, found) == pytest.approx(best, rel=1e-9)


def _every_placement(env, s):
    """min over all L**D placements of the replay under ``s``'s assignment and order."""
    nd, nl = env.num_objects, env.num_local_sns
    object_sns = np.arange(nl ** nd)[:, None] // nl ** np.arange(nd) % nl
    n = object_sns.shape[0]
    return float(makespans_of(env, np.broadcast_to(s.job_cn, (n, env.num_jobs)),
                              np.broadcast_to(s.order, (n, env.num_jobs)), object_sns).min())


def test_fixed_xy_optimum_is_the_best_placement_under_the_pinned_assignment_and_order():
    envs = [tiny_env(seed) for seed in range(6)] + [_lan_bound_env(seed) for seed in range(6)]
    envs += [generate(GenerationConfig(num_jobs=4, num_objects=6, num_cns=2, num_local_sns=3,
                                       num_remote_sns=2, objects_per_job=(1, 2), rng_seed=seed))
             for seed in range(3)]
    starts = [random_schedule(env, seed) for seed, env in enumerate(envs)]
    bests = [_every_placement(env, s) for env, s in zip(envs, starts)]
    # the start's placement is not the best one on most starts
    assert sum(best < makespan_of(env, s) for env, s, best in zip(envs, starts, bests)) >= 6
    for env, s, best in zip(envs, starts, bests):
        mdl = build_fixed_x(env, s)
        res = solve(mdl, budget=10.0)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(best, rel=1e-9)
        found = extract_schedule(mdl, res.x)
        np.testing.assert_array_equal(found.job_cn, s.job_cn)
        np.testing.assert_array_equal(found.order, s.order)
        assert makespan_of(env, found) == pytest.approx(best, rel=1e-9)


def test_check_assignment_reports_violations():
    env, s = _env_and_schedule(0)
    mdl = build_monolithic(env, warm_schedule=s)
    good = mdl.warm_x
    assert mdl.check_assignment(good) == []

    fractional = good.copy()
    fractional[mdl.names.index(f"X[0,{int(s.job_cn[0])}]")] = 0.5
    problems = mdl.check_assignment(fractional)
    assert any("not integral" in p for p in problems)

    torn = good.copy()
    torn[mdl.names.index("m")] = 0.0
    problems = mdl.check_assignment(torn)
    assert any(p.startswith("row makespan[") for p in problems)

    for bad in (np.nan, np.inf):
        broken = good.copy()
        broken[mdl.names.index("u[0]")] = bad
        problems = mdl.check_assignment(broken)
        assert any(p.startswith("u[0] = ") and "not finite" in p for p in problems)


# -- the array-native layer against the models and checks it replaced --------

_MODEL_FIELDS = (("lower", "<f8"), ("upper", "<f8"), ("integer", "|b1"),
                 ("objective", "<f8"), ("row_lower", "<f8"), ("row_upper", "<f8"),
                 ("indptr", "<i8"), ("indices", "<i8"), ("data", "<f8"))


def _fingerprint(mdl):
    h = hashlib.sha256()
    for field, dtype in _MODEL_FIELDS:
        h.update(np.ascontiguousarray(getattr(mdl, field), dtype=dtype).tobytes())
    if mdl.warm_x is not None:
        h.update(np.ascontiguousarray(mdl.warm_x, dtype="<f8").tobytes())
    h.update("\n".join(mdl.names).encode())
    h.update("\n".join(mdl.row_names).encode())
    return h.hexdigest()


def _every_builder(env, s):
    return {
        "monolithic": build_monolithic(env, warm_schedule=s),
        "fixed-yz": build_fixed_yz(env, s),
        "fixed-xy": build_fixed_x(env, s),
        "fixed-xyz": build_fixed_all(env, s),
        "erd-assignment": build_erd_assignment(env, s),
    }


# sha256 of every array, the warm start and all names
_FINGERPRINTS = {
    # the placement model without pinned X/Y or unread objects: recorded as
    # first built, after it reached the old model's optimum on small seeds
    # 0-9 and medium 0-2
    ("tiny", "fixed-xy"): "a7a67d9104824c1f29d3c8a85bb067cde0aecaa29a8992d21f8aa43f1b072ce4",
    ("tiny", "fixed-xyz"): "9998ea678c4c30ead3fa97b643021d56050b782293ec90a4182882e0e0f2107e",
    ("small", "fixed-xy"): "e66d592fe2408cc04863426ba562f5ff9cc8f3498e572774c34a2d55c44b8f52",
    ("small", "fixed-xyz"): "f9015ec7574a1d6576064edcd2d4199d23486c6b38753a20fe07d30c39ebd2fd",
    # the two tail models have no per-row predecessor: recorded as first built
    ("tiny", "erd-assignment"): "aaabeab441c2ecabeee64db5f6d265025ab85d76e57728821cc6f3fb055d1637",
    ("small", "erd-assignment"): "0a0574d942ba4c81c221004d3b25223d059d8826c03656a89cd8bffed0096203",
    ("tiny", "fixed-yz"): "2ddce8a194baee9c72fd063445871ac37caebb5cc9890ec4c0f36560312c19a2",
    ("small", "fixed-yz"): "fa94d07d70de45773cd41c25a39b8e6882595c96535e42661f4c244c047225dd",
    # the joint model with switched-off rows instead of product variables:
    # recorded as first built
    ("tiny", "monolithic"): "cc1fa5b93f0710e44a9d694c89640293483eecbf7a50aa6bf6d1ed0cc088d3e3",
    ("small", "monolithic"): "9e50293e5834c1613be65d286945266ac2fa1a893a4db25dd7756e964fe8be1f",
}


def test_block_emitted_models_match_recorded_fingerprints():
    envs = {"tiny": tiny_env(3), "small": generate(preset_config("small"), seed=0)}
    got = {}
    for label, env in envs.items():
        for kind, mdl in _every_builder(env, random_schedule(env, 3)).items():
            got[label, kind] = _fingerprint(mdl)
    assert got == _FINGERPRINTS


def test_checking_a_point_leaves_the_model_as_built():
    # the check reads the arrays a backend reads; it must not reorder them
    env = generate(preset_config("small"), seed=0)
    for kind, mdl in _every_builder(env, random_schedule(env, 0)).items():
        indices, data = mdl.indices.copy(), mdl.data.copy()
        point = mdl.warm_x if mdl.warm_x is not None else np.zeros(mdl.num_vars)
        mdl.check_assignment(point)
        # the check sums each row by np.add.reduceat, which needs every row non-empty
        assert np.diff(mdl.indptr).min() >= 1, kind
        assert np.array_equal(mdl.indices, indices) and np.array_equal(mdl.data, data), kind
        for field, _ in _MODEL_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(mdl, field)[0] = 0


def _loop_check(mdl, x, tol=1e-6):
    """Row-by-row reference check: (flagged var names, flagged row names, unsure rows).

    A row is unsure when its activity lies within 1e-12 relative of a
    threshold, where summation order alone can flip the verdict.
    """
    flagged = set()
    for i in np.flatnonzero(mdl.integer):
        if abs(x[i] - round(x[i])) > tol:
            flagged.add(mdl.names[i])
    scale = np.maximum(1.0, np.maximum(np.abs(mdl.lower), np.abs(mdl.upper)))
    scale[~np.isfinite(scale)] = 1.0
    for i in np.flatnonzero((x < mdl.lower - tol * scale) | (x > mdl.upper + tol * scale)):
        flagged.add(mdl.names[i])
    rows, unsure = set(), set()
    for r in range(mdl.num_rows):
        span = slice(mdl.indptr[r], mdl.indptr[r + 1])
        cols, coefs = mdl.indices[span], mdl.data[span]
        terms = coefs * x[cols]
        act = terms.sum()
        slack = tol * max(1.0, np.abs(terms).sum())
        lo, hi = mdl.row_lower[r] - slack, mdl.row_upper[r] + slack
        if act < lo or act > hi:
            rows.add(mdl.row_names[r])
        near = 1e-12 * max(1.0, abs(act))
        if abs(act - lo) <= near or abs(act - hi) <= near:
            unsure.add(mdl.row_names[r])
    return flagged, rows, unsure


def _vector_check(mdl, x):
    flagged, rows = set(), set()
    for problem in mdl.check_assignment(x):
        if problem.startswith("row "):
            rows.add(re.match(r"row (\S+): activity", problem).group(1))
        else:
            flagged.add(problem.split(" = ", 1)[0])
    return flagged, rows


@settings(max_examples=60, deadline=None)
@given(env_seed=st.integers(0, 30), kind=st.sampled_from(sorted({k for _, k in _FINGERPRINTS})),
       noise_seed=st.integers(0, 2**32 - 1), moved=st.integers(1, 40),
       spread=st.sampled_from([1e-9, 1e-6, 1e-3, 1.0, 1e3]))
def test_vector_check_flags_what_the_row_loop_flags(env_seed, kind, noise_seed, moved, spread):
    env = tiny_env(env_seed)
    models = _every_builder(env, random_schedule(env, env_seed))
    mdl = models[kind]
    # the monolithic warm start names every variable of the family
    mono = models["monolithic"]
    at = {name: i for i, name in enumerate(mono.names)}
    x = mono.warm_x[[at[name] for name in mdl.names]]
    rng = np.random.default_rng(noise_seed)
    at = rng.choice(mdl.num_vars, size=min(moved, mdl.num_vars), replace=False)
    x[at] += spread * rng.standard_normal(at.size) * np.maximum(1.0, np.abs(x[at]))
    flips = at[mdl.integer[at] & (rng.random(at.size) < 0.3)]
    x[flips] = 1.0 - np.round(x[flips])

    want_vars, want_rows, unsure = _loop_check(mdl, x)
    got_vars, got_rows = _vector_check(mdl, x)
    assert got_vars == want_vars
    assert got_rows - unsure == want_rows - unsure
