import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridopt import kernels
from gridopt.environment import generate, preset_config
from gridopt.evaluator import evaluate, makespans_of
from gridopt.schedule import Schedule, random_schedule

from conftest import grids, random_env


def _workloads(n=25):
    rng = np.random.default_rng(11)
    out = []
    for _ in range(n):
        env = random_env(rng)
        out.append((env, random_schedule(env, rng)))
    return out


def _loop_makespans(env, schedules):
    return np.array([kernels.replay(env, s)[3] for s in schedules])


def _batch_makespans(env, schedules):
    return makespans_of(env, np.stack([s.job_cn for s in schedules]),
                        np.stack([s.order for s in schedules]),
                        np.stack([s.object_sn for s in schedules]))


def test_batch_and_loop_paths_agree():
    for env, schedule in _workloads():
        np.testing.assert_array_equal(_batch_makespans(env, [schedule]),
                                      _loop_makespans(env, [schedule]))


@settings(max_examples=80, deadline=None)
@given(env=grids, batch=st.integers(1, 6), schedule_seed=st.integers(0, 2**31 - 1))
def test_batch_replay_equals_the_scalar_loop_exactly(env, batch, schedule_seed):
    rng = np.random.default_rng(schedule_seed)
    schedules = [random_schedule(env, rng) for _ in range(batch)]
    np.testing.assert_array_equal(_batch_makespans(env, schedules),
                                  _loop_makespans(env, schedules))


def _finish_times(env, orders, schedules):
    return kernels.replay_batch(env, np.stack([s.job_cn for s in schedules]), orders,
                                np.stack([s.object_sn for s in schedules]))


@settings(max_examples=80, deadline=None)
@given(env=grids, batch=st.integers(1, 6), schedule_seed=st.integers(0, 2**31 - 1))
def test_batch_replay_reports_when_each_cn_finishes(env, batch, schedule_seed):
    rng = np.random.default_rng(schedule_seed)
    schedules = [random_schedule(env, rng) for _ in range(batch)]
    finish = _finish_times(env, np.stack([s.order for s in schedules]), schedules)
    assert finish.shape == (batch, env.num_cns)
    for row, s in zip(finish, schedules):
        rep = evaluate(env, s)
        done = rep.ready + rep.exec_length
        for c in range(env.num_cns):
            on_c = s.job_cn == c
            assert row[c] == (done[on_c].max() if on_c.any() else 0.0)
            # a CN's queue replayed on its own finishes at the same time
            queue = s.order[on_c[s.order]]
            assert _finish_times(env, queue[None], [s])[0, c] == row[c]


@pytest.mark.parametrize("preset", ["medium", "large"])
def test_batch_replay_is_exact_at_benchmark_scale(preset):
    # the Hypothesis grids stop at 8 jobs on 4 CNs; this is 50 on 20 and
    # 100 on 50, plus one batch that queues every job on a single CN
    env = generate(preset_config(preset), seed=0)
    rng = np.random.default_rng(5)
    spread = [random_schedule(env, rng) for _ in range(50)]
    stacked = [Schedule(job_cn=np.full(env.num_jobs, c), order=s.order,
                        object_sn=s.object_sn)
               for c, s in zip(rng.integers(0, env.num_cns, len(spread)), spread)]
    for schedules in (spread, stacked):
        np.testing.assert_array_equal(_batch_makespans(env, schedules),
                                      _loop_makespans(env, schedules))


@settings(max_examples=80, deadline=None)
@given(env=grids, schedule_seed=st.integers(0, 2**31 - 1))
def test_replay_runs_each_cn_queue_back_to_back(env, schedule_seed):
    s = random_schedule(env, schedule_seed)
    rep = evaluate(env, s)
    u, v, e = rep.exec_start, rep.ready, rep.exec_length
    # each CN takes its jobs in priority order: the first at 0, every later
    # one exactly when the one before it completes, so runs never overlap
    # and the CN never idles between them
    for c in range(env.num_cns):
        queue = [j for j in s.order if s.job_cn[j] == c]
        ends = [v[j] + e[j] for j in queue]
        assert [u[j] for j in queue] == ([0.0] + ends)[:len(queue)]
    # the timings are the environment's delay tables, bit for bit
    replicated, lan = env.replication_delay, env.lan_delay()
    for d, sn in enumerate(s.object_sn):
        assert rep.replication_done[d] == replicated[d, sn]
    for j, inputs in enumerate(env.job_inputs):
        c = s.job_cn[j]
        assert e[j] == env.exec_time[j, c]
        assert v[j] == max(max(u[j], rep.replication_done[d]) + lan[d, s.object_sn[d], c]
                           for d in inputs)
    assert rep.makespan == max(v + e)


def _random_pairs(env, batch, seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, env.num_cns, size=(batch, env.num_jobs)),
            rng.integers(0, env.num_local_sns, size=(batch, env.num_objects)))


@settings(max_examples=80, deadline=None)
@given(env=grids, batch=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
def test_job_pairs_reduce_each_jobs_inputs_over_the_delay_tables(env, batch, seed):
    job_cns, object_sns = _random_pairs(env, batch, seed)
    slowest, latest = kernels.job_pairs(env, job_cns, object_sns)
    assert slowest.shape == latest.shape == (batch, env.num_jobs)
    replicated, lan = env.replication_delay, env.lan_delay()
    for b in range(batch):
        sn = object_sns[b]
        for j, inputs in enumerate(env.job_inputs):
            c = job_cns[b, j]
            assert slowest[b, j] == max(lan[d, sn[d], c] for d in inputs)
            assert latest[b, j] == max(replicated[d, sn[d]] + lan[d, sn[d], c]
                                       for d in inputs)


@settings(max_examples=60, deadline=None)
@given(env=grids.filter(lambda env: env.num_jobs <= 6), seed=st.integers(0, 2**31 - 1))
def test_erd_order_is_as_good_as_every_order(env, seed):
    job_cns, object_sns = _random_pairs(env, 1, seed)
    erd = kernels.erd_orders(env, job_cns, object_sns)
    assert sorted(erd[0].tolist()) == list(range(env.num_jobs))
    # the reference: every one of the J! orders
    every = np.array(list(itertools.permutations(range(env.num_jobs))), dtype=np.int64)
    n = len(every)
    best = makespans_of(env, np.repeat(job_cns, n, axis=0), every,
                        np.repeat(object_sns, n, axis=0)).min()
    assert makespans_of(env, job_cns, erd, object_sns)[0] <= best * (1 + 1e-12)


@settings(max_examples=80, deadline=None)
@given(env=grids, batch=st.integers(1, 4), seed=st.integers(0, 2**31 - 1))
def test_erd_finish_times_have_the_single_machine_closed_form(env, batch, seed):
    # a CN taking its jobs by release rho = latest - slowest, each busy for
    # q = slowest + length, finishes at max_k (max(rho_k, 0) + sum_{j >= k} q_j)
    job_cns, object_sns = _random_pairs(env, batch, seed)
    orders = kernels.erd_orders(env, job_cns, object_sns)
    finish = kernels.replay_batch(env, job_cns, orders, object_sns)
    slowest, latest = kernels.job_pairs(env, job_cns, object_sns)
    rho = latest - slowest
    q = slowest + env.exec_time[np.arange(env.num_jobs), job_cns]
    for b in range(batch):
        for c in range(env.num_cns):
            queue = [j for j in orders[b] if job_cns[b, j] == c]
            assert [rho[b, j] for j in queue] == sorted(rho[b, j] for j in queue)
            closed = max((max(rho[b, k], 0.0) + q[b, queue[i:]].sum()
                          for i, k in enumerate(queue)), default=0.0)
            np.testing.assert_allclose(finish[b, c], closed, rtol=1e-12)
