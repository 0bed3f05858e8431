import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gridopt import kernels
from gridopt.environment import GenerationConfig, generate
from gridopt.evaluator import evaluate, makespans_of, replay_arguments
from gridopt.schedule import random_schedule

from conftest import random_env


def _workloads(n=25):
    rng = np.random.default_rng(11)
    out = []
    for _ in range(n):
        env = random_env(rng)
        out.append((env, random_schedule(env, rng)))
    return out


def _loop_makespans(env, schedules):
    return np.array([kernels.replay(*replay_arguments(env, s))[3] for s in schedules])


def _batch_makespans(env, schedules):
    return makespans_of(env, np.stack([s.job_cn for s in schedules]),
                        np.stack([s.order for s in schedules]),
                        np.stack([s.object_sn for s in schedules]))


def test_batch_and_loop_paths_agree():
    for env, schedule in _workloads():
        np.testing.assert_array_equal(_batch_makespans(env, [schedule]),
                                      _loop_makespans(env, [schedule]))


# up to 12 inputs per job: from eight on, a pairwise sum of the input sizes
# would round differently from the loop's running sum
grids = st.builds(
    lambda env_seed, num_jobs, num_objects, num_cns, num_local_sns, max_inputs: generate(
        GenerationConfig(num_jobs=num_jobs, num_objects=num_objects, num_cns=num_cns,
                         num_local_sns=num_local_sns, num_remote_sns=2,
                         objects_per_job=(1, min(max_inputs, num_objects)),
                         rng_seed=env_seed)),
    env_seed=st.integers(0, 2**31 - 1), num_jobs=st.integers(1, 8),
    num_objects=st.integers(1, 12), num_cns=st.integers(1, 4),
    num_local_sns=st.integers(1, 3), max_inputs=st.integers(1, 12))


@settings(max_examples=80, deadline=None)
@given(env=grids, batch=st.integers(1, 6), schedule_seed=st.integers(0, 2**31 - 1))
def test_batch_replay_equals_the_scalar_loop_exactly(env, batch, schedule_seed):
    rng = np.random.default_rng(schedule_seed)
    schedules = [random_schedule(env, rng) for _ in range(batch)]
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
    t_remote = env.object_sizes / env.wan_bandwidth[env.hosting, s.object_sn]
    for j, inputs in enumerate(env.job_inputs):
        c = s.job_cn[j]
        arrivals = [max(u[j], t_remote[d])
                    + env.object_sizes[d] / env.lan_bandwidth[s.object_sn[d], c]
                    for d in inputs]
        np.testing.assert_allclose(v[j], max(arrivals), rtol=1e-12, atol=0.0)
        kb = sum(env.object_sizes[d] for d in inputs)
        np.testing.assert_allclose(e[j], env.gamma * kb / env.cn_speeds[c],
                                   rtol=1e-12, atol=0.0)
    assert rep.makespan == max(v + e)
