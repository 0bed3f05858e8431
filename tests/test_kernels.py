import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridopt import kernels
from gridopt.environment import GenerationConfig, generate
from gridopt.evaluator import makespans_of, replay_arguments
from gridopt.schedule import random_schedule

from conftest import random_env, tiny_env


def _workloads(n=25):
    rng = np.random.default_rng(11)
    out = []
    for _ in range(n):
        env = random_env(rng)
        out.append((env, random_schedule(env, rng)))
    return out


def _loop_makespans(env, schedules):
    return np.array([kernels.replay_loops(*replay_arguments(env, s))[3] for s in schedules])


def _batch_makespans(env, schedules):
    return makespans_of(env, np.stack([s.job_cn for s in schedules]),
                        np.stack([s.order for s in schedules]),
                        np.stack([s.object_sn for s in schedules]))


def test_batch_and_loop_paths_agree():
    for env, schedule in _workloads():
        np.testing.assert_array_equal(_batch_makespans(env, [schedule]),
                                      _loop_makespans(env, [schedule]))


@settings(max_examples=80, deadline=None)
@given(env_seed=st.integers(0, 2**31 - 1), num_jobs=st.integers(1, 8),
       num_objects=st.integers(1, 12), num_cns=st.integers(1, 4),
       num_local_sns=st.integers(1, 3), max_inputs=st.integers(1, 12),
       batch=st.integers(1, 6), schedule_seed=st.integers(0, 2**31 - 1))
def test_batch_replay_equals_the_scalar_loop_exactly(env_seed, num_jobs, num_objects,
                                                     num_cns, num_local_sns, max_inputs,
                                                     batch, schedule_seed):
    # up to 12 inputs per job: from eight on, a pairwise sum of the input
    # sizes would round differently from the loop's running sum
    env = generate(GenerationConfig(
        num_jobs=num_jobs, num_objects=num_objects, num_cns=num_cns,
        num_local_sns=num_local_sns, num_remote_sns=2,
        objects_per_job=(1, min(max_inputs, num_objects)), rng_seed=env_seed))
    rng = np.random.default_rng(schedule_seed)
    schedules = [random_schedule(env, rng) for _ in range(batch)]
    np.testing.assert_array_equal(_batch_makespans(env, schedules),
                                  _loop_makespans(env, schedules))


@pytest.mark.skipif(kernels.replay_jit is None, reason="numba kernel not built")
def test_jit_path_agrees_with_reference():
    for env, schedule in _workloads():
        args = replay_arguments(env, schedule)
        a = kernels.replay_loops(*args)
        c = kernels.replay_jit(*args)
        for x, y in zip(a, c):
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=0.0)


def test_active_kernel_is_one_of_the_two():
    assert kernels.replay in (kernels.replay_jit, kernels.replay_loops)
    assert kernels.backend_name() in ("numba", "loops")


def test_disable_flag_selects_loop_fallback():
    code = (
        "import gridopt.kernels as k; "
        "assert not k.numba_active(); "
        "assert k.backend_name() == 'loops'; "
        "assert k.replay is k.replay_loops"
    )
    env = dict(os.environ, GRIDOPT_DISABLE_NUMBA="1")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_fallback_produces_identical_results_to_active():
    env = tiny_env(3)
    args = replay_arguments(env, random_schedule(env, 0))
    active = kernels.replay(*args)
    fallback = kernels.replay_loops(*args)
    for x, y in zip(active, fallback):
        np.testing.assert_allclose(x, y, rtol=1e-12, atol=0.0)
