import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import gridopt
from gridopt.environment import GenerationConfig, GridEnvironment, generate


def tiny_config(seed: int) -> GenerationConfig:
    # 2**3 assignments * 2**3 placements = 64 candidates, each ordered by ERD
    return GenerationConfig(num_jobs=3, num_objects=3, num_cns=2,
                            num_local_sns=2, num_remote_sns=2,
                            objects_per_job=(1, 2), rng_seed=seed)


def tiny_env(seed: int) -> GridEnvironment:
    return generate(tiny_config(seed))


@pytest.fixture
def env_tiny():
    return tiny_env(0)


@pytest.fixture
def env_single_job():
    # one job, one object; every number chosen so the timings are exact:
    # replication 10240/1024 = 10 s, LAN 10240/10240 = 1 s, exec 10240/5120 = 2 s
    return GridEnvironment(
        object_sizes=[10240.0],
        hosting=[0],
        job_inputs=((0,),),
        cn_speeds=[5120.0],
        wan_bandwidth=[[1024.0]],
        lan_bandwidth=[[10240.0]],
        gamma=1.0,
    )


@pytest.fixture
def env_two_jobs():
    # two copies of the single-job setup sharing the one CN
    return GridEnvironment(
        object_sizes=[10240.0, 10240.0],
        hosting=[0, 0],
        job_inputs=((0,), (1,)),
        cn_speeds=[5120.0],
        wan_bandwidth=[[1024.0]],
        lan_bandwidth=[[10240.0]],
        gamma=1.0,
    )


@pytest.fixture(scope="session")
def env_small():
    from gridopt.environment import preset_config
    return generate(preset_config("small"), seed=0)


def random_env(rng) -> GridEnvironment:
    """A small random environment with randomized dimensions."""
    cfg = GenerationConfig(
        num_jobs=int(rng.integers(1, 6)),
        num_objects=int(rng.integers(1, 7)),
        num_cns=int(rng.integers(1, 5)),
        num_local_sns=int(rng.integers(1, 5)),
        num_remote_sns=int(rng.integers(1, 4)),
        rng_seed=int(rng.integers(0, 2**31)),
        gamma=float(rng.uniform(0.5, 2.0)),
    )
    return generate(cfg)


# up to 12 inputs per job: from eight on, a pairwise sum of the input sizes
# would round differently from the loop's running sum; gamma is drawn so that
# the order of the compute arithmetic (gamma * KB / speed) shows
grids = st.builds(
    lambda env_seed, num_jobs, num_objects, num_cns, num_local_sns, max_inputs, gamma:
    generate(GenerationConfig(num_jobs=num_jobs, num_objects=num_objects, num_cns=num_cns,
                              num_local_sns=num_local_sns, num_remote_sns=2,
                              objects_per_job=(1, min(max_inputs, num_objects)),
                              gamma=gamma, rng_seed=env_seed)),
    env_seed=st.integers(0, 2**31 - 1), num_jobs=st.integers(1, 8),
    num_objects=st.integers(1, 12), num_cns=st.integers(1, 4),
    num_local_sns=st.integers(1, 3), max_inputs=st.integers(1, 12),
    gamma=st.floats(0.5, 2.0))


def run_python(*args) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter importing this gridopt."""
    src = str(Path(gridopt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)).rstrip(os.pathsep)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
