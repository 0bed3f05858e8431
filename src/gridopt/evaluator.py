"""Exact makespan evaluation of a schedule on an environment.

Semantics of the replay: every object's replication to its chosen local SN
starts at time zero.  Jobs are visited in priority order; a job occupies its
CN from the moment the CN frees up (u), waits for all of its inputs to reach
the CN over the LAN (ready time v, each transfer starting no earlier than u
and no earlier than the object's replication finish), then computes for
``gamma * total input KB / cn speed`` seconds.  The makespan is the largest
completion time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .environment import GridEnvironment
from .schedule import Schedule

REPORT_SCHEMA = "makespan-report/1"


@dataclass(frozen=True)
class MakespanReport:
    """Per-job timings from one replay.  Arrays are indexed by job id."""

    makespan: float
    exec_start: np.ndarray      # u: CN became available to the job
    ready: np.ndarray           # v: all inputs arrived, execution begins
    exec_length: np.ndarray     # e: pure compute time
    replication_done: np.ndarray  # per object, WAN transfer finish time

    def to_document(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "makespan": self.makespan,
            "exec_start": self.exec_start.tolist(),
            "ready": self.ready.tolist(),
            "exec_length": self.exec_length.tolist(),
            "replication_done": self.replication_done.tolist(),
        }


def evaluate(env: GridEnvironment, schedule: Schedule) -> MakespanReport:
    """Validate ``schedule`` on ``env``, replay it and report exact per-job timings."""
    schedule.validate(env)
    u, v, e, makespan = kernels.replay(env, schedule)
    replicated = env.replication_delay[np.arange(env.num_objects), schedule.object_sn]
    return MakespanReport(
        makespan=float(makespan),
        exec_start=u,
        ready=v,
        exec_length=e,
        replication_done=replicated,
    )


def makespan_of(env: GridEnvironment, schedule: Schedule) -> float:
    """Makespan only, no validation; for search loops."""
    return float(kernels.replay(env, schedule)[3])


def makespans_of(env: GridEnvironment, job_cns, orders, object_sns) -> np.ndarray:
    """(B,) makespans of B schedules given as rows, no validation.

    ``job_cns`` and ``orders`` are (B, J), ``object_sns`` is (B, D); row b
    scores exactly as ``makespan_of`` scores the schedule built from it.
    """
    return kernels.replay_batch(
        env, np.asarray(job_cns, dtype=np.int64), np.asarray(orders, dtype=np.int64),
        np.asarray(object_sns, dtype=np.int64)).max(axis=1)


def compute_big_a(env: GridEnvironment) -> float:
    """Horizon constant: a strict upper bound on any achievable makespan.

    Any replay serializes, at worst, every job's slowest replication, its
    slowest LAN transfer and its slowest execution back to back, and even
    that sum never reaches this value, so constraints deactivated with it
    can never bind on a feasible point.
    """
    table = env.input_table
    worst = np.stack([env.replication_delay.max(axis=1)[table].max(axis=0),
                      env.lan_delay().max(axis=(1, 2))[table].max(axis=0),
                      env.exec_time.max(axis=1)], axis=1)    # (J, 3)
    # added job by job, left to right
    return float(np.cumsum(worst)[-1]) + 1.0
