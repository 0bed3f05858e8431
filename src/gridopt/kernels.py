"""Pipeline-replay kernels.

The replay walks jobs in priority order and simulates overlapped transfer
and execution on each CN queue.  It comes in two forms with one semantics,
both reading the environment's delay model:

* :func:`replay`, the scalar reference loop over one schedule;
* :func:`replay_batch`, the CN finish times of B schedules at once, for
  callers that score many candidates (the genetic baseline, brute force).

Replication delays come from ``env.replication_delay``.  The scalar loop
does its own LAN and compute arithmetic, which makes it the reference the
environment's tables are tested against; :func:`job_pairs` divides per input
for its LAN transfers, so no (D, L, C) table is formed on the hot path.

:func:`job_pairs` is the one per-job reduction.  A job that starts at ``s``
has input ``m`` on its CN at ``fl(max(s, r_m) + t_m)`` (replica landed at
``r_m``, LAN transfer ``t_m``).  Rounded addition is non-decreasing in each
operand, so the max over inputs equals ``max(fl(s + slowest), latest)`` bit
for bit, with ``slowest = max_m t_m`` and ``latest = max_m fl(r_m + t_m)``.
Neither depends on ``s``, so :func:`replay_batch` and the greedy dispatch
walk their queues with one pair per job and stay bit-identical to the loop.

The pair also settles the order.  A job finishes at
``max(free, latest - slowest) + (slowest + length)``, so once the assignment
and placement are fixed each CN is a single machine with release dates
``latest - slowest`` (1|r_j|Cmax), and earliest release date first
(:func:`erd_orders`) is optimal for it (Jackson's rule), up to the rounding
of ``latest - slowest``.
"""

from __future__ import annotations

import numpy as np


def replay(env, schedule):
    """Scalar-loop replay of ``schedule`` on ``env``, the reference semantics.

    Returns (exec_start u, ready v, exec_length e, makespan), with u/v/e
    indexed by job id.  Each job walks its column of ``env.input_table``,
    whose padding repeats the first input and so never moves the ready
    time.  The arrays are read as Python lists, so the loop does plain float
    arithmetic: the same IEEE double operations in the same order as on
    numpy scalars, without their per-element boxing.
    """
    order, job_cn = schedule.order.tolist(), schedule.job_cn.tolist()
    object_sn = schedule.object_sn.tolist()
    t_remote = env.replication_delay[np.arange(env.num_objects),
                                     schedule.object_sn].tolist()
    inputs = env.input_table.T.tolist()
    sizes, job_kb = env.object_sizes.tolist(), env.job_input_sizes.tolist()
    lan_bw, speeds, gamma = env.lan_bandwidth.tolist(), env.cn_speeds.tolist(), env.gamma
    n_jobs = len(order)
    cn_free = [0.0] * len(speeds)
    u = [0.0] * n_jobs
    v = [0.0] * n_jobs
    e = [0.0] * n_jobs
    makespan = 0.0
    for j in order:
        c = job_cn[j]
        start = cn_free[c]
        ready = start
        for d in inputs[j]:
            # transfer to the CN can begin only once the CN is free for this
            # job and the object's replica has landed on its local SN
            begin = start if start > t_remote[d] else t_remote[d]
            done = begin + sizes[d] / lan_bw[object_sn[d]][c]
            if done > ready:
                ready = done
        length = gamma * job_kb[j] / speeds[c]
        u[j] = start
        v[j] = ready
        e[j] = length
        cn_free[c] = ready + length
        if cn_free[c] > makespan:
            makespan = cn_free[c]
    return (np.array(u, dtype=np.float64), np.array(v, dtype=np.float64),
            np.array(e, dtype=np.float64), makespan)


def job_pairs(env, job_cns, object_sns):
    """(B, J) tables of each job's slowest LAN transfer and latest arrival.

    ``job_cns`` is (B, J) and ``object_sns`` (B, D), int64; row b stages the
    objects at ``object_sns[b]`` and runs job j on CN ``job_cns[b, j]``.
    """
    in_ids = env.input_table
    # (B, M, J) flat lan_bandwidth index of each input's SN and its job's CN
    lan_at = np.take(object_sns, in_ids, axis=1)
    lan_at *= env.num_cns
    lan_at += job_cns[:, None]
    transfer = env.object_sizes[in_ids] / np.take(env.lan_bandwidth, lan_at)
    t_remote = env.replication_delay[np.arange(env.num_objects), object_sns]
    arrival = np.take(t_remote, in_ids, axis=1)
    arrival += transfer
    return transfer.max(axis=1), arrival.max(axis=1)


def erd_orders(env, job_cns, object_sns):
    """(B, J) orders by release ``latest - slowest``, ties to the lower job id."""
    slowest, latest = job_pairs(env, job_cns, object_sns)
    return np.argsort(latest - slowest, axis=1, kind="stable")


def replay_batch(env, job_cns, orders, object_sns):
    """(B, C) CN finish times of B schedules, bit-identical to :func:`replay`.

    ``job_cns`` is (B, J) and ``orders`` (B, K), K <= J, which replays
    only the jobs it lists; ``object_sns`` is (B, D), all int64.  The
    :func:`job_pairs` tables are laid out by priority position through one
    flat index, and the walk over the positions carries the B CN queues
    forward in a few (B,)-vector operations each.  A CN with no job
    finishes at 0.
    """
    slowest, latest = job_pairs(env, job_cns, object_sns)
    n_batch, n_jobs = job_cns.shape
    n_cns = env.num_cns
    # (K, B) flat index of the job at each priority position
    at = (orders + n_jobs * np.arange(n_batch)[:, None]).T
    slowest, latest = np.take(slowest, at), np.take(latest, at)
    cns = np.take(job_cns, at)
    length = env.exec_time[orders.T, cns]
    slots = cns + n_cns * np.arange(n_batch)
    cn_free = np.zeros(n_batch * n_cns, dtype=np.float64)
    for slot, slow, late, run in zip(slots, slowest, latest, length):
        cn_free[slot] = np.maximum(cn_free[slot] + slow, late) + run
    return cn_free.reshape(n_batch, n_cns)


def backend_name() -> str:
    """Name of the replay implementation, recorded in benchmark provenance."""
    return "loops"
