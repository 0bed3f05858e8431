"""Pipeline-replay kernels.

The replay walks jobs in priority order and simulates overlapped transfer
and execution on each CN queue.  It comes in two forms with one semantics:

* :func:`replay`, the scalar reference loop over one schedule;
* :func:`replay_batch`, the makespans of B schedules at once, for callers
  that score many candidates (the genetic baseline, brute force).

:func:`replay` takes arrays only:

    order      (J,) int64   job ids, highest priority first
    job_cn     (J,) int64   CN id per job
    obj_ids    (sum |O_j|,) int64   flattened job input ids
    obj_off    (J+1,) int64 offsets into obj_ids per job
    object_sn  (D,) int64   local SN id per object
    t_remote   (D,) float64 replication finish time per object
    sizes      (D,) float64 object sizes, KB
    lan_bw     (L, C) float64
    speeds     (C,) float64
    gamma      float64

Return: (exec_start u, ready v, exec_length e, makespan), with u/v/e indexed
by job id.
"""

from __future__ import annotations

import numpy as np


def replay(order, job_cn, obj_ids, obj_off, object_sn, t_remote,
           sizes, lan_bw, speeds, gamma):
    """Scalar-loop replay, the reference semantics."""
    n_jobs = order.shape[0]
    n_cns = speeds.shape[0]
    cn_free = np.zeros(n_cns, dtype=np.float64)
    u = np.zeros(n_jobs, dtype=np.float64)
    v = np.zeros(n_jobs, dtype=np.float64)
    e = np.zeros(n_jobs, dtype=np.float64)
    makespan = 0.0
    for k in range(n_jobs):
        j = order[k]
        c = job_cn[j]
        start = cn_free[c]
        ready = start
        total_kb = 0.0
        for idx in range(obj_off[j], obj_off[j + 1]):
            d = obj_ids[idx]
            # transfer to the CN can begin only once the CN is free for this
            # job and the object's replica has landed on its local SN
            begin = start if start > t_remote[d] else t_remote[d]
            done = begin + sizes[d] / lan_bw[object_sn[d], c]
            if done > ready:
                ready = done
            total_kb += sizes[d]
        length = gamma * total_kb / speeds[c]
        u[j] = start
        v[j] = ready
        e[j] = length
        cn_free[c] = ready + length
        if cn_free[c] > makespan:
            makespan = cn_free[c]
    return u, v, e, makespan


def replay_batch(orders, job_cns, object_sns, in_ids, in_mask, job_kb,
                 t_remote, sizes, lan_bw, speeds, gamma):
    """Makespans of B schedules, bit-identical to :func:`replay`.

    ``orders`` and ``job_cns`` are (B, J), ``object_sns`` and ``t_remote``
    (B, D); ``in_ids``/``in_mask`` are the (J, M) padded input table and its
    mask, and ``job_kb`` the (J,) input KB per job summed in input order.
    Everything that does not depend on when a CN frees up is gathered once,
    laid out by priority position; the loop over the J positions then only
    carries the B CN queues forward.  Every float operation is the one the
    scalar loop does, on the same operands, so results match to the bit.
    """
    n_batch, n_jobs = orders.shape
    n_cns = speeds.shape[0]
    cns = np.take_along_axis(job_cns, orders, axis=1)             # (B, J)
    ids = in_ids[orders]                                          # (B, J, M)
    flat = ids.reshape(n_batch, -1)
    shape = ids.shape
    ready_at = np.take_along_axis(t_remote, flat, axis=1).reshape(shape)
    sn = np.take_along_axis(object_sns, flat, axis=1).reshape(shape)
    transfer = sizes[ids] / lan_bw[sn, cns[:, :, None]]
    # padded inputs become -inf and never win a max
    real = in_mask[orders]
    ready_at = np.where(real, ready_at, -np.inf).transpose(1, 0, 2).copy()
    transfer = np.where(real, transfer, -np.inf).transpose(1, 0, 2).copy()
    length = (gamma * job_kb[orders] / speeds[cns]).T.copy()      # (J, B)
    slots = (cns + n_cns * np.arange(n_batch)[:, None]).T.copy()  # (J, B)
    cn_free = np.zeros(n_batch * n_cns, dtype=np.float64)
    for k in range(n_jobs):
        slot = slots[k]
        start = cn_free[slot]
        done = np.maximum(start[:, None], ready_at[k])
        done += transfer[k]
        cn_free[slot] = np.maximum(start, done.max(axis=1)) + length[k]
    return cn_free.reshape(n_batch, n_cns).max(axis=1)


def backend_name() -> str:
    """Name of the replay implementation, recorded in benchmark provenance."""
    return "loops"
