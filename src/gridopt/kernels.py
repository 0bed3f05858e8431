"""Pipeline-replay kernels.

The replay walks jobs in priority order and simulates overlapped transfer
and execution on each CN queue.  It is the hot loop of the whole package:
brute force, the genetic baseline and the greedy ensembles call it up to
millions of times per run, so the reference loop implementation is compiled
with numba when available.  A vectorized numpy fallback with identical
semantics is kept alongside; set ``GRIDOPT_DISABLE_NUMBA=1`` (or any of
"true", "yes", "on") before import to force the fallback.

All kernels share one calling convention, arrays only:

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

import os

import numpy as np


def _flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in {"1", "true", "yes", "on"}


def replay_loops(order, job_cn, obj_ids, obj_off, object_sn, t_remote,
                 sizes, lan_bw, speeds, gamma):
    """Scalar-loop replay, the reference semantics (and the numba source)."""
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


def replay_numpy(order, job_cn, obj_ids, obj_off, object_sn, t_remote,
                 sizes, lan_bw, speeds, gamma):
    """Replay with the per-job inner loop vectorized over input objects."""
    n_jobs = order.shape[0]
    cn_free = np.zeros(speeds.shape[0], dtype=np.float64)
    u = np.zeros(n_jobs, dtype=np.float64)
    v = np.zeros(n_jobs, dtype=np.float64)
    e = np.zeros(n_jobs, dtype=np.float64)
    makespan = 0.0
    for j in order:
        c = job_cn[j]
        start = cn_free[c]
        ds = obj_ids[obj_off[j]:obj_off[j + 1]]
        ready = start
        total_kb = 0.0
        if ds.size:
            begin = np.maximum(start, t_remote[ds])
            done = begin + sizes[ds] / lan_bw[object_sn[ds], c]
            ready = max(start, float(done.max()))
            total_kb = float(sizes[ds].sum())
        length = gamma * total_kb / speeds[c]
        u[j] = start
        v[j] = ready
        e[j] = length
        cn_free[c] = ready + length
        makespan = max(makespan, cn_free[c])
    return u, v, e, makespan


NUMBA_DISABLED = _flag("GRIDOPT_DISABLE_NUMBA")

replay_jit = None
if not NUMBA_DISABLED:
    try:
        import numba

        replay_jit = numba.njit(cache=True)(replay_loops)
    except ImportError:  # numba comes with the optional [jit] extra
        replay_jit = None

replay = replay_jit if replay_jit is not None else replay_numpy


def numba_active() -> bool:
    """True when the compiled kernel is the one behind :func:`replay`."""
    return replay is replay_jit and replay_jit is not None


def backend_name() -> str:
    return "numba" if numba_active() else "numpy"
