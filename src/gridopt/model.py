"""MILP formulations of the joint scheduling and data-allocation problem.

Three models, each holding only the decisions it leaves free:

* :func:`build_monolithic`, the exact joint model over the assignment X,
  the order Y and the placement Z.  No product of binaries gets a variable
  of its own: precedence coupling is one big-A row per ordered job pair and
  CN, binding only where the order and both assignments hold, and each
  transfer stage is one row pair per CN, switched off by that CN's slowest
  LAN delay unless the job runs there;
* the placement model of :func:`build_fixed_x`, and of
  :func:`build_fixed_all` with Z pinned too, which takes the assignment and
  the order as data: timing rows between realized same-CN predecessors, no
  big-A, the pinned CN's LAN delays in the transfer stages, and Z only for
  the objects some job reads;
* the "tail" model of :func:`build_erd_assignment` and
  :func:`build_fixed_yz`: with the placement pinned and each CN's jobs in a
  fixed sequence, the assignment is the only decision, and the model holds
  just the makespan and the X block.  :func:`build_erd_assignment` over a
  set of CNs holds X only for the jobs on them, and computes their release
  and hold times on those CNs alone, which makes a pair sub-problem a slice
  of the grid's model, named with the grid's ids.

The emitter works on index arrays: each variable group is a block of
indices and each row family one COO block written at precomputed row
positions, in the variable and row order of the per-entity loops the
formulation reads as.  Warm starts and solver answers are vectors in that
variable order, and a schedule is read back through the X, Y and Z index
blocks a model keeps, the rest from the schedule it was built from or, for
an ERD order, :func:`kernels.erd_orders`.
Variable and row names are formatted on demand, for messages and
inspection only.
"""

from __future__ import annotations

import functools

import numpy as np

from .environment import GridEnvironment, _frozen, echo
from .evaluator import compute_big_a, evaluate
from .kernels import erd_orders, job_pairs, replay
from .schedule import Schedule


# Tolerance of check_assignment: absolute for integrality, relative to the
# bound's magnitude for bounds and to |A| @ |x| for rows.
CHECK_TOL = 1e-6


class MilpModel:
    """A built model: variables, rows in CSR form, objective, warm start.

    Each ``build_*`` function emits its variables into ``var`` and its rows
    into ``rows`` (passing their ``csr`` when it already has it) and
    returns the model of them that minimizes the variable ``m``.  Its arrays
    are read-only, so what a backend reads is what was built.  Variable and
    row names are formatted on the first read of ``names`` or ``row_names``
    (a violation message or a caller's inspection), so building, solving
    and extracting from a model that checks out never formats a name.

    ``warm_x`` is the read-only warm-start vector, or None.  ``x_vars``
    (J, C), ``y_vars`` (J, J) and ``z_vars`` (D, L) hold the variable index
    of each ``X[j,c]``, ``Y[i,j]`` and ``Z[d,l]``, -1 where there is no such
    variable (the diagonal of ``y_vars``; the objects no job reads in the
    placement model; X outside the CNs and jobs of a pair model), and a
    block the model does not hold is None.  Only ``monolithic`` holds all
    three.  Every other model keeps the ``schedule`` it was built from: the
    placement model (``fixed-xy``, ``fixed-xyz``) holds only Z, and a tail
    model (``erd-assignment``, ``fixed-yz``) only X.  ``env`` is the grid
    the model was built from, which orders an ``erd-assignment`` model's
    extracted schedule.
    """

    def __init__(self, kind, env, var, rows, m, warm_x, x_vars=None, y_vars=None,
                 z_vars=None, schedule=None, csr=None):
        self.kind, self.env = kind, env
        self._var_namer, self._row_namer = var.namer(), rows.namer()
        self.lower = _frozen(np.concatenate(var.lower), np.float64)
        self.upper = _frozen(np.concatenate(var.upper), np.float64)
        self.integer = _frozen(np.concatenate(var.integer), bool)
        objective = np.zeros(var.count)
        objective[m] = 1.0
        self.objective = _frozen(objective, np.float64)
        row_lower, row_upper, indptr, indices, data = rows.csr() if csr is None else csr
        self.row_lower = _frozen(row_lower, np.float64)
        self.row_upper = _frozen(row_upper, np.float64)
        self.indptr = _frozen(indptr, np.int64)
        self.indices = _frozen(indices, np.int64)
        self.data = _frozen(data, np.float64)
        self.warm_x = warm_x
        self.x_vars, self.y_vars, self.z_vars = x_vars, y_vars, z_vars
        self.schedule = schedule

    @property
    def num_vars(self) -> int:
        return self.lower.size

    @functools.cached_property
    def names(self) -> list[str]:
        return self._var_namer()

    @property
    def num_rows(self) -> int:
        return self.row_lower.size

    @functools.cached_property
    def row_names(self) -> list[str]:
        return self._row_namer()

    @property
    def warm_start(self) -> dict[str, float] | None:
        """Name -> value view of ``warm_x``, formatted on every read."""
        if self.warm_x is None:
            return None
        return dict(zip(self.names, self.warm_x.tolist()))

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.objective @ x)

    def check_assignment(self, x: np.ndarray) -> list[str]:
        """Constraint, bound and integrality violations of a variable vector.

        Returns human-readable violation strings, empty when the point is
        feasible.  Every row is checked at once, from the model's own CSR
        arrays: activities are ``A @ x`` and each row's slack is
        ``CHECK_TOL * max(1, |A| @ |x|)``, so rows carrying the big-A
        constant are not judged more harshly than their arithmetic allows.
        Non-finite values are violations of their own, and a vector not of
        shape ``(num_vars,)`` is one violation.
        """
        if np.shape(x) != (self.num_vars,):
            return [f"x has shape {np.shape(x)}, not ({self.num_vars},)"]
        finite = np.isfinite(x)
        problems = [f"{self.names[i]} = {x[i]!r} is not finite"
                    for i in np.flatnonzero(~finite)]
        xf = np.where(finite, x, 0.0)
        fractional = self.integer & (np.abs(xf - np.round(xf)) > CHECK_TOL)
        problems += [f"{self.names[i]} = {x[i]!r} is not integral"
                     for i in np.flatnonzero(fractional)]
        scale = np.maximum(1.0, np.maximum(np.abs(self.lower), np.abs(self.upper)))
        scale[~np.isfinite(scale)] = 1.0
        low = x < self.lower - CHECK_TOL * scale
        high = x > self.upper + CHECK_TOL * scale
        problems += [f"{self.names[i]} = {x[i]!r} outside bounds "
                     f"[{self.lower[i]!r}, {self.upper[i]!r}]"
                     for i in np.flatnonzero(low | high)]
        terms = self.data * x[self.indices]
        act = _row_sums(self.indptr, terms)
        slack = CHECK_TOL * np.maximum(1.0, _row_sums(self.indptr, np.abs(terms)))
        bad = (act < self.row_lower - slack) | (act > self.row_upper + slack)
        problems += [f"row {self.row_names[r]}: activity {act[r]!r} outside "
                     f"[{self.row_lower[r]!r}, {self.row_upper[r]!r}]"
                     for r in np.flatnonzero(bad)]
        return problems


def _row_sums(indptr, terms) -> np.ndarray:
    """Per-row sums of ``terms``, one value per stored entry in CSR order.

    ``np.add.reduceat`` would misread a row with no entries; every row a
    builder emits has at least one.
    """
    return np.add.reduceat(terms, indptr[:-1])


def _labels(fmt, keys) -> list[str]:
    """``fmt`` filled with each tuple of ``keys``, one label per entry."""
    return [fmt.format(*key) for key in zip(*(np.asarray(k).tolist() for k in keys))]


def _as_columns(a) -> np.ndarray:
    a = np.asarray(a)
    return a if a.ndim == 2 else a.reshape(-1, 1)


class _Named:
    """Entries numbered in the order they are reserved, named on demand.

    Each labelled span records (positions, format, keys); the name of the
    entry at ``positions[k]`` is the format filled with ``keys[.][k]``.
    """

    def __init__(self):
        self.count = 0
        self.labels = []

    def reserve(self, *shape) -> np.ndarray:
        """Positions for a span of ``prod(shape)`` entries, in that shape."""
        start = self.count
        self.count += int(np.prod(shape))
        return np.arange(start, self.count).reshape(shape)

    def namer(self):
        """Zero-argument callable producing every name in position order."""
        labels, count = self.labels, self.count

        def names():
            out = [""] * count
            for at, fmt, keys in labels:
                for i, label in zip(at.tolist(), _labels(fmt, keys)):
                    out[i] = label
            return out
        return names


class _Vars(_Named):
    """Variable blocks, numbered in the order they are added."""

    def __init__(self):
        super().__init__()
        self.lower = []
        self.upper = []
        self.integer = []

    def add(self, fmt, keys, lo=0.0, hi=np.inf, is_int=False) -> np.ndarray:
        """One variable per entry of ``keys[0]``, named ``fmt`` filled with its keys."""
        at = self.reserve(len(keys[0]))
        self.lower.append(np.broadcast_to(lo, at.size))
        self.upper.append(np.broadcast_to(hi, at.size))
        self.integer.append(np.full(at.size, is_int))
        self.labels.append((at, fmt, keys))
        return at

    def binaries(self, fmt, keys, pins=None) -> np.ndarray:
        """Binary block; pinned entry-wise to ``pins`` (0/1) when given."""
        if pins is None:
            return self.add(fmt, keys, 0.0, 1.0, True)
        pins = np.asarray(pins, dtype=np.float64).ravel()
        return self.add(fmt, keys, pins, pins, True)


class _Rows(_Named):
    """Row families as COO blocks at precomputed row positions.

    Families that interleave (say the four per-job rows) reserve one span
    together and each take a column of its slots, which keeps the model's
    row order independent of the order families are added in.
    """

    def __init__(self):
        super().__init__()
        self.blocks = []

    def add(self, rows, name, keys, terms, lo=-np.inf, hi=np.inf):
        """One family: row ``rows[r]`` is named ``name`` filled with ``keys[.][r]``.

        ``terms`` lists (columns, coefficients) pairs.  Columns are a
        variable index shared by every row, an (n,) array with one variable
        per row, or an (n, k) array with k per row; coefficients broadcast
        against their columns the same way.
        """
        n = len(rows)
        cols, coefs = [], []
        for col, coef in terms:
            col = _as_columns(col)
            col = np.broadcast_to(col, (n, col.shape[1]))
            cols.append(col)
            coefs.append(np.broadcast_to(_as_columns(coef), col.shape))
        self.blocks.append((rows, np.hstack(cols), np.hstack(coefs),
                            np.broadcast_to(lo, n), np.broadcast_to(hi, n)))
        self.labels.append((rows, name, keys))

    def csr(self):
        """(row_lower, row_upper, indptr, indices, data) of every block."""
        width = np.zeros(self.count, dtype=np.int64)
        for rows, cols, _, _, _ in self.blocks:
            width[rows] = cols.shape[1]
        indptr = np.zeros(self.count + 1, dtype=np.int64)
        np.cumsum(width, out=indptr[1:])
        indices = np.empty(indptr[-1], dtype=np.int64)
        data = np.empty(indptr[-1], dtype=np.float64)
        row_lower = np.empty(self.count)
        row_upper = np.empty(self.count)
        for rows, cols, coefs, lo, hi in self.blocks:
            at = indptr[rows][:, None] + np.arange(cols.shape[1])
            indices[at] = cols
            data[at] = coefs
            row_lower[rows] = lo
            row_upper[rows] = hi
        return row_lower, row_upper, indptr, indices, data


def _one_hot(values, width):
    out = np.zeros((len(values), width))
    out[np.arange(len(values)), values] = 1.0
    return out


def build_monolithic(env: GridEnvironment, warm_schedule: Schedule | None = None) -> MilpModel:
    """Exact joint model: assignment, order and placement all free,
    warm-started from ``warm_schedule`` when one is given."""
    nj, nc = env.num_jobs, env.num_cns
    nd, nl = env.num_objects, env.num_local_sns
    rd, ld, exec_coef = env.replication_delay, env.lan_delay(), env.exec_time
    big_a = compute_big_a(env)

    jobs, objs = np.arange(nj), np.arange(nd)
    cns, sns = np.arange(nc), np.arange(nl)
    # ordered job pairs i != j, i-major
    off_i, off_j = np.nonzero(~np.eye(nj, dtype=bool))
    # (job, input object) pairs in job_inputs order
    in_j = np.repeat(jobs, [len(inputs) for inputs in env.job_inputs])
    in_d = np.concatenate(env.job_inputs).astype(np.int64)

    var = _Vars()
    m = var.add("m", ([0],))[0]     # the one key fills no field of "m"
    u = var.add("u[{}]", (jobs,))
    v = var.add("v[{}]", (jobs,))
    e = var.add("e[{}]", (jobs,))
    t = var.add("t[{}]", (objs,))
    x = var.binaries("X[{},{}]", (jobs.repeat(nc), np.tile(cns, nj))).reshape(nj, nc)
    y = np.full((nj, nj), -1)
    y[off_i, off_j] = var.binaries("Y[{},{}]", (off_i, off_j))
    z = var.binaries("Z[{},{}]", (objs.repeat(nl), np.tile(sns, nd))).reshape(nd, nl)

    rows = _Rows()
    slots = rows.reserve(nj, 4)
    rows.add(slots[:, 0], "makespan[{}]", (jobs,), [(m, 1.0), (v, -1.0), (e, -1.0)], lo=0.0)
    rows.add(slots[:, 1], "assign[{}]", (jobs,), [(x, 1.0)], lo=1.0, hi=1.0)
    rows.add(slots[:, 2], "exec[{}]", (jobs,), [(e, 1.0), (x, -exec_coef)], lo=0.0, hi=0.0)
    rows.add(slots[:, 3], "vu[{}]", (jobs,), [(v, 1.0), (u, -1.0)], lo=0.0)
    pair_i, pair_j = np.triu_indices(nj, 1)
    rows.add(rows.reserve(pair_i.size), "orderpair[{},{}]", (pair_i, pair_j),
             [(y[pair_i, pair_j], 1.0), (y[pair_j, pair_i], 1.0)], lo=1.0, hi=1.0)
    slots = rows.reserve(nd, 2)
    rows.add(slots[:, 0], "replica[{}]", (objs,), [(z, 1.0)], lo=1.0, hi=1.0)
    rows.add(slots[:, 1], "tdelay[{}]", (objs,), [(t, 1.0), (z, -rd)], lo=0.0, hi=0.0)

    # precedence coupling: whenever i precedes j on a shared CN, j's slot
    # starts no earlier than i completes; binds where Y[i,j] = X[i,c] =
    # X[j,c] = 1, and each 0 among them relaxes it by A
    pi, pj, pc = off_i.repeat(nc), off_j.repeat(nc), np.tile(cns, off_i.size)
    rows.add(rows.reserve(pi.size), "prec[{},{},{}]", (pi, pj, pc),
             [(u[pj], 1.0), (v[pi], -1.0), (e[pi], -1.0), (y[pi, pj], -big_a),
              (x[pi, pc], -big_a), (x[pj, pc], -big_a)], lo=-3 * big_a)
    # the transfer stages (inputs reach the CN only after replication, via
    # t_d, and not before the slot): one stage pair per CN c, the rows
    # pinning j to c would emit, relaxed by c's slowest LAN delay unless
    # X[j,c] = 1; as v_j >= t_d and v_j >= u_j hold anyway, that slack
    # switches them off
    in_c = np.tile(cns, in_d.size)
    in_j, in_d = in_j.repeat(nc), in_d.repeat(nc)
    delay = ld[in_d, :, in_c]
    big_m = delay.max(axis=1)
    keys = (in_j, in_d, in_c)
    transfer = [(z[in_d], -delay), (x[in_j, in_c], -big_m)]
    slots = rows.reserve(in_j.size, 2)
    rows.add(slots[:, 0], "stage_t[{},{},{}]", keys,
             [(v[in_j], 1.0), (t[in_d], -1.0)] + transfer, lo=-big_m)
    rows.add(slots[:, 1], "stage_u[{},{},{}]", keys,
             [(v[in_j], 1.0), (u[in_j], -1.0)] + transfer, lo=-big_m)

    warm_x = None
    if warm_schedule is not None:
        rep = evaluate(env, warm_schedule)
        pos = warm_schedule.positions()     # Y[i, j] = 1 where job i precedes job j
        warm_x = np.empty(var.count)
        warm_x[m] = rep.makespan
        warm_x[u], warm_x[v], warm_x[e] = rep.exec_start, rep.ready, rep.exec_length
        warm_x[t] = rep.replication_done
        warm_x[x] = _one_hot(warm_schedule.job_cn, nc)
        warm_x[y[off_i, off_j]] = pos[off_i] < pos[off_j]
        warm_x[z] = _one_hot(warm_schedule.object_sn, nl)
        warm_x.setflags(write=False)
    return MilpModel("monolithic", env, var, rows, m, warm_x, x, y, z)


def build_fixed_yz(env: GridEnvironment, schedule: Schedule) -> MilpModel:
    """Optimize the job-to-CN assignment under ``schedule``'s order and
    placement, warm-started from ``schedule``: the tail model with each CN's
    rows in that order, exact under any fixed sequence (Carlier 1982)."""
    schedule.validate(env)
    return _tail_model(env, schedule, "fixed-yz", priority=schedule.positions())


def build_fixed_x(env: GridEnvironment, schedule: Schedule) -> MilpModel:
    """Optimize the placement under ``schedule``'s assignment and order,
    warm-started from ``schedule`` (the data-allocation-only model)."""
    return _placement_model(env, schedule, "fixed-xy")


def build_fixed_all(env: GridEnvironment, schedule: Schedule) -> MilpModel:
    """Every decision pinned: the placement model with Z fixed by bounds,
    so only the timing variables are free.

    The LP optimum of this model equals the replayed makespan of the same
    schedule, which makes it the consistency bridge between the evaluator
    and the MILP family.
    """
    return _placement_model(env, schedule, "fixed-xyz")


def build_erd_assignment(env: GridEnvironment, schedule: Schedule, cns=None) -> MilpModel:
    """Optimize the assignment of the jobs ``schedule`` puts on ``cns``
    (distinct CN ids, one holding a job; None: every CN) among those CNs,
    under its placement, each CN running its jobs in ERD order, optimal
    there (Jackson's rule); warm-started from ``schedule``'s assignment.
    Every other job keeps its CN: over two CNs, a pair sub-problem."""
    schedule.validate(env)
    ids = np.asarray(cns)
    # ids are distinct grid CNs exactly when as many grid CNs are among them
    if cns is not None and not (ids.ndim == 1 and ids.dtype.kind in "iu"
                                and len(set(ids.tolist()) & set(range(env.num_cns))) == ids.size
                                and not set(ids.tolist()).isdisjoint(schedule.job_cn.tolist())):
        raise ValueError(f"cns must be distinct CN ids, one holding a job, got {echo(cns)}")
    return _tail_model(env, schedule, "erd-assignment", cns)


def _placement_model(env: GridEnvironment, schedule: Schedule, kind: str) -> MilpModel:
    """The placement model under ``schedule``'s assignment and order; kind
    ``fixed-xyz`` pins Z to ``schedule``'s placement by bounds and has no
    warm start.  Job j's compute time is the constant ``exec_time[j,
    job_cn[j]]``, and ``t[d]``/``Z[d,l]`` exist only for objects some job
    reads.  Every job reads an object, so its ``stage_u`` rows hold
    ``v_j >= u_j`` without a row of its own.
    """
    schedule.validate(env)
    nj, nl = env.num_jobs, env.num_local_sns
    job_cn, pos = schedule.job_cn, schedule.positions()
    jobs = np.arange(nj)
    in_j = np.repeat(jobs, [len(inputs) for inputs in env.job_inputs])
    in_d = np.concatenate(env.job_inputs).astype(np.int64)
    read = np.unique(in_d)
    length = env.exec_time[jobs, job_cn]
    z01 = _one_hot(schedule.object_sn[read], nl)

    var = _Vars()
    m = var.add("m", ([0],))[0]     # the one key fills no field of "m"
    u = var.add("u[{}]", (jobs,))
    v = var.add("v[{}]", (jobs,))
    t = np.full(env.num_objects, -1)
    t[read] = var.add("t[{}]", (read,))
    z = np.full((env.num_objects, nl), -1)
    z[read] = var.binaries("Z[{},{}]", (read.repeat(nl), np.tile(np.arange(nl), read.size)),
                           z01 if kind == "fixed-xyz" else None).reshape(read.size, nl)

    rows = _Rows()
    rows.add(rows.reserve(nj), "makespan[{}]", (jobs,), [(m, 1.0), (v, -1.0)], lo=length)
    slots = rows.reserve(read.size, 2)
    rows.add(slots[:, 0], "replica[{}]", (read,), [(z[read], 1.0)], lo=1.0, hi=1.0)
    rows.add(slots[:, 1], "tdelay[{}]", (read,),
             [(t[read], 1.0), (z[read], -env.replication_delay[read])], lo=0.0, hi=0.0)
    # j's slot starts no earlier than each job before it on its CN completes
    pi, pj = np.nonzero((job_cn[:, None] == job_cn) & (pos[:, None] < pos))
    rows.add(rows.reserve(pi.size), "prec[{},{}]", (pi, pj),
             [(u[pj], 1.0), (v[pi], -1.0)], lo=length[pi])
    # inputs reach the pinned CN only after replication and not before the slot
    delay = env.object_sizes[in_d, None] / env.lan_bandwidth[:, job_cn[in_j]].T
    slots = rows.reserve(in_j.size, 2)
    rows.add(slots[:, 0], "stage_t[{},{}]", (in_j, in_d),
             [(v[in_j], 1.0), (t[in_d], -1.0), (z[in_d], -delay)], lo=0.0)
    rows.add(slots[:, 1], "stage_u[{},{}]", (in_j, in_d),
             [(v[in_j], 1.0), (u[in_j], -1.0), (z[in_d], -delay)], lo=0.0)

    warm_x = None
    if kind == "fixed-xy":
        warm_x = np.empty(var.count)
        warm_x[u], warm_x[v], _, warm_x[m] = replay(env, schedule)
        warm_x[t[read]] = env.replication_delay[read, schedule.object_sn[read]]
        warm_x[z[read]] = z01
        warm_x.setflags(write=False)
    return MilpModel(kind, env, var, rows, m, warm_x, z_vars=z, schedule=schedule)


def _tail_model(env: GridEnvironment, schedule: Schedule, kind: str, cns=None,
                priority=None) -> MilpModel:
    """The assignment model under ``schedule``'s placement over the jobs it
    puts on ``cns`` (None: every CN), each CN taking its jobs by ascending
    ``priority`` (J,), ties to the lower job id; None: by release, which is
    ERD.  Every other job keeps its CN.

    Job j on CN c is released at ``rho[j, c] = latest - slowest`` and then
    holds the CN for ``q[j, c] = slowest + exec_time[j, c]``
    (:func:`kernels.job_pairs`).  These depend only on the job, the CN and
    the placement, so the model computes them for ``cns`` alone.
    Besides ``m`` and the X block of those jobs and CNs (``x_vars`` is -1
    elsewhere) there is one assignment row per job and one tail row per CN c
    and position k,
    ``m >= max(rho_kc, 0) * X[k,c] + sum_{j at or after k} q_jc * X[j,c]``,
    listing only those jobs: no order variable, no big-A, no zero
    coefficient.  ``m`` is bounded below by the latest of the jobs' earliest
    finishes, each alone on its best CN, which holds in any sequence and
    lets HiGHS prove small instances optimal several times faster.
    Variables and rows are named with the grid's job and CN ids.
    """
    cns = np.arange(env.num_cns) if cns is None else np.asarray(cns, dtype=np.int64)
    jobs = np.flatnonzero(np.isin(schedule.job_cn, cns))
    held = np.ix_(jobs, cns)
    # row i of the (k, J) tables puts every job on CN cns[i]
    slowest, latest = job_pairs(env, np.broadcast_to(cns[:, None], (cns.size, env.num_jobs)),
                                np.broadcast_to(schedule.object_sn, (cns.size, env.num_objects)))
    release = (latest - slowest)[:, jobs].T
    body = slowest[:, jobs].T + env.exec_time[held]
    alone = np.maximum(release, 0.0) + body     # finish of each job alone on each CN
    priority = release if priority is None else np.broadcast_to(priority[jobs, None], body.shape)
    seq = np.argsort(priority, axis=0, kind="stable").T     # indices into jobs, per CN
    col = np.arange(cns.size)[:, None]

    var = _Vars()
    # no schedule ends before a job alone on its best CN; the one key fills no field of "m"
    m = var.add("m", ([0],), lo=alone.min(axis=1).max())[0]
    x = var.binaries("X[{},{}]", (jobs.repeat(cns.size), np.tile(cns, jobs.size)))
    x = x.reshape(jobs.size, cns.size)

    rows = _Rows()
    rows.add(rows.reserve(jobs.size), "assign[{}]", (jobs,), [(x, 1.0)], lo=1.0, hi=1.0)
    slots = rows.reserve(cns.size, jobs.size)
    for k in range(jobs.size):
        tail = seq[:, k:]                   # jobs at or after position k, per CN
        coef = body[tail, col]
        coef[:, 0] = alone[tail[:, 0], col[:, 0]]
        rows.add(slots[:, k], "tail[{},{}]", (cns, jobs[tail[:, 0]]),
                 [(m, 1.0), (x[tail, col], -coef)], lo=0.0)
    csr = rows.csr()
    _, _, indptr, indices, data = csr

    warm_x = np.zeros(var.count)
    warm_x[x] = schedule.job_cn[jobs, None] == cns
    # with m at 0, a tail row's activity is minus its right-hand side
    activity = _row_sums(indptr, data * warm_x[indices])
    warm_x[m] = -activity[jobs.size:].min()
    warm_x.setflags(write=False)
    x_vars = np.full((env.num_jobs, env.num_cns), -1)
    x_vars[held] = x
    return MilpModel(kind, env, var, rows, m, warm_x, x_vars=x_vars, schedule=schedule,
                     csr=csr)


def extract_schedule(model: MilpModel, x: np.ndarray) -> Schedule:
    """Schedule encoded by a feasible variable vector of ``model``.

    Reads the one-hot X and Z blocks by arg-max; what a model does not hold
    comes from the schedule it was built from.  The placement model keeps
    that schedule's assignment and order, and objects no job reads keep its
    SN.  A tail model keeps its placement, and a pair model the CN of every
    job outside the pair; an ``erd-assignment`` model orders the whole grid
    by :func:`kernels.erd_orders` of the extracted assignment, and
    ``fixed-yz`` keeps the pinned schedule's order.  In the joint model Y
    matters only between jobs sharing a CN, where a feasible point holds a
    strict total order; each job ranks by the number of same-CN jobs it
    follows, and the order sorts by rank, then job id, which interleaves
    the CNs deterministically.
    """
    pinned = model.schedule
    if model.x_vars is None:
        object_sn = pinned.object_sn.copy()
        read = model.z_vars[:, 0] >= 0
        object_sn[read] = x[model.z_vars[read]].argmax(axis=1)
        return Schedule(job_cn=pinned.job_cn, order=pinned.order, object_sn=object_sn)
    if model.z_vars is None:
        held = model.x_vars >= 0
        job_cn = np.where(held, x[model.x_vars], -np.inf).argmax(axis=1)
        job_cn = np.where(held.any(axis=1), job_cn, pinned.job_cn)
        order = (pinned.order if model.kind == "fixed-yz"
                 else erd_orders(model.env, job_cn[None], pinned.object_sn[None])[0])
        return Schedule(job_cn=job_cn, order=order, object_sn=pinned.object_sn)
    job_cn = x[model.x_vars].argmax(axis=1)
    object_sn = x[model.z_vars].argmax(axis=1)
    wins = np.where(model.y_vars >= 0, np.round(x[model.y_vars]), 0).astype(np.int64)
    same = job_cn[:, None] == job_cn
    rank = same.sum(axis=1) - 1 - (wins * same).sum(axis=1)
    order = np.argsort(rank, kind="stable")
    return Schedule(job_cn=job_cn, order=order, object_sn=object_sn)

