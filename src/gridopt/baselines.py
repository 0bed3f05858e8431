"""Reference methods the alternating optimizer is compared against.

Two families here: no optimization (random) and classic heuristics (greedy
and its randomized ensemble, intensity-based two-way classification, a
genetic algorithm over the full decision encoding).  The one-sided MILP
restrictions (min-transfer, min-execution) are single restricted steps and
live with the alternating optimizer in :mod:`gridopt.alternating`.

Every method returns a :class:`BaselineRun` whose schedule is validated and
whose ``degraded`` flag records solver failures instead of raising, so a
benchmark sweep never dies halfway through.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .environment import GridEnvironment, check_budget, check_positive, check_seed
from .evaluator import makespan_of, makespans_of
from .schedule import Schedule, random_schedule, validate_batch


@dataclass(frozen=True)
class BaselineRun:
    schedule: Schedule
    makespan: float
    solver_statuses: tuple[str, ...] = ()
    degraded: bool = False
    extra: dict = field(default_factory=dict)
    trace: object = None    # the OptimizationTrace of an altermilp run


def _finish(env, schedule, statuses=(), degraded=False, trace=None, **extra) -> BaselineRun:
    schedule.validate(env)
    return BaselineRun(
        schedule=schedule,
        makespan=makespan_of(env, schedule),
        solver_statuses=tuple(statuses),
        degraded=degraded,
        extra=extra,
        trace=trace,
    )


def random_baseline(env: GridEnvironment, seed) -> BaselineRun:
    """Uniform random schedule, no optimization at all."""
    return _finish(env, random_schedule(env, seed))


def greedy_data_assignment(env: GridEnvironment) -> np.ndarray:
    """Per-object placement minimizing replication plus mean LAN delay.

    The staging cost of object d on local SN l is approximated by
    its replication delay plus its mean LAN delay over the CNs; each object
    independently takes the arg-min (tie: lowest SN id).
    """
    staging = env.replication_delay() + env.lan_delay().mean(axis=2)   # (D, L)
    return np.argmin(staging, axis=1).astype(np.int64)


def _greedy_batch(env: GridEnvironment, object_sn, orders) -> tuple[np.ndarray, np.ndarray]:
    """Greedy dispatch of B job orders in lockstep: ((B, J) job_cns, (B,) makespans).

    Step k visits the k-th job of every order; each takes its own
    schedule's earliest-free CN, ties to the lowest CN id.  The placement is
    shared, so :func:`~gridopt.kernels.job_pairs` reduces each job's inputs
    once per CN, with row c putting every job on CN c.  The simulation is
    then the replay of the schedule it builds, bit for bit, so its final CN
    availability is the makespan.
    """
    n_batch, n_jobs = orders.shape
    n_cns = env.num_cns
    slowest, latest = kernels.job_pairs(
        env, np.broadcast_to(np.arange(n_cns)[:, None], (n_cns, n_jobs)),
        np.broadcast_to(object_sn, (n_cns, env.num_objects)))
    # (J, C) tables read at flat index j * C + c
    slowest, latest = slowest.T.ravel(), latest.T.ravel()
    length = env.exec_time().ravel()
    cn_free = np.zeros((n_batch, n_cns))
    flat_free = cn_free.reshape(-1)
    first_slot = n_cns * np.arange(n_batch)
    picks = np.empty((n_jobs, n_batch), dtype=np.int64)     # CN taken at each step
    for j, c in zip(n_cns * orders.T, picks):
        cn_free.argmin(axis=1, out=c)
        slot = first_slot + c
        at = j + c
        flat_free[slot] = np.maximum(flat_free[slot] + slowest[at], latest[at]) + length[at]
    job_cns = np.empty_like(orders)
    np.put_along_axis(job_cns, orders, picks.T, axis=1)
    return job_cns, cn_free.max(axis=1)


def greedy(env: GridEnvironment, order=None) -> BaselineRun:
    """First-come-first-served onto whichever CN frees up first.

    Jobs are visited in ``order`` (submission order by default); each takes
    the CN with the smallest current availability time, ties to the lowest
    CN id.  Placement comes from :func:`greedy_data_assignment`.
    """
    if order is None:
        order = np.arange(env.num_jobs, dtype=np.int64)
    else:
        order = np.asarray(order, dtype=np.int64)
    object_sn = greedy_data_assignment(env)
    job_cns, _ = _greedy_batch(env, object_sn, order[None, :])
    return _finish(env, Schedule(job_cn=job_cns[0], order=order, object_sn=object_sn))


# greedy orders simulated per lockstep block in ensemble_greedy
GREEDY_BLOCK = 256


def ensemble_greedy(env: GridEnvironment, seed, runs: int | None = None,
                    budget: float | None = None) -> BaselineRun:
    """Greedy under many random job orders; best run wins.

    Stops after ``runs`` orders or once ``budget`` seconds have elapsed,
    whichever comes first; with only a budget at least 10 orders run, and
    with neither the size is 50.  Orders are simulated in lockstep blocks
    (the first block of a budget-only run is 10), and the budget is checked
    between blocks.  The first order reaching the smallest makespan wins.
    """
    check_seed(seed)
    if runs is not None:
        check_seed(runs, "runs", minimum=1)
    if budget is not None:
        check_budget(budget)
    if runs is None and budget is None:
        runs = 50
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    object_sn = greedy_data_assignment(env)
    best = None
    done = 0
    while True:
        if runs is not None:
            size = min(GREEDY_BLOCK, runs - done)
        else:
            size = 10 if done == 0 else GREEDY_BLOCK
        orders = rng.permuted(np.tile(np.arange(env.num_jobs), (size, 1)), axis=1)
        job_cns, makespans = _greedy_batch(env, object_sn, orders)
        validate_batch(env, job_cns, orders, object_sn[None])
        i = int(makespans.argmin())
        if best is None or makespans[i] < best[0]:
            best = (makespans[i], job_cns[i], orders[i])
        done += size
        if runs is not None and done >= runs:
            break
        if budget is not None and time.perf_counter() - start >= budget:
            break
    _, job_cn, order = best
    return _finish(env, Schedule(job_cn=job_cn, order=order, object_sn=object_sn),
                   runs=done)


def classify_jobs(env: GridEnvironment, object_sn, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Intensity ratios and the compute-intensive mask used by :func:`diana`.

    ratio_j = best-case execution time / best-case total transfer time,
    where the transfer best case takes the given placement and the friendliest
    CN.  ratio >= threshold marks the job compute-intensive.
    """
    objs = np.arange(env.num_objects)
    ld = env.lan_delay()[objs, object_sn]                           # (D, C)
    rd = env.replication_delay()[objs, object_sn]
    best_exec = env.exec_time().min(axis=1)
    ratios = np.empty(env.num_jobs)
    for j, inputs in enumerate(env.job_inputs):
        ids = list(inputs)
        best_transfer = (rd[ids].sum() + ld[ids].sum(axis=0)).min()
        ratios[j] = best_exec[j] / best_transfer
    return ratios, ratios >= threshold


def diana(env: GridEnvironment, threshold: float = 1.0) -> BaselineRun:
    """Two-way job classification: chase CPUs or chase data.

    Compute-intensive jobs go to the CN with the lowest finish estimate
    (queue backlog plus own execution time); data-intensive jobs go to the
    CN that downloads their inputs fastest from the chosen placement.
    Placement is the greedy per-object rule, order is submission order.
    """
    check_positive(threshold, "threshold")
    object_sn = greedy_data_assignment(env)
    ratios, compute_heavy = classify_jobs(env, object_sn, threshold)
    exec_time = env.exec_time()
    ld = env.lan_delay()[np.arange(env.num_objects), object_sn]    # (D, C)
    backlog = np.zeros(env.num_cns)
    job_cn = np.zeros(env.num_jobs, dtype=np.int64)
    for j in range(env.num_jobs):
        if compute_heavy[j]:
            c = int(np.argmin(backlog + exec_time[j]))
        else:
            c = int(np.argmin(ld[list(env.job_inputs[j])].sum(axis=0)))
        job_cn[j] = c
        backlog[c] += exec_time[j, c]
    schedule = Schedule(job_cn=job_cn, order=np.arange(env.num_jobs),
                        object_sn=object_sn)
    return _finish(env, schedule, ratios=ratios.tolist())


# each tournament draws this many picks, with replacement
TOURNAMENT = 3
# the best individuals carried unchanged into the next generation
ELITISM = 1


@dataclass(frozen=True)
class GaConfig:
    population: int = 50
    generations: int = 100
    seed: int = 0
    budget: float | None = None          # wall seconds; None -> generations only

    def __post_init__(self):
        check_seed(self.population, "population", minimum=2)
        check_seed(self.generations, "generations", minimum=1)
        check_seed(self.seed, "seed")
        if self.budget is not None:
            check_budget(self.budget)


def _order_crossover_rows(a, b, lo, hi) -> np.ndarray:
    """Order crossover (OX, Davis 1985) of R parent pairs at once: (R, n) children.

    Rows of ``a`` and ``b`` are permutations of ``range(n)``.  Child r keeps
    ``a[r, lo[r]:hi[r]]`` in place and fills its other slots, left to right,
    with the genes of ``b[r]`` that the slice lacks, in ``b[r]``'s order.
    """
    rows = np.arange(a.shape[0])[:, None]
    pos = np.arange(a.shape[1])
    kept = (lo[:, None] <= pos) & (pos < hi[:, None])
    taken = np.empty(a.shape, dtype=bool)
    taken[rows, a] = kept                   # taken[r, g]: gene g is in row r's slice
    child = a.copy()
    # both masks hold n - (hi - lo) entries per row, read row by row
    child[~kept] = b[~taken[rows, b]]
    return child


def _ox_slice_ends(first, offset, span) -> tuple[np.ndarray, np.ndarray]:
    """OX slice bounds (lo, hi) from a first end and an offset to the second.

    With ``first`` uniform on [0, span) and ``offset`` uniform on [1, span),
    ``(first, (first + offset) % span)`` is a uniform ordered pair of distinct
    ends, the distribution of ``choice(span, 2, replace=False)``.
    """
    second = (first + offset) % span
    return np.minimum(first, second), np.maximum(first, second)


def _breed(rng, mut: float, num_cns: int, num_local_sns: int,
           scores, job_cn, order, object_sn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next population: the ``ELITISM`` best, then the children.

    Each draw kind is made for the whole generation in one call, in a fixed
    order: the tournament picks, the CN cuts, the OX slice ends, the SN cuts,
    the CN, order and SN mutation masks, then the new CNs, swap partners and
    SNs of the mutation hits.  The children are bred in array operations.
    """
    size, nj = order.shape
    nd = object_sn.shape[1]
    n = size - ELITISM
    integers, random = rng.integers, rng.random
    picks = integers(0, size, size=(2, n, TOURNAMENT))
    cut_cn = integers(0, nj + 1, size=n)
    lo, hi = _ox_slice_ends(integers(0, nj + 1, size=n), integers(1, nj + 1, size=n), nj + 1)
    cut_sn = integers(0, nd + 1, size=n)
    cn_hits = random((n, nj)) < mut
    swap_hits = random((n, nj)) < mut
    sn_hits = random((n, nd)) < mut
    cn_values = integers(0, num_cns, size=int(cn_hits.sum()))
    partners = integers(0, nj, size=int(swap_hits.sum()))
    sn_values = integers(0, num_local_sns, size=int(sn_hits.sum()))

    # a tournament's winner is its first pick with the lowest score
    rows = np.arange(n)
    pa, pb = (p[rows, scores[p].argmin(axis=1)] for p in picks)
    child_cn = np.where(np.arange(nj) < cut_cn[:, None], job_cn[pa], job_cn[pb])
    child_order = _order_crossover_rows(order[pa], order[pb], lo, hi)
    child_sn = np.where(np.arange(nd) < cut_sn[:, None], object_sn[pa], object_sn[pb])
    child_cn[cn_hits] = cn_values                 # boolean masks fill row-major
    child_sn[sn_hits] = sn_values
    for i, k, other in zip(*swap_hits.nonzero(), partners.tolist()):
        row = child_order[i]                      # in draw order: swaps can chain
        row[k], row[other] = row[other], row[k]

    elite = np.argsort(scores)[:ELITISM]
    return (np.concatenate([job_cn[elite], child_cn]),
            np.concatenate([order[elite], child_order]),
            np.concatenate([object_sn[elite], child_sn]))


def ga(env: GridEnvironment, config: GaConfig = GaConfig()) -> BaselineRun:
    """Genetic search over (assignment, order, placement) triples.

    Tournament selection, one-point crossover on the index vectors, order
    crossover on the permutation, per-gene mutation, elitist survival.  The
    population is three int64 arrays, (P, J) assignments, (P, J) orders and
    (P, D) placements; each generation is bred by :func:`_breed` and scored
    by one batched replay.  Stops at the generation cap or when the wall
    budget, counted from entry, runs out, and returns the best individual
    ever evaluated.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    nj, nc, nd, nl = env.num_jobs, env.num_cns, env.num_objects, env.num_local_sns
    genome_len = 2 * nj + nd
    mut = 1.0 / genome_len            # one gene per child mutates, on average

    size = config.population
    population = (rng.integers(0, nc, size=(size, nj)),
                  rng.permuted(np.tile(np.arange(nj), (size, 1)), axis=1),
                  rng.integers(0, nl, size=(size, nd)))
    scores = makespans_of(env, *population)
    best_idx = int(scores.argmin())
    best = tuple(genes[best_idx] for genes in population)
    best_score = float(scores[best_idx])
    history = [best_score]

    generations_done = 0
    for _ in range(config.generations - 1):
        if config.budget is not None and time.perf_counter() - start >= config.budget:
            break
        population = _breed(rng, mut, nc, nl, scores, *population)
        scores = makespans_of(env, *population)
        generations_done += 1
        gen_best = int(scores.argmin())
        if scores[gen_best] < best_score:
            best = tuple(genes[gen_best] for genes in population)
            best_score = float(scores[gen_best])
        history.append(best_score)

    schedule = Schedule(job_cn=best[0], order=best[1], object_sn=best[2])
    return _finish(env, schedule, generations=generations_done + 1,
                   history=history)
