"""Solving models under wall-clock budgets, plus small-instance enumeration.

The solve wrapper owns three guarantees the backends do not give on their own:

* any solution crossing the wrapper is re-checked against the model before
  it is trusted,
* a validated warm start can only help: the wrapper returns the better of
  the backend's incumbent and the warm start, so an anytime caller never
  regresses by solving, and
* a backend writes nothing to stdout, where the command line prints JSON.
"""

from __future__ import annotations

import ctypes
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .environment import GridEnvironment, check_budget
from .evaluator import makespans_of
from .kernels import erd_orders
from .model import CHECK_TOL, MilpModel
from .schedule import Schedule

log = logging.getLogger(__name__)

# A claimed optimum is distrusted only when the warm start beats it by more
# than this fraction of its magnitude (at least 1).  Both points passed the
# check at CHECK_TOL, so their objectives are only known to that relative
# accuracy; a smaller gap is no evidence against the proof.
OPTIMUM_TOL = CHECK_TOL


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solve call.

    ``status`` is one of "optimal", "feasible-timeout", "infeasible",
    "error".  ``x`` is the answer as a vector in the model's variable order,
    present exactly when ``objective`` is and whenever ``ok``; an "error"
    may still carry the warm start.
    """

    status: str
    objective: float | None
    x: np.ndarray | None
    wall_time: float
    diagnostics: str = ""
    model: MilpModel | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "feasible-timeout")

    @property
    def assignment(self) -> dict[str, float] | None:
        """Name -> value view of ``x``, formatted on every read."""
        if self.x is None:
            return None
        return dict(zip(self.model.names, self.x.tolist()))


# Feasibility jump runs before the root node; on altermilp's pair models it
# raised the mean backend time per sub-solve from 4.9 to 19 ms at medium and
# from 2.4 to 12 ms at large, and large runs at 8 s ended worse.  RINS and
# RENS, on by default, search around the MIP start.  Pair and placement
# models run the same without a cap on the cut pool (10000 rows by default),
# but minexe's whole-grid assignment model does not: the soft cap holds one
# medium minexe run at 10 s to a peak of 125-144 MB, against 143-169 MB.
_HIGHS_OPTIONS = {
    "output_flag": False,
    "mip_rel_gap": 0.0,     # never accept a suboptimal proof
    "mip_heuristic_run_feasibility_jump": False,
    "mip_pool_soft_limit": 1000,
}

# HiGHS model status -> the raw status solve() reads
_RAW_STATUS = {"kOptimal": "optimal", "kInfeasible": "infeasible", "kTimeLimit": "limit",
               "kIterationLimit": "limit", "kSolutionLimit": "limit", "kInterrupt": "limit"}


def _session_classes():
    """scipy's bundled HiGHS session and solution classes (private API)."""
    try:
        from scipy.optimize._highspy._core import HighsSolution, _Highs
    except ImportError as exc:
        import scipy
        raise ImportError(
            "HighsBackend needs scipy.optimize._highspy._core._Highs, which "
            f"scipy {scipy.__version__} does not provide; install scipy>=1.17.1"
        ) from exc
    return _Highs, HighsSolution


class HighsBackend:
    """HiGHS through the solver session scipy bundles,
    ``scipy.optimize._highspy._core._Highs``.

    Each solve passes the model's rows row-wise, hands ``model.warm_x`` to
    HiGHS as its MIP start and sets ``time_limit`` to exactly the budget.
    The session class is private scipy API, present from scipy 1.17.1 on;
    it is imported when the first backend is constructed (and with it
    scipy.optimize), so a process that never solves does not load it.
    """

    name = "highs"

    def __init__(self):
        _session_classes()

    def solve_raw(self, model: MilpModel, budget: float):
        """Return (x or None, raw_status, message) without postprocessing.

        The message is HiGHS's model status followed by what it proved, as
        ``(dual_bound=... gap=... nodes=...)``.
        """
        session, solution = _session_classes()
        highs = session()
        for option, value in _HIGHS_OPTIONS.items():
            highs.setOptionValue(option, value)
        highs.setOptionValue("time_limit", float(budget))
        highs.passModel(model.num_vars, model.num_rows, int(model.indptr[-1]),
                        2, 1, 0.0,  # row-wise matrix, minimize, no offset
                        model.objective, model.lower, model.upper,
                        model.row_lower, model.row_upper,
                        model.indptr.astype(np.int32), model.indices.astype(np.int32),
                        model.data, model.integer.astype(np.int32))
        if model.warm_x is not None:
            start = solution()
            start.col_value = model.warm_x
            start.value_valid = True
            highs.setSolution(start)
        highs.run()
        left = float(budget) - highs.getRunTime()
        if highs.getModelStatus().name == "kSolveError" and left > 0:
            # presolve can leave the optimum exactly at the 1e-6 feasibility
            # tolerance past a row, and the closing check then reads a rounding
            # of that as a violation; one more run without presolve avoids it
            highs.setOptionValue("presolve", "off")
            highs.setOptionValue("time_limit", left)
            highs.run()
        status = highs.getModelStatus()
        info = highs.getInfo()
        x = None
        if info.primal_solution_status == 2:    # kSolutionStatusFeasible
            x = np.array(highs.getSolution().col_value)
        raw = _RAW_STATUS.get(status.name, f"failed({status.name})")
        message = (f"{highs.modelStatusToString(status)} (dual_bound={info.mip_dual_bound!r} "
                   f"gap={info.mip_gap!r} nodes={info.mip_node_count})")
        return x, raw, message


def _to_stderr(call, *args):
    """``call(*args)`` with file descriptor 1 pointing at stderr; HiGHS prints
    some notes with a bare printf, whatever ``output_flag`` says.  Python's
    and C's buffers are flushed on both switches, so nothing crosses over."""
    libc = ctypes.CDLL(None)
    libc.fflush.argtypes, libc.fflush.restype = [ctypes.c_void_p], ctypes.c_int
    sys.stdout.flush()
    libc.fflush(None)
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        return call(*args)
    finally:
        sys.stdout.flush()
        libc.fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


def solve(model: MilpModel, budget: float, backend=None) -> SolveResult:
    """Solve ``model`` within ``budget`` seconds of backend time.

    The backend's time limit is exactly ``budget``.  Every candidate
    solution, backend or warm start, is validated against the model;
    invalid ones are dropped with a note in ``diagnostics``, which ends
    with the backend's own message.  ``backend`` is any object with
    ``name`` and ``solve_raw(model, budget)``; the default is a :class:`HighsBackend`,
    constructed before the clock starts so that its one-off scipy import is
    charged to neither ``wall_time`` nor the backend's time limit.  What the
    backend writes to stdout goes to stderr.
    """
    check_budget(budget)
    if backend is None:
        backend = HighsBackend()

    notes = []
    warm_x = model.warm_x
    warm_obj = None
    if warm_x is not None:
        bad = model.check_assignment(warm_x)
        if bad:
            notes.append("warm start rejected: " + "; ".join(bad[:3]))
            warm_x = None
        else:
            warm_obj = model.objective_value(warm_x)

    start = time.perf_counter()
    try:
        x, raw, message = _to_stderr(backend.solve_raw, model, budget)
    except Exception as exc:  # backend blew up; the warm start may still save us
        x, raw, message = None, "crashed", repr(exc)
        log.warning("backend %s crashed: %r", backend.name, exc)
    wall = time.perf_counter() - start

    incumbent = None
    inc_obj = None
    if x is not None:
        x = np.asarray(x, dtype=np.float64)
        if x.shape == model.integer.shape:
            x = np.where(model.integer, np.round(x), x)
        bad = model.check_assignment(x)
        if bad:
            notes.append("backend solution rejected: " + "; ".join(bad[:3]))
            if raw == "optimal":
                raw = "limit"  # the proof is void if the point does not check out
        else:
            incumbent = x
            inc_obj = model.objective_value(x)

    # keep whichever of backend incumbent / warm start is better
    use_warm = warm_x is not None and (inc_obj is None or warm_obj < inc_obj - 1e-12)
    # a warm start clearly better than a claimed optimum means the proof
    # cannot be trusted
    distrusted = use_warm and (
        inc_obj is None or warm_obj < inc_obj - OPTIMUM_TOL * max(1.0, abs(inc_obj)))
    if use_warm and inc_obj is not None:
        notes.append("warm start beat the backend incumbent; kept the warm start")
    if use_warm:
        incumbent, inc_obj = warm_x, warm_obj

    if raw == "infeasible" and warm_x is not None:
        notes.append("backend reported infeasible but the warm start is feasible")
    elif raw != "infeasible" and incumbent is None:
        notes.append(f"no incumbent ({raw})")
    diagnostics = "; ".join(notes + [message])
    if raw == "optimal" and incumbent is not None:
        status = "feasible-timeout" if distrusted else "optimal"
        return SolveResult(status, inc_obj, incumbent, wall, diagnostics, model)
    if raw == "infeasible":
        if warm_x is not None:
            return SolveResult("error", warm_obj, warm_x, wall, diagnostics, model)
        return SolveResult("infeasible", None, None, wall, diagnostics, model)
    # limit / crashed / failed, or an optimum claimed with no point
    if incumbent is not None:
        return SolveResult("feasible-timeout", inc_obj, incumbent, wall, diagnostics, model)
    return SolveResult("error", None, None, wall, diagnostics, model)


# -- exhaustive search --------------------------------------------------------


class InstanceTooLargeError(ValueError):
    def __init__(self, count, limit):
        super().__init__(
            f"exhaustive search over {count} candidates exceeds the limit of {limit}"
        )
        self.count = count
        self.limit = limit


def candidate_count(env: GridEnvironment) -> int:
    """Size of the (assignment, placement) search space; orders are ERD."""
    return env.num_cns ** env.num_jobs * env.num_local_sns ** env.num_objects


# candidates scored per batched replay in brute_force_optimal
BRUTE_FORCE_BLOCK = 4096


def _digits(index: np.ndarray, base: int, width: int) -> np.ndarray:
    """Base-``base`` digits of each index, most significant first: (n, width)."""
    return index[:, None] // base ** np.arange(width - 1, -1, -1) % base


def brute_force_optimal(env: GridEnvironment, max_candidates: int = 2_000_000
                        ) -> tuple[Schedule, float]:
    """Exact optimum by enumeration; refuses instances beyond ``max_candidates``.

    Candidates are enumerated lexicographically on (job_cn, object_sn), each
    in its ERD order (optimal up to rounding), and scored in blocks by one
    batched replay each; the first strict minimum wins, so the returned
    schedule is deterministic.
    """
    count = candidate_count(env)
    if count > max_candidates:
        raise InstanceTooLargeError(count, max_candidates)

    nj, nc, nd, nl = env.num_jobs, env.num_cns, env.num_objects, env.num_local_sns
    n_sn = nl ** nd
    best = math.inf
    winner = None
    for lo in range(0, count, BRUTE_FORCE_BLOCK):
        index = np.arange(lo, min(lo + BRUTE_FORCE_BLOCK, count), dtype=np.int64)
        job_cns = _digits(index // n_sn, nc, nj)
        object_sns = _digits(index % n_sn, nl, nd)
        orders = erd_orders(env, job_cns, object_sns)
        makespans = makespans_of(env, job_cns, orders, object_sns)
        i = int(makespans.argmin())
        if makespans[i] < best:
            best = float(makespans[i])
            winner = Schedule(job_cn=job_cns[i], order=orders[i], object_sn=object_sns[i])
    return winner, best
