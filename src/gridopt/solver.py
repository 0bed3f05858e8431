"""Solving models under wall-clock budgets, plus small-instance enumeration.

The solve wrapper owns two guarantees the backends do not give on their own:

* any solution crossing the wrapper is re-checked against the model before
  it is trusted, and
* a validated warm start can only help: the wrapper returns the better of
  the backend's incumbent and the warm start, so an anytime caller never
  regresses by solving.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .environment import GridEnvironment, check_budget
from .evaluator import makespans_of
from .kernels import erd_orders
from .model import CHECK_TOL, MilpModel
from .schedule import Schedule

log = logging.getLogger(__name__)

# Backends get a little more than the requested budget so that model
# conversion and process overhead are not charged against tiny budgets; the
# reported wall time is still the truth.
GRACE_FRACTION = 0.1
GRACE_FLOOR = 0.25

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
    present exactly when ``objective`` is; an "error" may still carry the
    warm start.
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


class HighsBackend:
    """HiGHS via scipy's milp bindings.

    scipy.optimize (and with it scipy.sparse) is imported when the first
    backend is constructed, so a process that never solves does not load it.
    """

    name = "highs"

    def __init__(self):
        import scipy.optimize  # noqa: F401

    def solve_raw(self, model: MilpModel, budget: float):
        """Return (x or None, raw_status, message) without postprocessing."""
        import scipy.optimize  # already loaded by __init__, outside any solve clock

        with warnings.catch_warnings():
            # scipy passes options it does not know on to HiGHS, with a warning
            warnings.filterwarnings("ignore", message="Unrecognized options detected")
            res = scipy.optimize.milp(
                c=model.objective,
                constraints=scipy.optimize.LinearConstraint(model.matrix, model.row_lower,
                                                            model.row_upper),
                bounds=scipy.optimize.Bounds(model.lower, model.upper),
                integrality=model.integer.astype(np.int64),
                options={
                    "time_limit": budget,
                    "mip_rel_gap": 0.0,  # never accept a suboptimal proof
                    "presolve": True,
                    # Heuristics that hunt for an incumbent, which the wrapper
                    # already holds when a warm start is given.  Feasibility
                    # jump runs before the root node and ignores the time limit
                    # (1-2 s on a medium assignment model, whatever the budget);
                    # RINS and RENS solve sub-MIPs on model copies, which made
                    # peak memory and solve time depend on how far they got.
                    "mip_heuristic_run_feasibility_jump": False,
                    "mip_heuristic_run_rins": False,
                    "mip_heuristic_run_rens": False,
                },
            )
        if res.status == 0:
            raw = "optimal"
        elif res.status == 1:
            raw = "limit"
        elif res.status == 2:
            raw = "infeasible"
        else:
            raw = f"failed({res.status})"
        return res.x, raw, str(res.message)


def solve(model: MilpModel, budget: float, backend=None) -> SolveResult:
    """Solve ``model`` within ``budget`` seconds of backend time.

    The backend is granted the budget plus a small grace allowance
    (GRACE_FRACTION of the budget, at least GRACE_FLOOR seconds) to absorb
    conversion overhead.  Every candidate solution, backend or warm start,
    is validated against the model; invalid ones are dropped with a note in
    ``diagnostics``.  ``backend`` is any object with ``name`` and
    ``solve_raw(model, budget)``; the default is a :class:`HighsBackend`,
    constructed before the clock starts so that its one-off scipy import is
    charged to neither ``wall_time`` nor the backend's time limit.
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
        x, raw, message = backend.solve_raw(
            model, budget + max(GRACE_FRACTION * budget, GRACE_FLOOR)
        )
    except Exception as exc:  # backend blew up; the warm start may still save us
        x, raw, message = None, "crashed", repr(exc)
        log.warning("backend %s crashed: %r", backend.name, exc)
    wall = time.perf_counter() - start

    incumbent = None
    inc_obj = None
    if x is not None:
        x = np.asarray(x, dtype=np.float64)
        rounded = x.copy()
        ints = model.integer
        rounded[ints] = np.round(rounded[ints])
        bad = model.check_assignment(rounded)
        if bad:
            notes.append("backend solution rejected: " + "; ".join(bad[:3]))
            if raw == "optimal":
                raw = "limit"  # the proof is void if the point does not check out
        else:
            incumbent = rounded
            inc_obj = model.objective_value(rounded)

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

    if raw == "optimal":
        if distrusted:
            return SolveResult("feasible-timeout", inc_obj, incumbent, wall,
                               "; ".join(notes) or message, model)
        return SolveResult("optimal", inc_obj, incumbent, wall, "; ".join(notes), model)
    if raw == "infeasible":
        if warm_x is not None:
            notes.append("backend reported infeasible but the warm start is feasible")
            return SolveResult("error", warm_obj, warm_x, wall, "; ".join(notes), model)
        return SolveResult("infeasible", None, None, wall, message, model)
    # limit / crashed / failed
    if incumbent is not None:
        return SolveResult("feasible-timeout", inc_obj, incumbent, wall,
                           "; ".join(notes) or message, model)
    return SolveResult("error", None, None, wall,
                       "; ".join(notes + [f"no incumbent ({raw}): {message}"]), model)


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
