"""Schedules: job-to-CN assignment, priority order, object-to-local-SN placement."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .environment import (GridEnvironment, _entry_types, build_from_document,
                          check_document, check_seed, echo, load_document, read_field,
                          save_document)

SCHEDULE_SCHEMA = "grid-schedule/1"


class InvalidScheduleError(ValueError):
    """A schedule is inconsistent with its environment."""


@dataclass(frozen=True, eq=False)
class Schedule:
    """One complete decision: where jobs run, in what priority, where data goes.

    ``order`` lists job ids from highest to lowest priority and must be a
    permutation of all jobs.  The order is global; only the relative order of
    jobs sharing a CN affects the outcome.  Two schedules are equal when
    their three arrays are; like those arrays, a schedule is unhashable.
    """

    job_cn: np.ndarray     # (J,) CN id per job
    order: np.ndarray      # (J,) job ids, highest priority first
    object_sn: np.ndarray  # (D,) local SN id per object

    def __post_init__(self):
        for name in ("job_cn", "order", "object_sn"):
            value = getattr(self, name)
            # the int64 cast below would truncate 1.7 to 1 and read True or
            # "1" as 1 without a word; a bool among ints leaves an int dtype
            if any(issubclass(cls, (bool, np.bool_)) for cls in _entry_types(value, 1)):
                raise InvalidScheduleError(f"{name} must hold integer ids, "
                                           f"got a bool in {echo(value)}")
            given = np.asarray(value)
            if given.dtype.kind == "f":
                # 2**63 and beyond would cast to int64's minimum
                bad = ~(np.abs(given) < 2.0**63) | (given != np.round(given))
                if bad.any():
                    raise InvalidScheduleError(f"{name} must hold integer ids within int64, "
                                               f"got {float(given[bad].flat[0])!r}")
            elif given.dtype.kind not in "iu":
                raise InvalidScheduleError(f"{name} must hold integer ids, "
                                           f"got dtype {given.dtype}")
            elif given.dtype.kind == "u" and given.size and given.max() > np.iinfo(np.int64).max:
                # the cast below would wrap it to a negative id
                raise InvalidScheduleError(f"{name} must hold integer ids within int64, "
                                           f"got {int(given.max())}")
            # always a copy: a row of a batch array would otherwise keep the
            # whole batch alive for as long as the schedule lives
            arr = np.array(given, dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.job_cn.ndim != 1 or self.order.ndim != 1 or self.object_sn.ndim != 1:
            raise InvalidScheduleError("schedule fields must be 1-d")
        if self.order.shape != self.job_cn.shape:
            raise InvalidScheduleError("order and job_cn must both have one entry per job")

    def __eq__(self, other):
        if not isinstance(other, Schedule):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def validate(self, env: GridEnvironment) -> None:
        """Raise :class:`InvalidScheduleError` unless consistent with ``env``."""
        validate_batch(env, self.job_cn[None], self.order[None], self.object_sn[None])

    def positions(self) -> np.ndarray:
        """(J,) priority position of each job (0 = runs first on its queue)."""
        pos = np.empty_like(self.order)
        pos[self.order] = np.arange(self.order.size)
        return pos

    def to_document(self) -> dict:
        return {
            "schema": SCHEDULE_SCHEMA,
            "job_cn": self.job_cn.tolist(),
            "order": self.order.tolist(),
            "object_sn": self.object_sn.tolist(),
        }

    def save(self, path) -> None:
        save_document(self.to_document(), path)


def validate_batch(env: GridEnvironment, job_cns, orders, object_sns) -> None:
    """:meth:`Schedule.validate` for B schedules given as rows.

    ``job_cns`` and ``orders`` are (B, J) and ``object_sns`` is (B, D); a
    single row of ``object_sns`` stands for a placement the batch shares.
    """
    if job_cns.shape[1] != env.num_jobs:
        raise InvalidScheduleError(
            f"job_cn has {job_cns.shape[1]} entries for {env.num_jobs} jobs"
        )
    if object_sns.shape[1] != env.num_objects:
        raise InvalidScheduleError(
            f"object_sn has {object_sns.shape[1]} entries for {env.num_objects} objects"
        )
    if np.any(job_cns < 0) or np.any(job_cns >= env.num_cns):
        raise InvalidScheduleError("job_cn contains an out-of-range CN id")
    if np.any(object_sns < 0) or np.any(object_sns >= env.num_local_sns):
        raise InvalidScheduleError("object_sn contains an out-of-range local SN id")
    if np.any(np.sort(orders, axis=1) != np.arange(env.num_jobs)):
        raise InvalidScheduleError("order is not a permutation of all job ids")


def schedule_from_document(doc: dict) -> Schedule:
    names = ("job_cn", "order", "object_sn")
    check_document(doc, SCHEDULE_SCHEMA, names)
    return build_from_document(Schedule, **{name: read_field(doc, name, int, 1)
                                            for name in names})


def load_schedule(path) -> Schedule:
    return schedule_from_document(load_document(path))


def random_schedule(env: GridEnvironment, rng) -> Schedule:
    """Uniform random schedule.  ``rng`` is a seed or a numpy Generator."""
    if not isinstance(rng, np.random.Generator):
        check_seed(rng)
        rng = np.random.default_rng(rng)
    return Schedule(
        job_cn=rng.integers(0, env.num_cns, size=env.num_jobs),
        order=rng.permutation(env.num_jobs),
        object_sn=rng.integers(0, env.num_local_sns, size=env.num_objects),
    )
