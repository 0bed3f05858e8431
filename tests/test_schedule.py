import numpy as np
import pytest

from gridopt.environment import DocumentError
from gridopt.schedule import (InvalidScheduleError, Schedule, load_schedule,
                              random_schedule, schedule_from_document,
                              validate_batch)

from conftest import tiny_env


def test_random_schedule_is_valid_and_deterministic(env_tiny):
    a = random_schedule(env_tiny, 42)
    b = random_schedule(env_tiny, 42)
    a.validate(env_tiny)
    assert a == b
    assert random_schedule(env_tiny, 43) != a


def test_random_schedule_accepts_generator(env_tiny):
    rng = np.random.default_rng(0)
    first = random_schedule(env_tiny, rng)
    second = random_schedule(env_tiny, rng)  # advances the stream
    assert first != second


def test_schedules_are_equal_by_value_and_unhashable():
    s = Schedule(job_cn=[0, 1], order=[1, 0], object_sn=[2])
    assert s == Schedule(job_cn=np.array([0, 1], dtype=np.uint8), order=[1.0, 0.0],
                         object_sn=[2])
    assert not s != Schedule(job_cn=[0, 1], order=[1, 0], object_sn=[2])
    for other in (Schedule(job_cn=[1, 1], order=[1, 0], object_sn=[2]),
                  Schedule(job_cn=[0, 1], order=[0, 1], object_sn=[2]),
                  Schedule(job_cn=[0, 1], order=[1, 0], object_sn=[0]),
                  Schedule(job_cn=[0, 1], order=[1, 0], object_sn=[2, 2])):
        assert s != other and not s == other
    # another type is never equal, and a comparison with it does not raise
    for other in (None, 1, s.to_document(), (s.job_cn, s.order, s.object_sn)):
        assert s != other and not s == other
        assert s.__eq__(other) is NotImplemented
    with pytest.raises(TypeError, match="unhashable"):
        hash(s)


@pytest.mark.parametrize("mutation", [
    dict(job_cn=[0, 0]),                # wrong length
    dict(job_cn=[0, 0, 9]),             # CN out of range
    dict(object_sn=[0, 0, 0, 0]),       # wrong length
    dict(object_sn=[0, 0, -1]),         # SN out of range
    dict(order=[0, 1, 1]),              # not a permutation
])
def test_validate_rejects_inconsistent_schedules(env_tiny, mutation):
    fields = dict(job_cn=[0, 1, 0], order=[2, 0, 1], object_sn=[0, 1, 0])
    fields.update(mutation)
    with pytest.raises(InvalidScheduleError):
        Schedule(**fields).validate(env_tiny)


def test_validate_batch_checks_every_row(env_tiny):
    cns, orders = np.array([[0, 1, 0], [1, 1, 0]]), np.array([[2, 0, 1], [0, 1, 2]])
    shared_placement = np.array([[0, 1, 0]])
    validate_batch(env_tiny, cns, orders, shared_placement)
    with pytest.raises(InvalidScheduleError, match="permutation"):
        validate_batch(env_tiny, cns, np.array([[2, 0, 1], [0, 1, 1]]), shared_placement)
    with pytest.raises(InvalidScheduleError, match="CN id"):
        validate_batch(env_tiny, np.array([[0, 1, 0], [1, 1, 9]]), orders, shared_placement)


def test_order_and_job_cn_length_mismatch_rejected():
    with pytest.raises(InvalidScheduleError):
        Schedule(job_cn=[0, 1], order=[0, 1, 2], object_sn=[0])


@pytest.mark.parametrize("field, value, shown", [
    ("job_cn", [0.9, 1.7, 0.2], "0.9"),
    ("order", [0.0, 1.0, 2.5], "2.5"),
    ("object_sn", [0.0, float("nan")], "nan"),
    ("object_sn", np.array([float("inf"), 1.0]), "inf"),
    ("job_cn", [True, False, True], "bool"),
    ("order", ["0", "1", "2"], "<U1"),
    ("object_sn", [1 + 0j, 0j], "complex"),
    ("job_cn", [True, 0, 1], "True"),
    ("order", [np.True_, 1, 2], "True"),
    ("job_cn", np.array([2**64 - 1, 0, 1], dtype=np.uint64), "got 18446744073709551615$"),
    ("order", [np.uint64(2**64 - 1), 1, 2], "got 1.8446744073709552e"),
    ("object_sn", [0.0, 2.0**63], "got 9.223372036854776e"),
])
def test_non_integral_ids_are_rejected_by_field(field, value, shown):
    fields = dict(job_cn=[0, 1, 0], order=[0, 1, 2], object_sn=[0, 1])
    fields[field] = value
    with pytest.raises(InvalidScheduleError, match=rf"^{field} .*{shown}"):
        Schedule(**fields)


def test_unsigned_ids_within_int64_are_accepted():
    s = Schedule(job_cn=np.array([1, 0], dtype=np.uint64), order=[np.uint64(1), 0],
                 object_sn=np.array([2**63 - 1], dtype=np.uint64))
    assert s.job_cn.tolist() == [1, 0] and s.order.tolist() == [1, 0]
    assert s.object_sn.tolist() == [2**63 - 1]


def test_integral_float_ids_are_accepted():
    s = Schedule(job_cn=[1.0, 0.0], order=np.array([1.0, 0.0]), object_sn=[2.0])
    assert s.job_cn.tolist() == [1, 0] and s.order.tolist() == [1, 0]
    assert s.object_sn.dtype == np.int64 and s.object_sn.tolist() == [2]


def test_schedule_document_roundtrip(tmp_path, env_tiny):
    s = random_schedule(env_tiny, 5)
    path = tmp_path / "sched.json"
    s.save(path)
    loaded = load_schedule(path)
    assert loaded == s
    loaded.validate(env_tiny)


def test_schedule_document_rejections():
    good = random_schedule(tiny_env(0), 1).to_document()
    bad = dict(good)
    bad["schema"] = "grid-schedule/9"
    with pytest.raises(DocumentError, match="schema"):
        schedule_from_document(bad)
    bad = dict(good)
    del bad["order"]
    with pytest.raises(DocumentError, match="order"):
        schedule_from_document(bad)
    bad = dict(good)
    bad["job_cn"] = "nope"
    with pytest.raises(DocumentError):
        schedule_from_document(bad)
