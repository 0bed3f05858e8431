import numpy as np
import pytest

from gridopt.evaluator import compute_big_a, evaluate, makespan_of
from gridopt.schedule import InvalidScheduleError, Schedule, random_schedule

from conftest import random_env, tiny_env


def test_single_job_hand_case(env_single_job):
    s = Schedule(job_cn=[0], order=[0], object_sn=[0])
    rep = evaluate(env_single_job, s)
    # replication 10 s; LAN transfer 1 s starting at max(u=0, 10); exec 2 s
    assert rep.replication_done[0] == 10.0
    assert rep.exec_start[0] == 0.0
    assert rep.ready[0] == 11.0
    assert rep.exec_length[0] == 2.0
    assert rep.makespan == 13.0
    np.testing.assert_array_equal(rep.ready + rep.exec_length, [13.0])


def test_two_jobs_one_cn_hand_case(env_two_jobs):
    s = Schedule(job_cn=[0, 0], order=[0, 1], object_sn=[0, 0])
    rep = evaluate(env_two_jobs, s)
    # job 1 gets the CN at 13; its object landed at 10, so its LAN transfer
    # starts at 13 and execution at 14
    assert rep.exec_start.tolist() == [0.0, 13.0]
    assert rep.ready.tolist() == [11.0, 14.0]
    assert rep.exec_length.tolist() == [2.0, 2.0]
    assert rep.makespan == 16.0

    # priority flipped: the jobs are symmetric, so the makespan is unchanged
    flipped = evaluate(env_two_jobs, Schedule(job_cn=[0, 0], order=[1, 0],
                                              object_sn=[0, 0]))
    assert flipped.makespan == 16.0
    assert flipped.exec_start.tolist() == [13.0, 0.0]


def test_evaluate_validates_by_default(env_single_job):
    bad = Schedule(job_cn=[5], order=[0], object_sn=[0])
    with pytest.raises(InvalidScheduleError):
        evaluate(env_single_job, bad)


def test_makespan_is_max_completion_and_v_at_least_u():
    rng = np.random.default_rng(4)
    for _ in range(20):
        env = random_env(rng)
        s = random_schedule(env, rng)
        rep = evaluate(env, s)
        assert rep.makespan == pytest.approx((rep.ready + rep.exec_length).max(), rel=1e-15)
        assert np.all(rep.ready >= rep.exec_start)
        assert np.all(rep.exec_length > 0)
        assert makespan_of(env, s) == rep.makespan


def test_ready_waits_for_replication():
    rng = np.random.default_rng(9)
    for _ in range(10):
        env = random_env(rng)
        s = random_schedule(env, rng)
        rep = evaluate(env, s)
        for j, objs in enumerate(env.job_inputs):
            for d in objs:
                lan = env.object_sizes[d] / env.lan_bandwidth[s.object_sn[d], s.job_cn[j]]
                floor = max(rep.exec_start[j], rep.replication_done[d]) + lan
                assert rep.ready[j] >= floor - 1e-9


def test_cross_cn_interleaving_does_not_change_timings():
    # only the relative order of jobs sharing a CN matters
    rng = np.random.default_rng(17)
    for seed in range(5):
        env = tiny_env(seed)
        s = random_schedule(env, rng)
        base = evaluate(env, s)
        for _ in range(10):
            # rebuild the global order by randomly interleaving the per-CN
            # queues while keeping each queue's internal order
            queues = {}
            for j in s.order:
                queues.setdefault(int(s.job_cn[j]), []).append(int(j))
            order = []
            cns = list(queues)
            while any(queues.values()):
                c = cns[int(rng.integers(0, len(cns)))]
                if queues[c]:
                    order.append(queues[c].pop(0))
            other = Schedule(job_cn=s.job_cn, order=order, object_sn=s.object_sn)
            rep = evaluate(env, other)
            assert rep.makespan == pytest.approx(base.makespan, rel=1e-12)
            np.testing.assert_allclose(rep.exec_start, base.exec_start, rtol=1e-12)


def test_big_a_bounds_every_replayed_makespan():
    rng = np.random.default_rng(23)
    for _ in range(30):
        env = random_env(rng)
        bound = compute_big_a(env)
        for _ in range(5):
            s = random_schedule(env, rng)
            assert makespan_of(env, s) < bound


def test_big_a_hand_value(env_single_job):
    # worst replication 10 + worst LAN 1 + worst exec 2, plus 1
    assert compute_big_a(env_single_job) == 14.0


def test_report_document_roundtrip(env_single_job):
    rep = evaluate(env_single_job, Schedule(job_cn=[0], order=[0], object_sn=[0]))
    import json
    doc = json.loads(json.dumps(rep.to_document()))
    assert doc["schema"] == "makespan-report/1"
    assert doc["makespan"] == 13.0
    assert doc["ready"] == [11.0]
