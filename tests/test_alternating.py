import json

import numpy as np
import pytest

from gridopt import alternating
from gridopt.alternating import PINNED, AlterMilpConfig, min_exe, min_trans, run, step
from gridopt.baselines import greedy
from gridopt.environment import GenerationConfig, generate, preset_config
from gridopt.evaluator import makespan_of
from gridopt.schedule import random_schedule
from gridopt.solver import brute_force_optimal

from conftest import tiny_env


def greedy_start(env, seed):
    order = np.random.default_rng(seed).permutation(env.num_jobs)
    return greedy(env, order=order).schedule


def test_config_validation():
    for bad in (0, True, 2.5, 2.0, "3"):
        with pytest.raises(ValueError, match=f"^iterations must be an integer >= 1, got {bad!r}$"):
            AlterMilpConfig(iterations=bad)
    for bad in (0.0, float("inf"), True, "3"):
        with pytest.raises(ValueError, match="total_budget"):
            AlterMilpConfig(total_budget=bad)


def test_start_is_the_greedy_schedule_of_a_seeded_order(env_tiny):
    def start(seed):
        _, trace = run(env_tiny, AlterMilpConfig(iterations=1, total_budget=2.0, seed=seed,
                                                 backend=_InfeasibleBackend()))
        return trace.steps[0].schedule.to_document()

    assert start(7) == greedy_start(env_tiny, 7).to_document()
    assert start(7) == start(7)
    assert start(7) != start(8)


def test_single_iteration_trace_shape(env_tiny):
    cfg = AlterMilpConfig(iterations=1, total_budget=4.0, seed=3)
    final, trace = run(env_tiny, cfg)
    assert [s.stage for s in trace.steps] == ["init", "erd-assignment", "placement"]
    assert [s.iteration for s in trace.steps] == [0, 1, 1]
    assert trace.stop_reason == "completed"
    assert not trace.degraded
    final.validate(env_tiny)
    assert trace.steps[-1].makespan == pytest.approx(makespan_of(env_tiny, final))


def test_trace_is_monotone_and_bounded_by_oracle(env_tiny):
    _, oracle = brute_force_optimal(env_tiny)
    cfg = AlterMilpConfig(iterations=3, total_budget=12.0, seed=1,
                          early_stop=False)
    final, trace = run(env_tiny, cfg)
    mks = trace.makespans()
    assert all(b <= a + 1e-12 for a, b in zip(mks, mks[1:]))
    assert oracle - 1e-9 <= mks[-1] <= mks[0]
    for step in trace.steps:
        assert step.makespan == pytest.approx(makespan_of(env_tiny, step.schedule))


def test_returned_schedule_is_the_best_step(env_tiny):
    cfg = AlterMilpConfig(iterations=2, total_budget=8.0, seed=2)
    final, trace = run(env_tiny, cfg)
    best = min(trace.steps, key=lambda s: (s.makespan, s.iteration))
    assert makespan_of(env_tiny, final) == pytest.approx(best.makespan)


def _stagnant_env():
    # one job on one CN with one placement: nothing to optimize, so every
    # iteration leaves the makespan unchanged
    return generate(GenerationConfig(num_jobs=1, num_objects=1, num_cns=1,
                                     num_local_sns=1, num_remote_sns=1,
                                     rng_seed=5))


def test_early_stop_after_two_quiet_iterations():
    env = _stagnant_env()
    final, trace = run(env, AlterMilpConfig(iterations=5, total_budget=5.0))
    assert trace.stop_reason == "converged"
    assert len(trace.steps) == 1 + 2 * 2
    assert not trace.degraded


def test_early_stop_can_be_disabled():
    env = _stagnant_env()
    final, trace = run(env, AlterMilpConfig(iterations=4, total_budget=4.0,
                                            early_stop=False))
    assert trace.stop_reason == "completed"
    assert len(trace.steps) == 1 + 2 * 4


def test_assignment_and_placement_steps_keep_same_cn_precedence(env_tiny):
    start = greedy_start(env_tiny, 6)
    current, mk = start, makespan_of(env_tiny, start)
    mks = [mk]
    for stage in ("assignment", "placement") * 2:
        current, mk, res = step(env_tiny, stage, current, mk, 2.0)
        assert res.ok
        mks.append(mk)
    # the global list gets re-canonicalized as assignments move, but two
    # jobs sharing a CN must keep the precedence the start dictated
    start_pos = start.positions()
    final_pos = current.positions()
    for i in range(env_tiny.num_jobs):
        for j in range(env_tiny.num_jobs):
            if i != j and current.job_cn[i] == current.job_cn[j]:
                assert ((start_pos[i] < start_pos[j])
                        == (final_pos[i] < final_pos[j]))
    assert all(b <= a + 1e-12 for a, b in zip(mks, mks[1:]))


def test_every_step_is_a_backend_solve(env_tiny):
    # a run that revisits the same restricted models still solves each one
    _, trace = run(env_tiny, AlterMilpConfig(iterations=4, total_budget=8.0, seed=2,
                                             early_stop=False))
    assert len(trace.steps) == 1 + 2 * 4
    assert all(s.wall_time > 0 for s in trace.steps[1:])


def test_each_step_reports_what_its_solve_proved():
    env = generate(preset_config("small"), seed=0)
    _, trace = run(env, AlterMilpConfig(iterations=2, total_budget=2.0, seed=0))
    assert trace.steps[0].diagnostics == "" and len(trace.steps) > 1
    for s, doc in zip(trace.steps[1:], trace.to_document()["steps"][1:]):
        assert "dual_bound=" in s.diagnostics
        assert doc["diagnostics"] == s.diagnostics


class _InfeasibleBackend:
    name = "always-infeasible"

    def solve_raw(self, model, budget):
        return None, "infeasible", "scripted refusal"


def test_step_budgets_equal_split(env_tiny):
    granted = []

    class _Granted(_InfeasibleBackend):
        def solve_raw(self, model, budget):
            granted.append(budget)
            return super().solve_raw(model, budget)

    run(env_tiny, AlterMilpConfig(iterations=3, total_budget=3.0, backend=_Granted(),
                                  early_stop=False))
    # each of the 2T solves gets exactly total / (2T) of backend time
    assert granted == [3.0 / 6] * 6


def test_all_failed_solves_mark_the_trace_degraded(env_tiny):
    cfg = AlterMilpConfig(iterations=2, total_budget=2.0, seed=4,
                          backend=_InfeasibleBackend(), early_stop=False)
    final, trace = run(env_tiny, cfg)
    assert trace.degraded
    assert all(s.status == "error" for s in trace.steps[1:])
    start = greedy_start(env_tiny, 4)
    assert final.to_document() == start.to_document()
    assert trace.makespans() == [makespan_of(env_tiny, start)] * len(trace.steps)


def test_trace_document_round_trip(env_tiny, tmp_path):
    cfg = AlterMilpConfig(iterations=1, total_budget=2.0, seed=9)
    _, trace = run(env_tiny, cfg)
    path = tmp_path / "trace.json"
    trace.save(path)
    assert json.loads(path.read_text()) == json.loads(json.dumps(trace.to_document()))


def test_a_worse_answer_never_replaces_the_input(env_tiny, monkeypatch):
    rng = np.random.default_rng(0)
    worst = max((random_schedule(env_tiny, rng) for _ in range(200)),
                key=lambda s: makespan_of(env_tiny, s))
    monkeypatch.setattr(alternating, "extract_schedule", lambda mdl, x: worst)
    assert "erd-assignment" in PINNED
    for seed in range(4):
        start = random_schedule(env_tiny, seed)
        start_mk = makespan_of(env_tiny, start)
        assert start_mk < makespan_of(env_tiny, worst)
        for stage in PINNED:
            kept, mk, res = step(env_tiny, stage, start, start_mk, 1.0)
            assert res.ok and kept is start and mk == start_mk
        for method in (min_trans, min_exe):
            out = method(env_tiny, 1.0, seed)
            assert not out.degraded
            assert out.schedule.to_document() == start.to_document()
    with pytest.raises(ValueError, match="stage must be one of .*, got 'order'"):
        step(env_tiny, "order", start, start_mk, 1.0)
