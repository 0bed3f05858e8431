import itertools
import json
import re
import time
import weakref

import numpy as np
import pytest

from gridopt import alternating
from gridopt.alternating import AlterMilpConfig, min_exe, min_trans, pair_sweep, run, step
from gridopt.baselines import greedy
from gridopt.environment import GenerationConfig, generate, preset_config
from gridopt.evaluator import makespan_of
from gridopt.kernels import erd_orders, replay_batch
from gridopt.model import build_fixed_x, build_fixed_yz, extract_schedule
from gridopt.schedule import Schedule, random_schedule
from gridopt.solver import HighsBackend, brute_force_optimal

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
    # "no" is truthy; 0, 1, None and 1.0 are not bools either
    for bad in ("no", 0, 1, None, 1.0):
        with pytest.raises(ValueError,
                           match=f"^early_stop must be a bool, got {re.escape(repr(bad))}$"):
            AlterMilpConfig(early_stop=bad)
    assert not AlterMilpConfig(early_stop=False).early_stop


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


def test_early_stop_after_an_iteration_that_keeps_nothing():
    env = _stagnant_env()
    final, trace = run(env, AlterMilpConfig(iterations=5, total_budget=5.0))
    assert trace.stop_reason == "converged"
    assert len(trace.steps) == 1 + 2
    assert not trace.degraded
    # each half-step returned its input, so the run ends on its start
    init, swept, placed = trace.steps
    assert swept.schedule is init.schedule and placed.schedule is init.schedule
    assert final is init.schedule


def test_a_run_stops_at_its_first_fixed_point():
    # budgets no sweep comes near, so the deadline never decides a step
    for preset, seeds, budget in (("small", range(10), 12.0), ("medium", range(2), 30.0)):
        for seed in seeds:
            env = generate(preset_config(preset), seed=seed)
            _, trace = run(env, AlterMilpConfig(total_budget=budget, seed=seed))
            _, full = run(env, AlterMilpConfig(total_budget=budget, seed=seed,
                                               early_stop=False))
            assert trace.steps[-1].makespan == full.steps[-1].makespan
            assert len(full.steps) == 1 + 2 * 3
            steps = trace.steps
            kept_nothing = [steps[k].schedule is steps[k - 1].schedule
                            and steps[k + 1].schedule is steps[k].schedule
                            for k in range(1, len(steps), 2)]
            assert kept_nothing[-1] and not any(kept_nothing[:-1]), (preset, seed)
            assert trace.stop_reason == ("converged" if len(steps) < len(full.steps)
                                         else "completed")


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
    for build in (build_fixed_yz, build_fixed_x) * 2:
        current, mk, res = step(env_tiny, build(env_tiny, current), mk, 2.0)
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
        # an assignment half-step is the sweep: its counts, then what its
        # last sub-solve proved
        assert s.diagnostics.startswith("sweep: ") == (s.stage == "erd-assignment")
        assert "dual_bound=" in s.diagnostics
        assert s.status in ("optimal", "feasible-timeout")
        assert doc["diagnostics"] == s.diagnostics and doc["status"] == s.status


class _InfeasibleBackend:
    name = "always-infeasible"

    def solve_raw(self, model, budget):
        return None, "infeasible", "scripted refusal"


class _Granted(_InfeasibleBackend):
    """Records each solve's model kind and time limit; spends ``spend`` of it."""

    def __init__(self, spend=0.0):
        self.spend, self.granted = spend, []

    def solve_raw(self, model, budget):
        self.granted.append((model.kind, budget))
        time.sleep(self.spend * budget)
        return super().solve_raw(model, budget)

    def half_steps(self):
        """The limits of each half-step: a placement solve ends an assignment half-step."""
        steps, limits = [], []
        for kind, budget in self.granted:
            limits.append(budget)
            if kind == "fixed-xy":
                steps += [limits[:-1], limits[-1:]]
                limits = []
        return steps


def test_step_budgets_equal_split(env_tiny):
    # each of the 2T half-steps has total / (2T) seconds: the sweep's
    # deadline, and the placement solve's time limit
    share = 3.0 / 6
    for env in (env_tiny, generate(preset_config("small"), seed=0)):
        backend = _Granted()
        run(env, AlterMilpConfig(iterations=3, total_budget=3.0, backend=backend,
                                 early_stop=False))
        steps = backend.half_steps()
        assert len(steps) == 6
        for assignment, placement in zip(steps[::2], steps[1::2]):
            # every sub-solve fails, so one pass pairs the critical CN with
            # the other C - 1, each with what is left of the share
            assert len(assignment) == env.num_cns - 1
            assert 0 < assignment[0] <= share
            assert all(0 < b <= a for a, b in zip(assignment, assignment[1:]))
            assert placement == [share]

    # a backend that spends each limit: the share is a deadline, so the
    # first sub-solve takes all of it and nothing else runs
    share = 0.3 / 6
    backend = _Granted(spend=1.0)
    _, trace = run(env, AlterMilpConfig(iterations=3, total_budget=0.3, backend=backend,
                                        early_stop=False))
    steps = backend.half_steps()
    for assignment, placement in zip(steps[::2], steps[1::2]):
        assert sum(assignment) <= share and placement == [share]
    for s in trace.steps[1::2]:
        assert s.status == "feasible-timeout"
        assert s.diagnostics.startswith("sweep: 1 sub-solves, 0 improved, error=1, ")
        assert s.diagnostics.endswith("scripted refusal")

    # a share too short for even one sub-solve still leaves a valid schedule
    final, trace = run(env, AlterMilpConfig(iterations=1, total_budget=2e-9))
    final.validate(env)
    assert trace.steps[1].status == "feasible-timeout"
    assert trace.steps[1].model_objective is None
    assert trace.steps[1].diagnostics == "sweep: 0 sub-solves, 0 improved, 0.000s backend"


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
    for seed in range(4):
        start = random_schedule(env_tiny, seed)
        start_mk = makespan_of(env_tiny, start)
        assert start_mk < makespan_of(env_tiny, worst)
        for build in (build_fixed_yz, build_fixed_x):
            kept, mk, res = step(env_tiny, build(env_tiny, start), start_mk, 1.0)
            assert res.ok and kept is start and mk == start_mk
        for method in (min_trans, min_exe):
            out = method(env_tiny, 1.0, seed)
            assert not out.degraded
            assert out.schedule.to_document() == start.to_document()


def _regrouped(schedule):
    """``schedule`` with its jobs listed CN by CN: each CN's sequence is
    kept, only the global interleaving changes, so it replays the same."""
    by_cn = np.argsort(schedule.job_cn[schedule.order], kind="stable")
    return Schedule(job_cn=schedule.job_cn, order=schedule.order[by_cn],
                    object_sn=schedule.object_sn)


def test_an_answer_that_replays_equal_is_not_kept(monkeypatch):
    monkeypatch.setattr(alternating, "extract_schedule", lambda mdl, x: _regrouped(mdl.schedule))
    env = generate(preset_config("small"), seed=0)
    for seed in range(3):
        start = random_schedule(env, seed)
        start_mk = makespan_of(env, start)
        tie = _regrouped(start)
        assert tie != start and makespan_of(env, tie) == start_mk
        for build in (build_fixed_yz, build_fixed_x):
            kept, mk, res = step(env, build(env, start), start_mk, 1.0)
            assert res.ok and kept is start and mk == start_mk
        for method in (min_trans, min_exe):
            assert method(env, 1.0, seed).schedule == start
        swept, ok = pair_sweep(env, start, start_mk, 10.0)
        assert ok and swept.schedule is start and swept.status == "optimal"
        assert _sweep_counts(swept.diagnostics) == (env.num_cns - 1, 0)


def _sweep_counts(diagnostics):
    """(sub-solves, improved) from an erd-assignment step's diagnostics."""
    found = re.match(r"sweep: (\d+) sub-solves, (\d+) improved(, [a-z-]+=\d+)+, "
                     r"[\d.]+s backend; ", diagnostics)
    return int(found[1]), int(found[2])


def test_a_sweep_never_worsens_the_makespan():
    for seed in range(4):
        env = generate(preset_config("small"), seed=seed)
        start = random_schedule(env, seed)
        start_mk = makespan_of(env, start)
        swept, ok = pair_sweep(env, start, start_mk, 10.0, iteration=2)
        final, mk = swept.schedule, swept.makespan
        final.validate(env)
        assert ok and swept.status == "optimal"     # converged, every last-pass solve optimal
        assert (swept.iteration, swept.stage) == (2, "erd-assignment")
        assert mk == makespan_of(env, final) and mk <= start_mk
        runs, improved = _sweep_counts(swept.diagnostics)
        assert (improved > 0) == (mk < start_mk)
        assert runs >= env.num_cns - 1 and f", optimal={runs}, " in swept.diagnostics
        # every CN queue ends in ERD order
        assert final.order.tolist() == erd_orders(env, final.job_cn[None],
                                                  final.object_sn[None])[0].tolist()
        kept, ok = pair_sweep(env, start, start_mk, 10.0, _InfeasibleBackend())
        assert kept.schedule is start and kept.makespan == start_mk and not ok
        # converged with no success: the last sub-solve's status (an infeasible
        # claim against a feasible warm start is an error) and message
        assert kept.status == "error" and kept.diagnostics.endswith("; scripted refusal")
        assert _sweep_counts(kept.diagnostics) == (env.num_cns - 1, 0)


def _pair_of(model):
    """(jobs, cns) a pair model holds variables for, in grid ids."""
    held = model.x_vars >= 0
    return np.flatnonzero(held.any(axis=1)), np.flatnonzero(held.any(axis=0))


def test_each_pair_sub_solve_is_the_enumerated_optimum(monkeypatch):
    solved = []

    def solve(model, budget, backend=None):
        res = real_solve(model, budget, backend=backend)
        solved.append((env, model, res))
        return res

    real_solve = alternating.solve
    monkeypatch.setattr(alternating, "solve", solve)
    for seed in range(3):
        env = generate(GenerationConfig(num_jobs=8, num_objects=6, num_cns=4,
                                        num_local_sns=2, num_remote_sns=2, rng_seed=seed))
        start = random_schedule(env, seed)
        pair_sweep(env, start, makespan_of(env, start), 30.0)
    assert len(solved) >= 9
    for env, model, res in solved:
        assert res.status == "optimal"
        jobs, cns = _pair_of(model)
        assert cns.size == 2
        pinned = model.schedule
        # every re-assignment of the pair's jobs to its two CNs, the rest in place
        job_cns = np.tile(pinned.job_cn, (2 ** jobs.size, 1))
        job_cns[:, jobs] = cns[np.array(list(itertools.product((0, 1), repeat=jobs.size)))]
        object_sns = np.tile(pinned.object_sn, (job_cns.shape[0], 1))
        finish = replay_batch(env, job_cns, erd_orders(env, job_cns, object_sns), object_sns)
        answer = extract_schedule(model, res.x)
        found = replay_batch(env, answer.job_cn[None], answer.order[None],
                             answer.object_sn[None])[0]
        assert found[cns].max() == pytest.approx(finish[:, cns].max(axis=1).min(), rel=1e-9)
        assert answer.order.tolist() == erd_orders(env, answer.job_cn[None],
                                                   answer.object_sn[None])[0].tolist()
        others = ~np.isin(np.arange(env.num_jobs), jobs)
        assert answer.job_cn[others].tolist() == pinned.job_cn[others].tolist()


class _ZeroPoint(_InfeasibleBackend):
    """Claims the all-zero point optimal, which breaks every assignment row."""

    name = "zero-point"

    def solve_raw(self, model, budget):
        return np.zeros(model.num_vars), "optimal", "scripted zero point"


def test_a_rejected_pair_answer_names_the_grids_jobs(monkeypatch):
    solved = []

    def solve(model, budget, backend=None):
        res = real_solve(model, budget, backend=backend)
        solved.append((model, res))
        return res

    real_solve = alternating.solve
    monkeypatch.setattr(alternating, "solve", solve)
    env = generate(preset_config("small"), seed=0)
    s = random_schedule(env, 0)
    start = Schedule(job_cn=s.job_cn, order=erd_orders(env, s.job_cn[None], s.object_sn[None])[0],
                     object_sn=s.object_sn)
    start_mk = makespan_of(env, start)
    swept, ok = pair_sweep(env, start, start_mk, 10.0, _ZeroPoint())
    # the warm start, the start itself, survives each rejection
    assert swept.schedule is start and swept.makespan == start_mk and ok
    assert swept.status == "feasible-timeout"
    assert _sweep_counts(swept.diagnostics) == (len(solved), 0) == (env.num_cns - 1, 0)
    named = []
    for model, res in solved:
        jobs, _ = _pair_of(model)
        assert res.status == "feasible-timeout"
        assert res.diagnostics.startswith("backend solution rejected: m = ")
        ids = [int(j) for j in re.findall(r"row assign\[(\d+)\]", res.diagnostics)]
        assert ids == jobs[:2].tolist()
        named += ids
    assert set(named) - {0, 1}
    assert swept.diagnostics.endswith("; " + solved[-1][1].diagnostics)


def test_a_sweep_holds_at_most_two_pair_models():
    class Counting(HighsBackend):
        """HiGHS, counting the models it was handed that are still alive."""

        def __init__(self):
            super().__init__()
            self.handed, self.alive = [], []

        def solve_raw(self, model, budget):
            self.handed.append(weakref.ref(model))
            self.alive.append(sum(ref() is not None for ref in self.handed))
            return super().solve_raw(model, budget)

    env = generate(preset_config("medium"), seed=0)
    start = greedy_start(env, 0)
    backend = Counting()
    swept, _ = pair_sweep(env, start, makespan_of(env, start), 60.0, backend)
    assert swept.status == "optimal"
    # this one and the last, whose result the sweep drops when this returns
    assert len(backend.alive) >= env.num_cns and max(backend.alive) <= 2


def test_a_run_repeats_exactly_when_no_budget_binds():
    def trace_of(seed):
        _, trace = run(env, AlterMilpConfig(iterations=3, total_budget=600.0, seed=seed))
        doc = trace.to_document()
        for s in doc["steps"]:
            del s["wall_time"]
            s["diagnostics"] = re.sub(r"[\d.]+s backend", "", s["diagnostics"])
        return doc

    for seed in (0, 1):
        env = generate(preset_config("small"), seed=seed)
        assert trace_of(seed) == trace_of(seed)


def test_the_trace_explains_the_sweep():
    env = generate(preset_config("small"), seed=2)
    _, trace = run(env, AlterMilpConfig(iterations=2, total_budget=4.0, seed=2,
                                        early_stop=False))
    assert [s.stage for s in trace.steps] == ["init"] + ["erd-assignment", "placement"] * 2
    for s in trace.steps[1::2]:
        runs, improved = _sweep_counts(s.diagnostics)
        assert runs >= env.num_cns - 1 and 0 <= improved <= runs
        # then what the last sub-solve proved
        assert "dual_bound=" in s.diagnostics.split("backend; ", 1)[1]
        assert s.wall_time > 0
    # two CNs: the one pair is the whole grid, still reported as a sweep
    _, trace = run(tiny_env(0), AlterMilpConfig(iterations=1, total_budget=2.0))
    runs, _ = _sweep_counts(trace.steps[1].diagnostics)
    assert runs >= 1
    assert trace.steps[1].diagnostics.split("backend; ", 1)[1].startswith("Optimal")


class _Recording(HighsBackend):
    """HiGHS, keeping every model it solves."""

    def __init__(self):
        super().__init__()
        self.models = []

    def solve_raw(self, model, budget):
        self.models.append(model)
        return super().solve_raw(model, budget)


@pytest.mark.parametrize("budget", [-1, 0, True, "2", float("inf"), float("nan")])
def test_a_sweep_rejects_a_bad_budget_before_any_solve(budget):
    env = generate(preset_config("small"), seed=0)
    start = random_schedule(env, 0)
    backend = _Recording()
    with pytest.raises(ValueError, match="^budget must be a finite number of seconds > 0"):
        pair_sweep(env, start, makespan_of(env, start), budget, backend)
    assert backend.models == []


def test_an_assignment_half_step_is_its_pair_sweep_alone():
    for env, budget in ((tiny_env(0), 2.0), (generate(preset_config("small"), seed=1), 2.0),
                        (generate(preset_config("medium"), seed=0), 120.0)):
        backend = _Recording()
        start = time.perf_counter()
        _, trace = run(env, AlterMilpConfig(iterations=2, total_budget=budget, backend=backend,
                                            early_stop=False))
        # a sweep ends when a pass keeps nothing, long before a generous share
        assert time.perf_counter() - start < 20
        assert [m.kind for m in backend.models].count("fixed-xy") == 2
        for model in backend.models:
            assert model.kind in ("erd-assignment", "fixed-xy")
            if model.kind == "erd-assignment":
                assert (model.x_vars >= 0).any(axis=0).sum() == 2
        for s in trace.steps[1::2]:
            assert s.stage == "erd-assignment" and s.diagnostics.startswith("sweep: ")
            assert s.status in ("optimal", "feasible-timeout")


def test_one_backend_is_built_before_any_share_starts(monkeypatch):
    built, granted = [], []

    class Slow(HighsBackend):
        def __init__(self):
            time.sleep(0.3)
            super().__init__()
            built.append(self)

        def solve_raw(self, model, budget):
            granted.append((model.kind, budget))
            return super().solve_raw(model, budget)

    monkeypatch.setattr(alternating, "HighsBackend", Slow)
    env = generate(preset_config("small"), seed=0)
    run(env, AlterMilpConfig(iterations=1, total_budget=2.0))
    assert len(built) == 1
    assert granted[0][0] == "erd-assignment" and 1.0 - granted[0][1] < 0.05
    assert granted[-1] == ("fixed-xy", 1.0)

    # one CN: there is no pair, so the assignment half-step solves nothing
    env = generate(GenerationConfig(num_jobs=6, num_objects=4, num_cns=1, num_local_sns=2,
                                    num_remote_sns=2, rng_seed=3))
    granted.clear()
    final, trace = run(env, AlterMilpConfig(iterations=2, total_budget=2.0, early_stop=False))
    final.validate(env)
    assert [kind for kind, _ in granted] == ["fixed-xy"] * 2
    mks = trace.makespans()
    assert all(b <= a for a, b in zip(mks, mks[1:])) and not trace.degraded
    for s in trace.steps[1::2]:
        assert s.status == "optimal" and s.wall_time == 0
        assert s.diagnostics == "sweep: 0 sub-solves, 0 improved, 0.000s backend"
