"""Command line front end: gen, evaluate, optimize, bench."""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bench import (METHODS, MethodSpec, load_experiment, run_experiment,
                    run_method, sweep_budget, sweep_iterations)
from .environment import (_GENERATION_DIMENSIONS, _GENERATION_FIELDS, GRID_PRESETS,
                          GenerationConfig, echo, generate, load_environment, preset_config)
from .evaluator import evaluate
from .schedule import load_schedule


def _flag(name: str) -> str:
    """The `gen` flag that sets GenerationConfig field ``name``."""
    return "--" + name.removesuffix("_kb").replace("_", "-")


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate a random environment file")
    p.add_argument("--preset", choices=sorted(GRID_PRESETS),
                   help="named grid size supplying default dimensions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output environment JSON path")
    # one flag per GenerationConfig field but rng_seed (--seed), stored
    # under the field's name; its value is checked by the config
    for name, (kind, pair) in _GENERATION_FIELDS.items():
        if name != "rng_seed":
            p.add_argument(_flag(name), dest=name, type=kind, help=f"GenerationConfig.{name}",
                           **(dict(nargs=2, metavar=("LO", "HI")) if pair else {}))


def _cmd_gen(args) -> int:
    overrides = {name: getattr(args, name) for name in _GENERATION_FIELDS
                 if getattr(args, name, None) is not None}
    if args.preset is not None:
        config = preset_config(args.preset, seed=args.seed, **overrides)
    else:
        missing = [name for name in _GENERATION_DIMENSIONS if name not in overrides]
        if missing:
            raise SystemExit(
                "without --preset, the dimensions must be given explicitly; "
                "missing: " + ", ".join(map(_flag, missing))
            )
        config = GenerationConfig(rng_seed=args.seed, **overrides)
    env = generate(config)
    env.save(args.out)
    print(json.dumps({
        "out": args.out,
        "jobs": env.num_jobs, "objects": env.num_objects,
        "cns": env.num_cns, "local_sns": env.num_local_sns,
        "remote_sns": env.num_remote_sns, "seed": args.seed,
    }))
    return 0


def _add_evaluate(sub):
    p = sub.add_parser("evaluate", help="replay a schedule and print its timings")
    p.add_argument("--env", required=True)
    p.add_argument("--schedule", required=True)


def _cmd_evaluate(args) -> int:
    env = load_environment(args.env)
    schedule = load_schedule(args.schedule)
    report = evaluate(env, schedule)
    print(json.dumps(report.to_document(), indent=2))
    return 0


def _add_optimize(sub):
    p = sub.add_parser("optimize", help="run one optimization method")
    p.add_argument("--env", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--budget", type=float, default=3.0,
                   help="solver/wall budget in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the resulting schedule JSON here")
    p.add_argument("--trace", help="write the optimization trace JSON here (altermilp)")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                   help="method param, as in an experiment's params; VALUE is read "
                        "as JSON, or else kept as a string (repeatable)")


def _parse_params(items) -> dict:
    params = {}
    for item in items:
        name, sep, text = item.partition("=")
        if not (sep and name):
            raise ValueError(f"--param expects NAME=VALUE, got {echo(item)}")
        try:
            params[name] = json.loads(text)
        except json.JSONDecodeError:
            params[name] = text
    return params


def _cmd_optimize(args) -> int:
    spec = MethodSpec(args.method, params=_parse_params(args.param))
    env = load_environment(args.env)
    start = time.perf_counter()
    run = run_method(env, spec, args.seed, args.budget)
    wall = time.perf_counter() - start
    if args.out:
        run.schedule.save(args.out)
    if args.trace and run.trace is not None:
        run.trace.save(args.trace)
    print(json.dumps({
        "method": args.method,
        "makespan": run.makespan,
        "wall_time_s": round(wall, 6),
        "solver_statuses": list(run.solver_statuses),
        "degraded": run.degraded,
        "schedule_file": args.out,
        "trace_file": args.trace if run.trace is not None else None,
    }))
    return 0


def _add_bench(sub):
    p = sub.add_parser("bench", help="run a benchmark experiment from a config file")
    p.add_argument("action", nargs="?", default="run",
                   choices=["run", "sweep-budget", "sweep-iters"])
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--budgets", help="comma-separated budgets for sweep-budget")
    p.add_argument("--ts", help="comma-separated iteration counts for sweep-iters")
    p.add_argument("--mode", choices=["divided", "same"],
                   help="sweep-iters: fixed total budget vs fixed per-iteration budget")


def _parse_list(text: str, flag: str, kind) -> list:
    """Comma-separated ``kind`` values of ``flag``; a bad item names the flag."""
    values = []
    for item in text.split(","):
        try:
            values.append(kind(item))
        except ValueError:
            raise ValueError(f"{flag} expects comma-separated {kind.__name__} values, "
                             f"got {echo(item)} in {echo(text)}") from None
    return values


def _cmd_bench(args) -> int:
    config = load_experiment(args.config)
    if args.action == "run":
        result = run_experiment(config, out_dir=args.out)
    elif args.action == "sweep-budget":
        if not args.budgets:
            raise SystemExit("sweep-budget requires --budgets")
        budgets = _parse_list(args.budgets, "--budgets", float)
        result = sweep_budget(config, budgets, out_dir=args.out)
    else:
        if not args.ts or not args.mode:
            raise SystemExit("sweep-iters requires --ts and --mode")
        ts = _parse_list(args.ts, "--ts", int)
        result = sweep_iterations(config, ts, args.mode, out_dir=args.out)
    summary = {
        "rows": len(result.rows),
        "failed": sum(1 for r in result.rows if r.status == "failed"),
        "output_dir": str(result.output_dir) if result.output_dir else None,
        "aggregate": [
            {"method": a.method, "budget": a.budget, "iterations": a.iterations,
             "mean_makespan": a.mean_makespan, "rank": a.rank}
            for a in result.aggregates
        ],
    }
    print(json.dumps(summary, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridopt",
        description="Joint job scheduling and data allocation on simulated grids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen(sub)
    _add_evaluate(sub)
    _add_optimize(sub)
    _add_bench(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "gen": _cmd_gen,
        "evaluate": _cmd_evaluate,
        "optimize": _cmd_optimize,
        "bench": _cmd_bench,
    }
    try:
        return commands[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
