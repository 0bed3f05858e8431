"""Seeded end-to-end benchmark of gridopt: schedule quality, time to
schedule and budget honesty, with a separate traced run for per-layer
metrics.

Run from the repository root (the package is imported from ``src/``):

    python3 perfbench/run.py --workload search-medium --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 1
    python3 perfbench/run.py --smoke

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run also writes its result document (and, when traced,
its spans) to ``perfbench/results/``.  ``perfbench/README.md`` defines
every metric.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_import_start = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import gridopt  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start
if Path(gridopt.__file__).resolve().parent != ROOT / "src" / "gridopt":
    sys.exit(f"gridopt was imported from {gridopt.__file__}, not from {ROOT / 'src'}")

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from gridopt import baselines, kernels  # noqa: E402
from workloads import WORKLOADS, check, instance_seeds, make_instances, run_pass  # noqa: E402

RESULTS = ROOT / "perfbench" / "results"
MANIFEST = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 9


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernels.backend_name(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": _git_commit(),
    }


def setup(workload, seed: int, instances: int):
    """Generate the run's environments and warm the replay kernel.

    Returns (instances, setup_s, generate_s): the slowest of SETUP_REPEATS
    rounds of generating every environment plus one warm-up replay, and
    the generation part of that round.  The slowest round includes any
    one-off cost such as a jit kernel compiling on its first call, and on
    a shared machine it reads the contended speed that every run sees.
    """
    seeds = instance_seeds(seed, instances)
    rounds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        envs = make_instances(workload, seeds)
        generated = time.perf_counter()
        env = envs[0][1]
        gridopt.evaluate(env, gridopt.random_schedule(env, 0))
        rounds.append((time.perf_counter() - start, generated - start))
    setup_s, generate_s = max(rounds)
    return envs, setup_s, generate_s


def gated_pass(workload, envs, tracer=None):
    """One timed pass, then the correctness gate on each outcome, untimed."""
    by_seed = dict(envs)
    return [(o, check(workload, by_seed[o.instance], o))
            for o in run_pass(workload, envs, tracer)]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 instances: int | None = None) -> dict:
    """One benchmark run; returns its result document.

    Untraced, the run makes ``workload.passes(seconds)`` passes and each
    instance's wall time is the slowest of them: on a machine whose cores
    are shared, the contended speed is the one that recurs in every run,
    while an uncontended stretch may or may not occur.  Traced, one
    untraced pass is followed by one traced pass, and the difference in
    their wall time is the tracing overhead.
    """
    workload = WORKLOADS[name]
    count = workload.instances if instances is None else instances
    envs, setup_s, generate_s = setup(workload, seed, count)
    passes = [gated_pass(workload, envs)
              for _ in range(1 if trace else workload.passes(seconds))]

    per_instance = {
        s: max(sum(o.wall for o, _ in p if o.instance == s) for p in passes)
        for s, _ in envs
    }
    wall_s = statistics.median(per_instance.values())
    doc = {"workload": name, "seed": seed, "trace": int(trace), "instances": count,
           "provenance": provenance(), "import_s": IMPORT_S, "passes": len(passes),
           "per_instance_wall_s": {str(s): w for s, w in per_instance.items()}}

    if trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = gated_pass(workload, envs, tracer)
        passes.append(traced)
        metrics = tracing.layer_metrics(tracer)
        metrics["environment.generate.s"] = (generate_s, "s")
        metrics["trace.overhead_s"] = (
            sum(o.wall for o, _ in traced) - sum(o.wall for o, _ in passes[0]), "s")
        RESULTS.mkdir(parents=True, exist_ok=True)
        span_file = RESULTS / f"{name}-seed{seed}-spans.json"
        tracer.save(span_file)
        doc["span_file"] = span_file.relative_to(ROOT).as_posix()

    gated = [pair for p in passes for pair in p]
    failed = sum(1 for _, problems in gated if problems)
    if not trace:
        reference = {s: baselines.random_baseline(env, s).makespan for s, env in envs}
        ratios = {}
        for o, _ in gated:
            if o.error is None:
                ratios.setdefault(o.method, []).append(o.makespan / reference[o.instance])
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "schedules_per_s": (workload.scored_per_instance / wall_s, "1/s"),
            "rel_makespan": (statistics.fmean(statistics.median(rs) for rs in ratios.values())
                             if ratios else math.nan, "ratio"),
            "success_rate": (1.0 - failed / len(gated), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        doc["rel_improvement"] = {m: 1.0 - statistics.fmean(rs) for m, rs in ratios.items()}
        doc["makespans"] = {m: {str(o.instance): o.makespan for o, _ in gated if o.method == m}
                            for m in ratios}
        if workload.budget is not None:
            doc["wall_over_budget"] = {
                str(s): w / workload.budget for s, w in per_instance.items()}
        doc["random_makespan"] = {str(s): mk for s, mk in reference.items()}
        doc["solver_statuses"] = dict(Counter(st for o, _ in gated for st in o.statuses))
    doc["problems"] = [f"{o.method} on instance {o.instance}: {p}"
                       for o, problems in gated for p in problems]
    doc["result"] = {
        "correct": failed == 0,
        "attempted": len(gated),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc


def schema_problems(doc: dict) -> list[str]:
    """Ways a result document breaks the output contract in BENCHMARK.json."""
    manifest = json.loads(MANIFEST.read_text())
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if doc["trace"] else "end_to_end"]}
    result = doc["result"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append("attempted/failed must be whole numbers, attempted >= 1")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics/units differ from the manifest: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for k, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{k} is not a finite number: {m['value']!r}")
    return problems


def describe(doc: dict) -> list[str]:
    name = doc["workload"]
    lines = [f"# {name} seed={doc['seed']} trace={doc['trace']} "
             f"instances={doc['instances']} passes={doc['passes']}",
             "# provenance " + " ".join(f"{k}={v}" for k, v in doc["provenance"].items()),
             f"# import of gridopt (not in setup_s) {doc['import_s']:.4f} s"]
    for k, m in doc["result"]["metrics"].items():
        lines.append(f"{name:15s} {k:32s} {m['value']:>16.6g} {m['unit']}")
    for method, value in doc.get("rel_improvement", {}).items():
        lines.append(f"{name:15s} {method + '.rel_improvement':32s} {value:>16.6g} ratio")
    if "wall_over_budget" in doc:
        ratios = doc["wall_over_budget"].values()
        lines.append(f"{name:15s} {'wall_over_budget (median)':32s} "
                     f"{statistics.median(ratios):>16.6g} ratio")
    if doc.get("solver_statuses"):
        lines.append("# sub-solve statuses " + " ".join(
            f"{k}={v}" for k, v in sorted(doc["solver_statuses"].items())))
    if "span_file" in doc:
        lines.append(f"# spans written to {doc['span_file']}")
    lines += [f"# FAILED {p}" for p in doc["problems"]]
    return lines


def smoke(report) -> bool:
    """One instance per workload, untraced and traced; gates schema, not timing."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            doc = run_workload(name, seed=0, seconds=0, trace=trace, instances=1)
            problems = schema_problems(doc) + doc["problems"]
            print(f"# smoke {name} trace={int(trace)}: "
                  f"{'ok' if not problems else '; '.join(problems)}", file=report)
            ok = ok and not problems
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one instance per workload; check the output schema only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    # HiGHS writes progress notes to the C-level stdout; send everything the
    # library prints to stderr so the result stays the last stdout line.
    sys.stdout.flush()
    report = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())

    if args.smoke:
        ok = smoke(report)
        print("smoke ok" if ok else "smoke FAILED", file=report, flush=True)
        return 0 if ok else 1

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    docs = []
    for name in names:
        doc = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for line in describe(doc):
            print(line, file=report, flush=True)
        docs.append(doc)
    if len(docs) == 1:
        final = docs[0]["result"]
    else:
        final = {
            "correct": all(d["result"]["correct"] for d in docs),
            "attempted": sum(d["result"]["attempted"] for d in docs),
            "failed": sum(d["result"]["failed"] for d in docs),
            "metrics": {f"{d['workload']}/{k}": m
                        for d in docs for k, m in d["result"]["metrics"].items()},
        }
    print(json.dumps(final), file=report, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
