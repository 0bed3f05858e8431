"""What each entry point loads: scipy only once a MILP is solved or a result ranked.

Searching and replaying need numpy alone; scipy.sparse, scipy.optimize and
scipy.stats roughly triple a process's resident memory and import time.
Each stage runs in one fresh interpreter, in order, and reports which of
the three modules it has loaded so far.
"""

import json

from conftest import run_python

SCIPY = ("scipy.sparse", "scipy.optimize", "scipy.stats")

SCRIPT = """
import contextlib, io, json, sys, tempfile
from pathlib import Path

def loaded(stage):
    print(json.dumps([stage, [m for m in %r if m in sys.modules]]))

import gridopt, gridopt.cli
from gridopt import evaluate
from gridopt.baselines import GaConfig, ensemble_greedy, ga
from gridopt.environment import generate, preset_config
loaded("import")

env = generate(preset_config("small", seed=0))
run = ga(env, GaConfig(population=8, generations=3, seed=0))
evaluate(env, run.schedule)
ensemble_greedy(env, 0, runs=4)
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    env_path, sched_path = str(Path(tmp, "env.json")), str(Path(tmp, "sched.json"))
    gridopt.cli.main(["gen", "--preset", "small", "--out", env_path])
    run.schedule.save(sched_path)
    gridopt.cli.main(["evaluate", "--env", env_path, "--schedule", sched_path])
loaded("search")

from gridopt.model import build_fixed_x
model = build_fixed_x(env, run.schedule)
loaded("build")
assert model.check_assignment(model.warm_x) == []
loaded("check")

from gridopt.solver import HighsBackend
HighsBackend()
loaded("backend")

from gridopt.bench import aggregate_rows
aggregate_rows([])
loaded("aggregate")
""" % (SCIPY,)


def test_scipy_loads_only_where_a_milp_or_a_rank_needs_it():
    proc = run_python("-c", SCRIPT)
    assert proc.returncode == 0, proc.stderr
    stages = dict(json.loads(line) for line in proc.stdout.splitlines())
    assert stages == {
        "import": [],
        "search": [],
        "build": [],
        "check": [],
        "backend": ["scipy.sparse", "scipy.optimize"],
        "aggregate": ["scipy.sparse", "scipy.optimize", "scipy.stats"],
    }
