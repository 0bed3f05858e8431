"""Joint job scheduling and data allocation for simulated grid computing.

The package models grids where jobs on compute nodes read replicated data
objects over a two-level network, evaluates schedules exactly by replaying
the transfer/execution pipeline, and optimizes them with alternating MILP
solves plus a set of reference baselines and a benchmark harness.
"""

from .alternating import AlterMilpConfig, OptimizationTrace, run as run_altermilp
from .environment import (GenerationConfig, GridEnvironment, GRID_PRESETS,
                          environment_from_document, generate, load_environment,
                          preset_config)
from .evaluator import MakespanReport, compute_big_a, evaluate
from .model import (build_erd_assignment, build_fixed_all, build_fixed_x,
                    build_fixed_yz, build_monolithic, extract_schedule)
from .schedule import (Schedule, load_schedule, random_schedule,
                       schedule_from_document)
from .solver import SolveResult, brute_force_optimal, candidate_count, solve

__version__ = "0.1.0"

__all__ = [
    "AlterMilpConfig", "GenerationConfig", "GridEnvironment", "GRID_PRESETS",
    "MakespanReport", "OptimizationTrace", "Schedule", "SolveResult",
    "brute_force_optimal", "build_erd_assignment", "build_fixed_all", "build_fixed_x",
    "build_fixed_yz", "build_monolithic", "candidate_count", "compute_big_a",
    "environment_from_document", "evaluate", "extract_schedule", "generate",
    "load_environment", "load_schedule", "preset_config",
    "random_schedule", "run_altermilp", "schedule_from_document", "solve",
]
