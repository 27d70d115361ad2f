"""Benchmark workloads: seeded run configs derived from the shipped configs.

A workload is a shipped config with a few fields overridden, plus the CLI
commands run on it.  The workload seed sets evaluation.seed and
solver.sample_seed; the program itself only ever sees the generated config.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from sddeimpulse.cli import RunConfig


@dataclass(frozen=True)
class Workload:
    base: str            # file name under configs/
    overrides: tuple     # ((section, key, value), ...)
    commands: tuple      # CLI subcommands, run in order on one run directory
    why: str


# Sizes are cut from the shipped configs so that one pass of the command
# sequence takes about 10 s on a 2-core box; each cut keeps the defect the
# workload is meant to show (value_gap > 0 on the grid, V(0,x0) > 0 and a
# losing policy on regression).
WORKLOADS = {
    "grid-reduced": Workload(
        base="delay_feedback_reduced.json",
        overrides=(("problem", "horizon", 0.5),
                   ("evaluation", "n_paths", 4000)),
        commands=("solve", "evaluate", "simulate", "export-figures"),
        why="grid backend hot path: interpolation inside the impulse max, "
            "batch and single-state policy decisions, value-function CSV "
            "write and read-back"),
    "regression-lift6": Workload(
        base="delay_feedback.json",
        overrides=(("problem", "horizon", 0.1),
                   ("discretization", "n_impulse", 11),
                   ("solver", "n_samples", 2000),
                   ("evaluation", "n_paths", 500)),
        commands=("solve", "evaluate", "export-figures"),
        why="regression backend at the paper's lift dimension 6: design "
            "matrix, ridge fits and the impulse max over polynomial fits"),
    "mc-probe": Workload(
        base="delay_feedback.json",
        overrides=(("evaluation", "n_paths", 50000),),
        commands=("probe-flow",),
        why="Monte Carlo only: per-path Philox noise and the Euler engine, "
            "no value function at all"),
}


def derived_seeds(seed):
    """(evaluation.seed, solver.sample_seed) for a workload seed.

    The two must differ: the solver's sample cloud and the evaluation paths
    would otherwise share their per-path noise streams.
    """
    if seed < 0:
        raise ValueError(f"workload seed must be >= 0, got {seed}")
    ev, sample = np.random.SeedSequence(seed).generate_state(2)
    return int(ev), int(sample)


def make_config(name, seed, configs_dir):
    """The raw config dict for workload `name` at `seed`, validated through
    RunConfig; returns (raw, RunConfig)."""
    wl = WORKLOADS[name]
    with open(os.path.join(configs_dir, wl.base)) as fh:
        raw = json.load(fh)
    for section, key, value in wl.overrides:
        raw[section][key] = value
    raw["evaluation"]["seed"], raw["solver"]["sample_seed"] = derived_seeds(seed)
    return raw, RunConfig(raw)


def write_config(raw, path):
    with open(path, "w") as fh:
        json.dump(raw, fh, sort_keys=True, indent=2)
        fh.write("\n")
