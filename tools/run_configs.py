#!/usr/bin/env python3
"""Write the artifact sets that a byte-identity check compares.

    python3 tools/run_configs.py OUT [--only NAME]

Runs the CLI of the checkout this file sits in (its src/ first on the
path) on these sets, or on the one named by --only:

- tiny1, tiny2: the shipped configs, with every command;
- reduced: delay_feedback_reduced.json, with every command but
  oracle-compare, which takes only delay-free problems;
- main: delay_feedback.json at 2,000 paths: solve, evaluate,
  export-figures and check-assumptions;
- grid-reduced, regression-lift6, mc-probe: the benchmark workloads at
  seed 1, as bench/workloads.make_config builds them, with their commands;
- regression-lift6-forked: regression-lift6 at 4,096 paths, solve and
  evaluate, so that the regression policy runs in two forked path ranges;
- grid-reduced-serial: grid-reduced with one usable core, so that its
  levels, policy runs and value-table saves all run in-process; its files
  equal grid-reduced's.
- mc-probe-stochastic: mc-probe with the jump clamped at 10, so that the
  probe's noise does not cancel and probe-flow still draws its 50,000
  keyed rows in forked path ranges; check-assumptions reports the
  clamped jump's constants.

Set NAME lands in OUT/NAME/: the config it ran (config.json), the
artifacts of its commands, and each command's exit code
(exit_codes.json).  Two checkouts' outputs are then compared with

    python3 tools/same_artifacts.py OUT_A OUT_B
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from sddeimpulse import cli, simulate  # noqa: E402
import workloads  # noqa: E402

EVERY = ("solve", "evaluate", "simulate", "export-figures", "probe-flow",
         "check-assumptions")


# set -> (shipped config, commands, evaluation.n_paths or None to keep it)
SHIPPED = {"tiny1": ("tiny1.json", EVERY + ("oracle-compare",), None),
           "tiny2": ("tiny2.json", EVERY + ("oracle-compare",), None),
           "reduced": ("delay_feedback_reduced.json", EVERY, None),
           "main": ("delay_feedback.json",
                    ("solve", "evaluate", "export-figures",
                     "check-assumptions"), 2000)}
# set -> (benchmark workload at seed 1, commands, evaluation.n_paths)
FORKED = {"regression-lift6-forked": ("regression-lift6", ("solve", "evaluate"),
                                      4096)}
# set -> benchmark workload at seed 1, run with one usable core
SERIAL = {"grid-reduced-serial": "grid-reduced"}
# set -> (benchmark workload at seed 1, limit of its additive_clamped jump)
CLAMPED = {"mc-probe-stochastic": ("mc-probe", 10.0)}
SETS = (list(SHIPPED) + list(workloads.WORKLOADS) + list(FORKED)
        + list(SERIAL) + list(CLAMPED))


def set_config(name):
    """(raw config, commands) of the set `name`."""
    name = SERIAL.get(name, name)
    if name in CLAMPED:
        base, limit = CLAMPED[name]
        raw, commands = set_config(base)
        raw["problem"]["intervention"] = {"name": "additive_clamped",
                                          "limit": limit}
        return raw, commands + ("check-assumptions",)
    if name in workloads.WORKLOADS:
        return (workloads.make_config(name, 1, CONFIGS)[0],
                workloads.WORKLOADS[name].commands)
    if name in FORKED:
        base, commands, n_paths = FORKED[name]
        raw = workloads.make_config(base, 1, CONFIGS)[0]
    else:
        base, commands, n_paths = SHIPPED[name]
        with open(os.path.join(CONFIGS, base)) as fh:
            raw = json.load(fh)
    if n_paths is not None:
        raw["evaluation"]["n_paths"] = n_paths
    return raw, commands


def run_set(name, out):
    raw, commands = set_config(name)
    os.makedirs(out, exist_ok=True)
    config = os.path.join(out, "config.json")
    workloads.write_config(raw, config)
    cores = simulate._usable_cores
    if name in SERIAL:
        simulate._usable_cores = lambda: 1
    try:
        codes = {command: cli.main([command, "--config", config, "--out", out])
                 for command in commands}
    finally:
        simulate._usable_cores = cores
    with open(os.path.join(out, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=2)
        fh.write("\n")
    return codes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", help="directory that receives one folder per set")
    p.add_argument("--only", choices=SETS, help="run this set only")
    args = p.parse_args(argv)
    for name in [args.only] if args.only else SETS:
        codes = run_set(name, os.path.join(args.out, name))
        print(f"{name}: " + " ".join(f"{c}={code}" for c, code in codes.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
