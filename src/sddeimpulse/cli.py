"""Command line front end: config loading, run orchestration, artifact export.

Subcommands operate on a single JSON run config and a run directory.  solve
writes value function dumps plus a summary; simulate / evaluate /
export-figures read them back.  Everything is seeded through the config so
repeated runs are byte-identical (wall_time in summary.json is the one
documented exception).
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, simulate
from .core import (TIME_TOL, ValidationError, build_problem_spec,
                   check_assumptions, ImpulseControl, integer, json_object,
                   real_number, reject_unknown, require)
from .simulate import (KeyedNoise, TimeGrid, estimate_J,
                       export_trajectories_csv, flow_stability_probe,
                       fork_jobs, initial_lifted_state, noise_cancels,
                       SimulationError)
from .lattice import (gauss_hermite_quadrature, two_point_quadrature,
                      three_point_quadrature)
from .bellman import (GridBackend, Policy, RegressionBackend, budget_decider,
                      k_value_iteration, save_value_function,
                      load_value_function, table_entries, DivergenceError)
from .oracle import (FiniteTree, enumerate_controls, exact_state_axis,
                     table_from_decisions, table_to_json)


_TOP_KEYS = ("problem", "discretization", "solver", "evaluation",
             "output_dir")
_DISC_KEYS = ("dt", "grid_bound", "points_per_axis", "n_impulse",
              "quadrature", "quadrature_nodes")
_SOLVER_KEYS = ("backend", "k_max", "tol", "degree", "ridge_lambda",
                "n_samples", "exploration_rate", "sample_seed")
_EVAL_KEYS = ("n_paths", "seed")


class RunConfig:
    """Validated run configuration; see configs/ for examples."""

    def __init__(self, raw):
        reject_unknown(json_object(raw, "config"), _TOP_KEYS, "config")
        self.raw = raw
        self.problem, disc, sol, ev = (
            json_object(require(raw, section, "config"), section)
            for section in ("problem", "discretization", "solver",
                            "evaluation"))
        reject_unknown(disc, _DISC_KEYS, "discretization")
        reject_unknown(sol, _SOLVER_KEYS, "solver")
        reject_unknown(ev, _EVAL_KEYS, "evaluation")

        self.dt = real_number(require(disc, "dt", "discretization"),
                              "discretization.dt")
        self.grid_bound = real_number(disc.get("grid_bound", 4.0),
                                      "discretization.grid_bound")
        self.points_per_axis = integer(disc, "discretization",
                                       "points_per_axis", 41, lowest=2)
        self.n_impulse = integer(disc, "discretization", "n_impulse", 41)
        quadrature = disc.get("quadrature", "gauss_hermite")
        # fewer than two Gauss-Hermite nodes cannot carry the variance dt
        quadrature_nodes = integer(disc, "discretization",
                                   "quadrature_nodes", 7, lowest=2)

        self.backend = sol.get("backend", "grid")
        if self.backend not in ("grid", "regression"):
            raise ValidationError(f"solver.backend: unknown backend {self.backend!r}")
        self.k_max = integer(sol, "solver", "k_max", 10)
        self.tol = real_number(sol.get("tol", 1e-3), "solver.tol")

        self.n_paths = integer(ev, "evaluation", "n_paths")
        self.seed = _check_seed("evaluation.seed", integer(
            ev, "evaluation", "seed", lowest=None))
        self.output_dir = raw.get("output_dir", "runs/out")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ValidationError("output_dir: must be a nonempty string, got "
                                  f"{self.output_dir!r}")

        if not self.grid_bound > 0:
            raise ValidationError("discretization.grid_bound: must be "
                                  f"positive, got {self.grid_bound}")
        if not self.tol > 0:
            raise ValidationError(f"solver.tol: must be > 0, got {self.tol}")

        # the backend and the time grid own the range rules of their settings
        self.regression = RegressionBackend(
            degree=integer(sol, "solver", "degree", 3, lowest=None),
            ridge_lambda=real_number(sol.get("ridge_lambda", 1e-8),
                                     "solver.ridge_lambda"),
            n_samples=integer(sol, "solver", "n_samples", 4000),
            exploration_rate=real_number(sol.get("exploration_rate", 0.1),
                                         "solver.exploration_rate"),
            sample_seed=integer(sol, "solver", "sample_seed", 1234,
                                lowest=None))
        self.spec = build_problem_spec(self.problem)
        # TimeGrid.for_spec enforces that dt divides both delay and horizon
        self.grid = TimeGrid.for_spec(self.spec, self.dt)
        self.quadrature = _quadrature(quadrature, self.dt, quadrature_nodes)

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ValidationError(f"cannot read config {path}: {e}")
        except ValueError as e:  # bad JSON, bad UTF-8, over-long integers
            raise ValidationError(f"config {path} is not valid JSON: {e}")
        return cls(raw)

    def config_hash(self):
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @property
    def sample_seed(self):
        return self.regression.sample_seed

    def u_grid(self):
        return self.spec.impulse_set.grid(self.n_impulse)

    def build_backend(self):
        if self.backend == "regression":
            return self.regression
        return GridBackend(np.linspace(-self.grid_bound, self.grid_bound,
                                       self.points_per_axis))

    def initial_state(self):
        return initial_lifted_state(self.spec, self.grid)[None, :]


def _quadrature(kind, dt, n_nodes):
    if kind == "gauss_hermite":
        return gauss_hermite_quadrature(dt, n_nodes)
    if kind == "two_point":
        return two_point_quadrature(dt)
    if kind == "three_point":
        return three_point_quadrature(dt)
    raise ValidationError(f"discretization.quadrature: unknown kind {kind!r}")


def _check_seed(name, seed):
    """The seed, if Philox can take it as a key word: 0 <= seed < 2**64."""
    if not 0 <= seed < 2 ** 64:
        raise ValidationError(f"{name}: must lie in [0, 2**64), got {seed}")
    return seed


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(out_dir, cfg, command):
    _write_json(os.path.join(out_dir, "manifest.json"),
                {"config_hash": cfg.config_hash(),
                 "code_version": __version__,
                 "seed": cfg.seed,
                 "sample_seed": cfg.sample_seed,
                 "command": command})


def cmd_solve(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    u_grid = cfg.u_grid()
    t0 = time.perf_counter()
    iterates, gaps = k_value_iteration(cfg.spec, cfg.grid, cfg.build_backend(),
                                       cfg.quadrature, u_grid, k_max=cfg.k_max,
                                       tol=cfg.tol, keep=2)
    wall = time.perf_counter() - t0
    v_top, v_prev = iterates[-1], iterates[-2]
    x0 = cfg.initial_state()
    v0 = float(v_top.value_at(0, x0)[0])

    _write_manifest(out_dir, cfg, "solve")
    _write_json(os.path.join(out_dir, "summary.json"),
                {"value_at_origin": v0,
                 "k_stop": v_top.k_index,
                 "backend": cfg.backend,
                 "converged": bool(gaps and gaps[-1] < cfg.tol),
                 "wall_time": wall})
    with open(os.path.join(out_dir, "convergence.csv"), "w") as fh:
        fh.write("k,sup_gap\n")
        for k, g in enumerate(gaps, start=1):
            fh.write(f"{k},{g:.17g}\n")
    policy = Policy(v_top, v_prev, cfg.spec, u_grid, cfg.quadrature)

    def top():
        save_value_function(v_top, out_dir, "v_top")
        _write_thresholds(cfg, policy, os.path.join(out_dir, "thresholds.csv"))

    def prev():
        save_value_function(v_prev, out_dir, "v_prev")

    if table_entries(v_prev) < simulate.FORK_ENTRIES:
        top()
        prev()
    else:  # with a second core, v_prev's table is written by a forked worker
        fork_jobs([top, prev], lambda: (top(), prev()))
    return 0


def _load_policy(cfg, out_dir):
    u_grid = cfg.u_grid()
    kw = dict(terminal_reward=cfg.spec.terminal_reward, spec=cfg.spec,
              u_grid=u_grid)
    try:
        v_top = load_value_function(out_dir, "v_top", **kw)
        v_prev = load_value_function(out_dir, "v_prev", **kw)
    except OSError as e:
        raise ValidationError(f"missing solve artifacts in {out_dir}: {e}")
    if v_prev.backend != v_top.backend:
        raise ValidationError(f"v_prev backend {v_prev.backend} does not "
                              f"match v_top backend {v_top.backend}")
    m = cfg.grid.delay_steps + 1
    for name, v in (("v_top", v_top), ("v_prev", v_prev)):
        dim = len(v.axes) if v.backend == "GRID" else v.powers.shape[1]
        if dim != m:
            raise ValidationError(f"{name} artifact dimension {dim} does not "
                                  f"match config lift dimension {m}")
    if v_top.n_steps != cfg.grid.n_steps \
            or any(v.dt != cfg.grid.dt for v in (v_top, v_prev)):
        raise ValidationError("artifact time grid does not match config")
    return Policy(v_top, v_prev, cfg.spec, u_grid, cfg.quadrature)


def _constant_history_points(xs, m):
    return np.repeat(np.asarray(xs, dtype=float)[:, None], m, axis=1)


def _write_thresholds(cfg, policy, path):
    """Per time step, the innermost constant-history states where the policy
    acts on each side of zero (the policy-boundary curve)."""
    m = cfg.grid.delay_steps + 1
    xs = np.linspace(-cfg.grid_bound, cfg.grid_bound, 161)
    pts = _constant_history_points(xs, m)
    with open(path, "w") as fh:
        fh.write("time,threshold_neg,threshold_pos\n")
        for i in range(cfg.grid.n_steps):
            act, _ = policy.decide_batch(i, pts)
            neg = xs[(xs < 0) & act]
            pos = xs[(xs > 0) & act]
            lo = f"{neg.max():.17g}" if neg.size else ""
            hi = f"{pos.min():.17g}" if pos.size else ""
            fh.write(f"{i * cfg.dt:.17g},{lo},{hi}\n")


def cmd_simulate(cfg, out_dir):
    policy = _load_policy(cfg, out_dir)
    # trajectories are for eyeballing, a handful of paths is plenty
    n_paths = min(cfg.n_paths, 10)
    export_trajectories_csv(os.path.join(out_dir, "trajectories.csv"),
                            cfg.spec, policy, n_paths, cfg.seed, cfg.grid)
    return 0


def cmd_evaluate(cfg, out_dir):
    policy = _load_policy(cfg, out_dir)
    # both estimates run on the same paths, each range drawn once
    noise = KeyedNoise(cfg.seed, cfg.n_paths, cfg.grid)
    (mean, se), (base, base_se) = estimate_J(
        cfg.spec, [policy, ImpulseControl()], noise, cfg.grid)
    _write_json(os.path.join(out_dir, "evaluate.json"),
                {"policy_mean": mean, "policy_stderr": se,
                 "baseline_mean": base, "baseline_stderr": base_se,
                 "n_paths": cfg.n_paths, "seed": cfg.seed})
    return 0


def cmd_export_figures(cfg, out_dir):
    policy = _load_policy(cfg, out_dir)
    v_top = policy.v_top
    m = cfg.grid.delay_steps + 1
    xs = np.linspace(-cfg.grid_bound, cfg.grid_bound, 81)
    pts = _constant_history_points(xs, m)
    # the x cells once, t once per time row, one join per row; both
    # surfaces in one pass, so a regression level builds each lag design once
    x_cells = [f"{x:.17g}" for x in xs.tolist()]
    with open(os.path.join(out_dir, "value_surface.csv"), "w") as values, \
            open(os.path.join(out_dir, "policy_surface.csv"), "w") as actions:
        values.write("t,x,value\n")
        actions.write("t,x,action\n")
        for i in range(cfg.grid.n_steps + 1):
            t = f"{i * cfg.dt:.17g}"
            values.write("".join(f"{t},{x},{v:.17g}\n" for x, v in
                                 zip(x_cells, v_top.value_at(i, pts).tolist())))
            if i == cfg.grid.n_steps:
                break
            act, us = policy.decide_batch(i, pts)
            labels = [f"{u:.17g}" if a else "CONTINUE"
                      for a, u in zip(act.tolist(), us.tolist())]
            actions.write("".join(f"{t},{x},{lbl}\n"
                                  for x, lbl in zip(x_cells, labels)))
    return 0


def _probe_ladder(cfg):
    """The flow probe's base pair (the grid time (n // 2) dt, T/2 when the
    step count n is even, and the midpoint of the impulse set) and its
    offset pairs at the distances s * (0.4, 0.2, 0.1, 0.05): each moves
    the time by the grid multiple nearest distance / sqrt(2), or by none if
    that reaches the distance, and the impulse by the rest, at most the
    distance.  s = min(1, room above the midpoint / 0.4) keeps the impulses
    in the set; if a time then lands after T - dt, s shrinks until the rung
    0.4 moves the J grid steps from the base time to T - dt, and the others
    at most that.  No positive s fits a one-point impulse set."""
    horizon, dt, impulses = cfg.spec.horizon, cfg.dt, cfg.spec.impulse_set
    pa = (cfg.grid.n_steps // 2 * dt,
          0.5 * (impulses.lower + impulses.upper))
    ladder = (0.4, 0.2, 0.1, 0.05)
    top = min(1.0, (impulses.upper - pa[1]) / ladder[0])
    steps = cfg.grid.n_steps - 1 - cfg.grid.index_of(pa[0])
    for scale in (top, min(top, steps * dt * np.sqrt(2.0) / ladder[0])):
        offsets = []
        for d in ladder:
            d *= scale
            dt_off = round((d / np.sqrt(2.0)) / dt) * dt
            du = np.sqrt(max(d * d - dt_off * dt_off, 0.0))
            if du == 0.0:
                du, dt_off = d, 0.0
            offsets.append((pa[0] + dt_off, pa[1] + du))
        if scale > 0 and all(t <= horizon - dt + TIME_TOL for t, _ in offsets):
            return pa, offsets
    raise ValidationError("probe-flow: no offset ladder fits before T - dt "
                          "and inside the impulse set")


def cmd_probe_flow(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    pa, offsets = _probe_ladder(cfg)
    # where the noise cancels, one path pair on zero noise gives every
    # pair's sup-distance: nothing is drawn and nothing forks
    deterministic = noise_cancels(cfg.spec)
    noise = (np.zeros((1, cfg.grid.n_steps)) if deterministic
             else KeyedNoise(cfg.seed, cfg.n_paths, cfg.grid))
    dists = [float(np.hypot(pb[0] - pa[0], pb[1] - pa[1])) for pb in offsets]
    moments = flow_stability_probe(cfg.spec, pa, offsets, noise, cfg.grid)
    if not all(0.0 < mo < np.inf for mo in moments):
        raise SimulationError(f"probe-flow moments {moments} are not all "
                              "finite and positive")
    slope = float(np.polyfit(np.log(dists), np.log(moments), 1)[0])
    with open(os.path.join(out_dir, "probe_flow.csv"), "w") as fh:
        fh.write("distance,moment\n")
        for d, mo in zip(dists, moments):
            fh.write(f"{d:.17g},{mo:.17g}\n")
    _write_json(os.path.join(out_dir, "probe_flow.json"),
                {"slope": slope, "n_paths": noise.shape[0], "seed": cfg.seed,
                 "deterministic": deterministic})
    return 0


def cmd_check_assumptions(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    report = check_assumptions(cfg.spec)
    _write_json(os.path.join(out_dir, "assumptions.json"),
                {"passed": report.passed,
                 "checks": [{"name": c.name, "passed": c.passed,
                             "estimate": c.estimate, "detail": c.detail}
                            for c in report.checks]})
    # the report is advisory: writing it is success, its content is data
    return 0


def cmd_oracle_compare(cfg, out_dir):
    """The config's own problem on the tree that branches like its
    quadrature, at budget k_max: grid DP on the exact state axis against
    exhaustive enumeration."""
    k = cfg.k_max
    quad = cfg.quadrature
    u_grid = cfg.u_grid()
    x0 = cfg.initial_state()
    tree = FiniteTree.for_grid(x0[0, 0], cfg.dt, cfg.grid.n_steps, quad.nodes,
                               quad.weights, u_grid)
    # first, so that a delay or a tree beyond the budget stops the command
    # before any solve
    oracle_value, oracle_table = enumerate_controls(cfg.spec, tree, k)
    os.makedirs(out_dir, exist_ok=True)
    axis = exact_state_axis(cfg.spec, tree, k)
    iterates, _ = k_value_iteration(cfg.spec, cfg.grid,
                                    GridBackend(axis), quad, u_grid,
                                    k_max=k, tol=1e-12)
    dp_value = float(iterates[min(k, len(iterates) - 1)].value_at(0, x0)[0])
    dp_table = table_from_decisions(
        budget_decider(iterates, cfg.spec, u_grid, quad), cfg.spec, tree, k)
    result = {"max_impulses": k,
              "dp_value": dp_value, "oracle_value": oracle_value,
              "abs_diff": abs(dp_value - oracle_value),
              "tables_equal": dp_table == oracle_table,
              "oracle_table": table_to_json(oracle_table),
              "dp_table": table_to_json(dp_table)}
    _write_json(os.path.join(out_dir, "oracle_compare.json"), result)
    return 0 if result["abs_diff"] <= 1e-9 and result["tables_equal"] else 1


_COMMANDS = {"solve": cmd_solve,
             "simulate": cmd_simulate,
             "evaluate": cmd_evaluate,
             "probe-flow": cmd_probe_flow,
             "export-figures": cmd_export_figures,
             "check-assumptions": cmd_check_assumptions,
             "oracle-compare": cmd_oracle_compare}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sddeimpulse",
        description="Impulse control of delay SDEs: solver, simulator, "
                    "oracle cross-checks.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="run config JSON")
    parser.add_argument("--out", default=None,
                        help="run directory (default: output_dir from config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override evaluation.seed")
    parser.add_argument("--backend", choices=("grid", "regression"),
                        default=None, help="override solver.backend")
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.load(args.config)
        if args.seed is not None:
            cfg.seed = _check_seed("--seed", args.seed)
        if args.backend is not None:
            cfg.backend = args.backend
        out_dir = args.out if args.out is not None else cfg.output_dir
        return _COMMANDS[args.command](cfg, out_dir)
    except (ValidationError, OSError) as e:  # OSError: unusable run dir
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SimulationError, DivergenceError, MemoryError) as e:
        print(f"runtime failure: {str(e) or type(e).__name__}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
