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

from . import __version__
from .core import (ProblemSpec, ValidationError, build_problem_spec,
                   check_assumptions, ImpulseControl)
from .simulate import (TimeGrid, draw_noise_matrix, estimate_J,
                       export_trajectories_csv, flow_stability_probe,
                       initial_lifted_state, SimulationError)
from .lattice import (gauss_hermite_quadrature, two_point_quadrature,
                      three_point_quadrature)
from .bellman import (GridBackend, RegressionBackend, k_value_iteration,
                      extract_policy, save_value_function,
                      load_value_function, DivergenceError)
from .oracle import (build_tiny_instance, enumerate_controls, exact_state_axis,
                     table_from_decisions, table_to_json)
from .bellman import policy_stack


_TOP_KEYS = ("problem", "discretization", "solver", "evaluation",
             "output_dir", "oracle")
_DISC_KEYS = ("dt", "grid_bound", "points_per_axis", "n_impulse",
              "quadrature", "quadrature_nodes")
_SOLVER_KEYS = ("backend", "k_max", "tol", "degree", "ridge_lambda",
                "n_samples", "exploration_rate", "sample_seed")
_EVAL_KEYS = ("n_paths", "seed")
_ORACLE_KEYS = ("instance", "max_impulses")


class RunConfig:
    """Validated run configuration; see configs/ for examples."""

    def __init__(self, raw):
        _reject_unknown(raw, _TOP_KEYS, "config")
        for section in ("problem", "discretization", "solver", "evaluation"):
            if section not in raw:
                raise ValidationError(f"config: missing section {section!r}")
        self.raw = raw
        self.problem = raw["problem"]
        disc = dict(raw["discretization"])
        _reject_unknown(disc, _DISC_KEYS, "discretization")
        sol = dict(raw["solver"])
        _reject_unknown(sol, _SOLVER_KEYS, "solver")
        ev = dict(raw["evaluation"])
        _reject_unknown(ev, _EVAL_KEYS, "evaluation")
        if raw.get("oracle") is not None:
            _reject_unknown(raw["oracle"], _ORACLE_KEYS, "oracle")
        self.oracle = raw.get("oracle")

        self.dt = float(_require(disc, "dt", "discretization"))
        self.grid_bound = float(disc.get("grid_bound", 4.0))
        self.points_per_axis = int(disc.get("points_per_axis", 41))
        self.n_impulse = int(disc.get("n_impulse", 41))
        self.quadrature = disc.get("quadrature", "gauss_hermite")
        self.quadrature_nodes = int(disc.get("quadrature_nodes", 7))

        self.backend = sol.get("backend", "grid")
        if self.backend not in ("grid", "regression"):
            raise ValidationError(f"solver.backend: unknown backend {self.backend!r}")
        self.k_max = int(sol.get("k_max", 10))
        self.tol = float(sol.get("tol", 1e-3))
        self.degree = int(sol.get("degree", 3))
        self.ridge_lambda = float(sol.get("ridge_lambda", 1e-8))
        self.n_samples = int(sol.get("n_samples", 4000))
        self.exploration_rate = float(sol.get("exploration_rate", 0.1))
        self.sample_seed = int(sol.get("sample_seed", 1234))

        self.n_paths = int(_require(ev, "n_paths", "evaluation"))
        if "seed" not in ev:
            raise ValidationError("evaluation.seed: required, refusing to "
                                  "pick a seed silently")
        self.seed = int(ev["seed"])
        self.output_dir = raw.get("output_dir", "runs/out")

        for name, v in (("discretization.n_impulse", self.n_impulse),
                        ("discretization.quadrature_nodes", self.quadrature_nodes),
                        ("solver.k_max", self.k_max),
                        ("solver.n_samples", self.n_samples),
                        ("evaluation.n_paths", self.n_paths)):
            if v < 1:
                raise ValidationError(f"{name}: must be >= 1, got {v}")
        if self.points_per_axis < 2:
            raise ValidationError("discretization.points_per_axis: must be "
                                  f">= 2, got {self.points_per_axis}")
        if not self.grid_bound > 0:
            raise ValidationError("discretization.grid_bound: must be "
                                  f"positive, got {self.grid_bound}")
        if not self.tol > 0:
            raise ValidationError(f"solver.tol: must be > 0, got {self.tol}")
        if self.degree < 0:
            raise ValidationError(f"solver.degree: must be >= 0, got "
                                  f"{self.degree}")
        if not (np.isfinite(self.ridge_lambda) and self.ridge_lambda >= 0):
            raise ValidationError("solver.ridge_lambda: must be finite and "
                                  f">= 0, got {self.ridge_lambda}")
        if not 0.0 <= self.exploration_rate <= 1.0:
            raise ValidationError("solver.exploration_rate: must lie in "
                                  f"[0, 1], got {self.exploration_rate}")

        self.spec = build_problem_spec(self.problem)
        # TimeGrid.for_spec enforces that dt divides both delay and horizon
        self.grid = TimeGrid.for_spec(self.spec, self.dt)

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as e:
            raise ValidationError(f"cannot read config {path}: {e}")
        except json.JSONDecodeError as e:
            raise ValidationError(f"config {path} is not valid JSON: {e}")
        return cls(raw)

    def config_hash(self):
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def build_quadrature(self):
        if self.quadrature == "gauss_hermite":
            return gauss_hermite_quadrature(self.dt, self.quadrature_nodes)
        if self.quadrature == "two_point":
            return two_point_quadrature(self.dt)
        if self.quadrature == "three_point":
            return three_point_quadrature(self.dt)
        raise ValidationError(f"discretization.quadrature: unknown kind "
                              f"{self.quadrature!r}")

    def u_grid(self):
        return self.spec.impulse_set.grid(self.n_impulse)

    def build_backend(self):
        m = self.grid.delay_steps + 1
        if self.backend == "grid":
            return GridBackend.uniform(self.grid_bound, self.points_per_axis, m)
        return RegressionBackend(degree=self.degree,
                                 ridge_lambda=self.ridge_lambda,
                                 n_samples=self.n_samples,
                                 exploration_rate=self.exploration_rate,
                                 sample_seed=self.sample_seed)

    def initial_state(self):
        return initial_lifted_state(self.spec, self.grid)[None, :]


def _reject_unknown(d, allowed, where):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown} "
                              f"(allowed: {sorted(allowed)})")


def _require(d, key, where):
    if key not in d:
        raise ValidationError(f"{where}.{key}: required")
    return d[key]


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
    quad = cfg.build_quadrature()
    u_grid = cfg.u_grid()
    t0 = time.perf_counter()
    iterates, gaps = k_value_iteration(cfg.spec, cfg.grid, cfg.build_backend(),
                                       quad, u_grid, k_max=cfg.k_max,
                                       tol=cfg.tol)
    wall = time.perf_counter() - t0
    v_top = iterates[-1]
    v_prev = iterates[-2] if len(iterates) >= 2 else iterates[-1]
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
    save_value_function(v_top, out_dir, "v_top")
    save_value_function(v_prev, out_dir, "v_prev")
    policy = extract_policy(v_top, v_prev, cfg.spec, u_grid, quad)
    _write_thresholds(cfg, policy, os.path.join(out_dir, "thresholds.csv"))
    return 0


def _load_policy(cfg, out_dir):
    quad = cfg.build_quadrature()
    u_grid = cfg.u_grid()
    kw = dict(terminal_reward=cfg.spec.terminal_reward, spec=cfg.spec,
              u_grid=u_grid)
    try:
        v_top = load_value_function(out_dir, "v_top", **kw)
        v_prev = load_value_function(out_dir, "v_prev", **kw)
    except OSError as e:
        raise ValidationError(f"missing solve artifacts in {out_dir}: {e}")
    m = cfg.grid.delay_steps + 1
    if v_top.backend == "GRID" and len(v_top.axes) != m:
        raise ValidationError(f"artifact dimension {len(v_top.axes)} does not "
                              f"match config lift dimension {m}")
    if v_top.n_steps != cfg.grid.n_steps:
        raise ValidationError("artifact time grid does not match config")
    return extract_policy(v_top, v_prev, cfg.spec, u_grid, quad)


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
    mean, se = estimate_J(cfg.spec, policy, cfg.n_paths, cfg.seed, cfg.grid)
    base, base_se = estimate_J(cfg.spec, ImpulseControl(), cfg.n_paths,
                               cfg.seed, cfg.grid)
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
    with open(os.path.join(out_dir, "value_surface.csv"), "w") as fh:
        fh.write("t,x,value\n")
        for i in range(cfg.grid.n_steps + 1):
            vals = v_top.value_at(i, pts)
            for x, v in zip(xs, vals):
                fh.write(f"{i * cfg.dt:.17g},{x:.17g},{v:.17g}\n")
    with open(os.path.join(out_dir, "policy_surface.csv"), "w") as fh:
        fh.write("t,x,action\n")
        for i in range(cfg.grid.n_steps):
            act, us = policy.decide_batch(i, pts)
            for x, a, u in zip(xs, act, us):
                lbl = f"{u:.17g}" if a else "CONTINUE"
                fh.write(f"{i * cfg.dt:.17g},{x:.17g},{lbl}\n")
    return 0


def cmd_probe_flow(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    base_t = cfg.spec.horizon / 2
    base_u = 0.5 * (cfg.spec.impulse_set.lower + cfg.spec.impulse_set.upper)
    noise = draw_noise_matrix(cfg.seed, cfg.n_paths, cfg.grid)
    dists, moments = [], []
    for d in (0.4, 0.2, 0.1, 0.05):
        dt_off = round((d / np.sqrt(2.0)) / cfg.dt) * cfg.dt
        du = np.sqrt(max(d * d - dt_off * dt_off, 0.0))
        if du == 0.0:
            du = d
            dt_off = 0.0
        pa = (base_t, base_u)
        pb = (base_t + dt_off, base_u + du)
        actual = float(np.hypot(pb[0] - pa[0], pb[1] - pa[1]))
        mom = flow_stability_probe(cfg.spec, ImpulseControl(), pa, pb,
                                   ImpulseControl(), noise, cfg.grid)
        dists.append(actual)
        moments.append(mom)
    slope = float(np.polyfit(np.log(dists), np.log(moments), 1)[0])
    with open(os.path.join(out_dir, "probe_flow.csv"), "w") as fh:
        fh.write("distance,moment\n")
        for d, mo in zip(dists, moments):
            fh.write(f"{d:.17g},{mo:.17g}\n")
    _write_json(os.path.join(out_dir, "probe_flow.json"),
                {"slope": slope, "n_paths": cfg.n_paths, "seed": cfg.seed})
    return 0


def cmd_check_assumptions(cfg, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    report = check_assumptions(cfg.spec, sample_budget=max(cfg.n_paths, 1000),
                               rng_seed=cfg.seed)
    _write_json(os.path.join(out_dir, "assumptions.json"),
                {"passed": report.passed,
                 "checks": [{"name": c.name, "passed": c.passed,
                             "estimate": c.estimate, "detail": c.detail}
                            for c in report.checks]})
    # the report is advisory: writing it is success, its content is data
    return 0


def cmd_oracle_compare(cfg, out_dir):
    if cfg.oracle is None:
        raise ValidationError("oracle: config section required for "
                              "oracle-compare (instance, max_impulses)")
    os.makedirs(out_dir, exist_ok=True)
    name = cfg.oracle["instance"]
    k = int(cfg.oracle.get("max_impulses", 1))
    spec, tree = build_tiny_instance(name)
    grid = TimeGrid.for_spec(spec, tree.dt)
    quad = (two_point_quadrature if name == "TINY-1"
            else three_point_quadrature)(tree.dt)
    u_grid = np.asarray(tree.u_grid, dtype=float)
    axis = exact_state_axis(spec, tree, k)
    iterates, _ = k_value_iteration(spec, grid, GridBackend(axes=(axis,)),
                                    quad, u_grid, k_max=k, tol=1e-12)
    x0 = initial_lifted_state(spec, grid)[None, :]
    dp_value = float(iterates[min(k, len(iterates) - 1)].value_at(0, x0)[0])
    oracle_value, oracle_table = enumerate_controls(spec, tree, k)
    stack = policy_stack(iterates, spec, u_grid, quad)

    def decide(level, state, budget):
        pol = stack[min(budget, len(stack) - 1)]
        action, u = pol.decide(level, np.array([state]))
        return None if action == "CONTINUE" else u

    dp_table = table_from_decisions(decide, spec, tree, k)
    result = {"instance": name, "max_impulses": k,
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
            cfg.seed = args.seed
        if args.backend is not None:
            cfg.backend = args.backend
        out_dir = args.out if args.out is not None else cfg.output_dir
        return _COMMANDS[args.command](cfg, out_dir)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SimulationError, DivergenceError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
