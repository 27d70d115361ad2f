"""Acceptance gate: eight end-to-end checks, one printed verdict line each.

Each test covers a single numbered criterion and prints
"[criterion N] <label>: PASS/FAIL" through capture so the verdicts are
visible in a plain pytest run.
"""

import filecmp
import json
import os

import numpy as np
import pytest

from sddeimpulse.bellman import (GridBackend, RegressionBackend,
                                 Policy, budget_decider, k_value_iteration)
from sddeimpulse.cli import RunConfig, main
from sddeimpulse.core import ImpulseControl
from sddeimpulse.oracle import (FiniteTree, enumerate_controls,
                                exact_snell_on_tree, exact_state_axis,
                                expected_reward_under_rule,
                                table_from_decisions)
from sddeimpulse.simulate import (draw_noise_matrix, estimate_J,
                                  flow_stability_probe, simulate_batch)

from test_oracle import tiny_instance

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, os.pardir, "configs")
MIN_IMPULSE_COST = 0.05


def verdict(capsys, number, label, ok):
    with capsys.disabled():
        print(f"\n[criterion {number}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def reduced_solution():
    """Shared GRID solve of the reduced delay-feedback instance
    (delay = dt, lift dimension 2, 41 points per axis, 100 time steps)."""
    cfg = RunConfig.load(os.path.join(CONFIGS, "delay_feedback_reduced.json"))
    quad = cfg.quadrature
    u_grid = cfg.u_grid()
    iterates, gaps = k_value_iteration(cfg.spec, cfg.grid, cfg.build_backend(),
                                       quad, u_grid, k_max=cfg.k_max,
                                       tol=cfg.tol)
    return cfg, quad, u_grid, iterates, gaps


def test_criterion_1_oracle_equivalence(capsys):
    ok = True
    for name in ("tiny1.json", "tiny2.json"):
        cfg, tree = tiny_instance(name)
        spec, quad, u_grid = cfg.spec, cfg.quadrature, cfg.u_grid()
        for k in (1, 2, 3):
            axis = exact_state_axis(spec, tree, k)
            its, _ = k_value_iteration(spec, cfg.grid,
                                       GridBackend(axis),
                                       quad, u_grid, k_max=k, tol=1e-12)
            best, oracle_table = enumerate_controls(spec, tree, k)
            v = float(its[min(k, len(its) - 1)].value_at(
                0, np.array([[0.0]]))[0])
            dp_table = table_from_decisions(
                budget_decider(its, spec, u_grid, quad), spec, tree, k)
            ok = ok and abs(v - best) <= 1e-9 and dp_table == oracle_table
    verdict(capsys, 1, "tree-oracle equivalence on TINY instances", ok)


def test_criterion_2_snell_envelope_axioms(capsys):
    rng = np.random.default_rng(20260826)
    ok = True
    for _ in range(200):
        depth = int(rng.integers(1, 7))
        steps = []
        for _ in range(depth):
            branching = int(rng.integers(2, 4))
            values = tuple(rng.normal(size=branching))
            probs = rng.uniform(0.1, 1.0, branching)
            probs = tuple(probs / probs.sum())
            steps.append((values, probs))
        tree = FiniteTree(0.0, 0.5, tuple(steps), (0.0,))
        rewards = {p: float(rng.normal()) for p in tree.all_nodes()}
        env, stop = exact_snell_on_tree(tree, rewards)
        for path, v in env.items():
            ok = ok and v >= rewards[path]
            level = len(path)
            if level < tree.depth:
                values, probs = tree.steps[level]
                children = [env[path + (b,)] for b in range(len(values))]
                cont = float(np.dot(np.asarray(probs), children))
                ok = ok and v == max(rewards[path], cont)
        ok = ok and expected_reward_under_rule(tree, rewards, stop) == env[()]
    verdict(capsys, 2, "Snell envelope domination, one-step equality, "
            "optimal stopping", ok)


def test_criterion_3_monotone_iterates(capsys, reduced_solution):
    cfg, _, _, iterates, gaps = reduced_solution
    ok = True
    for lo, hi in zip(iterates, iterates[1:]):
        for i in range(cfg.grid.n_steps + 1):
            ok = ok and bool(np.all(hi.values[i] - lo.values[i] >= -1e-9))
    # sup-gap sequence: gaps[j] is the gap at level j+1; nonincreasing from
    # the second level on, up to the first one below tol
    tail = [g for g in gaps[1:]]
    for a, b in zip(tail, tail[1:]):
        if a < cfg.tol:
            break
        ok = ok and b <= a + 1e-12
    ok = ok and gaps[-1] < cfg.tol
    verdict(capsys, 3, "monotone k-intervention iterates with "
            "nonincreasing gaps", ok)


def test_criterion_4_setup_fidelity(capsys):
    cfg = RunConfig.load(os.path.join(CONFIGS, "delay_feedback.json"))
    spec = cfg.spec
    ok = cfg.grid.delay_steps + 1 == 6
    ok = ok and spec.delay == pytest.approx(0.05) and cfg.dt == 0.01
    ok = ok and spec.horizon == 1.0
    ok = ok and (spec.impulse_set.lower, spec.impulse_set.upper) == (-2.0, 2.0)
    # drift a*x - k_p*y with a = k_p = 1
    ok = ok and float(spec.drift(0.0, 1.0, 0.0)) == 1.0
    ok = ok and float(spec.drift(0.0, 0.0, 1.0)) == -1.0
    ok = ok and float(spec.diffusion(0.0, 3.0, -1.0)) == 1.0
    us = np.array([-2.0, 0.0, 1.5])
    ok = ok and np.allclose(spec.impulse_cost(0.0, us, 0.0),
                            0.1 * (1.0 + us ** 2))
    xs = np.array([-1.5, 0.0, 2.0])
    ok = ok and np.array_equal(spec.running_reward(0.3, xs), -xs ** 2)
    ok = ok and np.array_equal(spec.terminal_reward(xs), -xs ** 2)
    ok = ok and np.all(spec.initial_segment(np.array([-0.05, -0.01, 0.0])) == 0.0)
    ok = ok and np.array_equal(spec.intervention(xs, us), xs + us)
    verdict(capsys, 4, "lift dimension 6 and example-config round trip", ok)


def test_criterion_5_flow_stability_exponent(capsys):
    cfg = RunConfig.load(os.path.join(CONFIGS, "delay_feedback.json"))
    base = (0.5, 0.0)
    noise = draw_noise_matrix(cfg.seed, 10000, cfg.grid)
    dists, offsets = [], []
    for d in (0.4, 0.2, 0.1, 0.05):
        dt_off = round((d / np.sqrt(2.0)) / cfg.dt) * cfg.dt
        du = np.sqrt(max(d * d - dt_off * dt_off, 0.0))
        offsets.append((base[0] + dt_off, base[1] + du))
        dists.append(float(np.hypot(dt_off, du)))
    moments = flow_stability_probe(cfg.spec, base, offsets, noise, cfg.grid)
    slope = float(np.polyfit(np.log(dists), np.log(moments), 1)[0])
    verdict(capsys, 5, f"coupled-path sixth-moment slope {slope:.2f} >= 2.4",
            slope >= 2.4)


def test_criterion_6_policy_improvement_and_impulse_bound(capsys,
                                                          reduced_solution):
    cfg, quad, u_grid, iterates, _ = reduced_solution
    policy = Policy(iterates[-1], iterates[-2], cfg.spec, u_grid, quad)
    noise = draw_noise_matrix(cfg.seed, 10000, cfg.grid)
    mean, se = estimate_J(cfg.spec, policy, noise, cfg.grid)
    base, base_se = estimate_J(cfg.spec, ImpulseControl(), noise, cfg.grid)
    improved = mean - base > 3.0 * float(np.hypot(se, base_se))

    noise = draw_noise_matrix(cfg.seed, 10000, cfg.grid)
    payoffs, counts, _, _ = simulate_batch(cfg.spec, cfg.grid, noise, policy)
    x0 = cfg.initial_state()
    v_top = float(iterates[-1].value_at(0, x0)[0])
    v_zero = float(iterates[0].value_at(0, x0)[0])
    bound = (v_top - v_zero + (payoffs.max() - payoffs.min())) / MIN_IMPULSE_COST
    within = bool(np.all(counts <= bound))
    verdict(capsys, 6, f"policy beats baseline ({mean:.3f} vs {base:.3f}) and "
            f"impulse counts <= {bound:.1f}", improved and within)


def test_criterion_7_backend_cross_validation(capsys):
    cfg = RunConfig.load(os.path.join(CONFIGS, "delay_feedback_reduced.json"))
    quad = cfg.quadrature
    u_grid = cfg.u_grid()
    # fine axes: value interpolation bias at 41 points per axis is larger
    # than the backend discrepancy this criterion is after
    grid_backend = GridBackend(np.linspace(-cfg.grid_bound, cfg.grid_bound,
                                          161))
    g_its, _ = k_value_iteration(cfg.spec, cfg.grid, grid_backend, quad,
                                 u_grid, k_max=1, tol=1e-12)
    reg_backend = RegressionBackend(degree=4, ridge_lambda=1e-8,
                                    n_samples=4000, sample_seed=1234)
    r_its, _ = k_value_iteration(cfg.spec, cfg.grid, reg_backend, quad,
                                 u_grid, k_max=1, tol=1e-12)
    x0 = cfg.initial_state()
    vg = float(g_its[-1].value_at(0, x0)[0])
    vr = float(r_its[-1].value_at(0, x0)[0])
    rel = abs(vg - vr) / abs(vg)
    verdict(capsys, 7, f"grid {vg:.4f} vs regression {vr:.4f} "
            f"({100 * rel:.1f}% apart)", rel <= 0.05)


def test_criterion_8_determinism(capsys, tmp_path):
    cfg_path = os.path.join(CONFIGS, "tiny1.json")
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        for command in ("solve", "simulate", "evaluate"):
            assert main([command, "--config", cfg_path, "--out", out]) == 0
    names = sorted(os.listdir(outs[0]))
    ok = names == sorted(os.listdir(outs[1]))
    for name in names:
        a, b = os.path.join(outs[0], name), os.path.join(outs[1], name)
        if name == "summary.json":
            # wall time is the single legitimately nondeterministic field
            sa, sb = (json.load(open(p)) for p in (a, b))
            sa.pop("wall_time"), sb.pop("wall_time")
            ok = ok and sa == sb
        else:
            ok = ok and filecmp.cmp(a, b, shallow=False)
    verdict(capsys, 8, "byte-identical artifacts across repeated seeded runs",
            ok)
