"""Value iteration, interpolation, regression fits, policies, persistence."""

import dataclasses

import numpy as np
import pytest

from sddeimpulse import ValidationError
from sddeimpulse.bellman import (GridBackend, RegressionBackend,
                                 _intervention_batch, extract_policy,
                                 fit_regression_step, k_value_iteration,
                                 load_value_function, monomial_powers,
                                 multilinear_interp, save_value_function)
from sddeimpulse.lattice import (gauss_hermite_quadrature,
                                 two_point_quadrature)
from sddeimpulse.oracle import (FiniteTree, build_tiny_instance,
                                exact_snell_on_tree, exact_state_axis)
from sddeimpulse.simulate import TimeGrid, export_trajectories_csv

from test_simulate import feedback_spec


def reduced_spec():
    return feedback_spec(delay=0.01)


def solve_reduced(spec, k_max=1, points=21, n_u=9, tol=1e-3):
    grid = TimeGrid.for_spec(spec, 0.01)
    quad = gauss_hermite_quadrature(0.01, 7)
    ug = spec.impulse_set.grid(n_u)
    backend = GridBackend.uniform(4.0, points, grid.delay_steps + 1)
    its, gaps = k_value_iteration(spec, grid, backend, quad, ug,
                                  k_max=k_max, tol=tol)
    return its, gaps, grid, quad, ug


class TestMultilinearInterp:
    def test_exact_at_nodes_2d(self):
        axes = (np.array([-1.0, 0.0, 2.0]), np.array([0.0, 1.0]))
        table = np.arange(6, dtype=float).reshape(3, 2)
        pts = np.array([[a, b] for a in axes[0] for b in axes[1]])
        out = multilinear_interp(axes, table, pts)
        assert np.array_equal(out, table.ravel())

    def test_linear_function_reproduced(self):
        axes = (np.linspace(-2, 2, 5), np.linspace(-1, 1, 3))
        xx, yy = np.meshgrid(*axes, indexing="ij")
        table = 2.0 * xx - 3.0 * yy + 1.0
        pts = np.array([[0.3, -0.4], [1.7, 0.9], [-1.1, 0.0]])
        out = multilinear_interp(axes, table, pts)
        expect = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0
        assert np.allclose(out, expect, atol=1e-14)

    def test_clamped_outside_domain(self):
        axes = (np.array([0.0, 1.0]),)
        table = np.array([5.0, 7.0])
        out = multilinear_interp(axes, table, np.array([[-10.0], [10.0]]))
        assert list(out) == [5.0, 7.0]


class TestSnellEnvelope:
    def test_constant_rewards(self):
        tree = FiniteTree(0.0, 0.5, (((-1.0, 1.0), (0.5, 0.5)),) * 2, (0.0,))
        rewards = {p: 3.25 for p in tree.all_nodes()}
        env, _ = exact_snell_on_tree(tree, rewards)
        assert all(v == 3.25 for v in env.values())

    def test_two_step_hand_value(self):
        tree = FiniteTree(0.0, 0.5, (((-1.0, 1.0), (0.5, 0.5)),) * 2, (0.0,))
        rewards = {(): 0.0, (0,): 1.0, (1,): -1.0,
                   (0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}
        env, _ = exact_snell_on_tree(tree, rewards)
        assert env[()] == 0.5
        assert env[(0,)] == 1.0 and env[(1,)] == 0.0

    def test_growing_rewards_never_stop_early(self):
        tree = FiniteTree(0.0, 0.5, (((-1.0, 1.0), (0.5, 0.5)),) * 2, (0.0,))
        rewards = {p: float(len(p)) for p in tree.all_nodes()}
        env, _ = exact_snell_on_tree(tree, rewards)
        assert env[()] == 2.0


def frozen_quadratic(time_index, points):
    """Stand-in value level V(t, x) = -head^2 for intervention pricing."""
    return -(np.asarray(points, dtype=float)[:, 0] ** 2)


def intervention_at(head, spec, u_grid):
    """(value, impulse) of the best jump from the one-row state (head,)."""
    val, u = _intervention_batch(frozen_quadratic, 0, np.array([[head]]),
                                 spec, np.asarray(u_grid), 0.0)
    return val[0], u[0]


class TestInterventionValue:
    def test_hand_enumeration(self):
        spec = dataclasses.replace(feedback_spec(delay=0.0))
        val, u = intervention_at(2.0, spec, [-2.0, -1.0, 0.0, 1.0, 2.0])
        assert u == -2.0
        assert val == pytest.approx(-0.5)

    def test_prohibitive_cost_deeply_negative(self):
        spec = dataclasses.replace(feedback_spec(delay=0.0),
                                   impulse_cost=lambda x, u, t: 1e6 + 0 * u)
        val, _ = intervention_at(0.0, spec, [-1.0, 1.0])
        assert val < -9e5

    def test_symmetric_tie_takes_first_grid_index(self):
        spec = dataclasses.replace(feedback_spec(delay=0.0))
        val, u = intervention_at(0.0, spec, [-1.0, 1.0])
        assert u == -1.0
        assert val == pytest.approx(-1.2)


class TestFitRegressionStep:
    def test_linear_targets_zero_residual(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-2, 2, (60, 2))
        targets = 1.5 * xs[:, 0] - 0.5 * xs[:, 1] + 2.0
        powers = monomial_powers(2, 1)
        c = fit_regression_step(xs, targets, 1, 0.0, powers=powers)
        from sddeimpulse.bellman import design_matrix
        assert np.max(np.abs(design_matrix(xs, powers) @ c - targets)) < 1e-9

    def test_square_coefficient_recovered(self):
        xs = np.linspace(-1, 1, 30)[:, None]
        powers = monomial_powers(1, 2)
        c = fit_regression_step(xs, (xs[:, 0] ** 2), 2, 0.0, powers=powers)
        idx = int(np.where((powers == [2]).all(axis=1))[0][0])
        assert c[idx] == pytest.approx(1.0, abs=1e-8)

    def test_rank_deficiency_is_error_without_ridge(self):
        xs = np.zeros((30, 2))
        with pytest.raises(ValidationError):
            fit_regression_step(xs, np.ones(30), 2, 0.0)

    def test_ridge_handles_degenerate_cloud(self):
        xs = np.zeros((30, 2))
        c = fit_regression_step(xs, np.full(30, 4.0), 2, 1e-8)
        assert np.isfinite(c).all()


class TestKValueIteration:
    def test_prohibitive_cost_freezes_hierarchy(self):
        spec = dataclasses.replace(reduced_spec(),
                                   impulse_cost=lambda x, u, t: 1e6 + 0 * u)
        its, gaps, grid, quad, ug = solve_reduced(spec, k_max=3)
        assert its[-1].k_index == 1
        assert gaps[-1] == 0.0
        for i in (0, 50, 100):
            assert np.array_equal(its[0].values[i], its[1].values[i])

    def test_terminal_slice_is_terminal_reward(self):
        spec = reduced_spec()
        its, _, grid, _, _ = solve_reduced(spec, k_max=1)
        # grid nodes (21 points over [-4, 4], spacing 0.4) so no interpolation
        pts = np.array([[0.4, -0.8], [2.0, 1.2]])
        got = its[-1].value_at(grid.n_steps, pts)
        assert np.allclose(got, spec.terminal_reward(pts[:, 0]), atol=1e-12)

    def test_monotone_in_k(self):
        its, _, grid, _, _ = solve_reduced(reduced_spec(), k_max=3,
                                           tol=1e-12)
        for lo, hi in zip(its, its[1:]):
            for i in range(grid.n_steps + 1):
                assert np.all(hi.values[i] - lo.values[i] >= -1e-9)

    def test_single_impulse_level_matches_tree_search(self):
        from sddeimpulse.oracle import enumerate_controls
        spec, tree = build_tiny_instance("TINY-1")
        grid = TimeGrid.for_spec(spec, tree.dt)
        quad = two_point_quadrature(tree.dt)
        axis = exact_state_axis(spec, tree, 1)
        its, _ = k_value_iteration(spec, grid, GridBackend(axes=(axis,)),
                                   quad, np.asarray(tree.u_grid), k_max=1,
                                   tol=1e-12)
        best, _ = enumerate_controls(spec, tree, 1)
        v = its[-1].value_at(0, np.array([[0.0]]))[0]
        assert abs(v - best) <= 1e-9

    def test_bad_arguments_rejected(self):
        spec = reduced_spec()
        grid = TimeGrid.for_spec(spec, 0.01)
        quad = gauss_hermite_quadrature(0.01, 3)
        with pytest.raises(ValidationError):
            k_value_iteration(spec, grid, GridBackend.uniform(4.0, 5, 2),
                              quad, [], k_max=1)
        with pytest.raises(ValidationError):
            k_value_iteration(spec, grid, GridBackend.uniform(4.0, 5, 2),
                              quad, [0.0], k_max=0)


class TestPolicy:
    def test_prohibitive_cost_never_intervenes(self):
        spec = dataclasses.replace(reduced_spec(),
                                   impulse_cost=lambda x, u, t: 1e6 + 0 * u)
        its, _, grid, quad, ug = solve_reduced(spec, k_max=1)
        pol = extract_policy(its[-1], its[-2], spec, ug, quad)
        pts = np.array([[x, 0.0] for x in np.linspace(-4, 4, 33)])
        for i in (0, 30, 60, 99):
            act, _ = pol.decide_batch(i, pts)
            assert not act.any()

    def test_impulses_come_from_the_grid(self):
        its, _, grid, quad, ug = solve_reduced(reduced_spec(), k_max=1)
        pol = extract_policy(its[-1], its[-2], reduced_spec(), ug, quad)
        pts = np.array([[x, x] for x in np.linspace(-4, 4, 65)])
        act, us = pol.decide_batch(10, pts)
        assert act.any()
        assert all(u in ug for u in us[act])

    def test_exported_paths_do_not_depend_on_batch_size(self, tmp_path):
        # the trajectory export simulates all paths in one batch; a path's
        # rows must be the same whatever else shares the batch
        spec = reduced_spec()
        its, _, grid, quad, ug = solve_reduced(spec, k_max=1)
        pol = extract_policy(its[-1], its[-2], spec, ug, quad)
        one, three = tmp_path / "one.csv", tmp_path / "three.csv"
        export_trajectories_csv(one, spec, pol, 1, 5, grid)
        export_trajectories_csv(three, spec, pol, 3, 5, grid)
        rows_one = one.read_text().splitlines()
        rows_three = three.read_text().splitlines()
        path0 = [r for r in rows_three if r.startswith("0,")]
        assert rows_one[1:] == path0
        assert len(path0) == grid.n_steps + 1
        assert any(r.split(",")[3] == "1" for r in rows_three[1:])

    def test_mismatched_levels_rejected(self):
        its, _, grid, quad, ug = solve_reduced(reduced_spec(), k_max=1)
        spec2 = feedback_spec(delay=0.02)
        g2 = TimeGrid.for_spec(spec2, 0.02)
        b2 = GridBackend.uniform(4.0, 5, 2)
        other, _ = k_value_iteration(spec2, g2,
                                     b2, gauss_hermite_quadrature(0.02, 3),
                                     ug, k_max=1)
        with pytest.raises(ValidationError):
            extract_policy(its[-1], other[0], spec2, ug, quad)


class TestPersistence:
    def test_grid_round_trip(self, tmp_path):
        its, _, grid, quad, ug = solve_reduced(reduced_spec(), k_max=1)
        save_value_function(its[-1], tmp_path, "vf")
        back = load_value_function(tmp_path, "vf")
        pts = np.array([[0.7, -0.2], [0.0, 0.0]])
        for i in (0, 50, 100):
            assert np.array_equal(back.value_at(i, pts),
                                  its[-1].value_at(i, pts))

    def test_regression_round_trip(self, tmp_path):
        spec = reduced_spec()
        grid = TimeGrid.for_spec(spec, 0.01)
        quad = gauss_hermite_quadrature(0.01, 5)
        ug = spec.impulse_set.grid(9)
        backend = RegressionBackend(degree=2, n_samples=400,
                                    exploration_rate=0.0)
        its, _ = k_value_iteration(spec, grid, backend, quad, ug, k_max=1,
                                   tol=1e-3)
        save_value_function(its[-1], tmp_path, "vf")
        back = load_value_function(tmp_path, "vf",
                                   terminal_reward=spec.terminal_reward,
                                   spec=spec, u_grid=ug)
        pts = np.array([[0.7, -0.2], [0.0, 0.0]])
        for i in (0, 50, 99, 100):
            assert np.array_equal(back.value_at(i, pts),
                                  its[-1].value_at(i, pts))

    def test_regression_load_needs_context(self, tmp_path):
        spec = reduced_spec()
        grid = TimeGrid.for_spec(spec, 0.01)
        backend = RegressionBackend(degree=2, n_samples=400,
                                    exploration_rate=0.0)
        its, _ = k_value_iteration(spec, grid, backend,
                                   gauss_hermite_quadrature(0.01, 5),
                                   spec.impulse_set.grid(9), k_max=1)
        save_value_function(its[-1], tmp_path, "vf")
        with pytest.raises(ValidationError):
            load_value_function(tmp_path, "vf",
                                terminal_reward=spec.terminal_reward)
