"""Value iteration, interpolation, regression fits, policies, persistence."""

import dataclasses
import itertools

import numpy as np
import pytest

from sddeimpulse import ValidationError
from sddeimpulse import bellman
from sddeimpulse.bellman import (DivergenceError, GridBackend,
                                 GridValueFunction, RegressionBackend,
                                 RegressionValueFunction, _check_finite,
                                 _continuation, _intervention_batch,
                                 design_matrix, extract_policy,
                                 fit_regression_step, k_value_iteration,
                                 load_value_function, monomial_powers,
                                 multilinear_interp, save_value_function)
from sddeimpulse.lattice import (gauss_hermite_quadrature,
                                 three_point_quadrature, two_point_quadrature)
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


def brute_force_interp(axes, table, points):
    """Reference multilinear interpolation, one point and one corner at a
    time: the cell is found by scanning the axis, the weights multiply in
    dimension order and the corners add in itertools.product order."""
    out = []
    for q in np.asarray(points, dtype=float):
        cell, frac = [], []
        for x, ax in zip(q, axes):
            p = min(max(x, ax[0]), ax[-1])
            i = min(max(sum(a <= p for a in ax) - 1, 0), len(ax) - 2)
            cell.append(i)
            frac.append((p - ax[i]) / (ax[i + 1] - ax[i]))
        total = 0.0
        for corner in itertools.product((0, 1), repeat=len(axes)):
            w = 1.0
            for f, c in zip(frac, corner):
                w = w * (f if c else 1.0 - f)
            total += w * table[tuple(i + c for i, c in zip(cell, corner))]
        out.append(total)
    return np.array(out)


class TestMultilinearInterp:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_brute_force_corner_loop_bitwise(self, m):
        rng = np.random.default_rng(m)
        axes = tuple(np.sort(rng.uniform(-2.0, 2.0, 4 + d)) for d in range(m))
        table = rng.normal(size=tuple(len(ax) for ax in axes))
        inside = rng.uniform(-2.0, 2.0, (40, m))
        outside = rng.uniform(-5.0, 5.0, (40, m))
        nodes = np.array([[ax[j % len(ax)] for ax in axes] for j in range(8)])
        top = np.array([[ax[-1] for ax in axes], [ax[0] for ax in axes]])
        pts = np.concatenate([inside, outside, nodes, top])
        got = multilinear_interp(axes, table, pts)
        assert np.array_equal(got, brute_force_interp(axes, table, pts))


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


def per_column_design_matrix(points, powers):
    """Reference design matrix: every column built factor by factor, each
    power raised afresh."""
    out = np.ones((points.shape[0], len(powers)))
    for j, pw in enumerate(powers):
        for d, e in enumerate(pw):
            if e:
                out[:, j] *= points[:, d] ** e
    return out


class TestDesignMatrix:
    @pytest.mark.parametrize("n_rows,m,degree,scale", [
        (1, 3, 3, 1.0), (200, 1, 0, 1.0), (200, 3, 0, 1.0),
        (200, 2, 4, 1e-3), (200, 6, 3, 1.0), (200, 3, 3, 1e5),
        (200, 3, 3, 1e110)], ids=["one_row", "degree0_m1", "degree0_m3",
                                  "small", "lift6", "large", "overflow"])
    def test_matches_per_column_loop_bitwise(self, n_rows, m, degree, scale):
        rng = np.random.default_rng(n_rows + m + degree)
        pts = rng.normal(size=(n_rows, m)) * scale
        pts[::7, 0] = 0.0
        powers = monomial_powers(m, degree)
        with np.errstate(over="ignore", invalid="ignore"):
            got = design_matrix(pts, powers)
            want = per_column_design_matrix(pts, powers)
        assert got.shape == (n_rows, len(powers)) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        if scale > 1e100:
            assert np.isinf(got).any()


class TestFitRegressionStep:
    def test_linear_targets_zero_residual(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-2, 2, (60, 2))
        targets = 1.5 * xs[:, 0] - 0.5 * xs[:, 1] + 2.0
        powers = monomial_powers(2, 1)
        c = fit_regression_step(xs, targets, 1, 0.0, powers=powers)
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

    @pytest.mark.parametrize("axis", [[1.0, 0.0, -1.0], [0.0],
                                      [0.0, 0.0, 1.0], [0.0, np.nan, 1.0]],
                             ids=["descending", "one_node", "repeated", "nan"])
    def test_bad_grid_axis_rejected(self, axis):
        with pytest.raises(ValidationError):
            GridBackend(axes=(np.linspace(-1.0, 1.0, 5), np.array(axis)))

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

    def test_nan_tol_rejected(self):
        spec = reduced_spec()
        grid = TimeGrid.for_spec(spec, 0.01)
        quad = gauss_hermite_quadrature(0.01, 3)
        with pytest.raises(ValidationError):
            k_value_iteration(spec, grid, GridBackend.uniform(4.0, 5, 2),
                              quad, [0.0], k_max=1, tol=float("nan"))

    @pytest.mark.parametrize("knob,value", [
        ("degree", -1), ("ridge_lambda", -1.0), ("ridge_lambda", np.nan),
        ("ridge_lambda", np.inf), ("exploration_rate", 2.0),
        ("exploration_rate", -0.5), ("exploration_rate", np.nan)])
    def test_bad_regression_knob_rejected(self, knob, value):
        with pytest.raises(ValidationError):
            RegressionBackend(**{knob: value})


def reference_grid_solve(spec, grid, axes, quad, u_grid, n_levels):
    """The grid level loop on the generic operators, interpolating afresh
    through GridValueFunction.value_at at every query."""
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=1)
    n, dt = grid.n_steps, grid.dt
    levels = []
    for k in range(n_levels):
        vf = GridValueFunction(axes=axes, values=[None] * (n + 1), k_index=k,
                               dt=dt)
        vf.values[n] = np.asarray(spec.terminal_reward(points[:, 0]),
                                  dtype=float)
        for i in range(n - 1, -1, -1):
            vals = _continuation(vf, i, points, spec, quad, dt)
            if k:
                interv, _ = _intervention_batch(levels[-1].value_at, i,
                                                points, spec, u_grid, i * dt)
                vals = np.maximum(vals, interv)
            vf.values[i] = vals
        levels.append(vf)
    return levels


def time_dependent_spec():
    return dataclasses.replace(reduced_spec(),
                               drift=lambda t, x, y: -(1.0 + t) * x + 0.5 * y)


class TestStencilSolve:
    @pytest.mark.parametrize("make_spec", [reduced_spec, time_dependent_spec])
    def test_equals_generic_operators_bitwise(self, make_spec):
        spec = make_spec()
        its, gaps, grid, quad, ug = solve_reduced(spec, k_max=2, tol=1e-12)
        ref = reference_grid_solve(spec, grid, its[0].axes, quad, ug, len(its))
        assert len(its) == 3
        for got, want in zip(its, ref):
            for i in range(grid.n_steps + 1):
                assert np.array_equal(got.values[i], want.values[i])
        assert gaps == [max(float(np.max(np.abs(hi.values[i] - lo.values[i])))
                            for i in range(grid.n_steps + 1))
                        for lo, hi in zip(ref, ref[1:])]

    @pytest.mark.parametrize("k_max,horizon", [(1, 0.2), (3, 0.5)])
    def test_stencils_built_once_per_solve(self, monkeypatch, k_max, horizon):
        calls = []
        real = bellman.interp_stencil

        def counting(axes, points):
            calls.append(len(points))
            return real(axes, points)

        monkeypatch.setattr(bellman, "interp_stencil", counting)
        spec = dataclasses.replace(reduced_spec(), horizon=horizon)
        its, _, _, quad, ug = solve_reduced(spec, k_max=k_max, tol=1e-12)
        assert len(its) == k_max + 1
        assert len(calls) == len(ug) + len(quad.nodes)


def reference_regression_solve(spec, grid, backend, quad, u_grid, k_max, tol):
    """The regression solve level by level on the generic operators: every
    query builds its own design matrix, and each level stops the solve as
    soon as its gap falls below tol."""
    powers = monomial_powers(grid.delay_steps + 1, backend.degree)
    clouds = bellman._sample_states(spec, grid, backend)
    n, dt = grid.n_steps, grid.dt
    margin = float(np.max(np.abs(u_grid)))
    bounds = [(c.min(axis=0) - margin, c.max(axis=0) + margin)
              for c in clouds[:n]] + [None]

    def fit(i, targets):
        return fit_regression_step(clouds[i], targets, backend.degree,
                                   backend.ridge_lambda, powers=powers)

    levels, gaps = [], []
    for k in range(k_max + 1):
        prev = levels[-1] if k else None
        vf = RegressionValueFunction(powers=powers,
                                     cont_coeffs=[None] * (n + 1),
                                     plain_coeffs=[None] * (n + 1),
                                     k_index=k, dt=dt,
                                     terminal_reward=spec.terminal_reward,
                                     prev=prev, spec=spec, u_grid=u_grid,
                                     bounds=bounds)
        for i in range(n - 1, -1, -1):
            cont = _continuation(vf, i, clouds[i], spec, quad, dt)
            _check_finite(cont, i, k)
            vf.cont_coeffs[i] = fit(i, cont)
            if k:
                interv, _ = _intervention_batch(prev.plain_value_at, i,
                                                clouds[i], spec, u_grid, i * dt)
                vals = np.maximum(cont, interv)
                _check_finite(vals, i, k)
                vf.plain_coeffs[i] = fit(i, vals)
            else:
                vf.plain_coeffs[i] = vf.cont_coeffs[i]
        levels.append(vf)
        if k:
            gaps.append(max(float(np.max(np.abs(vf.value_at(i, clouds[i])
                                                - prev.value_at(i, clouds[i]))))
                            for i in range(n)))
            if gaps[-1] < tol:
                break
    return levels, gaps


def assert_same_levels(got, want):
    assert [vf.k_index for vf in got] == [vf.k_index for vf in want]
    for g, w in zip(got, want):
        for a, b in zip(g.cont_coeffs + g.plain_coeffs,
                        w.cont_coeffs + w.plain_coeffs):
            assert (a is None and b is None) or np.array_equal(a, b)


def rewarded_impulse_spec(reward):
    """Lift dimension 1 with a fee of -reward: level k is worth about
    k * reward, so with a reward near the float range the upper levels
    overflow while the lower ones stay finite."""
    return dataclasses.replace(feedback_spec(delay=0.0), horizon=0.04,
                               impulse_cost=lambda x, u, t: np.full(
                                   np.shape(x), -reward))


class TestRegressionSweep:
    def test_equals_level_by_level_solve_lift3(self):
        spec = dataclasses.replace(feedback_spec(delay=0.02), horizon=0.1)
        grid = TimeGrid.for_spec(spec, 0.01)
        quad = gauss_hermite_quadrature(0.01, 3)
        ug = spec.impulse_set.grid(5)
        backend = RegressionBackend(degree=2, n_samples=300)
        args = (spec, grid, backend, quad, ug, 3, 1e-12)
        its, gaps = k_value_iteration(*args)
        ref, ref_gaps = reference_regression_solve(*args)
        assert grid.delay_steps + 1 == 3 and len(its) == 4
        assert_same_levels(its, ref)
        assert gaps == ref_gaps

    def test_levels_above_convergence_are_trimmed(self):
        spec, tree = build_tiny_instance("TINY-2")
        grid = TimeGrid.for_spec(spec, tree.dt)
        args = (spec, grid, RegressionBackend(), three_point_quadrature(tree.dt),
                spec.impulse_set.grid(3), 8, 1e-2)
        its, gaps = k_value_iteration(*args)
        ref, ref_gaps = reference_regression_solve(*args)
        assert len(its) < 9 and gaps[-1] < 1e-2
        assert_same_levels(its, ref)
        assert gaps == ref_gaps

    @pytest.mark.parametrize("tol,raises", [(1e-3, True), (4.5e306, False)],
                             ids=["at_stop_level", "above_stop_level"])
    def test_non_finite_level(self, tol, raises):
        # gaps are about 3e306, so tol 4.5e306 stops the solve at k = 1,
        # below the level k = 3 that overflows
        spec = rewarded_impulse_spec(3e306)
        grid = TimeGrid.for_spec(spec, 0.01)
        args = (spec, grid, RegressionBackend(degree=1, n_samples=20,
                                              exploration_rate=0.0),
                gauss_hermite_quadrature(0.01, 3), spec.impulse_set.grid(3),
                6, tol)
        with np.errstate(over="ignore", invalid="ignore"):
            if raises:
                with pytest.raises(DivergenceError, match="level k=3") as want:
                    reference_regression_solve(*args)
                with pytest.raises(DivergenceError) as got:
                    k_value_iteration(*args)
                assert str(got.value) == str(want.value)
                return
            ref, ref_gaps = reference_regression_solve(*args)
            its, gaps = k_value_iteration(*args)
        assert len(its) == 2
        assert_same_levels(its, ref)
        assert gaps == ref_gaps

    def test_design_matrices_shared_by_levels(self, monkeypatch):
        calls = []
        real = bellman.design_matrix

        def counting(points, powers):
            calls.append(len(points))
            return real(points, powers)

        monkeypatch.setattr(bellman, "design_matrix", counting)
        spec = dataclasses.replace(reduced_spec(), horizon=0.05)
        grid = TimeGrid.for_spec(spec, 0.01)
        quad = gauss_hermite_quadrature(0.01, 3)
        ug = spec.impulse_set.grid(5)
        its, _ = k_value_iteration(spec, grid,
                                   RegressionBackend(degree=2, n_samples=200),
                                   quad, ug, k_max=3, tol=1e-12)
        n, q, u, levels = grid.n_steps, len(quad.nodes), len(ug), len(its)
        assert levels == 4
        # per slice: the cloud once and its jumps once per level above 0;
        # below the last slice, each successor set and each of its jumps once
        assert len(calls) == n * (1 + (levels - 1) * u) + (n - 1) * q * (1 + u)
        assert set(calls) == {200}


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

    def test_regression_round_trip_four_levels(self, tmp_path):
        spec = dataclasses.replace(feedback_spec(delay=0.02), horizon=0.1)
        grid = TimeGrid.for_spec(spec, 0.01)
        ug = spec.impulse_set.grid(5)
        backend = RegressionBackend(degree=2, n_samples=300)
        its, _ = k_value_iteration(spec, grid, backend,
                                   gauss_hermite_quadrature(0.01, 3), ug,
                                   k_max=3, tol=1e-12)
        save_value_function(its[-1], tmp_path, "vf")
        back = load_value_function(tmp_path, "vf",
                                   terminal_reward=spec.terminal_reward,
                                   spec=spec, u_grid=ug)
        chain = [back]
        while chain[0].prev is not None:
            chain.insert(0, chain[0].prev)
        assert len(its) == 4
        assert_same_levels(chain, its)
        pts = np.array([[0.7, -0.2, 0.1], [0.0, 0.0, 0.0]])
        for i in (0, 5, 9, 10):
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
