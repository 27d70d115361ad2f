"""Value iteration, interpolation, regression fits, policies, persistence."""

import dataclasses
import hashlib
import itertools
import json
import os
import re

import numpy as np
import pytest

from sddeimpulse import ValidationError
from sddeimpulse import bellman
from sddeimpulse.bellman import (DivergenceError, GridBackend,
                                 GridValueFunction, RegressionBackend,
                                 RegressionValueFunction, _check_finite,
                                 _continuation, _intervention_batch,
                                 Policy, design_matrix,
                                 fit_regression_step, k_value_iteration,
                                 load_value_function, monomial_powers,
                                 multilinear_interp, save_value_function)
from sddeimpulse.cli import RunConfig
from sddeimpulse.lattice import (gauss_hermite_quadrature,
                                 impulse_transition_batch,
                                 step_transition_batch, two_point_quadrature)
from sddeimpulse.oracle import (FiniteTree, exact_snell_on_tree,
                                exact_state_axis)
from sddeimpulse.simulate import (TimeGrid, draw_noise_matrix,
                                  export_trajectories_csv, simulate_batch)

from test_cli import CONFIGS
from test_oracle import tiny_instance
from test_simulate import feedback_spec


def reduced_spec():
    return feedback_spec(delay=0.01)


def solve_reduced(spec, k_max=1, points=21, n_u=9, tol=1e-3):
    grid = TimeGrid.for_spec(spec, 0.01)
    quad = gauss_hermite_quadrature(0.01, 7)
    ug = spec.impulse_set.grid(n_u)
    backend = GridBackend(np.linspace(-4.0, 4.0, points))
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


def searchsorted_cells(ax, x):
    """Reference cell search: clamped searchsorted, then the corner weights
    as _axis_cells computes them."""
    p = np.clip(x, ax[0], ax[-1])
    i = np.minimum(np.searchsorted(ax, p, side="right") - 1, len(ax) - 2)
    lo = ax[i]
    frac = (p - lo) / (ax[i + 1] - lo)
    return i, (1.0 - frac, frac)


def axis_queries(ax):
    """The nodes, one ulp either side of each, the box ends and beyond,
    uniform draws over a wider box, and the non-finite values."""
    span = ax[-1] - ax[0]
    rng = np.random.default_rng(len(ax))
    return np.concatenate([
        ax, np.nextafter(ax, np.inf), np.nextafter(ax, -np.inf),
        [ax[0] - span, ax[-1] + span, -1e300, 1e300, -0.0, 0.0],
        rng.uniform(ax[0] - 0.1 * span, ax[-1] + 0.1 * span, 2000),
        [np.inf, -np.inf, np.nan]])


def assert_searchsorted_cells(ax):
    q = axis_queries(ax)
    (i, (w0, w1)), (ri, (r0, r1)) = (bellman._axis_cells(ax, q),
                                     searchsorted_cells(ax, q))
    assert i.dtype == ri.dtype and i.tobytes() == ri.tobytes()
    assert w0.tobytes() == r0.tobytes() and w1.tobytes() == r1.tobytes()
    # NaN takes the last cell with NaN weights
    assert i[-1] == len(ax) - 2 and np.isnan(w0[-1]) and np.isnan(w1[-1])


class TestAxisCells:
    @pytest.mark.parametrize("n", [2, 3, 41, 161])
    @pytest.mark.parametrize("lo,hi", [(-4.0, 4.0), (0.0, 1.0), (-1e-3, 7.3),
                                       (1e5, 1e5 + 3.0), (-2.5, -0.1)])
    def test_uniform_axis_matches_searchsorted_bitwise(self, n, lo, hi):
        ax = np.linspace(lo, hi, n)
        assert bellman._uniform_step(ax.dtype.str, ax.tobytes()) is not None
        assert_searchsorted_cells(ax)

    @pytest.mark.parametrize("ax", [
        np.array([-1.0, 0.0, 0.1, 2.0, 5.0]), np.geomspace(1e-3, 10.0, 41)],
        ids=["hand", "geometric"])
    def test_non_uniform_axis_keeps_the_search(self, ax):
        assert bellman._uniform_step(ax.dtype.str, ax.tobytes()) is None
        assert_searchsorted_cells(ax)


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


def frozen_quadratic(time_index, heads, lags):
    """Stand-in value level V(t, x) = -head^2 for intervention pricing."""
    return -(heads ** 2)


def intervention_at(head, spec, u_grid):
    """(value, impulse) of the best jump from the one-row state (head,)."""
    val, u = _intervention_batch(frozen_quadratic, 0, np.array([head]),
                                 np.zeros((1, 0)), spec, np.asarray(u_grid),
                                 0.0)
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


def fresh_values(pts, powers, c):
    """One fit at `pts` through a memo that has seen nothing."""
    return bellman._LagMemo(powers).values(0, pts[:, 0], pts[:, 1:], [c])[0]


def assert_within_rounding(pts, powers, c):
    """The head polynomial at `pts` against a fresh design_matrix @ c, within
    64 eps of the sum of the terms' magnitudes."""
    A = design_matrix(pts, powers)
    bound = 64 * np.finfo(float).eps * (np.abs(A) @ np.abs(c))
    assert np.all(np.abs(fresh_values(pts, powers, c) - A @ c) <= bound)


def lag_memo(m, degree, n_rows=50, scale=1.0, seed=0):
    """Points, powers, a memo of those powers and two coefficient vectors."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_rows, m)) * scale
    powers = monomial_powers(m, degree)
    coeffs = list(rng.normal(size=(2, len(powers))))
    return pts, powers, bellman._LagMemo(powers), coeffs


def memo_values(memo, pts, coeffs, time_index=0):
    """memo.values at `pts`, checked bit for bit against a fresh memo;
    returns the entry used."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = memo.values(time_index, pts[:, 0], pts[:, 1:], coeffs)
        want = [fresh_values(pts, memo.powers, c) for c in coeffs]
    assert got.shape == (len(coeffs), len(pts))
    assert got.tobytes() == np.stack(want).tobytes()
    assert 1 <= len(memo.entries) <= 2
    return memo.entries[0]


class TestHeadPolynomial:
    @pytest.mark.parametrize("m,degree", [(6, 3), (1, 3), (3, 0), (2, 4)],
                             ids=["lift6_degree3", "lift1", "degree0",
                                  "lift2_degree4"])
    def test_matches_fresh_design_within_rounding(self, m, degree):
        pts, powers, _, coeffs = lag_memo(m, degree, n_rows=300, scale=2.0)
        pts[::7, 0] = 0.0
        for c in coeffs:
            assert_within_rounding(pts, powers, c)
        if degree == 0:
            assert np.all(fresh_values(pts, powers, coeffs[0])
                          == coeffs[0][0])

    def test_non_finite_fit_raises_divergence(self):
        pts, powers, _, coeffs = lag_memo(6, 3, scale=1e110)
        with np.errstate(over="ignore", invalid="ignore"):
            got = fresh_values(pts, powers, coeffs[0])
            want = design_matrix(pts, powers) @ coeffs[0]
        assert not np.all(np.isfinite(want))
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        with pytest.raises(DivergenceError):
            _check_finite(got, 0, 1)

    def test_memo_hit_returns_the_bytes_of_a_fresh_evaluation(self):
        pts, powers, memo, coeffs = lag_memo(6, 3)
        first = memo_values(memo, pts, coeffs)
        hit = memo.values(0, pts[:, 0], pts[:, 1:], coeffs[::-1])
        assert memo.entries[0] is first
        assert hit.tobytes() == np.stack(
            [fresh_values(pts, powers, c) for c in coeffs[::-1]]).tobytes()


class TestLagColumns:
    @pytest.mark.parametrize("m,degree,scale", [
        (6, 3, 1.0), (1, 3, 1.0), (3, 0, 1.0), (3, 3, 1e110)],
        ids=["lift6", "m1_all_head", "degree0", "overflow"])
    def test_head_only_change_hits(self, m, degree, scale):
        pts, powers, memo, coeffs = lag_memo(m, degree, scale=scale)
        first = memo_values(memo, pts, coeffs)
        jumped = pts.copy()
        jumped[:, 0] = jumped[:, 0] * 0.5 + 1.0
        assert memo_values(memo, jumped, coeffs) is first
        assert len(memo.entries) == 1
        assert len(first[2]) == len(coeffs)
        if scale > 1e100:
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.all(np.isfinite(
                    memo.values(0, jumped[:, 0], jumped[:, 1:], coeffs)))

    @pytest.mark.parametrize("new", ["next_float", "signed_zero",
                                     "time_index"])
    def test_single_lag_entry_change_misses(self, new):
        pts, powers, memo, coeffs = lag_memo(6, 3)
        pts[:, 2] = 0.0
        first = memo_values(memo, pts, coeffs)
        other, time_index = pts.copy(), 0
        if new == "next_float":
            other[17, 3] = np.nextafter(other[17, 3], np.inf)
        elif new == "signed_zero":
            # equal as numbers, but the key is the bytes
            other[17, 2] = -0.0
        else:
            time_index = 1
        assert memo_values(memo, other, coeffs, time_index) is not first
        assert len(memo.entries) == 2

    def test_caller_mutation_between_calls(self):
        pts, powers, memo, coeffs = lag_memo(6, 3)
        out = memo.values(0, pts[:, 0], pts[:, 1:], coeffs)
        out[:] = 7.0
        pts[:, 1:] *= 2.0
        memo_values(memo, pts, coeffs)
        pts[:, 1:] /= 2.0
        memo_values(memo, pts, coeffs)
        coeffs[0] *= 3.0
        memo_values(memo, pts, coeffs)

    def test_row_count_change(self):
        pts, powers, memo, coeffs = lag_memo(4, 2)
        first = memo_values(memo, pts, coeffs)
        assert memo_values(memo, pts[:40], coeffs) is not first
        assert memo_values(memo, pts[:1], coeffs) is not first

    def test_lags_clipped_once_per_lag_block(self):
        pts, powers, memo, coeffs = lag_memo(6, 3)
        bounds = (np.full(6, -0.5), np.full(6, 0.5))
        jumped = pts.copy()
        jumped[:, 0] += 1.0
        first = memo.values(0, pts[:, 0], pts[:, 1:], coeffs, bounds)
        clipped = memo.clipped[1]
        again = memo.values(0, jumped[:, 0], jumped[:, 1:], coeffs, bounds)
        assert memo.clipped[1] is clipped and len(memo.entries) == 1
        for got, p in ((first, pts), (again, jumped)):
            assert got.tobytes() == np.stack(
                [fresh_values(np.clip(p, *bounds), powers, c)
                 for c in coeffs]).tobytes()

    def test_keeps_the_two_most_recent_lag_blocks(self):
        pts, powers, memo, coeffs = lag_memo(3, 2)
        sets = [pts, pts + 1.0, pts + 2.0]
        a = memo_values(memo, sets[0], coeffs)
        b = memo_values(memo, sets[1], coeffs)
        assert memo_values(memo, sets[0], coeffs) is a
        c = memo_values(memo, sets[2], coeffs)
        assert memo.entries == [c, a]
        assert memo_values(memo, sets[1], coeffs) is not b
        assert memo.entries[1] is c


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
        cfg, tree = tiny_instance("tiny1.json")
        axis = exact_state_axis(cfg.spec, tree, 1)
        its, _ = k_value_iteration(cfg.spec, cfg.grid,
                                   GridBackend(axis),
                                   cfg.quadrature, cfg.u_grid(),
                                   k_max=1, tol=1e-12)
        best, _ = enumerate_controls(cfg.spec, tree, 1)
        v = its[-1].value_at(0, np.array([[0.0]]))[0]
        assert abs(v - best) <= 1e-9

    @pytest.mark.parametrize("axis", [[1.0, 0.0, -1.0], [0.0],
                                      [0.0, 0.0, 1.0], [0.0, np.nan, 1.0]],
                             ids=["descending", "one_node", "repeated", "nan"])
    def test_bad_grid_axis_rejected(self, axis):
        with pytest.raises(ValidationError, match="grid axis"):
            GridBackend(np.array(axis))

    def test_bad_arguments_rejected(self):
        spec = reduced_spec()
        grid = TimeGrid.for_spec(spec, 0.01)
        quad = gauss_hermite_quadrature(0.01, 3)
        backend = GridBackend(np.linspace(-4.0, 4.0, 5))
        with pytest.raises(ValidationError):
            k_value_iteration(spec, grid, backend, quad, [], k_max=1)
        with pytest.raises(ValidationError):
            k_value_iteration(spec, grid, backend, quad, [0.0], k_max=0)

    def test_nan_tol_rejected(self):
        spec = reduced_spec()
        grid = TimeGrid.for_spec(spec, 0.01)
        quad = gauss_hermite_quadrature(0.01, 3)
        backend = GridBackend(np.linspace(-4.0, 4.0, 5))
        with pytest.raises(ValidationError):
            k_value_iteration(spec, grid, backend, quad, [0.0], k_max=1,
                              tol=float("nan"))

    @pytest.mark.parametrize("knob,value", [
        ("degree", -1), ("ridge_lambda", -1.0), ("ridge_lambda", np.nan),
        ("ridge_lambda", np.inf), ("exploration_rate", 2.0),
        ("exploration_rate", -0.5), ("exploration_rate", np.nan),
        ("sample_seed", -1), ("sample_seed", 2 ** 64)])
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
                interv, _ = _intervention_batch(levels[-1].value_at_heads, i,
                                                points[:, 0], points[:, 1:],
                                                spec, u_grid, i * dt)
                vals = np.maximum(vals, interv)
            vf.values[i] = vals
        levels.append(vf)
    return levels


def time_dependent_spec():
    return dataclasses.replace(reduced_spec(),
                               drift=lambda t, x, y: -(1.0 + t) * x + 0.5 * y)


def lift3_spec():
    return dataclasses.replace(feedback_spec(delay=0.02), horizon=0.2)


def recorded_head_stencils(monkeypatch):
    """A list that collects (heads, values) of every head stencil built."""
    built = []
    real = bellman._head_stencil

    def recording(axis, heads, *rows):
        built.append((heads, real(axis, heads, *rows)))
        return built[-1][1]

    monkeypatch.setattr(bellman, "_head_stencil", recording)
    return built


class TestStencilSolve:
    @pytest.mark.parametrize("make_spec", [reduced_spec, time_dependent_spec,
                                           lift3_spec])
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
        built = recorded_head_stencils(monkeypatch)
        spec = dataclasses.replace(reduced_spec(), horizon=horizon)
        its, _, _, quad, ug = solve_reduced(spec, k_max=k_max, tol=1e-12)
        assert len(its) == k_max + 1
        # the jumps', then one per quadrature node
        assert [h.shape for h, _ in built] == \
            [(len(ug), 21)] + [(21 * 21,)] * len(quad.nodes)

    @pytest.mark.parametrize("make_spec", [reduced_spec, time_dependent_spec])
    def test_successors_stepped_once_per_solve(self, monkeypatch, make_spec):
        built, steps = recorded_head_stencils(monkeypatch), []
        real = bellman.euler_head

        def counting(*args):
            steps.append(args[2])
            return real(*args)

        monkeypatch.setattr(bellman, "euler_head", counting)
        spec = dataclasses.replace(make_spec(), horizon=0.2)
        its, _, grid, quad, _ = solve_reduced(spec, k_max=3, tol=1e-12)
        assert len(its) == 4
        assert len(steps) == grid.n_steps * len(quad.nodes)
        # a slice shares the stencils of the one above unless the heads
        # move with t
        slices = grid.n_steps if make_spec is time_dependent_spec else 1
        assert len(built) == 1 + slices * len(quad.nodes)

    @pytest.mark.parametrize("delay", [0.01, 0.02], ids=["reduced", "lift3"])
    def test_head_stencils_equal_multilinear_interp(self, monkeypatch, delay):
        built = recorded_head_stencils(monkeypatch)
        spec = dataclasses.replace(feedback_spec(delay=delay), horizon=0.05)
        its, _, grid, quad, ug = solve_reduced(spec, k_max=1, points=11, n_u=7)
        axes = its[0].axes
        points = np.stack([g.ravel() for g in np.meshgrid(*axes,
                                                          indexing="ij")], 1)
        # the solve's operators, each with the points it prices: every
        # node's jumps, stacked, then its Euler successors node by node;
        # the grid's own points put lags on the last node too
        (_, jumped), *steps = built
        assert len(steps) == len(quad.nodes)
        operators = [(jumped, np.concatenate(
            [impulse_transition_batch(points, u, spec) for u in ug]))] + [
            (stepped, step_transition_batch(points, 0.0, z, spec, grid.dt))
            for (_, stepped), z in zip(steps, quad.nodes)]
        # the solve's own tables, and a table with zeros of both signs
        signed_zeros = np.random.default_rng(1).choice(
            [-0.0, 0.0, -1.5, 2.25], len(points))
        for table in [vf.values[i] for vf in its for i in (0, 3)] \
                + [signed_zeros]:
            for values, at in operators:
                want = multilinear_interp(axes, table.reshape(its[0].shape),
                                          at)
                assert values(table).tobytes() == want.tobytes()


class Unpruned:
    """A value level with no head ceiling, so a Policy that reads it prices
    every path's jumps: the unpruned reference of decide_batch."""

    def head_ceiling(self, i, lags):
        return np.full(len(lags), np.inf)


def looped_rows(value_at, i, heads, lags):
    """A stacked query answered with one value_at call per head row."""
    rows = heads.reshape(-1, heads.shape[-1])
    return np.stack([value_at(i, np.column_stack([h, lags]))
                     for h in rows]).reshape(heads.shape)


class FreshGridLevel(Unpruned):
    """One grid level read through a fresh multilinear_interp per query,
    with no lag memo and no head ceiling; its stacked query loops over the
    head rows."""

    def value_at_heads(self, i, heads, lags):
        return looped_rows(self.value_at, i, heads, lags)

    def __init__(self, vf):
        self.vf, self.n_steps, self.dt = vf, vf.n_steps, vf.dt

    def value_at(self, i, points):
        return multilinear_interp(self.vf.axes,
                                  self.vf.values[i].reshape(self.vf.shape),
                                  points)


def tiny1_levels():
    cfg = RunConfig.load(os.path.join(CONFIGS, "tiny1.json"))
    its, _ = k_value_iteration(cfg.spec, cfg.grid, cfg.build_backend(),
                               cfg.quadrature, cfg.u_grid(), k_max=cfg.k_max,
                               tol=cfg.tol)
    return its, cfg.spec, cfg.quadrature, cfg.u_grid()


def lift_levels(delay):
    spec = dataclasses.replace(feedback_spec(delay=delay), horizon=0.05)
    its, _, _, quad, ug = solve_reduced(spec, k_max=2, points=11, n_u=7,
                                        tol=1e-12)
    return its, spec, quad, ug


def memo_batches(m, rng):
    """A, B, A again, A with zero lags, the same with -0.0 lags, and a
    shorter batch: every case where the lag memo must miss or may hit."""
    a = rng.uniform(-5.0, 5.0, (40, m))
    b = rng.uniform(-5.0, 5.0, (40, m))
    zero = a.copy()
    zero[:, 1:] = 0.0
    negative_zero = a.copy()
    negative_zero[:, 1:] = -0.0
    return [a, b, a, zero, negative_zero, a[:7]]


def jump_rows(monkeypatch):
    """A list that collects the number of paths whose jumps each impulse
    max prices."""
    rows = []
    real = bellman._intervention_batch

    def recording(value_at_heads, i, heads, *rest):
        rows.append(len(heads))
        return real(value_at_heads, i, heads, *rest)

    monkeypatch.setattr(bellman, "_intervention_batch", recording)
    return rows


LEVELS = [(tiny1_levels, 1), (lambda: lift_levels(0.01), 2),
          (lambda: lift_levels(0.02), 3)]
LEVEL_IDS = ["tiny1", "reduced", "lift3"]


class TestGridLagMemo:
    @pytest.mark.parametrize("make,m", LEVELS, ids=LEVEL_IDS)
    def test_decide_batch_and_value_at_bitwise(self, make, m):
        its, spec, quad, ug = make()
        assert len(its[0].axes) == m and len(its) >= 2
        top, prev = its[-1], its[-2]
        policy = Policy(top, prev, spec, ug, quad)
        fresh = Policy(FreshGridLevel(top), FreshGridLevel(prev), spec, ug,
                       quad)
        for batch in memo_batches(m, np.random.default_rng(m)):
            for i in range(top.n_steps + 1):
                for got, want in zip(policy.decide_batch(i, batch),
                                     fresh.decide_batch(i, batch)):
                    assert got.tobytes() == want.tobytes()
                for vf in (top, prev):
                    assert vf.value_at(i, batch).tobytes() == \
                        FreshGridLevel(vf).value_at(i, batch).tobytes()

    def test_decide_batch_at_chunk_boundaries(self):
        spec = dataclasses.replace(reduced_spec(), horizon=0.05)
        its, _, _, quad, ug = solve_reduced(spec, k_max=1, points=11, n_u=41)
        policy = Policy(its[1], its[0], spec, ug, quad)
        fresh = Policy(FreshGridLevel(its[1]), FreshGridLevel(its[0]), spec,
                       ug, quad)
        rng = np.random.default_rng(7)
        # the jump stack is chunked at CHUNK // U paths, the Euler one at
        # CHUNK // Q
        for step in (bellman.CHUNK // len(ug), bellman.CHUNK // len(quad.nodes)):
            for n in (1, step - 1, step, step + 1):
                states = rng.uniform(-5.0, 5.0, (n, 2))
                for i in (0, its[1].n_steps - 1):
                    for got, want in zip(policy.decide_batch(i, states),
                                         fresh.decide_batch(i, states)):
                        assert got.tobytes() == want.tobytes()

    def test_one_lag_search_per_value_function_and_batch(self, monkeypatch):
        its, spec, quad, ug = lift_levels(0.01)
        calls = []
        real = bellman._lag_cells

        def counting(axes, lags):
            calls.append(len(lags))
            return real(axes, lags)

        monkeypatch.setattr(bellman, "_lag_cells", counting)
        live = jump_rows(monkeypatch)
        policy = Policy(its[-1], its[-2], spec, ug, quad)
        states = np.random.default_rng(0).normal(size=(30, 2))
        for i in range(its[-1].n_steps):
            policy.decide_batch(i, states)
        # the successors' lags on V^k once; on V^{k-1} the states' lags for
        # the head ceiling, searched again after a decision whose live
        # paths were fewer, and the live paths' lags when they are fewer
        want = [30]
        for d, n in enumerate(live):
            want += [30] * (d == 0 or live[d - 1] < 30) + [n] * (n < 30)
        assert calls == want
        assert 0 < sum(live) < 30 * len(live)


def assert_decisions_unpruned(policy, states, steps):
    """decide_batch of `policy` at each step, bit for bit that of the same
    levels read through FreshGridLevel, which prices every path's jumps."""
    fresh = Policy(FreshGridLevel(policy.v_top), FreshGridLevel(policy.v_prev),
                   policy.spec, policy.u_grid, policy.quadrature)
    for i in steps:
        for got, want in zip(policy.decide_batch(i, states),
                             fresh.decide_batch(i, states)):
            assert got.tobytes() == want.tobytes()


def awkward_states(axis, m, rng):
    """Heads and lags on nodes, off them, outside the box and non-finite."""
    on = rng.choice(axis, (40, m))
    off = rng.uniform(axis[0] - 2.0, axis[-1] + 2.0, (40, m))
    odd = rng.uniform(-1.0, 1.0, (24, m))
    odd[np.arange(24), rng.integers(0, m, 24)] = np.tile(
        [np.nan, np.inf, -np.inf, 1e300, -1e300, axis[0]], 4)
    return np.concatenate([on, off, odd])


def grid_copy(vf, edit=lambda table: None):
    """A GridValueFunction on copies of vf's tables, edit(table) applied to
    each."""
    values = [v.copy() for v in vf.values]
    for v in values:
        edit(v)
    return GridValueFunction(axes=vf.axes, values=values, k_index=vf.k_index,
                             dt=vf.dt)


class TestPrunedDecisions:
    """decide_batch prices jumps only where they can beat continuing, and
    its decisions are those of pricing every path's jumps, bit for bit."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("make,m", LEVELS, ids=LEVEL_IDS)
    def test_nodes_outside_the_box_and_non_finite_states(self, monkeypatch,
                                                         make, m):
        its, spec, quad, ug = make()
        policy = Policy(its[-1], its[-2], spec, ug, quad)
        states = awkward_states(its[0].axes[0], m, np.random.default_rng(m))
        live = jump_rows(monkeypatch)
        assert_decisions_unpruned(policy, states, range(its[-1].n_steps + 1))
        pruned, full = live[0::2], live[1::2]
        assert full == [len(states)] * its[-1].n_steps
        assert sum(pruned) < sum(full)
        acts = [policy.decide_batch(i, states)[0].sum()
                for i in range(its[-1].n_steps)]
        assert sum(acts) > 0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("level", ["top", "prev"])
    def test_non_finite_tables(self, value, level):
        its, spec, quad, ug = lift_levels(0.01)
        rng = np.random.default_rng(4)

        def spoil(table):
            table[rng.integers(0, len(table), 5)] = value

        top, prev = its[-1], its[-2]
        top, prev = ((grid_copy(top, spoil), prev) if level == "top"
                     else (top, grid_copy(prev, spoil)))
        states = rng.uniform(-5.0, 5.0, (200, 2))
        assert_decisions_unpruned(Policy(top, prev, spec, ug, quad), states,
                                  range(top.n_steps + 1))

    @pytest.mark.parametrize("nudge,acts", [(0, False), (1, False),
                                            (-1, True)],
                             ids=["tie", "above", "below"])
    def test_continuation_at_the_bound(self, monkeypatch, nudge, acts):
        # two-point successors of (0, 0) land on the nodes -0.1 and 0.1, so
        # continuing is worth exactly the top table's constant b; the zero
        # table below bounds every jump by 0 - min cost = -0.1, which the
        # jump u = 0 reaches
        spec = reduced_spec()
        axis = np.array([-4.0, -0.1, 0.0, 0.1, 4.0])
        quad = two_point_quadrature(0.01)
        ug = spec.impulse_set.grid(5)
        b = -0.1 if nudge == 0 else np.nextafter(-0.1, nudge * np.inf)
        top = GridValueFunction(axes=(axis, axis), values=[np.full(25, b)] * 2,
                                k_index=1, dt=0.01)
        prev = GridValueFunction(axes=(axis, axis), values=[np.zeros(25)] * 2,
                                 k_index=0, dt=0.01)
        policy = Policy(top, prev, spec, ug, quad)
        states = np.zeros((1, 2))
        live = jump_rows(monkeypatch)
        assert_decisions_unpruned(policy, states, [0])
        assert live == [int(acts), 1]
        mask, us = policy.decide_batch(0, states)
        assert mask.tolist() == [acts] and us.tobytes() == \
            np.zeros(1).tobytes()

    @pytest.mark.parametrize("make,m", LEVELS, ids=LEVEL_IDS)
    def test_ceiling_bounds_every_jump(self, make, m):
        its, spec, _, ug = make()
        rng = np.random.default_rng(10 + m)
        axis = its[0].axes[0]
        def near_a_million(table):
            table[:] = 1e6 + rng.uniform(0.0, 1e-9, len(table))

        # the solved tables, and ones whose entries all round alike
        levels = its + [grid_copy(its[0], lambda table: table.fill(0.1)),
                        grid_copy(its[0], near_a_million)]
        states = np.concatenate([rng.uniform(axis[0] - 1, axis[-1] + 1,
                                             (300, m)),
                                 rng.choice(axis, (100, m))])
        jumped = spec.intervention(states[:, 0], ug[:, None])
        for vf in levels:
            for i in range(vf.n_steps + 1):
                ceiling = vf.head_ceiling(i, states[:, 1:])
                assert np.all(vf.value_at_heads(i, jumped, states[:, 1:])
                              <= ceiling)


class TestEmptyBatches:
    def check(self, m, its, spec, quad, ug):
        empty = np.empty((0, m))
        policy = Policy(its[-1], its[-2], spec, ug, quad)
        for i in range(its[-1].n_steps + 1):
            for vf in its[-2:]:
                assert vf.value_at(i, empty).shape == (0,)
                assert vf.value_at_heads(i, np.empty((3, 0)),
                                         empty[:, 1:]).shape == (3, 0)
                assert vf.head_ceiling(i, empty[:, 1:]).shape == (0,)
            mask, us = policy.decide_batch(i, empty)
            assert mask.shape == us.shape == (0,) and mask.dtype == bool

    @pytest.mark.parametrize("make,m", LEVELS, ids=LEVEL_IDS)
    def test_grid(self, make, m):
        self.check(m, *make())

    def test_regression(self):
        spec = dataclasses.replace(feedback_spec(delay=0.05), horizon=0.05)
        grid = TimeGrid.for_spec(spec, 0.01)
        quad = gauss_hermite_quadrature(0.01, 3)
        ug = spec.impulse_set.grid(5)
        its, _ = k_value_iteration(spec, grid,
                                   RegressionBackend(degree=3, n_samples=200),
                                   quad, ug, k_max=2, tol=1e-12)
        self.check(6, its, spec, quad, ug)


def sha256_of(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestGridGoldenBits:
    """The reduced grid config (horizon cut to 0.1) pinned bit for bit: the
    solve's tables, its policy's decisions and the policy's payoffs."""

    @pytest.fixture(scope="class")
    def solved(self):
        cfg = RunConfig.load(os.path.join(CONFIGS,
                                          "delay_feedback_reduced.json"))
        spec = dataclasses.replace(cfg.spec, horizon=0.1)
        grid = TimeGrid.for_spec(spec, cfg.dt)
        its, _ = k_value_iteration(spec, grid, cfg.build_backend(),
                                   cfg.quadrature, cfg.u_grid(),
                                   k_max=cfg.k_max, tol=cfg.tol)
        return its, grid, Policy(its[-1], its[-2], spec, cfg.u_grid(),
                                 cfg.quadrature)

    def test_solve_tables(self, solved):
        its, _, _ = solved
        assert len(its) == 8
        assert sha256_of(*[v for vf in its for v in vf.values]) == \
            "9e0ae8f3eee7c3ffeb81789aebeabf8c3e34e0f3320da5a9349cbceba8e3cb3b"

    def test_decide_batch(self, solved):
        _, grid, policy = solved
        states = np.random.default_rng(5).normal(0.0, 2.5, (200, 2))
        out = [a for i in range(grid.n_steps)
               for a in policy.decide_batch(i, states)]
        assert sum(int(mask.sum()) for mask in out[0::2]) == 1345
        assert sha256_of(*out) == \
            "b2b1b4fb97805a842bcabb0c911b937e93ecbc5a77be09ecc2be4343d1426008"

    def test_policy_payoffs(self, solved):
        _, grid, policy = solved
        payoffs, counts, _, _ = simulate_batch(
            policy.spec, grid, draw_noise_matrix(17, 200, grid), policy)
        assert int(counts.sum()) == 51
        assert sha256_of(payoffs) == \
            "24d4a02b29372fdbad944014108625d960dd2d10de4d029229ae87f115b5528d"


class ReferenceLevel(Unpruned):
    """One regression level evaluated on its own: the head-polynomial kernel
    through a fresh memo per query, and jumps priced with the level below's
    plain fit, one level at a time; its stacked queries loop over the head
    rows."""

    def value_at_heads(self, i, heads, lags):
        return looped_rows(self.value_at, i, heads, lags)

    def plain_value_at_heads(self, i, heads, lags):
        return looped_rows(self.plain_value_at, i, heads, lags)

    def __init__(self, vf):
        self.vf, self.n_steps, self.dt = vf, vf.n_steps, vf.dt

    def value_at(self, i, points):
        vf = self.vf
        if vf.cont_coeffs[i] is None:
            return np.asarray(vf.terminal_reward(points[:, 0]), dtype=float)
        v = fresh_values(points, vf.powers, vf.cont_coeffs[i])
        if vf.prev is not None:
            jump, _ = _intervention_batch(
                ReferenceLevel(vf.prev).plain_value_at_heads, i, points[:, 0],
                points[:, 1:], vf.spec, vf.u_grid, i * vf.dt)
            v = np.maximum(v, jump)
        return v

    def plain_value_at(self, i, points):
        vf = self.vf
        lo, hi = vf.bounds[i]
        return fresh_values(np.clip(points, lo, hi), vf.powers,
                            vf.plain_coeffs[i])


def reference_regression_solve(spec, grid, backend, quad, u_grid, k_max, tol):
    """The regression solve level by level on the generic operators, with
    each level read through ReferenceLevel, and each level stops the solve
    as soon as its gap falls below tol."""
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
        ref = ReferenceLevel(vf)
        for i in range(n - 1, -1, -1):
            cont = _continuation(ref, i, clouds[i], spec, quad, dt)
            _check_finite(cont, i, k)
            vf.cont_coeffs[i] = fit(i, cont)
            if k:
                interv, _ = _intervention_batch(
                    ReferenceLevel(prev).plain_value_at_heads, i,
                    clouds[i][:, 0], clouds[i][:, 1:], spec, u_grid, i * dt)
                vals = np.maximum(cont, interv)
                _check_finite(vals, i, k)
                vf.plain_coeffs[i] = fit(i, vals)
            else:
                vf.plain_coeffs[i] = vf.cont_coeffs[i]
        levels.append(vf)
        if k:
            below = ReferenceLevel(prev)
            gaps.append(max(float(np.max(np.abs(ref.value_at(i, clouds[i])
                                                - below.value_at(i, clouds[i]))))
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
        cfg, _ = tiny_instance("tiny2.json")
        args = (cfg.spec, cfg.grid, RegressionBackend(),
                cfg.quadrature, cfg.u_grid(), 8, 1e-2)
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
            calls.append(points.shape)
            return real(points, powers)

        monkeypatch.setattr(bellman, "design_matrix", counting)
        spec = dataclasses.replace(reduced_spec(), horizon=0.05)
        grid = TimeGrid.for_spec(spec, 0.01)
        quad = gauss_hermite_quadrature(0.01, 3)
        ug = spec.impulse_set.grid(5)
        its, _ = k_value_iteration(spec, grid,
                                   RegressionBackend(degree=2, n_samples=200),
                                   quad, ug, k_max=3, tol=1e-12)
        assert len(its) == 4
        # per slice: the cloud's fit design, and one lag design for the
        # cloud, its jumps and the successors of the slice below, which
        # carry the same lags
        assert calls == [(200, 2), (200, 1)] * grid.n_steps


class TestPolicy:
    def test_prohibitive_cost_never_intervenes(self):
        spec = dataclasses.replace(reduced_spec(),
                                   impulse_cost=lambda x, u, t: 1e6 + 0 * u)
        its, _, grid, quad, ug = solve_reduced(spec, k_max=1)
        pol = Policy(its[-1], its[-2], spec, ug, quad)
        pts = np.array([[x, 0.0] for x in np.linspace(-4, 4, 33)])
        for i in (0, 30, 60, 99):
            act, _ = pol.decide_batch(i, pts)
            assert not act.any()

    def test_impulses_come_from_the_grid(self):
        its, _, grid, quad, ug = solve_reduced(reduced_spec(), k_max=1)
        pol = Policy(its[-1], its[-2], reduced_spec(), ug, quad)
        pts = np.array([[x, x] for x in np.linspace(-4, 4, 65)])
        act, us = pol.decide_batch(10, pts)
        assert act.any()
        assert all(u in ug for u in us[act])

    def test_exported_paths_do_not_depend_on_batch_size(self, tmp_path):
        # the trajectory export simulates all paths in one batch; a path's
        # rows must be the same whatever else shares the batch
        spec = reduced_spec()
        its, _, grid, quad, ug = solve_reduced(spec, k_max=1)
        pol = Policy(its[-1], its[-2], spec, ug, quad)
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
        b2 = GridBackend(np.linspace(-4.0, 4.0, 5))
        other, _ = k_value_iteration(spec2, g2,
                                     b2, gauss_hermite_quadrature(0.02, 3),
                                     ug, k_max=1)
        with pytest.raises(ValidationError):
            Policy(its[-1], other[0], spec2, ug, quad)


class TestSharedLagColumns:
    def test_decide_batch_lift6_bitwise(self):
        spec = dataclasses.replace(feedback_spec(delay=0.05), horizon=0.05)
        grid = TimeGrid.for_spec(spec, 0.01)
        quad = gauss_hermite_quadrature(0.01, 3)
        ug = spec.impulse_set.grid(5)
        its, _ = k_value_iteration(spec, grid,
                                   RegressionBackend(degree=3, n_samples=200),
                                   quad, ug, k_max=2, tol=1e-12)
        assert grid.delay_steps + 1 == 6 and len(its) == 3
        memo = its[0].lag_memo
        assert all(vf.lag_memo is memo for vf in its)
        rng = np.random.default_rng(3)
        states = np.repeat(rng.normal(size=(40, 1)), 6, axis=1)
        states[:20] = rng.normal(size=(20, 6))
        for i in range(grid.n_steps + 1):
            with_memo = Policy(its[2], its[1], spec, ug, quad)
            fresh = Policy(ReferenceLevel(its[2]), ReferenceLevel(its[1]),
                           spec, ug, quad)
            for got, want in zip(with_memo.decide_batch(i, states),
                                 fresh.decide_batch(i, states)):
                assert got.tobytes() == want.tobytes()
            assert its[2].value_at(i, states).tobytes() == \
                ReferenceLevel(its[2]).value_at(i, states).tobytes()
            assert len(memo.entries) <= 2

    def test_lag_designs_per_decision(self, monkeypatch):
        spec = dataclasses.replace(feedback_spec(delay=0.05), horizon=0.05)
        grid = TimeGrid.for_spec(spec, 0.01)
        quad = gauss_hermite_quadrature(0.01, 3)
        ug = spec.impulse_set.grid(5)
        its, _ = k_value_iteration(spec, grid,
                                   RegressionBackend(degree=3, n_samples=200),
                                   quad, ug, k_max=2, tol=1e-12)
        calls = []
        real = bellman.design_matrix

        def counting(points, powers):
            calls.append(points.shape)
            return real(points, powers)

        monkeypatch.setattr(bellman, "design_matrix", counting)
        policy = Policy(its[2], its[1], spec, ug, quad)
        # inside every slice's cloud box, so clipping leaves the lags alone
        states = np.random.default_rng(0).uniform(-0.1, 0.1, (30, 6))
        for i in range(grid.n_steps):
            del calls[:]
            policy.decide_batch(i, states)
            # the successors' lags for V^k at i + 1 (none at T), and the
            # states' lags for V^{k-1} at i; every jump of either hits
            assert calls == [(30, 5)] * (1 if i == grid.n_steps - 1 else 2)

    def test_loaded_levels_share_one_memo(self, tmp_path):
        spec = dataclasses.replace(feedback_spec(delay=0.02), horizon=0.05)
        grid = TimeGrid.for_spec(spec, 0.01)
        ug = spec.impulse_set.grid(5)
        its, _ = k_value_iteration(spec, grid,
                                   RegressionBackend(degree=2, n_samples=100),
                                   gauss_hermite_quadrature(0.01, 3), ug,
                                   k_max=2, tol=1e-12)
        save_value_function(its[-1], tmp_path, "vf")
        back = load_value_function(tmp_path, "vf",
                                   terminal_reward=spec.terminal_reward,
                                   spec=spec, u_grid=ug)
        chain = [back, back.prev, back.prev.prev]
        assert chain[2].prev is None
        assert all(vf.lag_memo is back.lag_memo
                   and vf.powers is back.lag_memo.powers for vf in chain)


def reference_values_csv(vf):
    """The bytes of save_value_function's values file, written one entry
    at a time."""
    if vf.backend == "GRID":
        lines = ["time_index,flat_index,value\n"] + [
            f"{i},{j},{float(v):.17g}\n" for i in range(vf.n_steps + 1)
            for j, v in enumerate(vf.values[i])]
    else:
        levels = [vf]
        while levels[0].prev is not None:
            levels.insert(0, levels[0].prev)
        lines = ["slab,time_index,flat_index,value\n"] + [
            f"{lvl.k_index * 2 + part},{i},{j},{float(v):.17g}\n"
            for lvl in levels
            for part, coeffs in enumerate((lvl.cont_coeffs, lvl.plain_coeffs))
            for i in range(vf.n_steps) for j, v in enumerate(coeffs[i])]
    return "".join(lines).encode()


SPECIAL_VALUES = np.array([-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf, 0.1,
                           -2.5e-7])


class TestPersistence:
    def test_grid_values_file_bytes(self, tmp_path):
        spec = dataclasses.replace(reduced_spec(), horizon=0.05)
        vf = grid_copy(solve_reduced(spec, k_max=1)[0][-1])
        vf.values[0][:8] = SPECIAL_VALUES
        vf.values[-1][-8:] = SPECIAL_VALUES[::-1]
        save_value_function(vf, tmp_path, "vf")
        assert (tmp_path / "vf_values.csv").read_bytes() == \
            reference_values_csv(vf)

    def test_regression_values_file_bytes(self, tmp_path):
        spec = dataclasses.replace(feedback_spec(delay=0.02), horizon=0.1)
        grid = TimeGrid.for_spec(spec, 0.01)
        its, _ = k_value_iteration(spec, grid,
                                   RegressionBackend(degree=2, n_samples=300),
                                   gauss_hermite_quadrature(0.01, 3),
                                   spec.impulse_set.grid(5), k_max=3,
                                   tol=1e-12)
        assert len(its) == 4
        its[-1].cont_coeffs[0][:8] = SPECIAL_VALUES
        its[1].plain_coeffs[-2][-8:] = SPECIAL_VALUES[::-1]
        save_value_function(its[-1], tmp_path, "vf")
        assert (tmp_path / "vf_values.csv").read_bytes() == \
            reference_values_csv(its[-1])

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

    @pytest.mark.parametrize("key,value,field", [
        ("powers", [[0, "1"]], "vf_header.powers: must be a 2-d array of "
         "integers"),
        ("powers", [[0, 1], [2]], "vf_header.powers"),
        ("powers", [[0.0, 1.0]], "vf_header.powers"),
        ("n_levels", "3", "vf_header.n_levels: must be an integer"),
        ("bounds", [[["x", 0.0], [1.0, 1.0]]], "vf_header.bounds: must be a "
         "2-d array of numbers")],
        ids=["powers-string", "powers-ragged", "powers-float",
             "n_levels-string", "bounds-string"])
    def test_bad_regression_header_field_rejected(self, tmp_path, key, value,
                                                  field):
        spec = dataclasses.replace(feedback_spec(delay=0.02), horizon=0.05)
        grid = TimeGrid.for_spec(spec, 0.01)
        ug = spec.impulse_set.grid(5)
        its, _ = k_value_iteration(spec, grid,
                                   RegressionBackend(degree=2, n_samples=100),
                                   gauss_hermite_quadrature(0.01, 3), ug,
                                   k_max=2, tol=1e-12)
        save_value_function(its[-1], tmp_path, "vf")
        path = tmp_path / "vf_header.json"
        header = json.loads(path.read_text())
        header[key] = value
        path.write_text(json.dumps(header))
        with pytest.raises(ValidationError, match=re.escape(field)):
            load_value_function(tmp_path, "vf",
                                terminal_reward=spec.terminal_reward,
                                spec=spec, u_grid=ug)

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
