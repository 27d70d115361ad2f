"""Value iteration, interpolation, regression fits, policies, persistence."""

import dataclasses
import errno
import hashlib
import itertools
import json
import math
import os
import re
import signal
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from sddeimpulse import ValidationError
from sddeimpulse import bellman, simulate
from sddeimpulse.bellman import (DivergenceError, GridBackend,
                                 GridValueFunction, RegressionBackend,
                                 RegressionValueFunction, _check_finite,
                                 _continuation, _intervention_batch,
                                 Policy, design_matrix,
                                 fit_regression_step, k_value_iteration,
                                 load_value_function, monomial_powers,
                                 multilinear_interp, save_value_function)
from sddeimpulse.cli import RunConfig
from sddeimpulse.core import build_problem_spec
from sddeimpulse.lattice import (gauss_hermite_quadrature,
                                 impulse_transition_batch,
                                 step_transition_batch, two_point_quadrature)
from sddeimpulse.oracle import (FiniteTree, exact_snell_on_tree,
                                exact_state_axis)
from sddeimpulse.simulate import (TimeGrid, draw_noise_matrix,
                                  export_trajectories_csv,
                                  initial_lifted_state, simulate_batch)

from test_cli import CONFIGS
import test_core
from test_oracle import tiny_instance
from test_simulate import feedback_spec


def reduced_spec():
    return feedback_spec(delay=0.01)


def solve_reduced(spec, k_max=1, points=21, n_u=9, tol=1e-3, keep=None):
    grid = TimeGrid.for_spec(spec, 0.01)
    quad = gauss_hermite_quadrature(0.01, 7)
    ug = spec.impulse_set.grid(n_u)
    backend = GridBackend(np.linspace(-4.0, 4.0, points))
    its, gaps = k_value_iteration(spec, grid, backend, quad, ug,
                                  k_max=k_max, tol=tol, keep=keep)
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
    """(value, impulse) of the best jump from the one-row state (head,): the
    max, and the first impulse of the grid that attains it."""
    u_grid = np.asarray(u_grid)
    val, jumps = _intervention_batch(frozen_quadratic, 0, np.array([head]),
                                     np.zeros((1, 0)), spec, u_grid, 0.0)
    assert jumps.shape == (len(u_grid), 1)
    return val[0], u_grid[np.argmax(jumps[:, 0])]


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


def first_argmax_entry(val, axis):
    """The entry of val that np.argmax picks over `axis`."""
    best = np.expand_dims(np.argmax(val, axis=axis), axis)
    return np.take_along_axis(val, best, axis).squeeze(axis)


# a NaN of another sign and payload than np.nan
OTHER_NAN = np.frombuffer(b"\x01\x00\x00\x00\x00\x00\xf8\xff", dtype=float)[0]


def jump_stacks():
    """(U, N) and (L, U, R, C) jump-value stacks with ties across the
    impulse axis, both orders of a -0.0/+0.0 tie and NaN columns."""
    rng = np.random.default_rng(5)
    flat = np.round(rng.normal(size=(7, 40)), 1)  # many equal values
    flat[:, 0] = [1.0, 3.0, 3.0, -1.0, 3.0, 0.5, 2.0]
    flat[:, 1] = [-1.0, -0.0, 0.0, -0.0, -2.0, -3.0, 0.0]
    flat[:, 2] = [-1.0, 0.0, -0.0, 0.0, -2.0, -3.0, -0.0]
    flat[:, 3] = -0.0
    flat[:, 4] = [1.0, np.nan, 5.0, OTHER_NAN, 2.0, 0.0, 1.0]
    flat[:, 5] = [OTHER_NAN, 1.0, np.nan, 2.0, 0.0, -0.0, 3.0]
    flat[:, 6] = [-np.inf, -np.inf, -np.inf, -np.inf, -np.inf, -np.inf,
                  -np.inf]
    stacked = np.stack([flat.reshape(7, 8, 5), -flat.reshape(7, 8, 5),
                        flat[::-1].reshape(7, 8, 5)])
    return [flat, stacked]


class TestJumpMax:
    @pytest.mark.parametrize("which", [0, 1], ids=["U_N", "L_U_R_C"])
    def test_max_is_the_first_argmax_entry_bitwise(self, which):
        val = jump_stacks()[which]
        got = bellman._first_max(val, which)
        want = first_argmax_entry(val, which)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_signed_zero_ties_keep_the_first_sign(self):
        val = np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, -0.0],
                        [0.0, 0.0, 0.0]])
        got = bellman._first_max(val, 0)
        assert got.tolist() == [0.0, 0.0, 0.0]
        assert np.signbit(got).tolist() == [True, False, True]

    def test_nan_takes_the_first_nan(self):
        val = np.array([[1.0, OTHER_NAN], [OTHER_NAN, np.nan],
                        [np.nan, 2.0]])
        got = bellman._first_max(val, 0)
        assert got.tobytes() == np.array([OTHER_NAN, OTHER_NAN]).tobytes()

    @pytest.mark.parametrize("which", [0, 1], ids=["U_N", "L_U_R_C"])
    def test_intervention_batch_prices_the_stack(self, which):
        # a level that returns a fresh copy of the prepared stack at the
        # jumped heads, and a zero fee, so the jump values are the stack's
        # entries
        val = jump_stacks()[which]
        heads = np.zeros(val.shape[which + 1:])
        spec = dataclasses.replace(
            feedback_spec(delay=0.0),
            impulse_cost=lambda x, u, t: np.zeros(np.broadcast(x, u).shape))
        best, jumps = _intervention_batch(
            lambda i, jumped, lags: val.copy(), 0, heads,
            np.zeros((len(heads), 0)), spec, np.linspace(-1.0, 1.0, 7), 0.0)
        assert jumps.tobytes() == val.tobytes()
        assert best.tobytes() == first_argmax_entry(val, which).tobytes()


class ConstantLevel:
    """A value level worth `value` everywhere on a one-step grid, or
    -head^2 with value None; no jump bound."""

    n_steps, dt = 1, 0.01

    def __init__(self, value=None):
        self.value = value

    def value_at_heads(self, i, heads, lags, rows=None):
        if self.value is None:
            return -(heads ** 2)
        return np.full(np.shape(heads), self.value)

    def head_ceiling(self, i, lags):
        return np.full(len(lags), np.inf)


class TestPolicyImpulse:
    @pytest.mark.parametrize("u_grid", [[-1.0, 1.0], [1.0, -1.0],
                                        [-2.0, -1.0, 0.0, 1.0, 2.0]])
    def test_takes_the_smallest_index_maximiser(self, u_grid):
        # at head 0 the jumps to -1 and +1 tie, and beat staying at -100
        spec = feedback_spec(delay=0.0)
        policy = Policy(ConstantLevel(-100.0), ConstantLevel(), spec,
                        u_grid, gauss_hermite_quadrature(0.01, 3))
        heads = [0.0, 0.0, 0.5]
        mask, us = policy.decide_batch(0, np.array(heads)[:, None])
        assert mask.all()
        for head, u in zip(heads, us):
            jumps = [-(head + v) ** 2 - float(spec.impulse_cost(head, v, 0.0))
                     for v in u_grid]
            assert u == u_grid[jumps.index(max(jumps))]
        if len(u_grid) == 2:  # the tie at head 0
            assert us[0] == u_grid[0]

    def test_continuing_paths_get_no_impulse(self):
        spec = feedback_spec(delay=0.0)
        policy = Policy(ConstantLevel(100.0), ConstantLevel(), spec,
                        [-1.0, 1.0], gauss_hermite_quadrature(0.01, 3))
        mask, us = policy.decide_batch(0, np.zeros((4, 1)))
        assert not mask.any() and us.tolist() == [0.0] * 4


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
    assert 1 <= len(memo.entries) <= 3
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
        assert len(first[2][0]) == len(coeffs)
        if scale > 1e100:
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.all(np.isfinite(
                    memo.values(0, jumped[:, 0], jumped[:, 1:], coeffs)))

    @pytest.mark.parametrize("new", ["next_float", "signed_zero"])
    def test_single_lag_entry_change_misses(self, new):
        pts, powers, memo, coeffs = lag_memo(6, 3)
        pts[:, 2] = 0.0
        first = memo_values(memo, pts, coeffs)
        other = pts.copy()
        if new == "next_float":
            other[17, 3] = np.nextafter(other[17, 3], np.inf)
        else:
            # equal as numbers, but the key is the bytes
            other[17, 2] = -0.0
        assert memo_values(memo, other, coeffs) is not first
        assert len(memo.entries) == 2

    def test_time_index_change_shares_the_design(self):
        pts, powers, memo, coeffs = lag_memo(6, 3)
        first = memo_values(memo, pts, coeffs)
        design = first[1]
        # the same fits at the next slice: one design, head coefficients
        # per time index
        assert memo_values(memo, pts, coeffs, 1) is first
        assert first[1] is design and sorted(first[2]) == [0, 1]
        # three slices on, those of slices 0 and 1 are dropped
        assert memo_values(memo, pts, coeffs[:1], 4) is first
        assert first[1] is design and list(first[2]) == [4]
        assert len(first[2][4]) == 1

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
        assert memo.entries[2] is first

    def test_lags_clipped_once_per_lag_block(self):
        pts, powers, memo, coeffs = lag_memo(6, 3)
        bounds = (np.full(6, -0.5), np.full(6, 0.5))
        vf = RegressionValueFunction(
            powers=powers, cont_coeffs=[[None, None]] * 2,
            plain_coeffs=[[c, None] for c in coeffs], k_index=1, dt=0.01,
            bounds=[bounds, None], lag_memo=memo)
        jumped = pts.copy()
        jumped[:, 0] += 1.0
        first = vf._plain_block(0, pts[:, 1:], (0, 1))(pts[:, 0])
        again = vf._plain_block(0, jumped[:, 1:], (0, 1))(jumped[:, 0])
        # both clip to one lag block
        assert len(memo.entries) == 1
        for got, p in ((first, pts), (again, jumped)):
            assert got.tobytes() == np.stack(
                [fresh_values(np.clip(p, *bounds), powers, c)
                 for c in coeffs]).tobytes()

    def test_keeps_the_three_most_recent_lag_blocks(self):
        pts, powers, memo, coeffs = lag_memo(3, 2)
        sets = [pts, pts + 1.0, pts + 2.0, pts + 3.0]
        a = memo_values(memo, sets[0], coeffs)
        b = memo_values(memo, sets[1], coeffs)
        c = memo_values(memo, sets[2], coeffs)
        assert memo_values(memo, sets[0], coeffs) is a
        d = memo_values(memo, sets[3], coeffs)
        assert memo.entries == [d, a, c]
        assert memo_values(memo, sets[1], coeffs) is not b
        assert memo.entries[1] is d

    def test_drops_lag_blocks_of_far_time_indices(self):
        pts, powers, memo, coeffs = lag_memo(3, 2)
        a = memo_values(memo, pts, coeffs, 0)
        b = memo_values(memo, pts + 1.0, coeffs, 1)
        # a query at slice 2 keeps the head coefficients of slices 1 to 3
        c = memo_values(memo, pts + 2.0, coeffs, 2)
        assert memo.entries == [c, b]
        assert memo_values(memo, pts, coeffs, 2) is not a
        # a backward sweep: slice 0 drops slice 2's entries, not slice 1's
        d = memo_values(memo, pts + 1.0, coeffs, 0)
        assert d is b and memo.entries == [b] and sorted(b[2]) == [0, 1]


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
        with pytest.raises(ValidationError, match="keep must be >= 1"):
            k_value_iteration(spec, grid, backend, quad, [0.0], k_max=1,
                              keep=0)

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
        ("ridge_lambda", np.inf), ("sample_seed", -1),
        ("sample_seed", 2 ** 64)])
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
            vals = _continuation(vf.value_at_heads, i, points, spec, quad, dt)
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


def recorded_stencils(monkeypatch, name="_head_stencil"):
    """A list that collects (heads, values) of every stencil built through
    bellman.<name>."""
    built = []
    real = getattr(bellman, name)

    def recording(axis, heads, *rows):
        built.append((heads, real(axis, heads, *rows)))
        return built[-1][1]

    monkeypatch.setattr(bellman, name, recording)
    return built


def distinct_jumps(spec, axis, ug):
    return len(np.unique(spec.intervention(axis, ug[:, None])))


def node_points(axes):
    """The grid's own points, (H, L, m), in the C order of its table."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(
        len(axes[0]), -1, len(axes))


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
        built = recorded_stencils(monkeypatch)
        spec = dataclasses.replace(reduced_spec(), horizon=horizon)
        its, _, _, quad, ug = solve_reduced(spec, k_max=k_max, tol=1e-12)
        assert len(its) == k_max + 1
        # the distinct jumped heads', then the stacked successors' of all
        # quadrature nodes
        d = distinct_jumps(spec, its[0].axes[0], ug)
        assert d < len(ug) * 21
        assert [h.shape for h, _ in built] == [(d,), (len(quad.nodes), 21 * 21)]

    @pytest.mark.parametrize("make_spec", [reduced_spec, time_dependent_spec])
    def test_successors_stepped_once_per_solve(self, monkeypatch, make_spec):
        built, steps = recorded_stencils(monkeypatch), []
        real = bellman.euler_head

        def counting(*args):
            steps.append(args[3])
            return real(*args)

        monkeypatch.setattr(bellman, "euler_head", counting)
        spec = dataclasses.replace(make_spec(), horizon=0.2)
        its, _, grid, quad, _ = solve_reduced(spec, k_max=3, tol=1e-12)
        assert len(its) == 4
        # one call per slice, on every quadrature node at once
        assert len(steps) == grid.n_steps
        assert all(np.array_equal(z, quad.nodes[:, None]) for z in steps)
        # a slice shares the stencil of the one above unless the heads move
        # with t
        slices = grid.n_steps if make_spec is time_dependent_spec else 1
        assert len(built) == 1 + slices

    @pytest.mark.parametrize("delay", [0.01, 0.02], ids=["reduced", "lift3"])
    def test_head_stencils_equal_multilinear_interp(self, monkeypatch, delay):
        jumps = recorded_stencils(monkeypatch, "_jump_stencil")
        built = recorded_stencils(monkeypatch)
        spec = dataclasses.replace(feedback_spec(delay=delay), horizon=0.05)
        its, _, grid, quad, ug = solve_reduced(spec, k_max=1, points=11, n_u=7)
        axes = its[0].axes
        points = node_points(axes).reshape(-1, len(axes))
        # the solve's operators, each with the points it prices: every
        # node's jumps, stacked, then its Euler successors node by node;
        # the grid's own points put lags on the last node too
        [(_, jumped)], (_, stepped) = jumps, built[-1]
        assert len(built) == 2
        operators = [
            (jumped, np.concatenate(
                [impulse_transition_batch(points, u, spec) for u in ug])),
            (stepped, np.concatenate(
                [step_transition_batch(points, 0.0, z, spec, grid.dt)
                 for z in quad.nodes]))]
        # the solve's own tables, and a table with zeros of both signs
        signed_zeros = np.random.default_rng(1).choice(
            [-0.0, 0.0, -1.5, 2.25], len(points))
        for table in [vf.values[i] for vf in its for i in (0, 3)] \
                + [signed_zeros]:
            for values, at in operators:
                want = multilinear_interp(axes, table.reshape(its[0].shape),
                                          at)
                assert values(table).tobytes() == want.tobytes()


class TestJumpStencil:
    """The jump stencil interpolates each distinct jumped head once; its
    (U, H, L) values are multilinear_interp's at every jumped point, bit
    for bit."""

    @staticmethod
    def assert_equals_multilinear_interp(axes, jumped, table):
        values = bellman._jump_stencil(axes[0], jumped, table.size // len(axes[0]))
        lags = node_points(axes)[0, :, 1:]
        at = np.concatenate(
            [np.broadcast_to(jumped[..., None, None], jumped.shape
                             + (len(lags), 1)),
             np.broadcast_to(lags, jumped.shape + lags.shape)], -1)
        want = multilinear_interp(axes, table.reshape([len(ax) for ax in axes]),
                                  at)
        got = values(table)
        assert got.shape == jumped.shape + (len(lags),)
        assert got.tobytes() == want.tobytes()
        out = np.empty_like(got)
        assert values(table, out) is out and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_awkward_heads(self, m):
        axis = np.linspace(-4.0, 4.0, 11)
        assert 0.0 in axis
        rng = np.random.default_rng(m)
        awkward = [-0.0, 0.0, np.nan, axis[0], axis[-1], axis[0] - 1e-9,
                   axis[-1] + 3.0, -1e300, np.inf, -np.inf, axis[3],
                   np.nextafter(axis[3], 0.0), 1.234]
        # each value several times, in both zero orders
        jumped = rng.permutation(np.array(awkward * 3)).reshape(3, -1)
        jumped[0, :2], jumped[1, :2] = (-0.0, 0.0), (0.0, -0.0)
        size = len(axis) ** m
        for table in (rng.normal(size=size),
                      rng.choice([-0.0, 0.0, -1.5, 2.25], size)):
            self.assert_equals_multilinear_interp((axis,) * m, jumped, table)

    def test_additive_clamped_merges_heads(self):
        spec = build_problem_spec(dict(
            test_core.TestRegistry.BASE,
            intervention={"name": "additive_clamped", "limit": 1.0}))
        axis = np.linspace(-4.0, 4.0, 21)
        ug = spec.impulse_set.grid(9)
        jumped = spec.intervention(axis, ug[:, None])
        assert distinct_jumps(spec, axis, ug) < jumped.size // 5
        table = np.random.default_rng(5).normal(size=len(axis) ** 2)
        self.assert_equals_multilinear_interp((axis, axis), jumped, table)


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

    def value_at_heads(self, i, heads, lags, rows=None):
        return looped_rows(self.value_at, i, heads,
                           lags if rows is None else lags[rows])

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
        # the successors' lags on V^k once, and the states' lags on V^{k-1}
        # once: the live paths' jumps read the head ceiling's cells
        assert calls == [30, 30]
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


class Hung(BaseException):
    """Raised by the alarm; fork_jobs's serial rerun does not catch it."""


@pytest.fixture
def deadline():
    """Fails a test that runs for more than 60 s instead of letting it
    hang."""
    def expire(signum, frame):
        raise Hung("the wavefront hung")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def open_fds():
    return len(os.listdir("/proc/self/fd"))


def count_level_one_passes(monkeypatch):
    """A list that gets one entry per pass of this process over level 1,
    through a wrapped bellman._grid_level."""
    passes, real, me = [], bellman._grid_level, os.getpid()

    def counting(level_slice, level, *args):
        if level.k_index == 1 and os.getpid() == me:
            passes.append(level.k_index)
        return real(level_slice, level, *args)

    monkeypatch.setattr(bellman, "_grid_level", counting)
    return passes


def refused(shape):
    """simulate.shared_array on a box whose address space is full"""
    raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))


def spy_shared_arrays(monkeypatch):
    """A list that gets the shape of each simulate.shared_array this
    process asks for."""
    shapes, real = [], simulate.shared_array

    def spying(shape):
        shapes.append(tuple(shape))
        return real(shape)

    monkeypatch.setattr(simulate, "shared_array", spying)
    return shapes


def count_held_levels(monkeypatch):
    """A list that gets, per slice loop of this process, the number of
    levels it still holds, through weak references taken by a wrapped
    bellman._grid_level."""
    held, seen, real, me = [], [], bellman._grid_level, os.getpid()

    def counting(level_slice, level, *args):
        if os.getpid() == me:
            seen.append(weakref.ref(level))
            held.append(sum(ref() is not None for ref in seen))
        return real(level_slice, level, *args)

    monkeypatch.setattr(bellman, "_grid_level", counting)
    return held


def top_levels(its, gaps, keep=2):
    """The top `keep` levels' k_index and value bytes, and every gap's
    bits."""
    return ([(vf.k_index, [v.tobytes() for v in vf.values])
             for vf in its[-keep:]], [g.hex() for g in gaps])


class TestGridWavefront:
    """The grid levels as a two-process wavefront (_grid_levels): the
    parent's even levels and one worker's odd ones give the in-process
    sweep's iterates, gaps and decisions bit for bit, without a serial
    rerun; a non-finite slice ends as the in-process sweep does, and no
    process or file descriptor is left behind.  The grid: lift 2, 11
    points a coordinate, 10 slices, 1,331 table entries, above the floor
    forced to 1,000; its gaps are 11.2, 3.76, 0.487, 0.153, 0.0515, ..."""

    @staticmethod
    def solve(forking, monkeypatch, cores, k_max, tol, keep=None):
        """(iterates, gaps, decisions, forks, serial runs) of one solve; a
        serial run is a pass over level 1 by the solving process, whose
        wavefront side sweeps the even levels only"""
        forked = forking(cores, entries=1000)
        before = len(forked)
        reruns = count_level_one_passes(monkeypatch)
        spec = dataclasses.replace(reduced_spec(), horizon=0.1)
        its, gaps, grid, quad, ug = solve_reduced(spec, k_max=k_max,
                                                  points=11, n_u=7, tol=tol,
                                                  keep=keep)
        # budget_decider's policies, one per budget, on lift-2 states
        states = np.random.default_rng(3).normal(0.0, 2.0, (40, 2))
        decisions = [a.tobytes() for lo, hi in zip(its, its[1:])
                     for i in range(grid.n_steps)
                     for a in Policy(hi, lo, spec, ug, quad).decide_batch(
                         i, states)]
        return its, gaps, decisions, len(forked) - before, len(reruns)

    @pytest.mark.parametrize("k_max,tol,k_stop", [
        (8, 1.0, 3), (8, 0.2, 4), (5, 1e-3, 5), (4, 1e-3, 4), (1, 1e-3, 1)],
        ids=["stop_odd", "stop_even", "k_max_odd", "k_max_even", "k_max_1"])
    def test_bits_equal_the_serial_sweep(self, forking, monkeypatch, deadline,
                                         k_max, tol, k_stop):
        fds = open_fds()
        its, gaps, decisions, forks, reruns = self.solve(
            forking, monkeypatch, 1, k_max, tol)
        assert (forks, reruns) == (0, 1)
        got_its, got_gaps, got_decisions, forks, reruns = self.solve(
            forking, monkeypatch, 2, k_max, tol)
        assert (forks, reruns) == (1, 0)
        assert len(its) == len(got_its) == k_stop + 1
        assert [vf.k_index for vf in got_its] == list(range(k_stop + 1))
        assert [v.tobytes() for vf in got_its for v in vf.values] == \
            [v.tobytes() for vf in its for v in vf.values]
        assert [g.hex() for g in got_gaps] == [g.hex() for g in gaps]
        assert got_decisions == decisions
        assert open_fds() == fds

    @staticmethod
    def poison(monkeypatch, k, i, hold=None):
        """Slice i of level k, and no other, turns non-finite, in whichever
        process computes it; slice 0 of level `hold` waits 0.2 s before
        its check."""
        def check(arr, time_index, level):
            if (level, time_index) == (hold, 0):
                time.sleep(0.2)
            if (level, time_index) == (k, i):
                arr[0] = np.nan
            _check_finite(arr, time_index, level)

        monkeypatch.setattr(bellman, "_check_finite", check)

    # the worker's top level, whose gap stays NaN in the shared row
    @pytest.mark.parametrize("k_max,k", [(8, 2), (8, 3), (3, 3)],
                             ids=["parent_level", "worker_level",
                                  "worker_top_level"])
    def test_non_finite_slice_raises_the_serial_error(
            self, forking, monkeypatch, deadline, k_max, k):
        fds = open_fds()
        self.poison(monkeypatch, k, 5)
        with pytest.raises(DivergenceError, match=f"index 5, level k={k};") \
                as want:
            self.solve(forking, monkeypatch, 1, k_max, 1e-3)
        with pytest.raises(DivergenceError) as got:
            self.solve(forking, monkeypatch, 2, k_max, 1e-3)
        assert str(got.value) == str(want.value)
        assert open_fds() == fds

    @pytest.mark.parametrize("tol,k", [(1.0, 4), (0.2, 5)],
                             ids=["parent_level", "worker_level"])
    def test_non_finite_slice_past_convergence(self, forking, monkeypatch,
                                               deadline, tol, k):
        fds = open_fds()
        its, gaps, decisions, _, _ = self.solve(forking, monkeypatch, 1, 8,
                                                tol)
        assert len(its) == k
        # level k runs beside level k - 1, the last one the sweep needs, and
        # is dropped once level k - 1's gap is known; holding level k - 1's
        # last slice lets level k reach slices 8 and 1, which need only
        # slices 8 and 1 of level k - 1
        for i in (8, 1):
            self.poison(monkeypatch, k, i, hold=k - 1)
            got_its, got_gaps, got_decisions, forks, reruns = self.solve(
                forking, monkeypatch, 2, 8, tol)
            assert (forks, reruns) == (1, 0)
            assert [v.tobytes() for vf in got_its for v in vf.values] == \
                [v.tobytes() for vf in its for v in vf.values]
            assert (got_gaps, got_decisions) == (gaps, decisions)
        assert open_fds() == fds

    def test_reduced_config_forks_without_rerun(self, forking, monkeypatch,
                                                deadline):
        cfg = RunConfig.load(os.path.join(CONFIGS,
                                          "delay_feedback_reduced.json"))
        args = (cfg.spec, cfg.grid, cfg.build_backend(), cfg.quadrature,
                cfg.u_grid(), cfg.k_max, cfg.tol)
        forking(1)
        its, gaps = k_value_iteration(*args)
        forked = forking(2)
        reruns = count_level_one_passes(monkeypatch)
        got_its, got_gaps = k_value_iteration(*args)
        assert (len(forked), len(reruns)) == (1, 0)
        assert [v.tobytes() for vf in got_its for v in vf.values] == \
            [v.tobytes() for vf in its for v in vf.values]
        assert got_gaps == gaps

    # the wavefront needs only fork and an anonymous shared mmap; a table
    # whose reservation is refused is swept in-process
    @pytest.mark.parametrize("patch,runs", [
        (lambda mp: mp.delattr(os, "memfd_create", raising=False), (1, 0)),
        (lambda mp: mp.setattr(simulate, "shared_array", refused), (0, 1))],
        ids=["without_memfd", "table_refused"])
    def test_serial_bits_without(self, forking, monkeypatch, deadline, patch,
                                 runs):
        its, gaps, decisions, _, _ = self.solve(forking, monkeypatch, 1, 5,
                                                1e-3)
        patch(monkeypatch)
        got_its, got_gaps, got_decisions, forks, reruns = self.solve(
            forking, monkeypatch, 2, 5, 1e-3)
        assert (forks, reruns) == runs
        assert [v.tobytes() for vf in got_its for v in vf.values] == \
            [v.tobytes() for vf in its for v in vf.values]
        assert [g.hex() for g in got_gaps] == [g.hex() for g in gaps]
        assert got_decisions == decisions

    # keep=2, as solve asks: a ring of three level slots, level k in slot
    # k mod 3 (two when k_max is 1), and the shared row of every gap; the
    # level past the converged one needs a slot beside the kept ones
    @pytest.mark.parametrize("keep", [2, 3])
    @pytest.mark.parametrize("k_max,tol", [
        (8, 1.0), (8, 0.2), (5, 1e-3), (4, 1e-3), (1, 1e-3)],
        ids=["stop_odd", "stop_even", "k_max_odd", "k_max_even", "k_max_1"])
    def test_ring_keeps_the_top_levels(self, forking, monkeypatch, deadline,
                                       k_max, tol, keep):
        fds = open_fds()
        its, gaps, decisions, _, _ = self.solve(forking, monkeypatch, 1,
                                                k_max, tol)
        shapes = spy_shared_arrays(monkeypatch)
        got_its, got_gaps, got_decisions, forks, reruns = self.solve(
            forking, monkeypatch, 2, k_max, tol, keep=keep)
        assert (forks, reruns) == (1, 0)
        assert len(got_its) == min(keep, len(its))
        assert top_levels(got_its, got_gaps, keep) == \
            top_levels(its, gaps, keep)
        assert got_decisions == decisions[-len(got_decisions):]
        assert shapes == [(min(k_max + 1, keep + 1), 11, 121), (k_max + 1,)]
        assert open_fds() == fds

    # the dropped level above the converged one lands in the slot of the
    # level two under the top, which neither the result nor a gap reads
    @pytest.mark.parametrize("tol,k", [(1.0, 4), (0.2, 5)],
                             ids=["parent_level", "worker_level"])
    def test_ring_non_finite_slice_past_convergence(
            self, forking, monkeypatch, deadline, tol, k):
        fds = open_fds()
        its, gaps, decisions, _, _ = self.solve(forking, monkeypatch, 1, 8,
                                                tol)
        assert len(its) == k
        for i in (8, 1):
            self.poison(monkeypatch, k, i, hold=k - 1)
            shapes = spy_shared_arrays(monkeypatch)
            got_its, got_gaps, got_decisions, forks, reruns = self.solve(
                forking, monkeypatch, 2, 8, tol, keep=2)
            assert (forks, reruns) == (1, 0)
            assert shapes == [(3, 11, 121), (9,)]
            assert top_levels(got_its, got_gaps) == top_levels(its, gaps)
            assert got_decisions == decisions[-len(got_decisions):]
        assert open_fds() == fds

    @pytest.mark.parametrize("k_max,k", [(8, 2), (8, 3), (3, 3)],
                             ids=["parent_level", "worker_level",
                                  "worker_top_level"])
    def test_ring_non_finite_slice_raises_the_serial_error(
            self, forking, monkeypatch, deadline, k_max, k):
        fds = open_fds()
        self.poison(monkeypatch, k, 5)
        with pytest.raises(DivergenceError) as want:
            self.solve(forking, monkeypatch, 1, k_max, 1e-3)
        with pytest.raises(DivergenceError) as got:
            self.solve(forking, monkeypatch, 2, k_max, 1e-3, keep=2)
        assert str(got.value) == str(want.value)
        assert open_fds() == fds

    # every slot is taken three times over; a slow side makes the other
    # wait on each slice, and must never find its slot still being read
    @pytest.mark.parametrize("slow", [0, 1], ids=["even_levels",
                                                  "odd_levels"])
    def test_ring_reuse_under_skewed_sides(self, forking, monkeypatch,
                                           deadline, slow):
        its, gaps, decisions, _, _ = self.solve(forking, monkeypatch, 1, 8,
                                                1e-9)
        assert len(its) == 9

        def check(arr, time_index, level):
            if level % 2 == slow:
                time.sleep(0.001)
            _check_finite(arr, time_index, level)

        monkeypatch.setattr(bellman, "_check_finite", check)
        got_its, got_gaps, got_decisions, forks, reruns = self.solve(
            forking, monkeypatch, 2, 8, 1e-9, keep=2)
        assert (forks, reruns) == (1, 0)
        assert top_levels(got_its, got_gaps) == top_levels(its, gaps)
        assert got_decisions == decisions[-len(got_decisions):]

    # one core sweeps the ring in this process, a refused table in-process
    @pytest.mark.parametrize("cores,patch", [
        (1, lambda mp: None),
        (2, lambda mp: mp.setattr(simulate, "shared_array", refused))],
        ids=["one_core", "table_refused"])
    def test_ring_serial_bits(self, forking, monkeypatch, deadline, cores,
                              patch):
        its, gaps, decisions, _, _ = self.solve(forking, monkeypatch, 1, 5,
                                                1e-3)
        patch(monkeypatch)
        got_its, got_gaps, got_decisions, forks, reruns = self.solve(
            forking, monkeypatch, cores, 5, 1e-3, keep=2)
        assert (forks, reruns) == (0, 1)
        assert top_levels(got_its, got_gaps) == top_levels(its, gaps)
        assert got_decisions == decisions[-len(got_decisions):]

    def test_in_process_sweep_drops_the_levels_it_no_longer_reads(
            self, forking, monkeypatch):
        monkeypatch.setattr(simulate, "shared_array", refused)
        for keep, held in ((None, [1, 2, 3, 4, 5, 6]), (2, [1, 2, 2, 2, 2, 2]),
                           (3, [1, 2, 3, 3, 3, 3])):
            got = count_held_levels(monkeypatch)
            its, _, _, _, _ = self.solve(forking, monkeypatch, 2, 5, 1e-3,
                                         keep=keep)
            assert got == held
            assert [vf.k_index for vf in its] == list(range(6))[-(keep or 6):]


class ReferenceLevel(Unpruned):
    """One regression level evaluated on its own: the head-polynomial kernel
    through a fresh memo per query, and jumps priced with the level below's
    plain fit, one level at a time; its stacked queries loop over the head
    rows."""

    def value_at_heads(self, i, heads, lags, rows=None):
        return looped_rows(self.value_at, i, heads,
                           lags if rows is None else lags[rows])

    def plain_value_at_heads(self, i, heads, lags):
        return looped_rows(self.plain_value_at, i, heads, lags)

    def __init__(self, vf):
        self.vf, self.n_steps, self.dt = vf, vf.n_steps, vf.dt

    def value_at(self, i, points):
        vf, k = self.vf, self.vf.k_index
        if vf.cont_coeffs[k][i] is None:
            return np.asarray(vf.terminal_reward(points[:, 0]), dtype=float)
        v = fresh_values(points, vf.powers, vf.cont_coeffs[k][i])
        if k:
            jump, _ = _intervention_batch(
                ReferenceLevel(vf.level(k - 1)).plain_value_at_heads, i,
                points[:, 0], points[:, 1:], vf.spec, vf.u_grid, i * vf.dt)
            v = np.maximum(v, jump)
        return v

    def plain_value_at(self, i, points):
        vf = self.vf
        lo, hi = vf.bounds[i]
        return fresh_values(np.clip(points, lo, hi), vf.powers,
                            vf.plain_coeffs[vf.k_index][i])


def reference_regression_solve(spec, grid, backend, quad, u_grid, k_max, tol):
    """The regression solve level by level on the generic operators, with
    each level read through ReferenceLevel, and each level stops the solve
    as soon as its gap falls below tol."""
    powers = monomial_powers(grid.delay_steps + 1, backend.degree)
    hist = bellman._sample_history(spec, grid, backend)
    clouds = [bellman._cloud(hist, i, grid.delay_steps)
              for i in range(grid.n_steps + 1)]
    n, dt = grid.n_steps, grid.dt
    margin = float(np.max(np.abs(u_grid)))
    bounds = [(c.min(axis=0) - margin, c.max(axis=0) + margin)
              for c in clouds[:n]] + [None]

    def fit(i, targets):
        return fit_regression_step(clouds[i], targets, backend.degree,
                                   backend.ridge_lambda, powers=powers)

    fits = RegressionValueFunction(powers=powers, cont_coeffs=[],
                                   plain_coeffs=[], k_index=0, dt=dt,
                                   terminal_reward=spec.terminal_reward,
                                   spec=spec, u_grid=u_grid, bounds=bounds)
    levels, gaps = [], []
    for k in range(k_max + 1):
        prev = levels[-1] if k else None
        fits.cont_coeffs.append([None] * (n + 1))
        fits.plain_coeffs.append([None] * (n + 1))
        vf = fits.level(k)
        cont_coeffs, plain_coeffs = vf.cont_coeffs[k], vf.plain_coeffs[k]
        ref = ReferenceLevel(vf)
        for i in range(n - 1, -1, -1):
            cont = _continuation(ref.value_at_heads, i, clouds[i], spec, quad,
                                 dt)
            _check_finite(cont, i, k)
            cont_coeffs[i] = fit(i, cont)
            if k:
                interv, _ = _intervention_batch(
                    ReferenceLevel(prev).plain_value_at_heads, i,
                    clouds[i][:, 0], clouds[i][:, 1:], spec, u_grid, i * dt)
                vals = np.maximum(cont, interv)
                _check_finite(vals, i, k)
                plain_coeffs[i] = fit(i, vals)
            else:
                plain_coeffs[i] = cont_coeffs[i]
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
        k = g.k_index
        for a, b in zip(g.cont_coeffs[k] + g.plain_coeffs[k],
                        w.cont_coeffs[k] + w.plain_coeffs[k]):
            assert (a is None and b is None) or np.array_equal(a, b)


class TestSampleCloud:
    @pytest.mark.parametrize("delay", [0.0, 0.01, 0.05],
                             ids=["lift1", "lift2", "lift6"])
    def test_equals_lifted_state_stepping(self, delay):
        # a sloped initial segment, so the first slices' lags differ too
        spec = dataclasses.replace(feedback_spec(delay=delay),
                                   initial_segment=lambda t: 0.5 - 3.0 * t)
        grid = TimeGrid.for_spec(spec, 0.01)
        d = grid.delay_steps
        hist = bellman._sample_history(
            spec, grid, RegressionBackend(n_samples=300, sample_seed=77))
        noise = draw_noise_matrix(77, 300, grid)
        states = np.tile(initial_lifted_state(spec, grid), (300, 1))
        assert hist.shape == (d + grid.n_steps + 1, 300)
        for k in range(grid.n_steps + 1):
            cloud = bellman._cloud(hist, k, d)
            assert cloud.shape == states.shape and cloud.flags.c_contiguous
            assert cloud.tobytes() == states.tobytes()
            if k < grid.n_steps:
                states = step_transition_batch(states, k * grid.dt,
                                               noise[:, k], spec, grid.dt)


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

    @pytest.mark.parametrize("keep", [1, 2, 8])
    def test_keep_returns_the_top_levels(self, keep):
        cfg, _ = tiny_instance("tiny2.json")
        args = (cfg.spec, cfg.grid, RegressionBackend(),
                cfg.quadrature, cfg.u_grid(), 8, 1e-2)
        its, gaps = k_value_iteration(*args)
        got, got_gaps = k_value_iteration(*args, keep=keep)
        assert [vf.k_index for vf in got] == \
            [vf.k_index for vf in its][-keep:]
        assert_same_levels(got, its[-keep:])
        assert got_gaps == gaps

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
        args = (spec, grid, RegressionBackend(degree=1, n_samples=20),
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
        # per slice only the cloud's fit design, whose head-power-0 columns
        # are the lag design for the cloud, its jumps and the successors
        # of the slice below, which carry the same lags; the clouds of
        # slices 0 and 1 both carry the initial segment as lags, so slice 0
        # reads slice 1's lag design
        assert calls == [(200, 2)] * grid.n_steps

    def test_solve_holds_less_than_every_cloud(self):
        # the main config's problem, lift 6 over 100 steps: the solve's
        # traced peak stays under the bytes of its n + 1 clouds, as it
        # builds one slice's cloud at a time from the sample history
        cfg = RunConfig.load(os.path.join(CONFIGS, "delay_feedback.json"))
        backend = dataclasses.replace(cfg.regression, n_samples=500, degree=1)
        m = cfg.grid.delay_steps + 1
        clouds = (cfg.grid.n_steps + 1) * backend.n_samples * m * 8
        assert (m, cfg.grid.n_steps, clouds) == (6, 100, 2_424_000)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            k_value_iteration(cfg.spec, cfg.grid, backend, cfg.quadrature,
                              cfg.u_grid(), k_max=1, tol=cfg.tol)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert peak < clouds


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


class TestSerialProduct:
    """The lag memo forms its head coefficients in column blocks small
    enough for OpenBLAS to run each on the calling thread; on this numpy
    they must equal the one product bit for bit."""

    @pytest.mark.parametrize("extra", [1, 400, 1169])
    def test_blocked_head_coefficients_equal_one_product(self, extra):
        # lift 6, degree 3: 4 head powers by 56 lag columns, blocks of
        # at most 1,170 lag rows; three blocks' worth plus a remainder
        memo = bellman._LagMemo(monomial_powers(6, 3))
        block = bellman.SERIAL_PRODUCT // (4 * len(memo.lag_powers))
        assert len(memo.lag_powers) == 56 and block == 1170
        rng = np.random.default_rng(extra)
        lags = rng.uniform(-2.0, 2.0, (3 * block + extra, 5))
        c = rng.normal(size=len(memo.powers))
        memo.values(0, lags[:, 0], lags, [c])
        _, lag_design, served = memo.entries[0]
        by_head = np.zeros((4, 56))
        by_head[memo.slots] = c
        want = by_head @ lag_design.T
        assert served[0][c.tobytes()].tobytes() == want.tobytes()

    def test_short_designs_take_one_product(self, monkeypatch):
        calls = []
        real = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **k: calls.append(
            a[1].shape) or real(*a, **k))
        a, rows = np.ones((4, 56)), np.ones((1171, 56))
        assert bellman._serial_product(a, rows[:1170]).shape == (4, 1170)
        assert calls == []
        bellman._serial_product(a, rows)
        assert calls == [(56, 585), (56, 586)]


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
            assert len(memo.entries) <= 3

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
            # states' lags for V^{k-1} at i; every jump of either hits.
            # A later decision on the same states rereads the successors'
            # design, last read one slice back, but not the states', two
            # slices back, unless it reads the states' alone, at T - dt
            want = 2 if i == 0 else 0 if i == grid.n_steps - 1 else 1
            assert calls == [(30, 5)] * want

    def test_loaded_levels_share_one_memo(self, tmp_path):
        spec = dataclasses.replace(feedback_spec(delay=0.02), horizon=0.05)
        grid = TimeGrid.for_spec(spec, 0.01)
        ug = spec.impulse_set.grid(5)
        # 200 samples: on 100 no jump pays, so the solve stops at k = 1
        its, _ = k_value_iteration(spec, grid,
                                   RegressionBackend(degree=2, n_samples=200),
                                   gauss_hermite_quadrature(0.01, 3), ug,
                                   k_max=2, tol=1e-12)
        save_value_function(its[-1], tmp_path, "vf")
        back = load_value_function(tmp_path, "vf",
                                   terminal_reward=spec.terminal_reward,
                                   spec=spec, u_grid=ug)
        assert back.k_index == 2 and len(back.cont_coeffs) == 3
        levels = [back.level(k) for k in range(3)]
        assert all(vf.lag_memo is back.lag_memo
                   and vf.powers is back.lag_memo.powers for vf in levels)

    def test_policy_on_two_loaded_levels_shares_one_memo(self, tmp_path):
        spec = dataclasses.replace(feedback_spec(delay=0.02), horizon=0.05)
        grid = TimeGrid.for_spec(spec, 0.01)
        quad = gauss_hermite_quadrature(0.01, 3)
        ug = spec.impulse_set.grid(5)
        its, _ = k_value_iteration(spec, grid,
                                   RegressionBackend(degree=2, n_samples=100),
                                   quad, ug, k_max=2, tol=1e-12)
        for name, vf in (("top", its[-1]), ("prev", its[-2])):
            save_value_function(vf, tmp_path, name)
        top, prev = (load_value_function(
            tmp_path, name, terminal_reward=spec.terminal_reward, spec=spec,
            u_grid=ug) for name in ("top", "prev"))
        assert prev.lag_memo is not top.lag_memo
        loaded = Policy(top, prev, spec, ug, quad)
        assert prev.lag_memo is top.lag_memo
        solved = Policy(its[-1], its[-2], spec, ug, quad)
        assert its[-2].lag_memo is its[0].lag_memo
        states = np.random.default_rng(5).normal(size=(30, 3))
        for i in range(grid.n_steps):
            for got, want in zip(loaded.decide_batch(i, states),
                                 solved.decide_batch(i, states)):
                assert got.tobytes() == want.tobytes()


def reference_values_csv(vf):
    """The bytes of save_value_function's values file, written one entry
    at a time."""
    if vf.backend == "GRID":
        lines = ["time_index,flat_index,value\n"] + [
            f"{i},{j},{float(v):.17g}\n" for i in range(vf.n_steps + 1)
            for j, v in enumerate(vf.values[i])]
    else:
        lines = ["slab,time_index,flat_index,value\n"] + [
            f"{k * 2 + part},{i},{j},{float(v):.17g}\n"
            for k in range(vf.k_index + 1)
            for part, coeffs in enumerate((vf.cont_coeffs, vf.plain_coeffs))
            for i in range(vf.n_steps) for j, v in enumerate(coeffs[k][i])]
    return "".join(lines).encode()


SPECIAL_VALUES = np.array([-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf, 0.1,
                           -2.5e-7])


BAD_POWERS = "vf_header.powers: exponents must be >= 0 and each monomial " \
    "listed once"
BAD_BOUNDS = "vf_header.bounds: every (lo, hi) pair must be finite with " \
    "lo <= hi"


class TestPersistence:
    def test_grid_values_file_bytes(self, tmp_path):
        spec = dataclasses.replace(reduced_spec(), horizon=0.05)
        vf = grid_copy(solve_reduced(spec, k_max=1)[0][-1])
        vf.values[0][:8] = SPECIAL_VALUES
        vf.values[-1][-8:] = SPECIAL_VALUES[::-1]
        save_value_function(vf, tmp_path, "vf")
        assert (tmp_path / "vf_values.csv").read_bytes() == \
            reference_values_csv(vf)
        back = load_value_function(tmp_path, "vf")
        assert np.array(back.values).tobytes() == np.array(vf.values).tobytes()

    def test_regression_values_file_bytes(self, tmp_path):
        spec = dataclasses.replace(feedback_spec(delay=0.02), horizon=0.1)
        grid = TimeGrid.for_spec(spec, 0.01)
        its, _ = k_value_iteration(spec, grid,
                                   RegressionBackend(degree=2, n_samples=300),
                                   gauss_hermite_quadrature(0.01, 3),
                                   spec.impulse_set.grid(5), k_max=3,
                                   tol=1e-12)
        assert len(its) == 4
        its[-1].cont_coeffs[3][0][:8] = SPECIAL_VALUES
        its[1].plain_coeffs[1][-2][-8:] = SPECIAL_VALUES[::-1]
        save_value_function(its[-1], tmp_path, "vf")
        assert (tmp_path / "vf_values.csv").read_bytes() == \
            reference_values_csv(its[-1])
        back = load_value_function(tmp_path, "vf",
                                   terminal_reward=spec.terminal_reward,
                                   spec=spec, u_grid=spec.impulse_set.grid(5))

        def slabs(vf):
            return np.array([coeffs[k][:grid.n_steps] for k in range(4)
                             for coeffs in (vf.cont_coeffs, vf.plain_coeffs)])
        assert slabs(back).tobytes() == slabs(its[-1]).tobytes()

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
        backend = RegressionBackend(degree=2, n_samples=400)
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
        assert len(its) == 4
        assert_same_levels([back.level(k) for k in range(back.k_index + 1)],
                           its)
        pts = np.array([[0.7, -0.2, 0.1], [0.0, 0.0, 0.0]])
        for i in (0, 5, 9, 10):
            assert np.array_equal(back.value_at(i, pts),
                                  its[-1].value_at(i, pts))

    def test_reloaded_levels_equal_the_solves_bitwise(self, tmp_path):
        spec = dataclasses.replace(feedback_spec(delay=0.02), horizon=0.1)
        grid = TimeGrid.for_spec(spec, 0.01)
        ug = spec.impulse_set.grid(5)
        its, _ = k_value_iteration(spec, grid,
                                   RegressionBackend(degree=2, n_samples=300),
                                   gauss_hermite_quadrature(0.01, 3), ug,
                                   k_max=3, tol=1e-12)
        save_value_function(its[-1], tmp_path, "vf")
        back = load_value_function(tmp_path, "vf",
                                   terminal_reward=spec.terminal_reward,
                                   spec=spec, u_grid=ug)
        levels = [back.level(k) for k in range(len(its))]
        assert len(levels) == 4
        assert all(vf.lag_memo is back.lag_memo for vf in levels)
        # mostly outside every slice's cloud box, where plain fits clip
        pts = np.random.default_rng(7).uniform(-6.0, 6.0, (50, 3))
        for got, want in zip(levels, its):
            for i in range(grid.n_steps + 1):
                assert got.value_at(i, pts).tobytes() == \
                    want.value_at(i, pts).tobytes()

    @pytest.mark.parametrize("key,value,field", [
        ("powers", [[0, "1"]], "vf_header.powers: must be a 2-d array of "
         "integers"),
        ("powers", [[0, 1], [2]], "vf_header.powers"),
        ("powers", [[0.0, 1.0]], "vf_header.powers"),
        ("n_levels", "3", "vf_header.n_levels: must be an integer"),
        ("bounds", [[["x", 0.0], [1.0, 1.0]]], "vf_header.bounds: must be a "
         "2-d array of numbers"),
        # the saved powers are monomial_powers(3, 2), (0, 0, 0) first and
        # (2, 0, 0) last
        ("powers", lambda p: p[:-1] + [[-1, 0, 0]], BAD_POWERS),
        ("powers", lambda p: p[:-1] + [[0, 0, -1]], BAD_POWERS),
        ("powers", lambda p: p[:-1] + [p[0]], BAD_POWERS),
        ("bounds", None, "vf_header.bounds: must hold n_steps = 5 arrays"),
        ("bounds", lambda b: [[[math.nan] + b[0][0][1:], b[0][1]]] + b[1:],
         BAD_BOUNDS),
        ("bounds", lambda b: b[:1] + [[b[1][0], b[1][1][:-1] + [math.inf]]]
         + b[2:], BAD_BOUNDS),
        ("bounds", lambda b: b[:2] + [b[2][::-1]] + b[3:], BAD_BOUNDS)],
        ids=["powers-string", "powers-ragged", "powers-float",
             "n_levels-string", "bounds-string", "powers-negative-head",
             "powers-negative-lag", "powers-repeated-row", "bounds-null",
             "bounds-nan-head", "bounds-infinite-lag", "bounds-swapped"])
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
        header[key] = value(header[key]) if callable(value) else value
        path.write_text(json.dumps(header))
        with pytest.raises(ValidationError, match=re.escape(field)):
            load_value_function(tmp_path, "vf",
                                terminal_reward=spec.terminal_reward,
                                spec=spec, u_grid=ug)

    def test_regression_load_needs_context(self, tmp_path):
        spec = reduced_spec()
        grid = TimeGrid.for_spec(spec, 0.01)
        backend = RegressionBackend(degree=2, n_samples=400)
        its, _ = k_value_iteration(spec, grid, backend,
                                   gauss_hermite_quadrature(0.01, 5),
                                   spec.impulse_set.grid(9), k_max=1)
        save_value_function(its[-1], tmp_path, "vf")
        with pytest.raises(ValidationError):
            load_value_function(tmp_path, "vf",
                                terminal_reward=spec.terminal_reward)
