"""Backward dynamic programming for impulse control on the lifted delay state.

The value hierarchy V^0, V^1, ... counts the interventions still allowed:
V^0 is the no-intervention expectation of the rewards, and V^k compares
continuing against the best immediate jump priced with V^{k-1} at the same
instant.  Iteration stops once successive levels agree uniformly on the
stored points.  Two value representations are supported: a tensor grid with
multilinear interpolation, and least-squares polynomial regression on
forward-simulated sample clouds.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import ProblemSpec, ValidationError
from .lattice import (NoiseQuadrature, impulse_transition_batch,
                      step_transition_batch)
from .simulate import TimeGrid, draw_noise_matrix, initial_lifted_state

FORMAT_VERSION = 1


class DivergenceError(RuntimeError):
    """Value iteration produced NaN or unbounded values (under-resolved grid)."""


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def interp_stencil(axes, points):
    """Clamped multilinear stencil of (N, m) points on a tensor grid:
    (base, corners), the flat index of each point's lower cell corner and
    one (flat offset, (N,) weights) pair per corner in itertools.product
    order.  It serves every table on the same grid."""
    points = np.asarray(points, dtype=float)
    shape = tuple(len(ax) for ax in axes)
    strides = [math.prod(shape[d + 1:]) for d in range(len(axes))]
    base = np.zeros(points.shape[0], dtype=np.intp)
    frac = []
    for d, ax in enumerate(axes):
        p = np.clip(points[:, d], ax[0], ax[-1])
        i = np.clip(np.searchsorted(ax, p, side="right") - 1, 0, len(ax) - 2)
        base += i * strides[d]
        frac.append((p - ax[i]) / (ax[i + 1] - ax[i]))
    corners = []
    for corner in itertools.product((0, 1), repeat=len(axes)):
        w = math.prod(frac[d] if c else 1.0 - frac[d]
                      for d, c in enumerate(corner))
        corners.append((sum(c * s for c, s in zip(corner, strides)), w))
    return base, corners


def apply_stencil(stencil, flat_table):
    """Interpolated values of the C-ordered flat table at the stencil's points."""
    base, corners = stencil
    out = np.zeros(base.shape[0])
    for off, w in corners:
        out += w * flat_table[off:][base]
    return out


def multilinear_interp(axes, table, points):
    """Multilinear interpolation on a tensor grid, clamped at the boundary.

    axes: per-dimension strictly increasing node arrays; table: values with
    shape tuple(len(ax) for ax in axes); points: (N, m).  Queries exactly at
    nodes reproduce the stored values.
    """
    return apply_stencil(interp_stencil(axes, points), np.ravel(table))


# ---------------------------------------------------------------------------
# Value representations
# ---------------------------------------------------------------------------

@dataclass
class GridValueFunction:
    """Per-time-step values on a fixed tensor grid over the lifted state."""

    axes: tuple
    values: list  # one flat array of len prod(shape) per time index
    k_index: int
    dt: float

    backend = "GRID"

    @property
    def n_steps(self):
        return len(self.values) - 1

    @property
    def shape(self):
        return tuple(len(ax) for ax in self.axes)

    def value_at(self, time_index, points):
        table = self.values[time_index].reshape(self.shape)
        return multilinear_interp(self.axes, table, points)


def monomial_powers(m, degree):
    """Exponent tuples of all monomials in m variables with total degree <= degree."""
    return np.array([p for p in itertools.product(range(degree + 1), repeat=m)
                     if sum(p) <= degree], dtype=int)


def design_matrix(points, powers):
    """(N, P) monomial features: column j is the product over coordinates d,
    in increasing d, of points[:, d] ** powers[j, d], zero exponents
    skipped.  Each coordinate power is computed once and multiplied in place
    into the C-ordered output, so every column is the same left-to-right
    product as one built factor by factor."""
    out = np.ones((points.shape[0], len(powers)))
    cached = {}
    rows, cols = np.nonzero(powers)
    for j, d, e in zip(rows.tolist(), cols.tolist(), powers[rows, cols]):
        p = cached.get((d, e))
        if p is None:
            p = cached[d, e] = points[:, d] ** e
        out[:, j] *= p
    return out


@dataclass
class RegressionValueFunction:
    """Per-time-step polynomial fits on the lifted state.

    Two fits per slice. cont_coeffs approximates the continuation value,
    which is smooth, so a low-degree polynomial does well. plain_coeffs is a
    direct fit of the value itself; it carries the kink along the
    intervention boundary and is only used inside intervention branches of
    the level above, never iterated against itself. value_at combines the
    continuation fit with an exact max over the impulse grid priced on the
    previous level, so the kink never has to be represented by a polynomial.

    The terminal slice is the terminal reward itself, not a fit, so
    V(T, x) = g(x) holds pointwise.
    """

    powers: np.ndarray
    cont_coeffs: list  # one vector per interior time index, None at T
    plain_coeffs: list
    k_index: int
    dt: float
    terminal_reward: object = field(repr=False, default=None)
    prev: object = field(repr=False, default=None)  # level k-1, None at k=0
    spec: object = field(repr=False, default=None)
    u_grid: np.ndarray = field(repr=False, default=None)
    # per-slice (lo, hi) bounding boxes of the fitting cloud; plain-fit
    # evaluations get clipped into these so the kinked fit is never
    # extrapolated (impulses shift points up to the impulse-set width away)
    bounds: list = field(repr=False, default=None)

    backend = "REGRESSION"

    @property
    def n_steps(self):
        return len(self.cont_coeffs) - 1

    def value_at(self, time_index, points):
        points = np.asarray(points, dtype=float)
        if self.cont_coeffs[time_index] is None:
            return np.asarray(self.terminal_reward(points[:, 0]), dtype=float)
        v = design_matrix(points, self.powers) @ self.cont_coeffs[time_index]
        if self.prev is not None:
            jump, _ = _intervention_batch(self.prev.plain_value_at, time_index,
                                          points, self.spec, self.u_grid,
                                          time_index * self.dt)
            v = np.maximum(v, jump)
        return v

    def plain_value_at(self, time_index, points):
        points = np.asarray(points, dtype=float)
        if self.plain_coeffs[time_index] is None:
            return np.asarray(self.terminal_reward(points[:, 0]), dtype=float)
        if self.bounds is not None and self.bounds[time_index] is not None:
            lo, hi = self.bounds[time_index]
            points = np.clip(points, lo, hi)
        return design_matrix(points, self.powers) @ self.plain_coeffs[time_index]


# ---------------------------------------------------------------------------
# Backend configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridBackend:
    """Tensor-grid backend: explicit per-dimension node arrays, each finite
    and strictly increasing with at least two nodes."""

    axes: tuple

    def __post_init__(self):
        for d, ax in enumerate(self.axes):
            ax = np.asarray(ax, dtype=float)
            if ax.ndim != 1 or len(ax) < 2 or not np.all(np.isfinite(ax)) \
                    or not np.all(np.diff(ax) > 0):
                raise ValidationError(f"grid axis {d} needs at least 2 "
                                      "finite, strictly increasing nodes")

    @classmethod
    def uniform(cls, bound, points_per_axis, m):
        ax = np.linspace(-bound, bound, points_per_axis)
        return cls(axes=tuple(ax.copy() for _ in range(m)))


@dataclass(frozen=True)
class RegressionBackend:
    """Regression backend: polynomial degree plus the sampling-cloud knobs.

    Sample states come from forward simulation of the uncontrolled dynamics
    with random exploration impulses, so post-jump regions are represented.
    """

    degree: int = 3
    ridge_lambda: float = 1e-8
    n_samples: int = 4000
    exploration_rate: float = 0.1
    sample_seed: int = 1234

    def __post_init__(self):
        if self.degree < 0:
            raise ValidationError(f"regression degree must be >= 0, got "
                                  f"{self.degree}")
        if not (math.isfinite(self.ridge_lambda) and self.ridge_lambda >= 0):
            raise ValidationError("ridge_lambda must be finite and >= 0, got "
                                  f"{self.ridge_lambda}")
        if not 0.0 <= self.exploration_rate <= 1.0:
            raise ValidationError("exploration_rate must lie in [0, 1], got "
                                  f"{self.exploration_rate}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _continuation(v, i, states, spec, quadrature, dt):
    """One-step expectation from t_i: the running reward over [t_i, t_{i+1})
    plus the quadrature average of v at i + 1 over the Euler successors."""
    t = i * dt
    return _expectation(spec, t, states, dt, quadrature.weights,
                        lambda j: v.value_at(i + 1, step_transition_batch(
                            states, t, quadrature.nodes[j], spec, dt)))


def _expectation(spec, t, states, dt, weights, node_value):
    """Running reward over [t, t + dt) plus sum_j weights[j] * node_value(j),
    where node_value(j) gives the (N,) values at the node-j successors, or
    an (L, N) stack of L levels' values."""
    acc = np.zeros(states.shape[0])
    for j, w in enumerate(weights):
        acc = acc + w * node_value(j)
    return spec.running_reward(t, states[:, 0]) * dt + acc


def _intervention_batch(value_at, time_index, states, spec, u_grid, t):
    """Best immediate jump over an (N, m) state batch, priced with
    `value_at(time_index, points)` of the level below:
    max_u value_at(Gamma(state, u)) - ell(head, u, t) and its argmax; ties
    take the smallest grid index."""
    return _best_impulse(spec, states, u_grid, t,
                         lambda j: value_at(time_index, impulse_transition_batch(
                             states, u_grid[j], spec)))


def _best_impulse(spec, states, u_grid, t, jump_value):
    """max and argmax over j of jump_value(j) - ell(head, u_grid[j], t), where
    jump_value(j) gives the (N,) values after impulse j, or an (L, N) stack
    of L levels' values; ties take the smallest grid index."""
    best = np.full(states.shape[0], -np.inf)
    best_u = np.zeros(states.shape[0])
    for j, u in enumerate(u_grid):
        val = jump_value(j) - spec.impulse_cost(states[:, 0], u, t)
        better = val > best
        best = np.where(better, val, best)
        best_u = np.where(better, u, best_u)
    return best, best_u


def fit_regression_step(samples, targets, degree, ridge_lambda=0.0, powers=None):
    """Ridge-regularized least squares of targets on polynomial features.

    With ridge_lambda = 0 a rank-deficient design is an error telling the
    caller to regularize instead of silently returning one minimizer.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if powers is None:
        powers = monomial_powers(samples.shape[1], degree)
    return _regression_fitter(design_matrix(samples, powers),
                              ridge_lambda)(targets)


def _regression_fitter(A, ridge_lambda):
    """fit(targets) -> coefficients on the fixed design A, as in
    fit_regression_step; the ridge Gram matrix is built once for all fits."""
    if ridge_lambda != 0.0:
        gram = A.T @ A + ridge_lambda * np.eye(A.shape[1])

    def fit(targets):
        targets = np.asarray(targets, dtype=float)
        if len(targets) < A.shape[1]:
            raise ValidationError("need at least as many samples as basis terms")
        if not np.all(np.isfinite(targets)):
            raise ValidationError("regression targets must be finite")
        if ridge_lambda == 0.0:
            coef, _, rank, _ = np.linalg.lstsq(A, targets, rcond=None)
            if rank < A.shape[1]:
                raise ValidationError(
                    "rank-deficient regression design; set ridge_lambda > 0")
            return coef
        return np.linalg.solve(gram, A.T @ targets)
    return fit


def _check_finite(arr, time_index, k):
    if not np.all(np.isfinite(arr)):
        bad = int(np.sum(~np.isfinite(arr)))
        raise DivergenceError(
            f"{bad} non-finite values at time index {time_index}, level k={k}; "
            "grid or basis is under-resolved")


def _grid_iteration(spec, grid, backend, quadrature, u_grid, k_max, tol):
    axes = tuple(np.asarray(ax, dtype=float) for ax in backend.axes)
    m = len(axes)
    if m != grid.delay_steps + 1:
        raise ValidationError(f"grid backend has {m} axes, lifted state needs "
                              f"{grid.delay_steps + 1}")
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=1)
    n = grid.n_steps
    dt = grid.dt
    terminal = np.asarray(spec.terminal_reward(points[:, 0]), dtype=float)

    # Every level queries the same points, so the stencils are built once:
    # the jump map ignores t, and the Euler successors' stencils are rebuilt
    # only when the successors change from one slice to the next.
    shifted = (impulse_transition_batch(points, u, spec) for u in u_grid)
    jump_stencils = [interp_stencil(axes, x) for x in shifted]
    successors = [None] * len(quadrature.nodes)
    step_stencils = [None] * len(quadrature.nodes)

    iterates = []
    gaps = []
    for k in range(k_max + 1):
        vf = GridValueFunction(axes=axes, values=[None] * (n + 1), k_index=k, dt=dt)
        vf.values[n] = terminal.copy()
        prev = iterates[k - 1] if k else None
        for i in range(n - 1, -1, -1):
            t = i * dt
            for j, z in enumerate(quadrature.nodes):
                nxt = step_transition_batch(points, t, z, spec, dt)
                if not np.array_equal(nxt, successors[j]):
                    successors[j] = nxt
                    step_stencils[j] = interp_stencil(axes, nxt)
            vals = _expectation(spec, t, points, dt, quadrature.weights,
                                lambda j: apply_stencil(step_stencils[j],
                                                        vf.values[i + 1]))
            if k:
                interv, _ = _best_impulse(spec, points, u_grid, t,
                                          lambda j: apply_stencil(
                                              jump_stencils[j], prev.values[i]))
                vals = np.maximum(vals, interv)
            _check_finite(vals, i, k)
            vf.values[i] = vals
        iterates.append(vf)
        if k >= 1:
            gap = max(float(np.max(np.abs(vf.values[i] - prev.values[i])))
                      for i in range(n + 1))
            gaps.append(gap)
            if gap < tol:
                break
    return iterates, gaps


def _sample_states(spec, grid, backend):
    """Forward exploration cloud: (n_steps+1) arrays of (n_samples, m) states."""
    n_paths = backend.n_samples
    noise = draw_noise_matrix(backend.sample_seed, n_paths, grid)
    exp_rng = np.random.Generator(np.random.Philox(key=[backend.sample_seed, 2 ** 32]))
    states = np.tile(initial_lifted_state(spec, grid), (n_paths, 1))
    clouds = []
    for k in range(grid.n_steps + 1):
        if k > 0 and backend.exploration_rate > 0:
            mask = exp_rng.uniform(size=n_paths) < backend.exploration_rate
            if np.any(mask):
                us = exp_rng.uniform(spec.impulse_set.lower,
                                     spec.impulse_set.upper, int(mask.sum()))
                states[mask, 0] = spec.intervention(states[mask, 0], us)
        clouds.append(states.copy())
        if k == grid.n_steps:
            break
        states = step_transition_batch(states, k * grid.dt,
                                       noise[:, k], spec, grid.dt)
    return clouds


@dataclass
class _RegressionLevels:
    """Levels 0 .. L-1 of one regression solve read together: value_at and
    plain_value_at return (L, N) stacks whose row k equals level k's own
    method bit for bit.  One design matrix per point set serves every level."""

    levels: list

    def value_at(self, time_index, points):
        base = self.levels[0]
        if base.cont_coeffs[time_index] is None:
            terminal = np.asarray(base.terminal_reward(points[:, 0]), dtype=float)
            return np.tile(terminal, (len(self.levels), 1))
        v = _fitted_values(design_matrix(points, base.powers),
                           [lvl.cont_coeffs[time_index] for lvl in self.levels])
        if len(self.levels) > 1:
            jump, _ = _intervention_batch(
                _RegressionLevels(self.levels[:-1]).plain_value_at, time_index,
                points, base.spec, base.u_grid, time_index * base.dt)
            v[1:] = np.maximum(v[1:], jump)
        return v

    def plain_value_at(self, time_index, points):
        lo, hi = self.levels[0].bounds[time_index]
        return _fitted_values(design_matrix(np.clip(points, lo, hi),
                                            self.levels[0].powers),
                              [lvl.plain_coeffs[time_index] for lvl in self.levels])


def _fitted_values(A, coeffs):
    """(L, N) stack of A @ c over the L coefficient vectors, one
    matrix-vector product each as in a single level's value_at (one
    matrix-matrix product would round differently)."""
    return np.stack([A @ c for c in coeffs])


def _regression_iteration(spec, grid, backend, quadrature, u_grid, k_max, tol):
    """Time-outer sweep over all k_max + 1 levels, then a trim at the first
    gap below tol.  At each slice the continuation of every live level comes
    from one design matrix per Euler successor set and per clipped jump of
    it, and the cloud's design and Gram matrices serve both fits of every
    level and the gap.  Levels are fitted in increasing k, since level k's
    jump prices with level k-1's plain fit at the same slice.  A level that
    turns non-finite ends itself and every level above it; its error is
    raised only if no level below it converges, as a level-by-level solve
    would have stopped first."""
    m = grid.delay_steps + 1
    powers = monomial_powers(m, backend.degree)
    clouds = _sample_states(spec, grid, backend)
    n = grid.n_steps
    dt = grid.dt

    # margin lets any in-cloud point be re-evaluated after one impulse
    # without hitting the clamp
    margin = float(np.max(np.abs(u_grid)))
    bounds = [(clouds[i].min(axis=0) - margin, clouds[i].max(axis=0) + margin)
              for i in range(n)] + [None]
    levels = []
    for k in range(k_max + 1):
        levels.append(RegressionValueFunction(
            powers=powers, cont_coeffs=[None] * (n + 1),
            plain_coeffs=[None] * (n + 1), k_index=k, dt=dt,
            terminal_reward=spec.terminal_reward,
            prev=levels[-1] if k else None, spec=spec, u_grid=u_grid,
            bounds=bounds))
    slice_gaps = [[None] * n for _ in range(k_max)]
    live, failure = k_max + 1, None
    for i in range(n - 1, -1, -1):
        pts = clouds[i]
        cont = _continuation(_RegressionLevels(levels[:live]), i, pts, spec,
                             quadrature, dt)
        A = design_matrix(pts, powers)
        fit = _regression_fitter(A, backend.ridge_lambda)
        below = None
        for k in range(live):
            vf = levels[k]
            try:
                _check_finite(cont[k], i, k)
                vf.cont_coeffs[i] = fit(cont[k])
                v = A @ vf.cont_coeffs[i]
                if k >= 1:
                    interv, _ = _intervention_batch(levels[k - 1].plain_value_at,
                                                    i, pts, spec, u_grid, i * dt)
                    vals = np.maximum(cont[k], interv)
                    _check_finite(vals, i, k)
                    vf.plain_coeffs[i] = fit(vals)
                    v = np.maximum(v, interv)
                    slice_gaps[k - 1][i] = float(np.max(np.abs(v - below)))
                else:
                    vf.plain_coeffs[i] = vf.cont_coeffs[i]
                below = v
            except DivergenceError as err:
                live, failure = k, err
                break
        if not live:
            raise failure
    gaps = []
    for k in range(1, live):
        gaps.append(max(slice_gaps[k - 1]))
        if gaps[-1] < tol:
            return levels[:k + 1], gaps
    if failure is not None:
        raise failure
    return levels, gaps


def k_value_iteration(spec: ProblemSpec, grid: TimeGrid, backend,
                      quadrature: NoiseQuadrature, u_grid, k_max: int = 20,
                      tol: float = 1e-3):
    """Backward-in-time value iteration over the allowed-intervention count.

    Returns (iterates, gaps): value functions for k = 0 ... k_stop and the
    sup-gap between successive levels; stops at the first gap below tol or
    at k_max.
    """
    if k_max < 1 or not tol > 0:
        raise ValidationError("k_max must be >= 1 and tol positive")
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.size == 0:
        raise ValidationError("impulse grid must be nonempty")
    if isinstance(backend, GridBackend):
        return _grid_iteration(spec, grid, backend, quadrature, u_grid, k_max, tol)
    if isinstance(backend, RegressionBackend):
        return _regression_iteration(spec, grid, backend, quadrature, u_grid,
                                     k_max, tol)
    raise ValidationError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

@dataclass
class Policy:
    """Intervention rule induced by a value-level pair (V^k, V^{k-1}).

    Intervene exactly when the best immediate jump strictly beats continuing;
    ties continue, argmax ties take the smallest impulse-grid index.
    """

    v_top: object
    v_prev: object
    spec: ProblemSpec
    u_grid: np.ndarray
    quadrature: NoiseQuadrature

    def __post_init__(self):
        if self.v_top.n_steps != self.v_prev.n_steps:
            raise ValidationError("value functions live on different time grids")
        self.u_grid = np.asarray(self.u_grid, dtype=float)

    @property
    def dt(self):
        return self.v_top.dt

    def decide_batch(self, time_index, states):
        """(intervene_mask, impulses) for an (N, m) state batch at t_k."""
        states = np.asarray(states, dtype=float)
        n = self.v_top.n_steps
        if time_index >= n:
            return np.zeros(states.shape[0], dtype=bool), np.zeros(states.shape[0])
        cont = _continuation(self.v_top, time_index, states, self.spec,
                             self.quadrature, self.dt)
        interv, best_u = _intervention_batch(self.v_prev.value_at, time_index,
                                             states, self.spec, self.u_grid,
                                             time_index * self.dt)
        mask = interv > cont
        return mask, np.where(mask, best_u, 0.0)

    def decide(self, time_index, state):
        """("CONTINUE", None) or ("INTERVENE", u) for one lifted state."""
        lags = np.asarray(getattr(state, "lags", state), dtype=float)[None, :]
        mask, us = self.decide_batch(time_index, lags)
        if mask[0]:
            return "INTERVENE", float(us[0])
        return "CONTINUE", None


def extract_policy(v_top, v_prev, spec: ProblemSpec, u_grid,
                   quadrature: NoiseQuadrature) -> Policy:
    """Policy from a value-level pair; the first grid time where the jump
    value strictly exceeds continuation is the intervention time."""
    return Policy(v_top=v_top, v_prev=v_prev, spec=spec, u_grid=u_grid,
                  quadrature=quadrature)


def policy_stack(iterates, spec, u_grid, quadrature):
    """Budget-aware policies: stack[j] decides when j interventions remain.

    stack[0] never intervenes; stack[j] is extract_policy(V^j, V^{j-1}) with
    j capped at the deepest computed level.
    """
    class _Never:
        def decide_batch(self, time_index, states):
            n = np.asarray(states).shape[0]
            return np.zeros(n, dtype=bool), np.zeros(n)

        def decide(self, time_index, state):
            return "CONTINUE", None

    stack = [_Never()]
    for j in range(1, len(iterates)):
        stack.append(extract_policy(iterates[j], iterates[j - 1], spec,
                                    u_grid, quadrature))
    return stack


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_value_function(vf, out_dir, name):
    """Write a versioned header JSON plus a flat CSV of per-step values."""
    os.makedirs(out_dir, exist_ok=True)
    header = {"format_version": FORMAT_VERSION, "backend": vf.backend,
              "k_index": vf.k_index, "dt": vf.dt, "n_steps": vf.n_steps}
    if vf.backend == "GRID":
        header["axes"] = [[float(v) for v in ax] for ax in vf.axes]
        rows = ((i, j, float(v)) for i in range(vf.n_steps + 1)
                for j, v in enumerate(vf.values[i]))
    else:
        header["powers"] = [[int(e) for e in p] for p in vf.powers]
        header["terminal"] = "terminal_reward"
        header["n_levels"] = vf.k_index + 1
        header["bounds"] = _bounds_json(vf.bounds)
        levels = []
        node = vf
        while node is not None:
            levels.append(node)
            node = node.prev
        levels.reverse()
        rows = ((lvl.k_index * 2 + part, i, j, float(v))
                for lvl in levels for part in (0, 1)
                for i in range(vf.n_steps)
                for j, v in enumerate((lvl.cont_coeffs, lvl.plain_coeffs)[part][i]))
    with open(os.path.join(out_dir, f"{name}_header.json"), "w") as fh:
        json.dump(header, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, f"{name}_values.csv"), "w") as fh:
        if vf.backend == "GRID":
            fh.write("time_index,flat_index,value\n")
            for i, j, v in rows:
                fh.write(f"{i},{j},{v:.17g}\n")
        else:
            fh.write("slab,time_index,flat_index,value\n")
            for s, i, j, v in rows:
                fh.write(f"{s},{i},{j},{v:.17g}\n")


def _bounds_json(bounds):
    if bounds is None:
        return None
    return [None if b is None else [[float(v) for v in b[0]],
                                    [float(v) for v in b[1]]]
            for b in bounds]


def _load_table(path, shape):
    """The values CSV at `path` as an array of `shape`; its leading index
    columns must enumerate that shape in C order."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as e:
        raise ValidationError(f"unreadable value file {path}: {e}")
    index = np.indices(shape).reshape(len(shape), -1).T
    if data.shape != (len(index), len(shape) + 1) \
            or not np.array_equal(data[:, :-1], index):
        raise ValidationError(f"value file {path} does not enumerate a "
                              f"{shape} table")
    return data[:, -1].reshape(shape)


def load_value_function(out_dir, name, terminal_reward=None, spec=None,
                        u_grid=None):
    with open(os.path.join(out_dir, f"{name}_header.json")) as fh:
        header = json.load(fh)
    if header["format_version"] != FORMAT_VERSION:
        raise ValidationError(f"unsupported format version {header['format_version']}")
    n = header["n_steps"]
    path = os.path.join(out_dir, f"{name}_values.csv")

    if header["backend"] == "GRID":
        axes = tuple(np.array(ax) for ax in header["axes"])
        table = _load_table(path, (n + 1, math.prod(len(ax) for ax in axes)))
        return GridValueFunction(axes=axes, values=list(table),
                                 k_index=header["k_index"], dt=header["dt"])

    if terminal_reward is None:
        raise ValidationError("regression value functions need terminal_reward")
    if header["k_index"] >= 1 and (spec is None or u_grid is None):
        raise ValidationError("regression levels above 0 need spec and u_grid "
                              "to price intervention branches")
    powers = np.array(header["powers"], dtype=int)
    slabs = _load_table(path, (2 * header["n_levels"], n, len(powers)))
    bounds = None
    if header.get("bounds") is not None:
        bounds = [None if b is None else (np.array(b[0]), np.array(b[1]))
                  for b in header["bounds"]]
    vf = None
    for k in range(header["n_levels"]):
        vf = RegressionValueFunction(powers=powers,
                                     cont_coeffs=list(slabs[2 * k]) + [None],
                                     plain_coeffs=list(slabs[2 * k + 1]) + [None],
                                     k_index=k, dt=header["dt"],
                                     terminal_reward=terminal_reward,
                                     prev=vf, spec=spec,
                                     u_grid=None if u_grid is None
                                     else np.asarray(u_grid, dtype=float),
                                     bounds=bounds)
    return vf
