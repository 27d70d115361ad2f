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

import functools
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from .core import (ProblemSpec, ValidationError, integer, json_object,
                   real_number, require)
from .lattice import NoiseQuadrature, euler_head, step_transition_batch
# no longer called here; bench/layers.py traces it under this name
from .lattice import impulse_transition_batch  # noqa: F401
from .simulate import TimeGrid, draw_noise_matrix, initial_lifted_state

FORMAT_VERSION = 1
CHUNK = 16384  # head-stack entries per interpolation chunk


class DivergenceError(RuntimeError):
    """Value iteration produced NaN or unbounded values (under-resolved grid)."""


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------

def _axis_cells(ax, x):
    """Clamped cell index of x on one increasing axis and the corner
    weights (1 - fraction, fraction) along it.  The index is the last node
    at or below x, at most len(ax) - 2, as searchsorted finds it; a NaN
    query takes the last cell.  On a uniform axis it is guessed from the
    spacing and moved by at most one cell against the nodes."""
    p = np.clip(x, ax[0], ax[-1])
    last = len(ax) - 2
    step = _uniform_step(ax.dtype.str, ax.tobytes())
    if step is None:
        # p >= ax[0], so the search returns at least 1
        i = np.minimum(np.searchsorted(ax, p, side="right") - 1, last)
    else:
        # fmin sends a NaN guess to the last cell
        i = np.fmax(np.fmin((p - ax[0]) / step, last), 0).astype(np.intp)
        i = np.minimum(i + (ax[i + 1] <= p), last)
        i -= ax[i] > p
    lo = ax[i]
    frac = (p - lo) / (ax[i + 1] - lo)
    return i, (1.0 - frac, frac)


@functools.lru_cache(maxsize=None)
def _uniform_step(dtype, raw):
    """Node spacing of the axis with these bytes if every node lies within a
    quarter cell of its evenly spaced place, else None.  The spacing then
    guesses each query's cell to within one cell."""
    ax = np.frombuffer(raw, dtype=dtype)
    step = (ax[-1] - ax[0]) / (len(ax) - 1)
    even = ax[0] + np.arange(len(ax)) * step
    return step if np.all(np.abs(ax - even) <= 0.25 * step) else None


def _lag_cells(axes, lags):
    """_axis_cells of the (..., m - 1) lag block on axes 1..m-1."""
    return [_axis_cells(ax, lags[..., d]) for d, ax in enumerate(axes[1:])]


@functools.lru_cache(maxsize=None)
def _grid_corners(shape):
    """Strides of a C-ordered table of `shape` and its cell corners in
    itertools.product order, each with its flat offset."""
    strides = tuple(math.prod(shape[d + 1:]) for d in range(len(shape)))
    return strides, tuple((c, sum(a * s for a, s in zip(c, strides)))
                          for c in itertools.product((0, 1), repeat=len(shape)))


def multilinear_interp(axes, table, points, lag_cells=None):
    """Multilinear interpolation on a tensor grid, clamped at the boundary.

    axes: per-dimension strictly increasing node arrays; table: values with
    shape tuple(len(ax) for ax in axes); points: (..., m).  Queries exactly
    at nodes reproduce the stored values.  The corners add into zeros in
    itertools.product order.  Given `lag_cells`, the `_lag_cells` of lags
    that broadcast against the points' leading axes, only the head column
    points[..., 0] is read.
    """
    points = np.asarray(points, dtype=float)
    if lag_cells is None:
        lag_cells = _lag_cells(axes, points[..., 1:])
    cells = [_axis_cells(axes[0], points[..., 0])] + lag_cells
    strides, corners = _grid_corners(tuple(len(ax) for ax in axes))
    base = np.zeros(points.shape[:-1], dtype=np.intp)
    for (i, _), s in zip(cells, strides):
        base += i * s
    flat = np.ravel(table)
    out = np.zeros(base.shape)
    for corner, off in corners:
        weight = functools.reduce(operator.mul,
                                  (w[c] for (_, w), c in zip(cells, corner)))
        out += weight * flat[off:][base]
    return out


# ---------------------------------------------------------------------------
# Value representations
# ---------------------------------------------------------------------------

class _HeadStacks:
    """value_at(i, points) of a value function whose one query is
    value_at_heads(i, heads, lags): the values at the points
    (heads[..., n], lags[n]), every row of the head stack sharing the
    (N, m - 1) lag block, since a jump moves only the head and every Euler
    successor of a point set carries the same shifted history."""

    def value_at(self, time_index, points):
        points = np.asarray(points, dtype=float)
        return self.value_at_heads(time_index, points[:, 0], points[:, 1:])


@dataclass
class GridValueFunction(_HeadStacks):
    """Per-time-step values on a fixed tensor grid over the lifted state."""

    axes: tuple
    values: list  # one flat array of len prod(shape) per time index
    k_index: int
    dt: float
    # (lag-block bytes, its _lag_cells) of the last query
    _lags: tuple = field(default=(None, None), init=False, repr=False,
                         compare=False)

    backend = "GRID"

    @property
    def n_steps(self):
        return len(self.values) - 1

    @property
    def shape(self):
        return tuple(len(ax) for ax in self.axes)

    def _cells(self, lags):
        """_lag_cells of the (N, m - 1) lag block, searched once per run of
        queries on one block."""
        key = lags.tobytes()
        if self._lags[0] != key:
            self._lags = (key, _lag_cells(self.axes, lags))
        return self._lags[1]

    def value_at_heads(self, time_index, heads, lags):
        """The lag cells are searched once per block, the head stack in
        chunks of about CHUNK entries, paths at a time."""
        cells = self._cells(lags)
        table = self.values[time_index].reshape(self.shape)
        heads = np.asarray(heads, dtype=float)
        stack = heads.reshape(math.prod(heads.shape[:-1]), heads.shape[-1])
        out = np.empty(stack.shape)
        step = max(1, CHUNK // len(stack))
        for start in range(0, stack.shape[1], step):
            c = slice(start, start + step)
            out[:, c] = multilinear_interp(
                self.axes, table, stack[:, c, None],
                [(i[c], (w0[c], w1[c])) for i, (w0, w1) in cells])
        return out.reshape(heads.shape)

    def head_ceiling(self, time_index, lags):
        """(N,) upper bound, over every head h, of the values of
        value_at_heads(time_index, h, lags) that are not NaN: the largest
        head-axis maximum of the (H, L) table over the lag rows at the lags'
        2^(m-1) cell corners, C, plus the rounding slack
        (2^m + 2m) eps max|T|.

        Why the slack suffices: multilinear_interp adds into zero 2^m
        products of m weights in [0, 1] (1 - f and f, f in [0, 1]) and a
        table entry of one of those corners, so each entry is at most C.
        With u = eps / 2, each computed product is W_c T_c (1 + d),
        |d| <= m u; the sum adds at most 2^m u times the sum of their sizes;
        and the exact weights W_c sum to the product over the axes of
        fl(1 - f) + f, within m u of 1.  So the computed value is at most
        C + (2m + 2^m) u max|T| up to O(u^2).  The slack is twice that and
        also covers rounding C plus it.  A NaN table entry makes the bound
        NaN, an infinite one +inf or NaN."""
        table = self.values[time_index].reshape(len(self.axes[0]), -1)
        rows = table.max(axis=0)
        strides, corners = _grid_corners(self.shape[1:])
        base = np.zeros(len(lags), dtype=np.intp)
        for (i, _), s in zip(self._cells(lags), strides):
            base += i * s
        top = functools.reduce(np.maximum,
                               (rows[base + off] for _, off in corners))
        m = len(self.axes)
        eps = np.finfo(float).eps
        return top + (2 ** m + 2 * m) * eps * np.max(np.abs(table))


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
    rows, cols = np.nonzero(powers)
    raised = {}
    for j, d, e in zip(rows.tolist(), cols.tolist(), powers[rows, cols]):
        p = raised.get((d, e))
        if p is None:
            p = raised[d, e] = points[:, d] ** e
        out[:, j] *= p
    return out


class _LagMemo:
    """Fits evaluated as polynomials in the head h whose coefficients
    depend on the lags: A @ c = sum_e h**e * (L @ C_e), where L is the
    design of the lag block on the distinct lag exponents and C_e holds the
    entries of c whose column has head power e.

    The point sets one regression solve or policy decision prices share
    their lag block: a jump moves only the head, and all Euler successors
    of a set carry the same shifted lags.  So for the two most recently
    used pairs of a time index and a lag block, keyed by the block's bytes
    (lags that differ in the sign of a zero miss), an entry keeps L and,
    per coefficient vector served, the (d + 1, N) head coefficients; every
    further point set with those lags costs one Horner pass in the head.
    The time index bounds an entry's fits by two per level, also at lift 1
    where every lag block of N rows is the same.  Calls alternate between a
    point set and its clipped jumps, so two entries suffice."""

    def __init__(self, powers):
        self.powers = powers
        self.lag_powers, where = np.unique(powers[:, 1:], axis=0,
                                           return_inverse=True)
        self.slots = (powers[:, 0], where.reshape(-1))
        self.entries = []  # (key, L, {coefficient bytes: head coefficients})
        self.clipped = (None, None)  # (key of a lag block, its clipped copy)

    def values(self, time_index, head, lags, coeffs, bounds=None):
        """(L,) + head.shape stack of each fit in `coeffs`, of slice
        `time_index`, at the points (head[..., n], lags[n]) clipped into
        `bounds` = (lo, hi) if given, the lags once per run of calls on one
        block.  One Horner pass per fit over the whole head stack; its head
        coefficients are computed at the first query with these lags, the
        same bytes thereafter."""
        if bounds is not None:
            (lo, hi), raw = bounds, (time_index, lags.shape, lags.tobytes())
            if self.clipped[0] != raw:
                self.clipped = (raw, np.clip(lags, lo[1:], hi[1:]))
            head, lags = np.clip(head, lo[0], hi[0]), self.clipped[1]
        key = (time_index, lags.shape, lags.tobytes())
        for n, entry in enumerate(self.entries):
            if entry[0] == key:
                self.entries.insert(0, self.entries.pop(n))
                break
        else:
            entry = (key, design_matrix(lags, self.lag_powers), {})
            self.entries = [entry] + self.entries[:1]
        _, lag_design, served = entry
        out = np.empty((len(coeffs),) + head.shape)
        for row, c in zip(out, coeffs):
            hc = served.get(c.tobytes())
            if hc is None:
                by_head = np.zeros((self.slots[0].max() + 1, len(self.lag_powers)))
                by_head[self.slots] = c
                hc = served[c.tobytes()] = by_head @ lag_design.T
            row[:] = hc[-1]
            for e in range(len(hc) - 2, -1, -1):
                row *= head
                row += hc[e]
        return out


@dataclass
class RegressionValueFunction(_HeadStacks):
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
    # a _LagMemo of `powers`, shared by every level of one solve or one load
    lag_memo: object = field(repr=False, compare=False, default=None)

    backend = "REGRESSION"

    def __post_init__(self):
        if self.lag_memo is None:
            self.lag_memo = _LagMemo(self.powers)

    @property
    def n_steps(self):
        return len(self.cont_coeffs) - 1

    def value_at_heads(self, time_index, heads, lags):
        return _RegressionLevels([self]).value_at_heads(time_index, heads,
                                                        lags)[0]

    def head_ceiling(self, time_index, lags):
        """+inf: no bound of a fit over its clip box is kept, so every
        path's jumps are priced."""
        return np.full(len(lags), np.inf)

    def plain_value_at_heads(self, time_index, heads, lags):
        return _RegressionLevels([self]).plain_value_at_heads(time_index, heads,
                                                              lags)[0]


# ---------------------------------------------------------------------------
# Backend configuration
# ---------------------------------------------------------------------------

def _grid_axis(ax, name):
    """ax as a float array, if it holds at least two finite, strictly
    increasing nodes; else a ValidationError naming it `name`."""
    ax = np.asarray(ax, dtype=float)
    if ax.ndim != 1 or len(ax) < 2 or not np.all(np.isfinite(ax)) \
            or not np.all(np.diff(ax) > 0):
        raise ValidationError(f"{name} needs at least 2 finite, strictly "
                              "increasing nodes")
    return ax


@dataclass(frozen=True)
class GridBackend:
    """Tensor-grid backend: one node array that every coordinate of the
    lifted state shares, since all of them are values of the same scalar
    path; the grid dimension comes from the time grid."""

    axis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "axis", _grid_axis(self.axis, "grid axis"))


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
        if not 0 <= self.sample_seed < 2 ** 64:
            raise ValidationError("sample_seed must lie in [0, 2**64), got "
                                  f"{self.sample_seed}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _continuation(v, i, states, spec, quadrature, dt):
    """One-step expectation from t_i: the running reward over [t_i, t_{i+1})
    plus the quadrature average of v at i + 1 over the Euler successors,
    priced as one (Q, N) head stack over their shifted lags."""
    t = i * dt
    heads = euler_head(states[:, 0], states[:, -1], t, quadrature.nodes[:, None],
                       spec, dt)
    vals = v.value_at_heads(i + 1, heads, states[:, :-1])
    return _expectation(spec, t, states, dt, quadrature.weights,
                        lambda j: vals[..., j, :])


def _expectation(spec, t, states, dt, weights, node_value):
    """Running reward over [t, t + dt) plus sum_j weights[j] * node_value(j),
    where node_value(j) gives the (N,) values at the node-j successors, or
    an (L, N) stack of L levels' values."""
    acc = np.zeros(states.shape[0])
    for j, w in enumerate(weights):
        acc = acc + w * node_value(j)
    return spec.running_reward(t, states[:, 0]) * dt + acc


def _intervention_batch(value_at_heads, time_index, heads, lags, spec, u_grid,
                        t):
    """Best immediate jump from the points (heads[..., n], lags[n]), priced
    with value_at_heads(time_index, jumped heads, lags) of the level below
    as one (U,) + heads.shape stack: max_u V(Gamma(head, u), lags) -
    ell(head, u, t) and its argmax; ties take the smallest grid index.  A
    level stack that prices with (L, U, ...) values gives (L, ...) results."""
    us = u_grid.reshape((-1,) + (1,) * heads.ndim)
    val = (value_at_heads(time_index, spec.intervention(heads, us), lags)
           - spec.impulse_cost(heads, us, t))
    axis = val.ndim - heads.ndim - 1
    best = np.expand_dims(np.argmax(val, axis=axis), axis)
    return (np.take_along_axis(val, best, axis).squeeze(axis),
            u_grid[best.squeeze(axis)])


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
    axis = backend.axis
    axes = (axis,) * (grid.delay_steps + 1)
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                      axis=1)
    n_rows = len(points) // len(axis)  # L lag rows of the (H, L) table
    n, dt = grid.n_steps, grid.dt
    terminal = np.asarray(spec.terminal_reward(points[:, 0]), dtype=float)

    # Every level queries the same points, so the head stencils are built
    # once per solve: the jumps', then per slice the Euler successors', one
    # per quadrature node and shared with the slice above when their heads
    # are equal.  Coefficients that do not depend on t build Q stencils;
    # others keep n * Q, 32 bytes per point each.
    jumped_rows = _head_stencil(axis, spec.intervention(axis, u_grid[:, None]),
                                0, 1, n_rows)
    successor_rows = np.arange(len(points)) // len(axis)
    heads = stencils = [None] * len(quadrature.nodes)
    step_rows = [None] * n
    for i in range(n - 1, -1, -1):
        hs = [euler_head(points[:, 0], points[:, -1], i * dt, z, spec, dt)
              for z in quadrature.nodes]
        stencils = [s if np.array_equal(h, old) else
                    _head_stencil(axis, h, successor_rows, n_rows)
                    for h, old, s in zip(hs, heads, stencils)]
        heads, step_rows[i] = hs, stencils
    # the jump step's (U, H, L) gathers and their (H, L) max, per solve
    jump_bufs = np.empty((2, len(u_grid), len(axis), n_rows))
    best = np.empty((len(axis), n_rows))

    iterates, gaps = [], []
    for k in range(k_max + 1):
        vf = GridValueFunction(axes=axes, values=[None] * (n + 1), k_index=k, dt=dt)
        vf.values[n] = terminal.copy()
        prev = iterates[k - 1] if k else None
        for i in range(n - 1, -1, -1):
            t = i * dt
            vals = _expectation(spec, t, points, dt, quadrature.weights,
                                lambda j: step_rows[i][j](vf.values[i + 1]))
            if k:
                # the tables are finite, so no value is NaN or -0.0 and the
                # plain max is the first-index max of _intervention_batch
                jumped = jumped_rows(prev.values[i], *jump_bufs)
                jumped -= np.asarray(spec.impulse_cost(
                    axis, u_grid[:, None], t))[..., None]
                np.max(jumped, axis=0, out=best)
                vals = np.maximum(vals, best.ravel(), out=vals)
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


def _head_stencil(axis, heads, lag_rows, step, width=None):
    """values(table) -> the values of a flat grid table on the shared axis
    at the points with these heads whose lags sit on nodes, as
    zeros + w0 * rows[lo] + w1 * rows[lo + step]: (cell, (w0, w1)) are the
    heads' _axis_cells, lo = cell * step + lag_rows, and the rows are the
    table's entries, or its rows of `width` entries.  In the (H, L) table a
    jump keeps its node's lag row, so it reads whole rows (step 1, width
    L); an Euler successor's lag row is its node's head and leading lags,
    n // H for node n, so it reads entries (step L).  A lag on a node
    weighs exactly 1 on one corner, so the other corners of
    multilinear_interp would add only +-0.0 to a sum that is never -0.0:
    on finite tables these are its values bit for bit.  values(table, out,
    spare) fills the two given buffers of the result's shape."""
    cell, (w0, w1) = _axis_cells(axis, heads)
    lo = cell * step + lag_rows
    if width is not None:
        w0, w1 = w0[..., None], w1[..., None]
    hi = lo + step

    def values(table, out=None, spare=None):
        rows = table if width is None else table.reshape(-1, width)
        # the cells are in range, and mode="clip" gathers unbuffered
        out = np.take(rows, lo, axis=0, out=out, mode="clip")
        out *= w0
        out += 0.0  # as zeros + w0 * rows[lo]: a -0.0 product adds to 0.0
        spare = np.take(rows, hi, axis=0, out=spare, mode="clip")
        spare *= w1
        out += spare
        return out
    return values


def _sample_states(spec, grid, backend):
    """Forward exploration cloud: (n_steps+1) arrays of (n_samples, m) states."""
    n_paths = backend.n_samples
    noise = draw_noise_matrix(backend.sample_seed, n_paths, grid)
    exp_rng = np.random.Generator(np.random.Philox(
        key=np.array([backend.sample_seed, 2 ** 32], dtype=np.uint64)))
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
    """Consecutive levels of one regression chain read together:
    value_at_heads and plain_value_at_heads return (L,) + heads.shape
    stacks, row by row one level each, through the first level's lag memo.
    The jumps of every level with a `prev` are priced with one stacked
    plain_value_at_heads over those prevs.  At T both methods give the
    terminal reward."""

    levels: list

    def value_at_heads(self, time_index, heads, lags):
        base = self.levels[0]
        if base.cont_coeffs[time_index] is None:
            return self.plain_value_at_heads(time_index, heads, lags)
        v = base.lag_memo.values(time_index, heads, lags,
                                 [lvl.cont_coeffs[time_index] for lvl in self.levels])
        prevs = [lvl.prev for lvl in self.levels if lvl.prev is not None]
        if prevs:
            # whole head rows at a time, about CHUNK jumped heads per call
            plain = _RegressionLevels(prevs).plain_value_at_heads
            rows = heads.reshape(math.prod(heads.shape[:-1]), heads.shape[-1])
            top = v[-len(prevs):].reshape(len(prevs), len(rows), -1)
            step = max(1, CHUNK // (len(base.u_grid) * max(1, rows.shape[1])))
            for r in range(0, len(rows), step):
                jump, _ = _intervention_batch(plain, time_index, rows[r:r + step],
                                              lags, base.spec, base.u_grid,
                                              time_index * base.dt)
                np.maximum(top[:, r:r + step], jump, out=top[:, r:r + step])
        return v

    def plain_value_at_heads(self, time_index, heads, lags):
        base = self.levels[0]
        if base.plain_coeffs[time_index] is None:
            terminal = np.asarray(base.terminal_reward(heads), dtype=float)
            return np.tile(terminal, (len(self.levels),) + (1,) * terminal.ndim)
        return base.lag_memo.values(
            time_index, heads, lags,
            [lvl.plain_coeffs[time_index] for lvl in self.levels],
            None if base.bounds is None else base.bounds[time_index])


def _regression_iteration(spec, grid, backend, quadrature, u_grid, k_max, tol):
    """Time-outer sweep over all k_max + 1 levels, then a trim at the first
    gap below tol.  Fits are read through one lag memo: the Euler successors
    of cloud i carry the lags of cloud i + 1, read at the slice above, and
    its jumps its own.  The cloud's design and Gram matrices serve both fits
    of every level.  Levels are fitted in increasing k, since level k's jump
    prices with level k-1's plain fit at the same slice.  A level that turns
    non-finite ends itself and every level above it; its error is raised
    only if no level below it converges, as a level-by-level solve would
    have stopped first."""
    m = grid.delay_steps + 1
    powers = monomial_powers(m, backend.degree)
    lag_memo = _LagMemo(powers)
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
            bounds=bounds, lag_memo=lag_memo))
    slice_gaps = [[None] * n for _ in range(k_max)]
    live, failure = k_max + 1, None
    for i in range(n - 1, -1, -1):
        pts = clouds[i]
        cont = _continuation(_RegressionLevels(levels[:live]), i, pts, spec,
                             quadrature, dt)
        fit = _regression_fitter(design_matrix(pts, powers), backend.ridge_lambda)
        below = None
        for k in range(live):
            vf = levels[k]
            try:
                _check_finite(cont[k], i, k)
                vf.cont_coeffs[i] = fit(cont[k])
                v = lag_memo.values(i, pts[:, 0], pts[:, 1:],
                                    [vf.cont_coeffs[i]])[0]
                if k >= 1:
                    interv, _ = _intervention_batch(
                        levels[k - 1].plain_value_at_heads, i, pts[:, 0],
                        pts[:, 1:], spec, u_grid, i * dt)
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

    Intervene exactly when the best immediate jump strictly beats continuing,
    so the first grid time where the jump value strictly exceeds continuation
    is the intervention time; ties continue, argmax ties take the smallest
    impulse-grid index.
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
        """(intervene_mask, impulses) for an (N, m) state batch at t_k.

        The jumps are priced only on the live paths, where continuing does
        not reach v_prev.head_ceiling less the path's cheapest impulse: no
        jump value fl(V - cost) exceeds fl(ceiling - min cost), since
        rounding is monotone, so elsewhere the full max would not intervene
        either.  A NaN comparison keeps a path live."""
        states = np.asarray(states, dtype=float)
        mask, us = np.zeros(len(states), dtype=bool), np.zeros(len(states))
        if time_index >= self.v_top.n_steps:
            return mask, us
        t = time_index * self.dt
        cont = _continuation(self.v_top, time_index, states, self.spec,
                             self.quadrature, self.dt)
        cost = np.broadcast_to(
            self.spec.impulse_cost(states[:, 0], self.u_grid[:, None], t),
            (len(self.u_grid), len(states)))
        live = ~(cont >= self.v_prev.head_ceiling(time_index, states[:, 1:])
                 - cost.min(axis=0))
        at = states[live]
        interv, best_u = _intervention_batch(
            self.v_prev.value_at_heads, time_index, at[:, 0], at[:, 1:],
            self.spec, self.u_grid, t)
        acts = interv > cont[live]
        mask[live], us[live] = acts, np.where(acts, best_u, 0.0)
        return mask, us


def budget_decider(iterates, spec, u_grid, quadrature):
    """decide(level, state, budget) for oracle.table_from_decisions: the
    impulse that Policy(V^j, V^{j-1}) takes at the scalar `state` at time
    index `level`, with j = min(budget, deepest level), or None to continue.
    `budget` is at least 1."""
    policies = [Policy(hi, lo, spec, u_grid, quadrature)
                for lo, hi in zip(iterates, iterates[1:])]

    def decide(level, state, budget):
        pol = policies[min(budget, len(policies)) - 1]
        mask, us = pol.decide_batch(level, np.array([[state]], dtype=float))
        return float(us[0]) if mask[0] else None

    return decide


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
        columns = "time_index,flat_index,value"
        rows = ((f"{i},", vf.values[i]) for i in range(vf.n_steps + 1))
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
        columns = "slab,time_index,flat_index,value"
        rows = ((f"{lvl.k_index * 2 + part},{i},",
                 (lvl.cont_coeffs, lvl.plain_coeffs)[part][i])
                for lvl in levels for part in (0, 1)
                for i in range(vf.n_steps))
    with open(os.path.join(out_dir, f"{name}_header.json"), "w") as fh:
        json.dump(header, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, f"{name}_values.csv"), "w") as fh:
        fh.write(columns + "\n")
        # one line "<row prefix><flat index>,<value to 17 digits>" per
        # entry, joined a row at a time
        flat = []
        for prefix, row in rows:
            row = np.asarray(row, dtype=float).tolist()
            flat += [f"{j}," for j in range(len(flat), len(row))]
            fh.write("".join(map(f"{prefix}{{}}{{:.17g}}\n".format, flat, row)))


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


def _json_array(v, name, ndim, integers=False):
    """v as an array, if it is a JSON array nested `ndim` deep of numbers
    (of integers if `integers`); anything else is a ValidationError naming
    the field."""
    try:
        a = np.array(v)
    except ValueError:  # ragged nesting
        a = np.array(None)
    if a.ndim != ndim or a.dtype.kind not in ("i" if integers else "if"):
        raise ValidationError(f"{name}: must be a {ndim}-d array of "
                              f"{'integers' if integers else 'numbers'}")
    return a if integers else a.astype(float)


def load_value_function(out_dir, name, terminal_reward=None, spec=None,
                        u_grid=None):
    path = os.path.join(out_dir, f"{name}_header.json")
    with open(path) as fh:
        try:
            header = json.load(fh)
        except ValueError as e:  # bad JSON or bad UTF-8
            raise ValidationError(f"header {path} is not valid JSON: {e}")
    where = f"{name}_header"
    json_object(header, where)
    version = integer(header, where, "format_version", lowest=None)
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format version {version}")
    backend = require(header, "backend", where)
    n = integer(header, where, "n_steps")
    k_index = integer(header, where, "k_index", lowest=0)
    dt = real_number(require(header, "dt", where), f"{where}.dt")
    path = os.path.join(out_dir, f"{name}_values.csv")

    if backend == "GRID":
        axes = require(header, "axes", where)
        # a non-list is checked as one axis, which then fails the 1-d check
        axes = tuple(_grid_axis(_json_array(ax, f"{where}.axes", 1),
                                f"grid axis {d}") for d, ax in
                     enumerate(axes if isinstance(axes, list) else [axes]))
        table = _load_table(path, (n + 1, math.prod(len(ax) for ax in axes)))
        return GridValueFunction(axes=axes, values=list(table),
                                 k_index=k_index, dt=dt)
    if backend != "REGRESSION":
        raise ValidationError(f"{where}.backend: unknown backend {backend!r}")

    if terminal_reward is None:
        raise ValidationError("regression value functions need terminal_reward")
    if k_index >= 1 and (spec is None or u_grid is None):
        raise ValidationError("regression levels above 0 need spec and u_grid "
                              "to price intervention branches")
    powers = _json_array(require(header, "powers", where), f"{where}.powers",
                         2, integers=True)
    n_levels = integer(header, where, "n_levels")
    slabs = _load_table(path, (2 * n_levels, n, len(powers)))
    bounds = header.get("bounds")
    if bounds is not None:
        bounds = [None if b is None else _json_array(b, f"{where}.bounds", 2)
                  for b in (bounds if isinstance(bounds, list) else [bounds])]
        if len(bounds) != n + 1 or bounds[-1] is not None or any(
                b is None or b.shape != (2, powers.shape[1]) for b in bounds[:-1]):
            raise ValidationError(f"{where}.bounds: must hold n_steps = {n} arrays "
                                  f"of shape (2, {powers.shape[1]}), then null")
    lag_memo = _LagMemo(powers)
    vf = None
    for k in range(n_levels):
        vf = RegressionValueFunction(powers=powers,
                                     cont_coeffs=list(slabs[2 * k]) + [None],
                                     plain_coeffs=list(slabs[2 * k + 1]) + [None],
                                     k_index=k, dt=dt,
                                     terminal_reward=terminal_reward,
                                     prev=vf, spec=spec,
                                     u_grid=None if u_grid is None
                                     else np.asarray(u_grid, dtype=float),
                                     bounds=bounds, lag_memo=lag_memo)
    return vf
