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

import contextlib
import functools
import hashlib
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (ProblemSpec, ValidationError, integer, json_object,
                   real_number, require)
from .lattice import NoiseQuadrature, euler_head
# no longer called here; bench/layers.py traces them under these names
from .lattice import (impulse_transition_batch,  # noqa: F401
                      step_transition_batch)
from . import simulate
from .simulate import TimeGrid, draw_noise_matrix

FORMAT_VERSION = 2
CHUNK = 16384  # head-stack entries per interpolation chunk
# multiply-adds of a matrix product that OpenBLAS runs on the calling thread
SERIAL_PRODUCT = 2 ** 18


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
        # weight * T[corner] into the gathered copy, both freed before the
        # next corner's: two point-sized temporaries at a time, not three
        term = flat[off:][base]
        out += np.multiply(weight, term, out=term)
        del weight, term
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

    def value_at_heads(self, time_index, heads, lags, rows=None):
        """The lag cells are searched once per block, the head stack in
        chunks of about CHUNK entries, paths at a time.  Given `rows`, an
        index array of the block, the heads' columns read the lags
        lags[rows] through the cells of the whole block, gathered a chunk
        at a time."""
        cells = self._cells(lags)
        table = self.values[time_index].reshape(self.shape)
        heads = np.asarray(heads, dtype=float)
        stack = heads.reshape(math.prod(heads.shape[:-1]), heads.shape[-1])
        out = np.empty(stack.shape)
        step = max(1, CHUNK // len(stack))
        for start in range(0, stack.shape[1], step):
            c = slice(start, start + step)
            at = c if rows is None else rows[c]
            out[:, c] = multilinear_interp(
                self.axes, table, stack[:, c, None],
                [(i[at], (w0[at], w1[at])) for i, (w0, w1) in cells])
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


def _serial_product(a, rows):
    """a @ rows.T in near-equal column blocks of at most SERIAL_PRODUCT
    multiply-adds each, so a forked worker starts no BLAS threads.  Each
    entry is the same dot product, the same bits, while every block takes
    the kernel the whole product takes: OpenBLAS 0.3.31 hands a product
    of this layout with at most 1,200 entries (and 32 or more columns of
    a) to a small-matrix kernel that rounds differently, and a block of
    at least half the largest size has more entries when a has fewer
    than 109 columns."""
    block = max(1, SERIAL_PRODUCT // a.size)
    parts = -(-len(rows) // block)
    if parts <= 1:
        return a @ rows.T
    out = np.empty((len(a), len(rows)))
    edges = [len(rows) * p // parts for p in range(parts + 1)]
    for lo, hi in zip(edges, edges[1:]):
        np.matmul(a, rows[lo:hi].T, out=out[:, lo:hi])
    return out


class _LagMemo:
    """Fits evaluated as polynomials in the head h whose coefficients
    depend on the lags: A @ c = sum_e h**e * (L @ C_e), where L is the
    design of the lag block on the distinct lag exponents and C_e holds the
    entries of c whose column has head power e.

    The point sets one regression solve or policy decision prices share
    their lag block: a jump moves only the head, and all Euler successors
    of a set carry the same shifted lags.  So an entry, keyed by the
    block's bytes (lags that differ in the sign of a zero miss), keeps L
    and, per time index and coefficient vector served, the (d + 1, N) head
    coefficients; every further point set with those lags costs one Horner
    pass in the head, at any time index.

    A sweep reads one time index and the next: the solve backward, a
    policy forward.  So a lookup first drops the head coefficients of time
    indices more than one step from its own, and every other entry left
    with none; then at most three entries stay, the most recently used
    first.  The solve keeps two, its slice's cloud lags and the slice
    above's, each L a copy of the head-power-0 columns of its slice's fit
    design, which then goes with its slice; a policy step on constant
    histories reads three, the states' lags and their clips into two
    adjacent slices' cloud boxes."""

    def __init__(self, powers):
        self.powers = powers
        self.lag_powers, where = np.unique(powers[:, 1:], axis=0,
                                           return_inverse=True)
        self.slots = (powers[:, 0], where.reshape(-1))
        # (key, L, {time index: {coefficient bytes: head coefficients}})
        self.entries = []

    def block(self, time_index, lags, design=None):
        """values(head, coeffs) -> the (L,) + head.shape stack of each fit
        in `coeffs`, of slice `time_index`, at the points (head[..., n],
        lags[n]).  One Horner pass per fit over the whole head stack; its
        head coefficients are computed at the first query of the slice
        with these lags, the same bytes thereafter.  Given `design`, on
        monomial_powers, a new entry's L is a copy of its leading
        head-power-0 columns, so the entry does not pin the whole design."""
        key = (lags.shape, lags.tobytes())
        hit, kept = None, []
        for entry in self.entries:
            served = entry[2]
            for t in [t for t in served if abs(t - time_index) > 1]:
                del served[t]
            if entry[0] == key:
                hit = entry
            elif served:
                kept.append(entry)
        if hit is None:
            hit = (key, design_matrix(lags, self.lag_powers) if design is None
                   else design[:, :len(self.lag_powers)].copy(), {})
        self.entries = [hit] + kept[:2]
        return functools.partial(self._horner, hit[1],
                                 hit[2].setdefault(time_index, {}))

    def values(self, time_index, head, lags, coeffs):
        """block(time_index, lags)(head, coeffs)."""
        return self.block(time_index, lags)(head, coeffs)

    def _horner(self, lag_design, served, head, coeffs):
        out = np.empty((len(coeffs),) + head.shape)
        for row, c in zip(out, coeffs):
            hc = served.get(c.tobytes())
            if hc is None:
                by_head = np.zeros((self.slots[0].max() + 1, len(self.lag_powers)))
                by_head[self.slots] = c
                hc = served[c.tobytes()] = _serial_product(by_head,
                                                           lag_design)
            row[:] = hc[-1]
            for e in range(len(hc) - 2, -1, -1):
                row *= head
                row += hc[e]
        return out


@dataclass
class RegressionValueFunction(_HeadStacks):
    """Per-time-step polynomial fits on the lifted state: level k_index of
    one solve's hierarchy, whose fits it holds for every level.

    Two fits per level and slice. cont_coeffs approximates the continuation
    value, which is smooth, so a low-degree polynomial does well.
    plain_coeffs is a direct fit of the value itself; it carries the kink
    along the intervention boundary and is only used inside intervention
    branches of the level above, never iterated against itself. value_at
    combines the continuation fit with an exact max over the impulse grid
    priced on the previous level, so the kink never has to be represented
    by a polynomial.

    The terminal slice is the terminal reward itself, not a fit, so
    V(T, x) = g(x) holds pointwise.
    """

    powers: np.ndarray
    cont_coeffs: list  # [k][i]: level k at time index i, None at T
    plain_coeffs: list
    k_index: int
    dt: float
    terminal_reward: object = field(repr=False, default=None)
    spec: object = field(repr=False, default=None)
    u_grid: np.ndarray = field(repr=False, default=None)
    # per-slice (lo, hi) bounding boxes of the fitting cloud; plain-fit
    # evaluations get clipped into these so the kinked fit is never
    # extrapolated (impulses shift points up to the impulse-set width away)
    bounds: list = field(repr=False, default=None)
    # a _LagMemo of `powers`, shared by every level view
    lag_memo: object = field(repr=False, compare=False, default=None)

    backend = "REGRESSION"

    def __post_init__(self):
        if self.lag_memo is None:
            self.lag_memo = _LagMemo(self.powers)

    @property
    def n_steps(self):
        return len(self.cont_coeffs[0]) - 1

    def level(self, k):
        """Level k of the hierarchy, sharing these fits, spec, impulse grid,
        clip boxes and lag memo."""
        return replace(self, k_index=k)

    def value_at_heads(self, time_index, heads, lags, rows=None):
        if rows is not None:
            lags = lags[rows]
        return self.levels_at_heads(time_index, heads, lags, (self.k_index,))[0]

    def head_ceiling(self, time_index, lags):
        """+inf: no bound of a fit over its clip box is kept, so every
        path's jumps are priced."""
        return np.full(len(lags), np.inf)

    def levels_at_heads(self, time_index, heads, lags, ks):
        """(len(ks),) + heads.shape stack of the values of the increasing
        levels ks, row by row one level each, through the lag memo.  The
        jumps of every level above 0 are priced with one _plain_block of
        the levels below them, whose lags are clipped and looked up once.
        At T this is the terminal reward."""
        if self.cont_coeffs[ks[0]][time_index] is None:
            return self._plain_block(time_index, lags, ks)(heads)
        v = self.lag_memo.values(time_index, heads, lags,
                                 [self.cont_coeffs[k][time_index] for k in ks])
        below = [k - 1 for k in ks if k]
        if below:
            # whole head rows at a time, about CHUNK jumped heads per call
            plain = self._plain_block(time_index, lags, below)
            rows = heads.reshape(math.prod(heads.shape[:-1]), heads.shape[-1])
            top = v[-len(below):].reshape(len(below), len(rows), -1)
            step = max(1, CHUNK // (len(self.u_grid) * max(1, rows.shape[1])))
            for r in range(0, len(rows), step):
                jump = _intervention_batch(
                    lambda i, jumped, _: plain(jumped), time_index,
                    rows[r:r + step], lags, self.spec, self.u_grid,
                    time_index * self.dt)[0]
                np.maximum(top[:, r:r + step], jump, out=top[:, r:r + step])
        return v

    def _plain_block(self, time_index, lags, ks):
        """values(heads) -> the plain fits of the levels ks, stacked as
        levels_at_heads stacks values, at the points clipped into the
        slice's cloud box; the lags are clipped and looked up once."""
        coeffs = [self.plain_coeffs[k][time_index] for k in ks]
        if coeffs[0] is None:
            def terminal(heads):
                v = np.asarray(self.terminal_reward(heads), dtype=float)
                return np.tile(v, (len(ks),) + (1,) * v.ndim)
            return terminal
        lo, hi = self.bounds[time_index]
        values = self.lag_memo.block(time_index, np.clip(lags, lo[1:], hi[1:]))
        return lambda heads: values(np.clip(heads, lo[0], hi[0]), coeffs)


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

    Sample states come from forward simulation of the uncontrolled dynamics.
    """

    degree: int = 3
    ridge_lambda: float = 1e-8
    n_samples: int = 4000
    sample_seed: int = 1234

    def __post_init__(self):
        if self.degree < 0:
            raise ValidationError(f"regression degree must be >= 0, got "
                                  f"{self.degree}")
        if not (math.isfinite(self.ridge_lambda) and self.ridge_lambda >= 0):
            raise ValidationError("ridge_lambda must be finite and >= 0, got "
                                  f"{self.ridge_lambda}")
        if not 0 <= self.sample_seed < 2 ** 64:
            raise ValidationError("sample_seed must lie in [0, 2**64), got "
                                  f"{self.sample_seed}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _continuation(value_at_heads, i, states, spec, quadrature, dt):
    """One-step expectation from t_i: the running reward over [t_i, t_{i+1})
    plus the quadrature average, over the Euler successors, of
    value_at_heads(i + 1, heads, lags), priced as one (Q, N) head stack over
    their shifted lags."""
    t = i * dt
    heads = euler_head(states[:, 0], states[:, -1], t, quadrature.nodes[:, None],
                       spec, dt)
    return _expectation(spec, t, states, dt, quadrature.weights,
                        value_at_heads(i + 1, heads, states[:, :-1]))


def _expectation(spec, t, states, dt, weights, values):
    """Running reward over [t, t + dt) plus sum_j weights[j] * values[..., j, :],
    where values holds the values at the quadrature nodes' successors as a
    (Q, N) stack, or as an (L, Q, N) stack of L levels' values."""
    acc = np.zeros(states.shape[0])
    for j, w in enumerate(weights):
        acc = acc + w * values[..., j, :]
    return spec.running_reward(t, states[:, 0]) * dt + acc


def _intervention_batch(value_at_heads, time_index, heads, lags, spec, u_grid,
                        t):
    """Best immediate jump from the points (heads[..., n], lags[n]), priced
    with value_at_heads(time_index, jumped heads, lags) of the level below
    as one (U,) + heads.shape stack of jump values V(Gamma(head, u), lags)
    - ell(head, u, t): their max over u, and the stack.  A level stack
    that prices with (L, U, ...) values gives (L, ...) maxima.  The fee is
    subtracted in place from the stack value_at_heads returns, so that
    stack must be a fresh float array, and becomes the returned one; one
    stack is then live, not two.  Only Policy.decide_batch reads the
    argmax, the first maximiser, and only on the paths where it acts; the
    solve and the levels' own jumps read the max alone."""
    us = u_grid.reshape((-1,) + (1,) * heads.ndim)
    val = value_at_heads(time_index, spec.intervention(heads, us), lags)
    val -= spec.impulse_cost(heads, us, t)
    return _first_max(val, val.ndim - heads.ndim - 1), val


def _first_max(val, axis):
    """The max of val over `axis`, entry for entry the one np.argmax picks:
    the first maximal entry, or the first NaN.  Where that max is neither
    zero nor NaN, every maximal entry has its bits; where it is, np.max
    may return another zero's sign or another NaN, so the first maximiser
    is taken there."""
    best = np.max(val, axis=axis)
    odd = ~(best != 0)
    if odd.any():
        ties = np.moveaxis(val, axis, -1)[odd]
        best[odd] = ties[np.arange(len(ties)), np.argmax(ties, axis=-1)]
    return best


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


def _grid_iteration(spec, grid, backend, quadrature, u_grid, k_max, tol,
                    keep=None):
    """Grid levels k = 0, 1, ..., each swept backward in time from the
    terminal reward: slice i of level k reads slice i + 1 of level k and,
    through its jumps, slice i of level k - 1.  A table of at least
    simulate.FORK_ENTRIES entries runs as a two-process wavefront, which
    without a second usable core runs in-process, as any other table
    does; _grid_levels runs both, with the same iterates and gaps, bit
    for bit, and holds the levels `keep` asks for."""
    axis = backend.axis
    axes = (axis,) * (grid.delay_steps + 1)
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                      axis=1)
    n_rows = len(points) // len(axis)  # L lag rows of the (H, L) table
    n, dt = grid.n_steps, grid.dt
    terminal = np.asarray(spec.terminal_reward(points[:, 0]), dtype=float)

    # Every level queries the same points, so the head stencils are built
    # once per solve: the jumps', then per slice the Euler successors', one
    # on the stacked (Q, N) heads of all quadrature nodes, shared with the
    # slice above when the heads are equal.  Coefficients that do not depend
    # on t build one; others keep n, of 32 bytes per successor each.
    jumped_rows = _jump_stencil(axis, spec.intervention(axis, u_grid[:, None]),
                                n_rows)
    successor_rows = np.arange(len(points)) // len(axis)
    heads = stencil = None
    step_rows = [None] * n
    for i in range(n - 1, -1, -1):
        hs = euler_head(points[:, 0], points[:, -1], i * dt,
                        quadrature.nodes[:, None], spec, dt)
        if not np.array_equal(hs, heads):
            stencil = _head_stencil(axis, hs, successor_rows, n_rows)
        heads, step_rows[i] = hs, stencil
    # the successors' (Q, N) gathers, the jumps' (U, H, L) values and their
    # (H, L) max, per solve
    successor_bufs = np.empty((2,) + heads.shape)
    jumped = np.empty((len(u_grid), len(axis), n_rows))
    best = np.empty((len(axis), n_rows))

    def level_slice(k, i, above, below):
        """Slice i of level k from its slice above, i + 1, and for k >= 1
        the slice below, level k - 1's slice i."""
        t = i * dt
        stepped = step_rows[i](above, *successor_bufs)
        vals = _expectation(spec, t, points, dt, quadrature.weights, stepped)
        if k:
            # the tables are finite, so no value is NaN or -0.0 and the
            # plain max is the first-index max of _intervention_batch
            jumped_rows(below, jumped)
            np.subtract(jumped, np.asarray(spec.impulse_cost(
                axis, u_grid[:, None], t))[..., None], out=jumped)
            np.max(jumped, axis=0, out=best)
            vals = np.maximum(vals, best.ravel(), out=vals)
        _check_finite(vals, i, k)
        return vals

    def new_level(k, values=None):
        """Level k on `values`, a new (n + 1, N) array unless given, its
        row n set to the terminal reward."""
        values = np.empty((n + 1, len(points))) if values is None else values
        values[n] = terminal
        return GridValueFunction(axes=axes, values=list(values), k_index=k,
                                 dt=dt)

    shared = len(points) * (n + 1) >= simulate.FORK_ENTRIES
    return _grid_levels(level_slice, new_level, k_max, tol, keep,
                        (n + 1, len(points)) if shared else None)


def _grid_level(level_slice, level, below, wait=None, signal=None):
    """Slices n - 1 down to 0 of `level`, written into its rows, and its
    gap to `below`, the level under it (+inf for level 0): the largest
    sup-distance of a slice to the one below.  wait(k), if given, runs
    before each slice of level k and drops the level, returning NaN, if it
    is false; signal(), if given, runs after each slice.  A non-finite
    slice raises DivergenceError."""
    k, gap = level.k_index, 0.0
    for i in range(level.n_steps - 1, -1, -1):
        if wait is not None and not wait(k):
            return math.nan
        level.values[i][:] = level_slice(k, i, level.values[i + 1],
                                         below.values[i] if k else None)
        if k:
            gap = max(gap, float(np.max(np.abs(level.values[i]
                                               - below.values[i]))))
        if signal is not None:
            signal()
    return gap if k else math.inf


def _grid_levels(level_slice, new_level, k_max, tol, keep=None,
                 level_shape=None):
    """The levels up to the first gap under tol, or to k_max, and their
    gaps, from one loop: run(side, step, wait, signal) sweeps the levels
    side, side + step, ... <= k_max by _grid_level, each gap into its row
    of `gaps`, until a gap is not >= tol (converged, or dropped as NaN).
    The result is the top depth = max(2, keep) levels, or every level if
    keep is None.  In-process, run(0, 1) gives each level an array as it
    starts and drops level k - depth then, which neither level k nor the
    result reads.

    Given `level_shape`, (n + 1, N), level k is a view of slot k mod R of
    one shared table of R = min(k_max + 1, depth + 1) levels, swept as a
    two-process wavefront: run(0, 2, ...) here and run(1, 2, ...) in a
    worker forked by simulate.fork_jobs, slice i of a level waiting for
    the one-byte pipe signal of slice i below.  A side starts level k + 2
    only after its level k, the last reader of level k - 1, is whole; the
    level past the converged one, started beside it and then dropped,
    lands in a slot under the result.  `gaps` is then shared, NaN until a
    level is whole; a side drops its level once the gap below is under
    tol, and ends at a non-finite slice or at EOF from the other side.  If
    either side failed, run(0, 1) reruns in the table; if a level the
    result needs has a NaN gap, or the table is refused, the levels run
    in-process.  Either way a DivergenceError is the serial one, and the
    iterates and gaps are the in-process ones, bit for bit."""
    depth = k_max + 1 if keep is None else max(2, keep)
    gaps, levels, ring = np.empty(k_max + 1), {}, None

    def level(k):
        """Level k: in-process its own array, else a view of its slot"""
        if ring is None:
            return levels[k]
        return replace(ring[k % len(ring)], k_index=k)

    def run(side, step, wait=None, signal=None):
        for k in range(side, k_max + 1, step):
            if ring is None:
                levels.pop(k - depth, None)
                levels[k] = new_level(k)
            gaps[k] = _grid_level(level_slice, level(k),
                                  level(k - 1) if k else None,
                                  wait if k else None, signal)
            if not gaps[k] >= tol:
                return

    if level_shape is not None:
        with contextlib.suppress(OSError):  # no room for the ring
            table = simulate.shared_array((min(k_max + 1, depth + 1),)
                                          + level_shape)
            gaps = simulate.shared_array(gaps.shape)
            ring = [new_level(k, row) for k, row in enumerate(table)]
    gaps[:] = math.nan
    if ring is None:
        run(0, 1)
    else:
        with contextlib.ExitStack() as files:
            # the signals to the worker, and to this process
            (down_r, down_w), (up_r, up_w) = (
                (files.enter_context(open(r, "rb", buffering=0)),
                 files.enter_context(open(w, "wb", buffering=0)))
                for r, w in (os.pipe(), os.pipe()))

            def side(first, signals_in, signals_out, *theirs):
                for end in theirs:
                    end.close()

                def wait(k):  # level k - 1 not under tol, its next slice out
                    return not gaps[k - 1] < tol and signals_in.read(1)

                def signal():
                    with contextlib.suppress(BrokenPipeError):
                        signals_out.write(b"\1")

                with signals_in, signals_out, \
                        contextlib.suppress(DivergenceError):
                    run(first, 2, wait, signal)

            simulate.fork_jobs(
                [functools.partial(side, 0, up_r, down_w, down_r, up_w),
                 functools.partial(side, 1, down_r, up_w, down_w, up_r)],
                lambda: run(0, 1))
    k = next(k for k in range(1, k_max + 1)
             if not gaps[k] >= tol or k == k_max)
    if math.isnan(gaps[k]):
        return _grid_levels(level_slice, new_level, k_max, tol, keep)
    return ([level(j) for j in range(max(0, k + 1 - depth), k + 1)],
            [float(g) for g in gaps[1:k + 1]])


def _jump_stencil(axis, jumped, width):
    """values(table, out) -> out, or a new array, filled with the (U, H, L)
    values of a flat (H, L) grid table at the jumped heads jumped[u, h] of
    each node, lags kept, as _head_stencil's whole-row reads give them.
    Each distinct jumped head is interpolated once, into a (D, L) buffer
    kept with the stencil, and gathered from there.  A head's cell and
    weights depend only on its value, and np.unique merges only -0.0 with
    0.0 and NaNs with NaNs; a merged zero's values keep their bits, since
    its -0.0 weight adds +-0.0 to a sum that is never -0.0.  So on finite
    tables these are _head_stencil's values bit for bit."""
    distinct, where = np.unique(jumped, return_inverse=True)
    where = where.reshape(jumped.shape)
    rows = _head_stencil(axis, distinct, 0, 1, width)
    bufs = np.empty((2, len(distinct), width))

    def values(table, out=None):
        return np.take(rows(table, *bufs), where, axis=0, out=out, mode="clip")
    return values


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


def _sample_history(spec, grid, backend):
    """The uncontrolled sample paths on the Euler engine, as its time-major
    (d + n_steps + 1, n_samples) history, d = delay_steps: row j holds
    every path's head at (j - d) * dt."""
    noise = draw_noise_matrix(backend.sample_seed, backend.n_samples, grid)
    hist = simulate._start_history(spec, grid, noise)
    simulate._advance(spec, grid, noise, hist, 0, grid.n_steps + 1,
                      lambda k, t: None)
    return hist


def _cloud(hist, i, d):
    """Slice i's sample cloud: rows i .. i + d of the sample history as
    C-ordered (n_samples, d + 1) lifted states, newest first; the states
    of stepping initial_lifted_state i times with
    lattice.step_transition_batch."""
    return np.ascontiguousarray(hist[i:i + d + 1][::-1].T)


def _regression_iteration(spec, grid, backend, quadrature, u_grid, k_max, tol):
    """Time-outer sweep over all k_max + 1 levels, then a trim at the first
    gap below tol.  The sample paths are drawn once, as the engine's
    history: slice i's cloud is its window of rows i .. i + d, built when
    the slice starts, and its clip box the window's per-row extrema, so the
    clouds cost O(N (n + d)) memory, not O(N n m).  Fits are read through
    one lag memo: the Euler successors of cloud i carry the lags of cloud
    i + 1, read at the slice above, and its jumps its own.  The cloud's
    design and Gram matrices serve both fits of every level, and go with
    the slice's value stacks before the next slice starts.  Levels are
    fitted in increasing k, since level k's jump prices with level k-1's
    plain fit at the same slice.  A level that turns non-finite ends itself
    and every level above it; its error is raised only if no level below it
    converges, as a level-by-level solve would have stopped first."""
    d = grid.delay_steps
    powers = monomial_powers(d + 1, backend.degree)
    hist = _sample_history(spec, grid, backend)
    n = grid.n_steps
    dt = grid.dt

    # margin lets any in-cloud point be re-evaluated after one impulse
    # without hitting the clamp
    margin = float(np.max(np.abs(u_grid)))
    lo, hi = hist.min(axis=1) - margin, hist.max(axis=1) + margin
    bounds = [(lo[i:i + d + 1][::-1], hi[i:i + d + 1][::-1])
              for i in range(n)] + [None]
    fits = RegressionValueFunction(
        powers=powers, cont_coeffs=[[None] * (n + 1) for _ in range(k_max + 1)],
        plain_coeffs=[[None] * (n + 1) for _ in range(k_max + 1)],
        k_index=k_max, dt=dt, terminal_reward=spec.terminal_reward, spec=spec,
        u_grid=u_grid, bounds=bounds)
    levels = [fits.level(k) for k in range(k_max + 1)]
    slice_gaps = [[None] * n for _ in range(k_max)]
    live, failure = k_max + 1, None
    for i in range(n - 1, -1, -1):
        pts = _cloud(hist, i, d)
        cont = _continuation(functools.partial(fits.levels_at_heads,
                                               ks=range(live)),
                             i, pts, spec, quadrature, dt)
        design = design_matrix(pts, powers)
        fit = _regression_fitter(design, backend.ridge_lambda)
        # its head-power-0 columns are the cloud's lag design, bit for bit
        values = fits.lag_memo.block(i, pts[:, 1:], design)
        below = None
        for k in range(live):
            try:
                _check_finite(cont[k], i, k)
                c = fits.cont_coeffs[k][i] = fit(cont[k])
                v = values(pts[:, 0], [c])[0]
                if k >= 1:
                    plain = fits._plain_block(i, pts[:, 1:], (k - 1,))
                    interv = _intervention_batch(
                        lambda _, jumped, __: plain(jumped)[0], i,
                        pts[:, 0], pts[:, 1:], spec, u_grid, i * dt)[0]
                    vals = np.maximum(cont[k], interv)
                    _check_finite(vals, i, k)
                    fits.plain_coeffs[k][i] = fit(vals)
                    v = np.maximum(v, interv)
                    slice_gaps[k - 1][i] = float(np.max(np.abs(v - below)))
                else:
                    fits.plain_coeffs[k][i] = c
                below = v
            except DivergenceError as err:
                live, failure = k, err
                break
        del cont, design, fit, values
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
                      tol: float = 1e-3, keep: int | None = None):
    """Backward-in-time value iteration over the allowed-intervention count.

    Returns (iterates, gaps): value functions for k = 0 ... k_stop and the
    sup-gap between successive levels; stops at the first gap below tol or
    at k_max.  The regression levels are views of one hierarchy, level(k).

    keep, the number of top levels the caller reads, returns only those
    and every gap; a grid solve then holds a ring of max(2, keep) + 1
    levels, not k_max + 1 (_grid_levels).
    """
    if k_max < 1 or not tol > 0:
        raise ValidationError("k_max must be >= 1 and tol positive")
    if keep is not None and keep < 1:
        raise ValidationError("keep must be >= 1")
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.size == 0:
        raise ValidationError("impulse grid must be nonempty")
    if isinstance(backend, GridBackend):
        iterates, gaps = _grid_iteration(spec, grid, backend, quadrature,
                                         u_grid, k_max, tol, keep)
    elif isinstance(backend, RegressionBackend):
        iterates, gaps = _regression_iteration(spec, grid, backend,
                                               quadrature, u_grid, k_max, tol)
    else:
        raise ValidationError(f"unknown backend {backend!r}")
    return (iterates if keep is None else iterates[-keep:]), gaps


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
        top, prev = self.v_top, self.v_prev
        if all(isinstance(v, RegressionValueFunction) for v in (top, prev)) \
                and np.array_equal(top.powers, prev.powers):
            # a step reads both levels at the same lag blocks (the level
            # views of one hierarchy share the memo already)
            prev.lag_memo = top.lag_memo

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
        cont = _continuation(self.v_top.value_at_heads, time_index, states,
                             self.spec, self.quadrature, self.dt)
        cost = np.broadcast_to(
            self.spec.impulse_cost(states[:, 0], self.u_grid[:, None], t),
            (len(self.u_grid), len(states)))
        lags = states[:, 1:]
        ceiling = self.v_prev.head_ceiling(time_index, lags)
        live = np.flatnonzero(~(cont >= ceiling - cost.min(axis=0)))
        # the live rows of the block the ceiling read, so a grid level
        # searches its lag cells once
        interv, jumps = _intervention_batch(
            functools.partial(self.v_prev.value_at_heads, rows=live),
            time_index, states[live, 0], lags, self.spec, self.u_grid, t)
        acts = interv > cont[live]
        mask[live] = acts
        us[live[acts]] = self.u_grid[np.argmax(jumps[:, acts], axis=0)]
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
    """Write the per-step values (grid) or fit coefficients (regression) as
    text, `<name>_values.csv`, and as the float64 array load_value_function
    reads, `<name>_values.npy`, of shape (n + 1, H L) or (2 n_levels, n, P);
    then the versioned `<name>_header.json`, which keeps the sha256 of
    both, so a save cut short leaves no header that vouches for its
    tables."""
    os.makedirs(out_dir, exist_ok=True)
    header = {"format_version": FORMAT_VERSION, "backend": vf.backend,
              "k_index": vf.k_index, "dt": vf.dt, "n_steps": vf.n_steps}
    if vf.backend == "GRID":
        header["axes"] = [[float(v) for v in ax] for ax in vf.axes]
        columns = "time_index,flat_index,value"
        table = np.array(vf.values, dtype=float)
        rows = ((f"{i},", row) for i, row in enumerate(table))
    else:
        header["powers"] = [[int(e) for e in p] for p in vf.powers]
        header["terminal"] = "terminal_reward"
        header["n_levels"] = vf.k_index + 1
        header["bounds"] = [None if b is None else np.asarray(b).tolist()
                            for b in vf.bounds]
        columns = "slab,time_index,flat_index,value"
        # slab 2k + part: level k's continuation (0) or plain (1) fits
        table = np.array([coeffs[k][:vf.n_steps] for k in range(vf.k_index + 1)
                          for coeffs in (vf.cont_coeffs, vf.plain_coeffs)],
                         dtype=float)
        rows = ((f"{s},{i},", row) for s, slab in enumerate(table)
                for i, row in enumerate(slab))
    values = os.path.join(out_dir, f"{name}_values.csv")
    with open(values, "w") as fh:
        fh.write(columns + "\n")
        # one line "<row prefix><flat index>,<value to 17 digits>" per
        # entry, a row formatted by one %: the index strings interleaved
        # with the row's values
        cells = []
        for prefix, row in rows:
            row = row.tolist()
            if len(cells) != 2 * len(row):
                cells = [None] * (2 * len(row))
                cells[::2] = map(str, range(len(row)))
            cells[1::2] = row
            fh.write(((prefix + "%s,%.17g\n") * len(row)) % tuple(cells))
    npy = os.path.join(out_dir, f"{name}_values.npy")
    np.save(npy, table, allow_pickle=False)
    header["values_sha256"] = _sha256(values)
    header["table_sha256"] = _sha256(npy)
    with open(os.path.join(out_dir, f"{name}_header.json"), "w") as fh:
        json.dump(header, fh, sort_keys=True, indent=2)
        fh.write("\n")


def table_entries(vf):
    """Entries of the table save_value_function writes for vf."""
    if vf.backend == "GRID":
        return len(vf.values) * math.prod(vf.shape)
    return 2 * (vf.k_index + 1) * vf.n_steps * len(vf.powers)


def _sha256(path):
    digest, block = hashlib.sha256(), bytearray(1 << 18)
    view = memoryview(block)
    with open(path, "rb") as fh:
        while size := fh.readinto(block):
            digest.update(view[:size])
    return digest.hexdigest()


def _load_table(out_dir, name, header, shape):
    """The `<name>_values.npy` table, which must be a float64 array of
    `shape`. The header binds the two files it was saved with: the sha256
    of `<name>_values.csv` must equal its values_sha256 and that of the
    `.npy` its table_sha256, so the commands read the table that was saved
    with the CSV."""
    values = os.path.join(out_dir, f"{name}_values.csv")
    if header.get("values_sha256") != _sha256(values):
        raise ValidationError(f"value file {values} does not match the "
                              "values_sha256 of its header")
    path = os.path.join(out_dir, f"{name}_values.npy")
    try:
        digest = _sha256(path)
    except OSError as e:
        raise ValidationError(f"unreadable value file {path}: {e}")
    if header.get("table_sha256") != digest:
        raise ValidationError(f"value file {path} does not match the "
                              "table_sha256 of its header")
    try:
        table = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError) as e:
        raise ValidationError(f"unreadable value file {path}: {e}")
    if not isinstance(table, np.ndarray) or table.dtype != np.float64 \
            or table.shape != shape:
        raise ValidationError(f"value file {path} does not hold a {shape} "
                              "float64 table")
    return table


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

    if backend == "GRID":
        axes = require(header, "axes", where)
        # a non-list is checked as one axis, which then fails the 1-d check
        axes = tuple(_grid_axis(_json_array(ax, f"{where}.axes", 1),
                                f"grid axis {d}") for d, ax in
                     enumerate(axes if isinstance(axes, list) else [axes]))
        table = _load_table(out_dir, name, header,
                            (n + 1, math.prod(len(ax) for ax in axes)))
        return GridValueFunction(axes=axes, values=list(table),
                                 k_index=k_index, dt=dt)
    if backend != "REGRESSION":
        raise ValidationError(f"{where}.backend: unknown backend {backend!r}")

    if terminal_reward is None:
        raise ValidationError("regression value functions need terminal_reward")
    n_levels = integer(header, where, "n_levels")
    if k_index != n_levels - 1:
        raise ValidationError(f"{where}.k_index: must be n_levels - 1 = "
                              f"{n_levels - 1}, got {k_index}")
    if k_index >= 1 and (spec is None or u_grid is None):
        raise ValidationError("regression levels above 0 need spec and u_grid "
                              "to price intervention branches")
    powers = _json_array(require(header, "powers", where), f"{where}.powers",
                         2, integers=True)
    if np.any(powers < 0) or len(np.unique(powers, axis=0)) < len(powers):
        raise ValidationError(f"{where}.powers: exponents must be >= 0 and "
                              "each monomial listed once")
    slabs = _load_table(out_dir, name, header,
                        (2 * n_levels, n, len(powers)))
    bounds = require(header, "bounds", where)
    bounds = [None if b is None else _json_array(b, f"{where}.bounds", 2)
              for b in (bounds if isinstance(bounds, list) else [bounds])]
    if len(bounds) != n + 1 or bounds[-1] is not None or any(
            b is None or b.shape != (2, powers.shape[1]) for b in bounds[:-1]):
        raise ValidationError(f"{where}.bounds: must hold n_steps = {n} arrays "
                              f"of shape (2, {powers.shape[1]}), then null")
    if not all(np.all(np.isfinite(b)) and np.all(b[0] <= b[1])
               for b in bounds[:-1]):
        raise ValidationError(f"{where}.bounds: every (lo, hi) pair must be "
                              "finite with lo <= hi")
    return RegressionValueFunction(
        powers=powers, cont_coeffs=[list(c) + [None] for c in slabs[0::2]],
        plain_coeffs=[list(c) + [None] for c in slabs[1::2]], k_index=k_index,
        dt=dt, terminal_reward=terminal_reward, spec=spec,
        u_grid=None if u_grid is None else np.asarray(u_grid, dtype=float),
        bounds=bounds)
