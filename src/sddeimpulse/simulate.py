"""Euler-Maruyama simulation of impulsively controlled delay SDE paths.

Noise comes from counter-based Philox streams keyed by (seed, path index), so
results are reproducible no matter how paths are scheduled.  One batch
engine vectorizes the time loop across paths; reductions run in path-index
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (TIME_TOL, ImpulseControl, ImpulseEvent, ProblemSpec,
                   Trajectory, ValidationError)
from .lattice import step_transition_batch

OVERFLOW_LIMIT = 1e9


class SimulationError(RuntimeError):
    """Non-finite or exploding state during path simulation."""

    def __init__(self, message, step=None, path=None):
        super().__init__(message)
        self.step = step
        self.path = path


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k*dt for k = -delay_steps ... n_steps."""

    dt: float
    n_steps: int
    delay_steps: int

    def __post_init__(self):
        if self.dt <= 0 or self.n_steps < 1 or self.delay_steps < 0:
            raise ValidationError("invalid time grid")

    @classmethod
    def for_spec(cls, spec: ProblemSpec, dt: float) -> "TimeGrid":
        n = round(spec.horizon / dt)
        if abs(n * dt - spec.horizon) > TIME_TOL:
            raise ValidationError(f"dt={dt} does not divide horizon {spec.horizon}")
        d = round(spec.delay / dt)
        if abs(d * dt - spec.delay) > TIME_TOL:
            raise ValidationError(f"dt={dt} does not divide delay {spec.delay}")
        return cls(dt=dt, n_steps=int(n), delay_steps=int(d))

    @property
    def horizon(self):
        return self.n_steps * self.dt

    def times(self, include_history=False):
        start = -self.delay_steps if include_history else 0
        return np.arange(start, self.n_steps + 1) * self.dt

    def index_of(self, t):
        k = int(round(t / self.dt))
        if abs(t - k * self.dt) > TIME_TOL or k < 0 or k > self.n_steps:
            raise ValidationError(f"time {t} is not on the grid")
        return k


@dataclass(frozen=True)
class NoiseDraw:
    """Gaussian increments N(0, dt), one per grid step, from a keyed stream."""

    increments: np.ndarray
    seed: int
    path_index: int
    dt: float

    def __post_init__(self):
        if self.increments.ndim != 1:
            raise ValidationError("increments must be one row per grid step")


def draw_noise(seed: int, path_index: int, grid: TimeGrid) -> NoiseDraw:
    """Increments for one path; reproducible from (seed, path_index, shape)."""
    gen = np.random.Generator(np.random.Philox(key=[seed, path_index]))
    inc = gen.normal(0.0, math.sqrt(grid.dt), grid.n_steps)
    return NoiseDraw(increments=inc, seed=seed, path_index=path_index, dt=grid.dt)


def draw_noise_matrix(seed: int, n_paths: int, grid: TimeGrid) -> np.ndarray:
    """(n_paths, n_steps) increments; row i is path i's stream."""
    out = np.empty((n_paths, grid.n_steps))
    for i in range(n_paths):
        out[i] = draw_noise(seed, i, grid).increments
    return out


def _events_by_index(control: ImpulseControl, spec: ProblemSpec, grid: TimeGrid):
    """Active (index, impulse) pairs; time-horizon events are inert."""
    control.validate_against(spec)
    out = []
    for t, u in control.events:
        if t >= grid.horizon - TIME_TOL:
            continue
        out.append((grid.index_of(t), u))
    return out


def initial_lifted_state(spec: ProblemSpec, grid: TimeGrid) -> np.ndarray:
    """Lifted start state (X_0, X_{-dt}, ..., X_{-delay}) from the initial
    segment; entry j is the value j steps back."""
    hist_t = np.arange(-grid.delay_steps, 1) * grid.dt
    hist = np.asarray(spec.initial_segment(hist_t), dtype=float)
    if not np.all(np.isfinite(hist)):
        raise ValidationError("initial segment samples must be finite")
    return hist[::-1]


def simulate_batch(spec: ProblemSpec, grid: TimeGrid, noise: np.ndarray,
                   policy_or_control):
    """Euler engine: simulate all rows of `noise` at once, rows = paths.

    `policy_or_control` is a fixed ImpulseControl (same events on every path)
    or a policy queried once per grid time (at most one impulse per step) via
    `decide_batch(time_index, states)` on the lifted states.  At each grid
    time impulses act first (the reset acts on the left limit), then the
    Euler step; the recorded value at t_k is the post-impulse state.

    Returns (payoffs, counts, paths, events): per-path payoffs and impulse
    counts, the (n_paths, n_steps + 1) post-impulse heads, and one
    (k, rows, pre, u, post) array tuple per impulse batch, in time order.
    """
    n_paths, n_steps = noise.shape
    if n_steps != grid.n_steps:
        raise ValidationError("noise shape does not match grid")
    fixed = isinstance(policy_or_control, ImpulseControl)
    scheduled = _events_by_index(policy_or_control, spec, grid) if fixed else []

    states = np.tile(initial_lifted_state(spec, grid), (n_paths, 1))
    running = np.zeros(n_paths)
    cost = np.zeros(n_paths)
    counts = np.zeros(n_paths, dtype=int)
    paths = np.empty((n_paths, grid.n_steps + 1))
    events = []

    def jump(k, t, rows, u):
        pre = states[rows, 0]
        u = np.broadcast_to(u, pre.shape)
        post = spec.intervention(pre, u)
        states[rows, 0] = post
        cost[rows] += spec.impulse_cost(pre, u, t)
        counts[rows] += 1
        events.append((k, rows, pre, u, post))

    for k in range(grid.n_steps + 1):
        t = k * grid.dt
        if k < grid.n_steps:
            for idx, u in scheduled:
                if idx == k:
                    jump(k, t, np.arange(n_paths), u)
            if not fixed:
                mask, us = policy_or_control.decide_batch(k, states)
                if np.any(mask):
                    jump(k, t, np.nonzero(mask)[0], us[mask])
        x = states[:, 0]
        if not np.all(np.isfinite(x)) or np.any(np.abs(x) > OVERFLOW_LIMIT):
            bad = int(np.argmax(~np.isfinite(x) | (np.abs(x) > OVERFLOW_LIMIT)))
            raise SimulationError(f"state overflow at step {k} (path {bad})",
                                  step=k, path=bad)
        paths[:, k] = x
        if k == grid.n_steps:
            break
        running += spec.running_reward(t, x) * grid.dt
        states = step_transition_batch(states, t, noise[:, k], spec, grid.dt)

    payoffs = running + spec.terminal_reward(states[:, 0]) - cost
    return payoffs, counts, paths, events


def simulate_controlled(spec: ProblemSpec, control: ImpulseControl,
                        noise: NoiseDraw, grid: TimeGrid) -> Trajectory:
    """One Euler path under a fixed control, with its initial-segment history.

    Delayed reads below t = 0 come from the initial segment samples.
    """
    if len(noise.increments) != grid.n_steps or abs(noise.dt - grid.dt) > TIME_TOL:
        raise ValidationError("noise shape does not match grid")
    try:
        _, _, paths, events = simulate_batch(spec, grid,
                                             noise.increments[None, :], control)
    except SimulationError as e:
        raise SimulationError(f"state overflow at step {e.step}", step=e.step,
                              path=noise.path_index) from None
    history = initial_lifted_state(spec, grid)[:0:-1]
    recorded = tuple(ImpulseEvent(index=k, pre=float(pre[0]),
                                  impulse=float(u[0]), post=float(post[0]))
                     for k, _, pre, u, post in events)
    return Trajectory(times=grid.times(include_history=True),
                      values=np.concatenate([history, paths[0]]),
                      events=recorded, offset=grid.delay_steps)


def estimate_J(spec: ProblemSpec, policy_or_control, n_paths: int, seed: int,
               grid: TimeGrid):
    """Monte Carlo mean and standard error of the total payoff.

    `policy_or_control` is either a fixed ImpulseControl (same events on every
    path) or a policy object with decide_batch.  Deterministic for a fixed
    seed: path i always consumes the (seed, i) noise stream.
    """
    if n_paths < 2:
        raise ValidationError("n_paths must be >= 2")
    noise = draw_noise_matrix(seed, n_paths, grid)
    payoffs = simulate_batch(spec, grid, noise, policy_or_control)[0]
    mean = float(np.mean(payoffs))
    stderr = float(np.std(payoffs, ddof=1) / math.sqrt(n_paths))
    return mean, stderr


def _single(pair):
    return ImpulseControl((pair,))


def coupled_sup_diffs(spec: ProblemSpec, prefix: ImpulseControl, pair_a, pair_b,
                      suffix: ImpulseControl, noise: np.ndarray,
                      grid: TimeGrid) -> np.ndarray:
    """Per-path sup_{s >= t_hat} |X^a_s - X^b_s|, one path pair per noise
    row, where the controls are prefix o pair o suffix and t_hat is the
    later pair time."""
    T = grid.horizon
    ca = compose3(prefix, pair_a, suffix, T)
    cb = compose3(prefix, pair_b, suffix, T)
    pa = simulate_batch(spec, grid, noise, ca)[2]
    pb = simulate_batch(spec, grid, noise, cb)[2]
    k_hat = grid.index_of(max(pair_a[0], pair_b[0]))
    return np.max(np.abs(pa[:, k_hat:] - pb[:, k_hat:]), axis=1)


def compose3(prefix, pair, suffix, horizon):
    from .core import compose_controls
    return compose_controls(compose_controls(prefix, _single(pair), horizon),
                            suffix, horizon)


def flow_stability_probe(spec: ProblemSpec, prefix: ImpulseControl, pair_a,
                         pair_b, suffix: ImpulseControl, noise: np.ndarray,
                         grid: TimeGrid) -> float:
    """Monte Carlo estimate of E[sup_{s>=t_hat} |difference|^(4+2m)] for the
    coupled controlled paths, one pair per noise row, m = 1 (scalar impulses)."""
    sups = coupled_sup_diffs(spec, prefix, pair_a, pair_b, suffix, noise, grid)
    return float(np.mean(sups ** 6))


def export_trajectories_csv(path, spec: ProblemSpec, policy_or_control,
                            n_paths: int, seed: int, grid: TimeGrid):
    """Write controlled sample paths as CSV rows
    path_id,time,value,impulse_flag,impulse_value."""
    noise = draw_noise_matrix(seed, n_paths, grid)
    _, _, paths, events = simulate_batch(spec, grid, noise, policy_or_control)
    impulses = {}
    for k, rows, _, us, _ in events:
        for i, u in zip(rows.tolist(), us.tolist()):
            impulses[i, k] = f"{u:.17g}"
    lines = ["path_id,time,value,impulse_flag,impulse_value"]
    for i in range(n_paths):
        for k in range(grid.n_steps + 1):
            uval = impulses.get((i, k), "")
            flag = 1 if uval else 0
            lines.append(f"{i},{k * grid.dt:.17g},{paths[i, k]:.17g},{flag},{uval}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
