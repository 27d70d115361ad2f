"""Euler-Maruyama simulation of impulsively controlled delay SDE paths.

Noise comes from counter-based Philox streams keyed by (seed, path index), so
results are reproducible no matter how paths are scheduled.  One batch
engine vectorizes the time loop across paths; reductions run in path-index
order.  The flow probe's per-path sup-distances and the Monte Carlo payoffs
of estimate_J each depend on their own path alone, so large path counts are
split into contiguous path ranges filled by forked worker processes, one
per usable core; the split cannot change a bit.  On a KeyedNoise each
range draws its own rows inside the fill that simulates them, so each call
forks once and no worker forks again; draw_noise_matrix draws a whole
matrix in the calling process.  Where noise_cancels holds (affine drift,
constant diffusion and additive jump, by the registry's structure tags),
every path pair of the flow probe has the same sup-distance, so the
probe-flow command runs it on one row of zero noise: one path, no draw,
no fork.  fork_jobs, the one fork primitive under those ranges, also lets
`solve` write its two value tables side by side and the grid solve run
its levels as a two-process wavefront, both for value tables of at least
FORK_ENTRIES entries.  Forked workers write numbers back into a
shared_array, the ranges their columns and the wavefront its levels.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (TIME_TOL, ImpulseControl, ProblemSpec, ValidationError,
                   structure)
from .lattice import euler_head

OVERFLOW_LIMIT = 1e9
BLOCK = 256  # paths per noise block
# fewest paths a forked worker takes; a range of 1,024 paths keeps a
# regression policy's lag products (2 or more head powers) out of
# OpenBLAS's small-matrix kernel whenever the serial products are out of it
FORK_PATHS = 4 * BLOCK
# fewest value-table entries worth a fork: a save takes about 1 us an
# entry, a grid level about 0.2 us, a fork about 4 ms and the parent's
# copy-on-write faults after it
FORK_ENTRIES = 2 ** 14


class SimulationError(RuntimeError):
    """Non-finite or exploding state during path simulation."""


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
        if not (math.isfinite(dt) and dt > 0):
            raise ValidationError(f"dt must be finite and positive, got {dt}")
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

    def index_of(self, t):
        k = int(round(t / self.dt))
        if abs(t - k * self.dt) > TIME_TOL or k < 0 or k > self.n_steps:
            raise ValidationError(f"time {t} is not on the grid")
        return k


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_jobs(jobs, serial):
    """Run jobs[0]() in this process and each other job in a forked child;
    if any job failed, run serial() in this process, which redoes the jobs'
    work in their order and so raises the serial error.  Without os.fork
    or with one usable core, run serial() alone.

    The lag memo's products stay on the calling thread; a child writes its
    own range, files, levels or pipe alone, and prints nothing: it takes no
    lock, runs with warnings raised as errors (a warning fails its job
    rather than print) and leaves only through os._exit, so inherited
    stdio buffers are never flushed twice.  Every child is reaped before
    this returns or raises, also when this process's own job failed.
    Python >= 3.12 warns on fork while OpenBLAS threads exist; that case
    is untested."""
    if not hasattr(os, "fork") or _usable_cores() < 2:
        serial()
        return
    pids, ok = [], True
    try:
        for job in jobs[1:]:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        job()
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        jobs[0]()
    except Exception:  # any failure: serial() below raises it
        ok = False
    finally:
        for pid in pids:
            ok = os.waitpid(pid, 0)[1] == 0 and ok
    if not ok:
        serial()


def shared_array(shape) -> np.ndarray:
    """A float64 array of this shape in an anonymous shared mmap, which
    forked children write in place and their parent reads; the pages are
    committed as they are first written.  OSError if the mapping is
    refused."""
    return np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8)).reshape(shape)


def _over_path_ranges(n: int, rows: int, fill) -> np.ndarray:
    """(rows, n) float64 array whose columns a .. b - 1 are written by
    fill(a, b, out[:, a:b]), for a fill whose columns depend on their own
    paths alone.

    With os.fork present and w = min(usable cores, n // FORK_PATHS) >= 2,
    the columns are split into w contiguous ranges of one shared_array and
    filled by fork_jobs: the parent fills the first and a forked child
    each other one, so the parent never maps a child's working arrays.
    If any range failed, fill(0, n, out) reruns in-process and raises the
    serial error (its step and global path index)."""
    workers = (min(_usable_cores(), n // FORK_PATHS)
               if rows and hasattr(os, "fork") else 1)
    if workers < 2:
        out = np.empty((rows, n))
        fill(0, n, out)
        return out
    edges = [n * w // workers for w in range(workers + 1)]
    out = shared_array((rows, n))
    fork_jobs([functools.partial(fill, a, b, out[:, a:b])
               for a, b in zip(edges, edges[1:])], lambda: fill(0, n, out))
    return out


def _keyed_normal_rows(seed: int, paths, grid: TimeGrid) -> np.ndarray:
    """Row r: increments of the (seed, paths[r]) stream, drawn serially in
    the calling process.  A Philox stream is fixed by its key and a zero
    counter, so one bit generator whose key and counter are reset per row
    draws what a fresh generator keyed so would.  Key words are uint64, so
    every seed in [0, 2**64) keys its own stream.  Storage is time-major:
    a fresh (n_steps, len(paths)) array, whose transposed view is
    returned; rows are drawn into a path-major block of BLOCK paths,
    scaled there, and transposed in."""
    sd = math.sqrt(grid.dt)
    out = np.empty((grid.n_steps, len(paths)))
    bitgen = np.random.Philox(0)  # seeded: constructing pulls no OS entropy
    gen = np.random.Generator(bitgen)
    # zero counter, empty buffer; plain lists, which the state setter reads
    # faster than numpy arrays
    key = [seed, 0]
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
    block = np.empty((min(BLOCK, len(paths)), grid.n_steps))
    for start in range(0, len(paths), BLOCK):
        chunk = paths[start:start + BLOCK]
        rows = block[:len(chunk)]
        for row, i in zip(rows, chunk):
            key[1] = i
            bitgen.state = state
            gen.standard_normal(out=row)
        # Generator.normal(0.0, sd) computes 0.0 + sd * z: the same bits
        rows *= sd
        rows += 0.0
        out[:, start:start + len(chunk)] = rows.T
    return out.T


class KeyedNoise:
    """The increments draw_noise_matrix(seed, n_paths, grid) holds, drawn
    lazily: noise[a:b] draws rows a .. b - 1 serially in the calling
    process, so a path range's fill draws its own rows in the process that
    simulates them and never forks again.  It has the matrix's .shape, and
    estimate_J and flow_stability_probe read nothing else of it."""

    def __init__(self, seed: int, n_paths: int, grid: TimeGrid):
        self.seed, self.grid = seed, grid
        self.shape = (n_paths, grid.n_steps)

    def __getitem__(self, rows: slice) -> np.ndarray:
        a, b, _ = rows.indices(self.shape[0])
        return _keyed_normal_rows(self.seed, range(a, b), self.grid)


def draw_noise(seed: int, path_index: int, grid: TimeGrid) -> np.ndarray:
    """(n_steps,) increments of one path; row path_index of
    draw_noise_matrix(seed, ...)."""
    return _keyed_normal_rows(seed, (path_index,), grid)[0]


def draw_noise_matrix(seed: int, n_paths: int, grid: TimeGrid) -> np.ndarray:
    """(n_paths, n_steps) increments; row i is path i's stream.  A
    transposed view of time-major storage, so noise[:, k] is contiguous;
    drawn in the calling process, since no command draws enough rows to
    pay for a fork (a regression cloud, exported trajectories)."""
    return _keyed_normal_rows(seed, range(n_paths), grid)


def _events_by_index(control: ImpulseControl, spec: ProblemSpec, grid: TimeGrid):
    """Active (index, impulse) pairs; time-horizon events are inert."""
    control.validate_against(spec)
    return [(grid.index_of(t), u) for t, u in control.events
            if t < grid.horizon - TIME_TOL]


def initial_lifted_state(spec: ProblemSpec, grid: TimeGrid) -> np.ndarray:
    """Lifted start state (X_0, X_{-dt}, ..., X_{-delay}) from the initial
    segment; entry j is the value j steps back."""
    hist_t = np.arange(-grid.delay_steps, 1) * grid.dt
    hist = np.asarray(spec.initial_segment(hist_t), dtype=float)
    if not np.all(np.isfinite(hist)):
        raise ValidationError("initial segment samples must be finite")
    return hist[::-1]


def _start_history(spec: ProblemSpec, grid: TimeGrid, noise: np.ndarray):
    """Time-major history of noise's paths, the initial segment filled in."""
    if noise.shape[1] != grid.n_steps:
        raise ValidationError("noise shape does not match grid")
    hist = np.empty((grid.delay_steps + grid.n_steps + 1, noise.shape[0]))
    hist[:grid.delay_steps + 1] = initial_lifted_state(spec, grid)[::-1, None]
    return hist


def _advance(spec: ProblemSpec, grid: TimeGrid, noise: np.ndarray,
             hist: np.ndarray, k_from: int, k_to: int, act):
    """The Euler stepping core, steps k_from .. k_to - 1: act(k, t_k) jumps
    head row k + d, the row is checked, and below n_steps row k + d + 1 is
    written from rows k + d and k (no row below k is read)."""
    d = grid.delay_steps
    for k in range(k_from, k_to):
        t = k * grid.dt
        act(k, t)
        x = hist[k + d]
        ok = np.abs(x) <= OVERFLOW_LIMIT  # False for NaN and +-inf too
        if not ok.all():
            raise SimulationError(
                f"state overflow at step {k} (path {int(np.argmin(ok))})")
        if k < grid.n_steps:
            hist[k + d + 1] = euler_head(x, hist[k], t, noise[:, k], spec,
                                         grid.dt)


def simulate_batch(spec: ProblemSpec, grid: TimeGrid, noise: np.ndarray,
                   policy_or_control):
    """Euler engine: simulate all rows of `noise` at once, rows = paths.

    `policy_or_control` is a fixed ImpulseControl (same events on every path)
    or a policy queried once per grid time (at most one impulse per step) via
    `decide_batch(time_index, states)` on the lifted states.  At each grid
    time impulses act first (the reset acts on the left limit), then the
    Euler step; the recorded value at t_k is the post-impulse state.

    Row j of the time-major history is every head at time (j - d) * dt,
    d = delay_steps; a step writes row k + d + 1 from rows k + d and k, and
    a policy gets rows k .. k + d as a C-ordered (N, m) copy, newest first.
    The running reward is summed from the finished history, in step order.

    Returns (payoffs, counts, paths, events): per-path payoffs and impulse
    counts, the (n_paths, n_steps + 1) post-impulse heads (a view of the
    history), and one (k, rows, u) tuple per impulse batch, in time order.
    """
    fixed = isinstance(policy_or_control, ImpulseControl)
    scheduled = _events_by_index(policy_or_control, spec, grid) if fixed else []
    hist = _start_history(spec, grid, noise)
    n_paths, n_steps, d = noise.shape[0], grid.n_steps, grid.delay_steps
    cost = np.zeros(n_paths)
    counts = np.zeros(n_paths, dtype=int)
    events = []

    def jump(k, t, rows, u):
        pre = hist[k + d, rows]
        u = np.broadcast_to(u, pre.shape)
        hist[k + d, rows] = spec.intervention(pre, u)
        cost[rows] += spec.impulse_cost(pre, u, t)
        counts[rows] += 1
        events.append((k, rows, u))

    def act(k, t):
        for idx, u in scheduled:  # every scheduled index is below n_steps
            if idx == k:
                jump(k, t, np.arange(n_paths), u)
        if not fixed and k < n_steps:
            states = np.ascontiguousarray(hist[k:k + d + 1][::-1].T)
            mask, us = policy_or_control.decide_batch(k, states)
            if np.any(mask):
                jump(k, t, np.nonzero(mask)[0], us[mask])

    _advance(spec, grid, noise, hist, 0, n_steps + 1, act)
    running = np.zeros(n_paths)
    for k in range(n_steps):  # row k + d is final once step k has run
        running += spec.running_reward(k * grid.dt, hist[k + d]) * grid.dt
    payoffs = running + spec.terminal_reward(hist[-1]) - cost
    return payoffs, counts, hist[d:].T, events


def estimate_J(spec: ProblemSpec, policy_or_control, noise, grid: TimeGrid):
    """Monte Carlo mean and standard error of the total payoff over the
    paths of `noise`, one per row: a draw_noise_matrix, or a KeyedNoise
    whose path ranges draw their own rows.

    `policy_or_control` is either a fixed ImpulseControl (same events on every
    path) or a policy object with decide_batch, or a list or tuple of them,
    which are all scored on each range's noise and get one (mean, stderr)
    pair each, in order.  The payoffs are filled by path range
    (_over_path_ranges); each mean and stderr is taken over one full row.
    """
    many = isinstance(policy_or_control, (list, tuple))
    runs = list(policy_or_control) if many else [policy_or_control]
    n_paths = noise.shape[0]
    if n_paths < 2:
        raise ValidationError("n_paths must be >= 2")

    def fill(a, b, out):
        part = noise[a:b]
        for row, run in zip(out, runs):
            row[:] = simulate_batch(spec, grid, part, run)[0]

    pairs = [(float(np.mean(payoffs)),
              float(np.std(payoffs, ddof=1) / math.sqrt(n_paths)))
             for payoffs in _over_path_ranges(n_paths, len(runs), fill)]
    return pairs if many else pairs[0]


def noise_cancels(spec: ProblemSpec) -> bool:
    """Whether the registry tags say the drift is affine, the diffusion
    constant and the jump additive.  Then two paths on shared noise that
    differ in one impulse differ by a deterministic linear delay
    recursion, so every path pair of flow_stability_probe has the same
    sup-distance, which the pair on zero noise gives.  A coefficient with
    no tag (built by hand, or replaced) makes this False."""
    kinds = [(structure(f) or (None,))[0]
             for f in (spec.drift, spec.diffusion, spec.intervention)]
    return kinds == ["affine", "constant", "additive"]


def flow_stability_probe(spec: ProblemSpec, pair_a, pairs_b, noise,
                         grid: TimeGrid) -> list:
    """Monte Carlo estimates of E[sup_{s>=t_hat} |X^a_s - X^b_s|^(4+2m)],
    one per pair_b in pairs_b and one path pair per row of `noise` (a
    draw_noise_matrix, or a KeyedNoise whose path ranges draw their own
    rows), where X^a and X^b run under the one-impulse controls (pair_a,)
    and (pair_b,), t_hat is the later pair time and m = 1 (scalar
    impulses).  Steps before k0, the earliest impulse, run once; the
    pair_a run continues in place and each pair_b run restarts at k0 in one
    reused history (t_hat >= t_k0).  The (len(pairs_b), n_paths) sups are
    filled by path range (_over_path_ranges); each moment is the mean over
    one full row."""
    runs = [dict(_events_by_index(ImpulseControl((pair,)), spec, grid))
            for pair in (pair_a, *pairs_b)]
    k_hats = [grid.index_of(max(pair_a[0], pair_b[0])) for pair_b in pairs_b]
    n, d = grid.n_steps, grid.delay_steps
    k0 = min((k for jumps in runs for k in jumps), default=n)

    def fill(a, b, sups):
        part = noise[a:b]
        hist_a = _start_history(spec, grid, part)
        _advance(spec, grid, part, hist_a, 0, k0, lambda k, t: None)
        start = hist_a[k0:k0 + d + 1].copy()

        def run(hist, jumps):
            def act(k, t):
                if k in jumps:
                    x = hist[k + d]
                    x[:] = spec.intervention(
                        x, np.broadcast_to(jumps[k], x.shape))
            _advance(spec, grid, part, hist, k0, n + 1, act)
            return hist[d:].T

        pa = run(hist_a, runs[0])
        hist_b = np.empty_like(hist_a)
        for row, jumps, k_hat in zip(sups, runs[1:], k_hats):
            hist_b[k0:k0 + d + 1] = start
            pb = run(hist_b, jumps)
            # in place in pb's own buffer: no (paths, n - k_hat) temporary
            diff = np.subtract(pa[:, k_hat:], pb[:, k_hat:],
                               out=pb[:, k_hat:])
            np.max(np.abs(diff, out=diff), axis=1, out=row)

    sups = _over_path_ranges(noise.shape[0], len(pairs_b), fill)
    return [float(np.mean(s ** 6)) for s in sups]


def export_trajectories_csv(path, spec: ProblemSpec, policy_or_control,
                            n_paths: int, seed: int, grid: TimeGrid):
    """Write controlled sample paths as CSV rows
    path_id,time,value,impulse_flag,impulse_value."""
    noise = draw_noise_matrix(seed, n_paths, grid)
    _, _, paths, events = simulate_batch(spec, grid, noise, policy_or_control)
    impulses = {}
    for k, rows, us in events:
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
