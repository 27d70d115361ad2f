"""Path simulation, noise streams, Monte Carlo estimates, coupled probes."""

import dataclasses
import functools
import hashlib
import json
import math
import os
import warnings

import numpy as np
import pytest

from sddeimpulse import (ImpulseControl, ImpulseSet, ProblemSpec,
                         ValidationError, bellman, build_problem_spec,
                         simulate)
from sddeimpulse.lattice import gauss_hermite_quadrature
from sddeimpulse.simulate import (KeyedNoise, SimulationError, TimeGrid,
                                  draw_noise, draw_noise_matrix, estimate_J,
                                  export_trajectories_csv,
                                  flow_stability_probe, initial_lifted_state,
                                  noise_cancels, simulate_batch)

from test_core import tiny_spec


def feedback_spec(delay=0.05):
    return build_problem_spec({
        "drift": {"name": "linear_delay_feedback", "a": 1.0, "k_p": 1.0},
        "diffusion": {"name": "constant", "value": 1.0},
        "intervention": {"name": "additive"},
        "running_reward": {"name": "neg_square"},
        "terminal_reward": {"name": "neg_square"},
        "impulse_cost": {"name": "quadratic", "scale": 0.1},
        "initial_segment": {"name": "constant", "value": 0.0},
        "impulse_set": [-2.0, 2.0],
        "horizon": 1.0,
        "delay": delay,
    })


def still_spec():
    z = lambda t, x, y: np.zeros_like(np.asarray(x, dtype=float))
    return dataclasses.replace(tiny_spec(), drift=z, diffusion=z)


class NeverIntervene:
    """Policy stub that always continues."""

    def decide_batch(self, time_index, states):
        n = states.shape[0]
        return np.zeros(n, dtype=bool), np.zeros(n)


class TestTimeGrid:
    def test_step_counts_exact(self):
        g = TimeGrid.for_spec(feedback_spec(), 0.01)
        assert g.n_steps == 100 and g.delay_steps == 5
        assert g.n_steps * g.dt == pytest.approx(1.0)

    def test_nondivisible_delay_rejected(self):
        with pytest.raises(ValidationError):
            TimeGrid.for_spec(feedback_spec(), 0.03)

    def test_nondivisible_horizon_rejected(self):
        spec = dataclasses.replace(tiny_spec(), horizon=0.7)
        with pytest.raises(ValidationError):
            TimeGrid.for_spec(spec, 0.4)


def reference_noise(seed, path_index, grid):
    """Path increments from a freshly constructed generator keyed
    (seed, path_index): the stream definition the noise draws must match."""
    gen = np.random.Generator(np.random.Philox(
        key=np.array([seed, path_index], dtype=np.uint64)))
    return gen.normal(0.0, math.sqrt(grid.dt), grid.n_steps)


class TestNoise:
    def test_reproducible_stream(self):
        g = TimeGrid.for_spec(tiny_spec(), 0.5)
        a = draw_noise(11, 3, g)
        b = draw_noise(11, 3, g)
        assert np.array_equal(a, b)
        assert a.shape == (2,)

    def test_paths_are_distinct(self):
        g = TimeGrid.for_spec(tiny_spec(), 0.5)
        a = draw_noise(11, 0, g)
        b = draw_noise(11, 1, g)
        assert not np.array_equal(a, b)

    def test_high_seeds_keyed_exactly(self):
        # a key list above 2**63 used to go through float64: neighbouring
        # seeds shared a stream and 2**64 - 1 hit an undefined cast
        g = TimeGrid.for_spec(tiny_spec(), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [draw_noise(s, 0, g)
                     for s in (2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1)]
        assert not np.array_equal(draws[0], draws[1])

    def test_matrix_matches_per_path_draws(self):
        g = TimeGrid.for_spec(feedback_spec(), 0.01)
        for seed in (5, 0, 2 ** 63, 2 ** 64 - 1):
            mat = draw_noise_matrix(seed, 4, g)
            for i in range(4):
                assert np.array_equal(mat[i], draw_noise(seed, i, g))
                assert mat[i].tobytes() == reference_noise(seed, i, g).tobytes()

    def test_large_path_index_matches_reference(self):
        g = TimeGrid.for_spec(feedback_spec(), 0.01)
        i = 2 ** 32 + 1
        assert (draw_noise(7, i, g).tobytes()
                == reference_noise(7, i, g).tobytes())

    def test_matrices_share_no_state_across_calls(self):
        g = TimeGrid.for_spec(feedback_spec(), 0.01)
        interleaved = [draw_noise_matrix(s, 3, g) for s in (1, 2, 1, 2)]
        for mat, s in zip(interleaved, (1, 2, 1, 2)):
            assert mat.tobytes() == np.stack(
                [reference_noise(s, i, g) for i in range(3)]).tobytes()

    @pytest.mark.parametrize("a,b", [(0, 513), (3, 300), (256, 257),
                                     (-2, None), (600, 700), (9, 9)])
    def test_keyed_source_slices_the_matrix(self, a, b):
        g = TimeGrid.for_spec(feedback_spec(), 0.01)
        noise = KeyedNoise(2 ** 63 + 3, 513, g)
        want = draw_noise_matrix(2 ** 63 + 3, 513, g)
        assert noise.shape == want.shape
        got = noise[a:b]
        assert got.shape == want[a:b].shape
        assert got.tobytes() == want[a:b].tobytes()
        assert got[:, 3].flags.c_contiguous  # time-major, as the matrix

    def test_empty_matrix_keeps_step_axis(self):
        g = TimeGrid.for_spec(feedback_spec(), 0.01)
        assert draw_noise_matrix(5, 0, g).shape == (0, g.n_steps)

    @pytest.mark.parametrize("n_paths", [0, 1, 255, 256, 257, 513])
    def test_matrix_blocks_match_per_path_draws(self, n_paths):
        # rows are drawn and scaled in blocks of paths; every block edge
        # must keep path i on its own stream, as Generator.normal draws it
        g = TimeGrid.for_spec(tiny_spec(), 0.5)
        mat = draw_noise_matrix(9, n_paths, g)
        assert mat.shape == (n_paths, g.n_steps)
        for i in range(n_paths):
            assert mat[i].tobytes() == draw_noise(9, i, g).tobytes()
            assert mat[i].tobytes() == reference_noise(9, i, g).tobytes()

    @pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
    def test_key_reset_at_block_edges_matches_fresh_generators(self, seed):
        # one bit generator's key and counter are reset for every path;
        # paths on either side of a block edge, at the extreme seeds, draw
        # what a fresh generator keyed (seed, path) draws
        g = TimeGrid.for_spec(feedback_spec(), 0.01)
        mat = draw_noise_matrix(seed, 258, g)
        for i in (0, 255, 256, 257):
            assert mat[i].tobytes() == reference_noise(seed, i, g).tobytes()

    def test_step_columns_contiguous(self):
        g = TimeGrid.for_spec(feedback_spec(), 0.01)
        assert draw_noise_matrix(5, 7, g)[:, 3].flags.c_contiguous


def one_path(spec, grid, control, noise_row):
    """simulate_batch on the single path with increments `noise_row`:
    (payoff, impulse count, post-impulse heads, impulse batches)."""
    payoffs, counts, paths, events = simulate_batch(spec, grid,
                                                    noise_row[None, :], control)
    return payoffs[0], counts[0], paths[0], events


class TestSimulateControlled:
    def test_still_dynamics_stay_zero(self):
        spec = still_spec()
        g = TimeGrid.for_spec(spec, 0.5)
        _, count, path, events = one_path(spec, g, ImpulseControl(),
                                          draw_noise(1, 0, g))
        assert np.all(path == 0.0)
        assert count == 0 and events == []

    def test_deterministic_jump_only(self):
        spec = still_spec()
        g = TimeGrid.for_spec(spec, 0.5)
        payoff, count, path, events = one_path(
            spec, g, ImpulseControl(((0.5, 1.0),)), draw_noise(1, 0, g))
        assert list(path) == [0.0, 1.0, 1.0]
        assert count == 1 and len(events) == 1
        k, rows, us = events[0]
        assert k == 1 and rows.tolist() == [0] and us.tolist() == [1.0]
        # running -(1*1)*0.5 after the jump, terminal -1, fee 0.1*(1+1)
        assert payoff == pytest.approx(-1.7, abs=1e-12)

    def test_matches_independent_euler_recursion(self):
        # independent re-implementation of the delayed Euler recursion
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        noise = draw_noise(42, 0, g)
        _, _, path, _ = one_path(spec, g, ImpulseControl(), noise)

        dt, lag = 0.01, 5
        xs = [0.0]
        hist = [0.0] * lag
        buf = hist + xs
        for k in range(100):
            x = buf[-1]
            x_del = buf[-1 - lag]
            buf.append(x + (x - x_del) * dt + noise[k])
        ref = np.array(buf[lag:])
        assert np.max(np.abs(path - ref)) < 1e-12

    @pytest.mark.parametrize("runner", ["fixed_control", "policy_export"])
    def test_overflow_guard(self, runner, tmp_path):
        spec = dataclasses.replace(
            tiny_spec(), drift=lambda t, x, y: 1e12 * (1.0 + np.abs(x)))
        g = TimeGrid.for_spec(spec, 0.5)
        with pytest.raises(SimulationError):
            if runner == "fixed_control":
                one_path(spec, g, ImpulseControl(), draw_noise(1, 0, g))
            else:
                export_trajectories_csv(tmp_path / "t.csv", spec,
                                        NeverIntervene(), 2, 1, g)


class RecordingPolicy:
    """Policy stub that keeps a copy of every state batch it is given and
    moves every head by `u` at step `k_jump`."""

    def __init__(self, k_jump, u):
        self.k_jump, self.u, self.seen = k_jump, u, []

    def decide_batch(self, time_index, states):
        self.seen.append((time_index, states.flags.c_contiguous,
                          states.copy()))
        n = states.shape[0]
        return np.full(n, time_index == self.k_jump), np.full(n, self.u)


class TestPolicyWindows:
    def test_states_are_newest_first_windows_of_the_paths(self):
        # a sloped initial segment, so every lag column has its own value
        spec = dataclasses.replace(feedback_spec(),
                                   initial_segment=lambda t: 1.0 + 3.0 * t)
        g = TimeGrid.for_spec(spec, 0.01)
        d, k_jump = g.delay_steps, 10
        assert d >= 2
        policy = RecordingPolicy(k_jump, 5.0)
        _, counts, paths, _ = simulate_batch(
            spec, g, draw_noise_matrix(4, 6, g), policy)
        assert counts.tolist() == [1] * 6
        segment = initial_lifted_state(spec, g)
        assert [k for k, _, _ in policy.seen] == list(range(g.n_steps))
        for k, contiguous, states in policy.seen:
            assert contiguous and states.shape == (6, d + 1)
            for j in range(d + 1):
                if (k, j) == (k_jump, 0):
                    continue  # decided on before the jump, checked below
                want = paths[:, k - j] if j <= k else segment[j - k]
                assert np.array_equal(states[:, j], np.broadcast_to(want, (6,)))
        # the post-impulse head, not the pre-impulse one, fills later lags
        post = paths[:, k_jump]
        pre = policy.seen[k_jump][2][:, 0]
        assert np.array_equal(post, pre + 5.0)
        for j in range(1, d + 1):
            assert np.array_equal(policy.seen[k_jump + j][2][:, j], post)


class LagPolicy:
    """Deterministic policy stub that reads the head and the oldest lag."""

    def decide_batch(self, time_index, states):
        return states[:, 0] - states[:, -1] > 0.25, -0.5 * states[:, 0]


class TestGoldenBits:
    """Engine and probe outputs pinned bit for bit (64 paths, seed 17)."""

    def run(self, control):
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        payoffs, counts, _, _ = simulate_batch(
            spec, g, draw_noise_matrix(17, 64, g), control)
        return (hashlib.sha256(payoffs.tobytes()).hexdigest(),
                payoffs[0].hex(), int(counts.sum()))

    def test_fixed_control_payoffs(self):
        assert self.run(ImpulseControl(((0.25, 1.0),))) == (
            "5d625e61579f5ba1c5e31d63bb9c92cddcfac25f12e88b1567c7c5dec0250983",
            "-0x1.5ce321809652cp-1", 64)

    def test_policy_payoffs(self):
        assert self.run(LagPolicy()) == (
            "84b11c03b9e3d3c1f24b06c3a6f20e0cad60806533a550399ff007d9011161fa",
            "-0x1.60736ba2f894cp+0", 700)

    def test_flow_moments(self):
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        moments = flow_stability_probe(
            spec, (0.5, 1.0), [(0.5, 0.5), (0.55, 1.0), (0.45, -1.0)],
            draw_noise_matrix(17, 64, g), g)
        assert [m.hex() for m in moments] == [
            "0x1.5c417ad23697ap-6", "0x1.2ea8d6f1fc6d0p-26",
            "0x1.5c417ad23696cp+6"]


class TestEstimateJ:
    def test_still_dynamics_zero_mean_zero_stderr(self):
        spec = still_spec()
        g = TimeGrid.for_spec(spec, 0.5)
        mean, se = estimate_J(spec, ImpulseControl(),
                              draw_noise_matrix(7, 64, g), g)
        assert mean == 0.0 and se == 0.0

    def test_two_seed_consistency(self):
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        m1, s1 = estimate_J(spec, ImpulseControl(),
                            draw_noise_matrix(1, 10000, g), g)
        m2, s2 = estimate_J(spec, ImpulseControl(),
                            draw_noise_matrix(2, 10000, g), g)
        assert abs(m1 - m2) < 3.0 * math.hypot(s1, s2)

    def test_fixed_control_matches_branch_average(self):
        # Bernoulli +-sqrt(dt) branches, one path each, average to the
        # exact two-step tree average for the same fixed control
        spec = tiny_spec()
        g = TimeGrid.for_spec(spec, 0.5)
        r = math.sqrt(0.5)
        branches = np.array([(z1, z2) for z1 in (-r, r) for z2 in (-r, r)])
        vals = simulate_batch(spec, g, branches,
                              ImpulseControl(((0.5, -1.0),)))[0]
        # hand tree sum: E[-(z1-1)^2 * .5 - (z1-1+z2)^2] - 0.2
        expect = -0.5 * (0.5 + 1.0) - (0.5 + 1.0 + 0.5) - 0.2
        assert np.mean(vals) == pytest.approx(expect, abs=1e-12)


CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "configs")


def shipped_problem(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        return json.load(fh)["problem"]


class TestNoiseCancels:
    @pytest.mark.parametrize("name", ["tiny1.json", "tiny2.json",
                                      "delay_feedback_reduced.json",
                                      "delay_feedback.json",
                                      "delay_feedback_lift3.json"])
    def test_holds_on_every_shipped_config(self, name):
        assert noise_cancels(build_problem_spec(shipped_problem(name)))

    def test_fails_for_a_clamped_jump(self):
        problem = shipped_problem("delay_feedback.json")
        problem["intervention"] = {"name": "additive_clamped", "limit": 10.0}
        assert not noise_cancels(build_problem_spec(problem))

    def test_fails_for_a_replaced_diffusion(self):
        # the same constant, but no tag says so
        spec = dataclasses.replace(
            feedback_spec(), diffusion=lambda t, x, y: np.ones_like(x))
        assert noise_cancels(feedback_spec())
        assert not noise_cancels(spec)

    def test_fails_for_a_hand_built_spec(self):
        assert not noise_cancels(tiny_spec())


class TestCoupledProbe:
    def test_identical_pairs_zero(self):
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        # the moment is 0.0 exactly when every path's sup is
        assert flow_stability_probe(spec, (0.5, 1.0), [(0.5, 1.0)],
                                    draw_noise_matrix(3, 16, g), g) == [0.0]

    def test_repeated_pair_same_moment(self):
        # each moment's in-place difference must leave the base paths alone
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        p = (0.3, -1.0)
        a, b = flow_stability_probe(spec, (0.5, 1.0), [p, p],
                                    draw_noise_matrix(3, 16, g), g)
        assert a == b and a > 0.0

    def test_still_dynamics_exact_moment(self):
        spec = still_spec()
        g = TimeGrid.for_spec(spec, 0.5)
        u, v = 1.0, 0.25
        [mom] = flow_stability_probe(spec, (0.5, u), [(0.5, v)],
                                     draw_noise_matrix(3, 8, g), g)
        assert mom == pytest.approx(abs(u - v) ** 6, abs=1e-14)


def reference_flow_probe(spec, pair_a, pairs_b, noise, grid):
    """The flow moments from one independent full-horizon simulate_batch
    run per control: the probe without a shared prefix."""
    pa = simulate_batch(spec, grid, noise, ImpulseControl((pair_a,)))[2]
    moments = []
    for pair_b in pairs_b:
        pb = simulate_batch(spec, grid, noise, ImpulseControl((pair_b,)))[2]
        k_hat = grid.index_of(max(pair_a[0], pair_b[0]))
        sups = np.max(np.abs(pa[:, k_hat:] - pb[:, k_hat:]), axis=1)
        moments.append(float(np.mean(sups ** 6)))
    return moments


def blow_up_at(t_blow, threshold):
    """feedback_spec whose drift pushes every head above `threshold` past
    the overflow limit in the Euler step at time t_blow."""
    def drift(t, x, y):
        hit = (abs(t - t_blow) < 1e-9) & (x > threshold)
        return np.where(hit, 1e12, x - y)
    return dataclasses.replace(feedback_spec(), drift=drift)


class TestSharedPrefix:
    """The probe steps the uncontrolled prefix before the earliest impulse
    once; every case must match independent full runs bit for bit."""

    def check(self, spec, pair_a, pairs_b, n_paths=32, seed=5):
        g = TimeGrid.for_spec(spec, 0.01)
        noise = draw_noise_matrix(seed, n_paths, g)
        got = flow_stability_probe(spec, pair_a, pairs_b, noise, g)
        want = reference_flow_probe(spec, pair_a, pairs_b, noise, g)
        assert [m.hex() for m in got] == [m.hex() for m in want]
        return got

    def test_offset_earlier_than_base(self):
        moments = self.check(feedback_spec(), (0.5, 1.0),
                             [(0.7, 0.5), (0.3, -1.0), (0.5, -0.5)])
        assert all(m > 0.0 for m in moments)

    @pytest.mark.parametrize("pair_a,pairs_b", [
        ((0.0, 1.0), [(0.4, -1.0), (0.0, 0.5)]),
        ((0.5, 1.0), [(0.0, -2.0)])], ids=["base", "offset"])
    def test_pair_at_time_zero_shares_nothing(self, pair_a, pairs_b):
        self.check(feedback_spec(), pair_a, pairs_b)

    @pytest.mark.parametrize("pair_a,pairs_b", [
        ((0.5, 1.0), [(1.0, 2.0), (0.6, 0.5)]),
        ((1.0, 1.0), [(0.6, 0.5), (1.0, -1.0)])],
        ids=["offset", "base_and_offset"])
    def test_pair_at_horizon_is_inert(self, pair_a, pairs_b):
        self.check(feedback_spec(), pair_a, pairs_b)

    def test_every_pair_at_horizon(self):
        # no impulse at all: the whole horizon is the shared prefix and the
        # moments are the terminal gaps, all zero
        assert self.check(feedback_spec(), (1.0, 1.0),
                          [(1.0, -1.0)]) == [0.0]

    @pytest.mark.parametrize("pair", [(0.5, 2.5), (1.5, 1.0), (-0.1, 1.0),
                                      (0.505, 1.0)],
                             ids=["impulse", "late", "early", "off_grid"])
    @pytest.mark.parametrize("side", ["base", "offset"])
    def test_invalid_pair_raises(self, pair, side):
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        noise = draw_noise_matrix(5, 4, g)
        args = ((pair, [(0.5, 1.0)]) if side == "base"
                else ((0.5, 1.0), [(0.6, 1.0), pair]))
        with pytest.raises(ValidationError) as want:
            reference_flow_probe(spec, *args, noise, g)
        with pytest.raises(ValidationError) as got:
            flow_stability_probe(spec, *args, noise, g)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("t_blow,threshold,u_b,step", [
        (0.2, 1.0, 0.5, 21),   # before k0 = 30: in the shared prefix
        (0.6, 3.0, 2.0, 61)],  # after it, in the offset's run only
        ids=["prefix", "suffix"])
    def test_overflow_reports_step_and_path(self, t_blow, threshold, u_b,
                                            step):
        spec = blow_up_at(t_blow, threshold)
        g = TimeGrid.for_spec(spec, 0.01)
        noise = draw_noise_matrix(5, 64, g)
        args = ((0.5, -2.0), [(0.3, u_b)], noise, g)
        with pytest.raises(SimulationError) as want:
            reference_flow_probe(spec, *args)
        with pytest.raises(SimulationError) as got:
            flow_stability_probe(spec, *args)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"state overflow at step {step} ")
        assert "(path 0)" not in str(got.value)

    def test_clamped_jump_at_k0_recovers_overflowed_head(self):
        # the prefix's last Euler step writes the positive heads past
        # OVERFLOW_LIMIT; every run's jump at k0 clamps them back to 5
        # before the row is checked, and a run without a jump there raises
        spec = build_problem_spec({
            "drift": {"name": "zero"},
            "diffusion": {"name": "constant", "value": 1.0},
            "intervention": {"name": "additive_clamped", "limit": 5.0},
            "running_reward": {"name": "neg_square"},
            "terminal_reward": {"name": "neg_square"},
            "impulse_cost": {"name": "quadratic", "scale": 0.1},
            "initial_segment": {"name": "constant", "value": 0.0},
            "impulse_set": [-2.0, 2.0],
            "horizon": 1.0,
            "delay": 0.05,
        })
        spec = dataclasses.replace(spec, drift=lambda t, x, y: np.where(
            (abs(t - 0.49) < 1e-9) & (x > 0.0), 1e13, 0.0))
        moments = self.check(spec, (0.5, -1.0), [(0.5, 1.0), (0.5, -2.0)])
        assert moments[0] > 0.0 and moments[1] > 0.0
        g = TimeGrid.for_spec(spec, 0.01)
        with pytest.raises(SimulationError, match="at step 50 "):
            flow_stability_probe(spec, (0.5, -1.0), [(0.6, 1.0)],
                                 draw_noise_matrix(5, 4, g), g)


def path_fill(bad=(), warn=()):
    """A fill writing column c as c + row, raising on the first bad path of
    its range and warning on each warn path."""
    def fill(a, b, out):
        for c in range(a, b):
            if c in bad:
                raise ValueError(f"bad path {c}")
            if c in warn:
                warnings.warn(f"odd path {c}")
            out[:, c - a] = c + np.arange(out.shape[0])
    return fill


@functools.lru_cache(maxsize=None)
def lift3_policy(backend):
    """(spec, grid, Policy of levels 2 over 1) of a lift-3 solve on the
    "grid" or "regression" backend (degree 3: 4 head powers, 10 lag
    columns), started at 1.5 so that the policy acts."""
    spec = dataclasses.replace(
        feedback_spec(delay=0.02), horizon=0.2,
        initial_segment=lambda t: np.full(np.shape(t), 1.5))
    grid = TimeGrid.for_spec(spec, 0.01)
    quad = gauss_hermite_quadrature(0.01, 3)
    ug = spec.impulse_set.grid(5)
    solver = (bellman.GridBackend(np.linspace(-4.0, 4.0, 9))
              if backend == "grid"
              else bellman.RegressionBackend(degree=3, n_samples=200))
    its, _ = bellman.k_value_iteration(spec, grid, solver, quad, ug,
                                       k_max=2, tol=1e-12)
    return spec, grid, bellman.Policy(its[2], its[1], spec, ug, quad)


class TestPathRanges:
    """Path ranges filled in forked workers give the serial bytes, the
    serial errors, and leave no process behind."""

    # (n_paths, floor, cores): edges inside a BLOCK, n below the floor, n 0
    CASES = [(600, 1, 2), (600, 1, 3), (5, 8, 3), (0, 1, 3)]

    @staticmethod
    def forks(n, floor, cores):
        workers = min(cores, n // floor)
        return workers - 1 if workers >= 2 else 0

    @pytest.mark.parametrize("n,floor,cores", CASES)
    def test_noise_bytes_do_not_depend_on_workers(self, forking, n, floor,
                                                  cores):
        g = TimeGrid.for_spec(feedback_spec(), 0.01)
        forked = forking(1)
        want = draw_noise_matrix(2 ** 63 + 3, n, g)
        assert forked == []
        forked = forking(cores, floor)
        got = draw_noise_matrix(2 ** 63 + 3, n, g)
        assert forked == []  # the matrix is drawn in-process
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got[:, 3].flags.c_contiguous

    @pytest.mark.parametrize("n,floor,cores", CASES)
    def test_probe_moments_do_not_depend_on_workers(self, forking, n, floor,
                                                    cores):
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        args = ((0.5, 1.0), [(0.7, 0.5), (0.3, -1.0), (0.5, 1.0)])
        noise = draw_noise_matrix(5, n, g)
        forking(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the mean of no paths warns
            want = flow_stability_probe(spec, *args, noise, g)
            forked = forking(cores, floor)
            got = flow_stability_probe(spec, *args, noise, g)
        assert len(forked) == self.forks(n, floor, cores)
        assert [m.hex() for m in got] == [m.hex() for m in want]

    PROBE = ((0.5, 1.0), [(0.7, 0.5), (0.3, -1.0), (0.5, 1.0)])
    RUNS = [LagPolicy(), ImpulseControl(((0.25, 1.0),))]

    def keyed_results(self, spec, g, noise, forked):
        """Moments and payoff pairs as .hex(), and the forks of each call."""
        counts = [len(forked)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the mean of no paths warns
            moments = [m.hex() for m in
                       flow_stability_probe(spec, *self.PROBE, noise, g)]
        counts.append(len(forked))
        try:
            payoffs = [[x.hex() for x in pair]
                       for pair in estimate_J(spec, self.RUNS, noise, g)]
        except ValidationError as e:  # fewer than two paths
            payoffs = str(e)
        counts.append(len(forked))
        return moments, payoffs, [b - a for a, b in zip(counts, counts[1:])]

    @pytest.mark.parametrize("n,floor,cores", CASES)
    def test_keyed_source_gives_the_matrix_bits(self, forking, n, floor,
                                                cores):
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        forked = forking(1)
        want = self.keyed_results(spec, g, draw_noise_matrix(5, n, g),
                                  forked)
        forked = forking(cores, floor)
        got = self.keyed_results(spec, g, KeyedNoise(5, n, g), forked)
        assert got[:2] == want[:2]
        # one set of workers per call; below 2 paths the estimate raises
        # before it forks
        forks = self.forks(n, floor, cores)
        assert got[2] == [forks, forks if n >= 2 else 0]

    def test_workers_draw_their_own_rows_and_never_fork(self, forking,
                                                        monkeypatch):
        # os.fork raises in every process but this one: a worker that
        # forked again would fail its range and bring a serial rerun,
        # which would draw every row a second time
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        n = 600
        forked = forking(1)
        want = self.keyed_results(spec, g, draw_noise_matrix(5, n, g),
                                  forked)
        forked = forking(3)
        counting_fork, me = os.fork, os.getpid()

        def fork_here_only():
            if os.getpid() != me:
                raise OSError("a worker forked")
            return counting_fork()

        drawn = simulate.shared_array((n,))
        real = simulate._keyed_normal_rows

        def counting(seed, paths, grid):
            drawn[np.asarray(paths, dtype=int)] += 1
            return real(seed, paths, grid)

        monkeypatch.setattr(os, "fork", fork_here_only)
        monkeypatch.setattr(simulate, "_keyed_normal_rows", counting)
        got = self.keyed_results(spec, g, KeyedNoise(5, n, g), forked)
        assert got[:2] == want[:2]
        assert got[2] == [2, 2]
        assert drawn.tolist() == [2.0] * n  # once by each call

    def test_golden_flow_moments_forked(self, forking):
        forked = forking(3)
        TestGoldenBits().test_flow_moments()
        assert len(forked) == 2  # two workers for the probe, none for noise

    @pytest.mark.parametrize("t_blow,threshold,u_b,step", [
        (0.2, 1.0, 0.5, 21),   # path 30: a child's range fails
        (0.6, 3.0, 2.0, 61)],  # path 9: the parent's own range fails
        ids=["prefix", "suffix"])
    def test_overflow_reports_step_and_path(self, forking, t_blow, threshold,
                                            u_b, step):
        forked = forking(3)
        TestSharedPrefix().test_overflow_reports_step_and_path(
            t_blow, threshold, u_b, step)
        assert len(forked) == 2  # two workers for the probe, none for noise

    def test_earlier_child_overflow_wins(self, forking):
        # the parent's own paths 0..20 overflow only at step 61, path 30 in
        # a child's range at step 21: the serial error names step 21
        early, late = blow_up_at(0.2, 1.0).drift, blow_up_at(0.6, 3.0).drift
        spec = dataclasses.replace(feedback_spec(), drift=lambda t, x, y:
                                   np.maximum(early(t, x, y), late(t, x, y)))
        g = TimeGrid.for_spec(spec, 0.01)
        noise = draw_noise_matrix(5, 64, g)
        args = (spec, (0.5, -2.0), [(0.3, 2.0)], noise, g)
        with pytest.raises(SimulationError) as want:
            reference_flow_probe(*args)
        forked = forking(3)
        with pytest.raises(SimulationError) as got:
            flow_stability_probe(*args)
        assert len(forked) == 2
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("state overflow at step 21 (path 30)")

    @pytest.mark.parametrize("kind", ["grid", "regression", "fixed"])
    @pytest.mark.parametrize("n,floor,cores", CASES)
    def test_payoffs_do_not_depend_on_workers(self, forking, monkeypatch,
                                              kind, n, floor, cores):
        # 64-column lag products: the regression policy's 600 paths span
        # ten, a worker's 200 or 300 paths four or five
        monkeypatch.setattr(bellman, "SERIAL_PRODUCT", 4 * 10 * 64)
        spec, g, policy = lift3_policy(kind)
        if kind == "fixed":
            policy = ImpulseControl(((0.05, 1.0), (0.1, -0.5)))
        noise = draw_noise_matrix(9, n, g)

        def payoff():
            try:
                return [x.hex() for x in estimate_J(spec, policy, noise, g)]
            except ValidationError as e:  # fewer than two paths
                return str(e)

        forking(1)
        want = payoff()
        forked = forking(cores, floor)
        assert payoff() == want
        assert len(forked) == self.forks(n, floor, cores)

    @pytest.mark.parametrize("kind", ["grid", "regression", "fixed"])
    @pytest.mark.parametrize("n,floor,cores", CASES)
    def test_scoring_together_equals_scoring_alone(self, forking,
                                                    monkeypatch, kind, n,
                                                    floor, cores):
        monkeypatch.setattr(bellman, "SERIAL_PRODUCT", 4 * 10 * 64)
        spec, g, policy = lift3_policy(kind)
        if kind == "fixed":
            policy = ImpulseControl(((0.05, 1.0), (0.1, -0.5)))
        noise = draw_noise_matrix(9, n, g)

        def hexed(runs):
            try:
                got = estimate_J(spec, runs, noise, g)
            except ValidationError as e:  # fewer than two paths
                return str(e)
            return [[x.hex() for x in pair]
                    for pair in (got if isinstance(runs, list) else [got])]

        forking(1)
        alone = [hexed(policy), hexed(ImpulseControl())]
        for force in (1, cores):
            forked = forking(force, floor)
            before = len(forked)
            together = hexed([policy, ImpulseControl()])
            if n < 2:
                assert together == alone[0] == alone[1] == (
                    "n_paths must be >= 2")
            else:
                assert together == alone[0] + alone[1]
            assert len(forked) - before == (
                self.forks(n, floor, force) if n >= 2 else 0)

    def test_policy_overflow_in_a_child_raises_the_serial_error(self,
                                                                 forking):
        # path 30, in a child's range, overflows at step 21; the parent's
        # own range 0..20 only at step 41
        early, late = blow_up_at(0.2, 1.0).drift, blow_up_at(0.4, 1.3).drift
        spec = dataclasses.replace(feedback_spec(), drift=lambda t, x, y:
                                   np.maximum(early(t, x, y), late(t, x, y)))
        g = TimeGrid.for_spec(spec, 0.01)
        noise = draw_noise_matrix(5, 64, g)
        with pytest.raises(SimulationError) as own:
            simulate_batch(spec, g, noise[:21], NeverIntervene())
        assert str(own.value).startswith("state overflow at step 41 ")
        with pytest.raises(SimulationError) as want:
            simulate_batch(spec, g, noise, NeverIntervene())
        forked = forking(3)
        with pytest.raises(SimulationError) as got:
            estimate_J(spec, NeverIntervene(), noise, g)
        assert len(forked) == 2
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("state overflow at step 21 (path 30)")

    def test_scoring_together_raises_a_childs_serial_overflow(self,
                                                              forking):
        # as above, with the never-intervene control scored after the
        # policy on each range's noise
        early, late = blow_up_at(0.2, 1.0).drift, blow_up_at(0.4, 1.3).drift
        spec = dataclasses.replace(feedback_spec(), drift=lambda t, x, y:
                                   np.maximum(early(t, x, y), late(t, x, y)))
        g = TimeGrid.for_spec(spec, 0.01)
        with pytest.raises(SimulationError) as want:
            simulate_batch(spec, g, draw_noise_matrix(5, 64, g),
                           NeverIntervene())
        forked = forking(3)
        with pytest.raises(SimulationError) as got:
            estimate_J(spec, [NeverIntervene(), ImpulseControl()],
                       KeyedNoise(5, 64, g), g)
        assert len(forked) == 2
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("state overflow at step 21 (path 30)")

    @pytest.mark.parametrize("bad,message", [
        ({50, 25}, "bad path 25"),  # the children's ranges
        ({50, 5}, "bad path 5")],   # the parent's range too
        ids=["child", "parent"])
    def test_failed_range_raises_the_serial_error(self, forking, bad,
                                                  message):
        forked = forking(3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate._over_path_ranges(60, 2, path_fill(bad=bad))
        assert len(forked) == 2

    def test_child_warning_is_shown_once_by_the_parent(self, forking):
        forked = forking(3)
        with pytest.warns(UserWarning) as record:
            out = simulate._over_path_ranges(60, 2, path_fill(warn={45}))
        assert len(forked) == 2
        assert [str(w.message) for w in record] == ["odd path 45"]
        assert out.tobytes() == simulate._over_path_ranges(
            60, 2, path_fill()).tobytes()

    def test_in_process_without_fork(self, forking, monkeypatch):
        forked = forking(3)
        monkeypatch.delattr(os, "fork")
        out = simulate._over_path_ranges(60, 2, path_fill())
        assert forked == []
        assert out.tobytes() == (np.arange(60) + np.arange(2)[:, None]
                                 ).astype(float).tobytes()

    @pytest.mark.parametrize("count,cores", [(3, 3), (None, 1)])
    def test_core_count_without_affinity(self, monkeypatch, count, cores):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert simulate._usable_cores() == cores


class TestTrajectoryExport:
    def test_same_seed_byte_identical(self, tmp_path):
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        ctrl = ImpulseControl(((0.25, 1.0),))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trajectories_csv(p1, spec, ctrl, 3, 9, g)
        export_trajectories_csv(p2, spec, ctrl, 3, 9, g)
        assert p1.read_bytes() == p2.read_bytes()

    def test_impulse_rows_marked(self, tmp_path):
        spec = still_spec()
        g = TimeGrid.for_spec(spec, 0.5)
        p = tmp_path / "t.csv"
        export_trajectories_csv(p, spec, ImpulseControl(((0.5, 1.0),)), 1, 0, g)
        rows = p.read_text().strip().split("\n")
        assert rows[0] == "path_id,time,value,impulse_flag,impulse_value"
        flags = [r.split(",")[3] for r in rows[1:]]
        assert flags == ["0", "1", "0"]
