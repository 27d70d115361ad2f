"""Path simulation, noise streams, Monte Carlo estimates, coupled probes."""

import dataclasses
import math

import numpy as np
import pytest

from sddeimpulse import (ImpulseControl, ImpulseSet, ProblemSpec,
                         ValidationError, build_problem_spec)
from sddeimpulse.simulate import (NoiseDraw, SimulationError, TimeGrid,
                                  coupled_sup_diffs, draw_noise,
                                  draw_noise_matrix, estimate_J,
                                  export_trajectories_csv,
                                  flow_stability_probe, simulate_controlled)

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


class TestNoise:
    def test_reproducible_stream(self):
        g = TimeGrid.for_spec(tiny_spec(), 0.5)
        a = draw_noise(11, 3, g)
        b = draw_noise(11, 3, g)
        assert np.array_equal(a.increments, b.increments)
        assert a.increments.shape == (2,)

    def test_paths_are_distinct(self):
        g = TimeGrid.for_spec(tiny_spec(), 0.5)
        a = draw_noise(11, 0, g)
        b = draw_noise(11, 1, g)
        assert not np.array_equal(a.increments, b.increments)

    def test_matrix_matches_per_path_draws(self):
        g = TimeGrid.for_spec(feedback_spec(), 0.01)
        mat = draw_noise_matrix(5, 4, g)
        for i in range(4):
            assert np.array_equal(mat[i], draw_noise(5, i, g).increments)


class TestSimulateControlled:
    def test_still_dynamics_stay_zero(self):
        spec = still_spec()
        g = TimeGrid.for_spec(spec, 0.5)
        noise = draw_noise(1, 0, g)
        traj = simulate_controlled(spec, ImpulseControl(), noise, g)
        assert np.all(traj.values == 0.0)

    def test_deterministic_jump_only(self):
        spec = still_spec()
        g = TimeGrid.for_spec(spec, 0.5)
        noise = draw_noise(1, 0, g)
        traj = simulate_controlled(spec, ImpulseControl(((0.5, 1.0),)),
                                   noise, g)
        vals = traj.values[traj.offset:]
        assert list(vals) == [0.0, 1.0, 1.0]
        assert len(traj.events) == 1
        ev = traj.events[0]
        assert ev.pre == 0.0 and ev.post == 1.0 and ev.impulse == 1.0

    def test_matches_independent_euler_recursion(self):
        # independent re-implementation of the delayed Euler recursion
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        noise = draw_noise(42, 0, g)
        traj = simulate_controlled(spec, ImpulseControl(), noise, g)

        dt, lag = 0.01, 5
        xs = [0.0]
        hist = [0.0] * lag
        buf = hist + xs
        for k in range(100):
            x = buf[-1]
            x_del = buf[-1 - lag]
            buf.append(x + (x - x_del) * dt + noise.increments[k])
        ref = np.array(buf[lag:])
        assert np.max(np.abs(traj.values[traj.offset:] - ref)) < 1e-12

    @pytest.mark.parametrize("runner", ["fixed_control", "policy_export"])
    def test_overflow_guard(self, runner, tmp_path):
        spec = dataclasses.replace(
            tiny_spec(), drift=lambda t, x, y: 1e12 * (1.0 + np.abs(x)))
        g = TimeGrid.for_spec(spec, 0.5)
        with pytest.raises(SimulationError):
            if runner == "fixed_control":
                simulate_controlled(spec, ImpulseControl(),
                                    draw_noise(1, 0, g), g)
            else:
                export_trajectories_csv(tmp_path / "t.csv", spec,
                                        NeverIntervene(), 2, 1, g)


class TestEstimateJ:
    def test_still_dynamics_zero_mean_zero_stderr(self):
        spec = still_spec()
        g = TimeGrid.for_spec(spec, 0.5)
        mean, se = estimate_J(spec, ImpulseControl(), 64, 7, g)
        assert mean == 0.0 and se == 0.0

    def test_two_seed_consistency(self):
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        m1, s1 = estimate_J(spec, ImpulseControl(), 10000, 1, g)
        m2, s2 = estimate_J(spec, ImpulseControl(), 10000, 2, g)
        assert abs(m1 - m2) < 3.0 * math.hypot(s1, s2)

    def test_fixed_control_matches_branch_average(self):
        # Bernoulli +-sqrt(dt) branches evaluated one by one equal the
        # exact two-step tree average for the same fixed control
        spec = tiny_spec()
        g = TimeGrid.for_spec(spec, 0.5)
        r = math.sqrt(0.5)
        ctrl = ImpulseControl(((0.5, -1.0),))
        from sddeimpulse.core import total_payoff
        vals = []
        for z1 in (-r, r):
            for z2 in (-r, r):
                nd = NoiseDraw(increments=np.array([z1, z2]), seed=0,
                               path_index=0, dt=0.5)
                traj = simulate_controlled(spec, ctrl, nd, g)
                vals.append(total_payoff(spec, traj, ctrl))
        # hand tree sum: E[-(z1-1)^2 * .5 - (z1-1+z2)^2] - 0.2
        expect = -0.5 * (0.5 + 1.0) - (0.5 + 1.0 + 0.5) - 0.2
        assert np.mean(vals) == pytest.approx(expect, abs=1e-12)


class TestCoupledProbe:
    def test_identical_pairs_zero(self):
        spec = feedback_spec()
        g = TimeGrid.for_spec(spec, 0.01)
        sups = coupled_sup_diffs(spec, ImpulseControl(), (0.5, 1.0),
                                 (0.5, 1.0), ImpulseControl(),
                                 draw_noise_matrix(3, 16, g), g)
        assert np.all(sups == 0.0)

    def test_still_dynamics_exact_moment(self):
        spec = still_spec()
        g = TimeGrid.for_spec(spec, 0.5)
        u, v = 1.0, 0.25
        mom = flow_stability_probe(spec, ImpulseControl(), (0.5, u), (0.5, v),
                                   ImpulseControl(), draw_noise_matrix(3, 8, g),
                                   g)
        assert mom == pytest.approx(abs(u - v) ** 6, abs=1e-14)


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
