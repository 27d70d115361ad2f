"""Lifted delay state, transitions, and noise quadratures.

A batch of lifted states is one (N, m) array, newest value first per row.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sddeimpulse import ValidationError
from sddeimpulse.lattice import (NoiseQuadrature, gauss_hermite_quadrature,
                                 impulse_transition_batch,
                                 step_transition_batch,
                                 three_point_quadrature, two_point_quadrature)
from sddeimpulse.simulate import (TimeGrid, draw_noise_matrix,
                                  initial_lifted_state, simulate_batch)
from sddeimpulse.core import ImpulseControl

from test_simulate import feedback_spec, still_spec


QUADS = [gauss_hermite_quadrature(0.01, 7), two_point_quadrature(0.5),
         three_point_quadrature(0.5), gauss_hermite_quadrature(0.25, 3)]


class TestQuadratures:
    @pytest.mark.parametrize("q", QUADS)
    def test_moment_identities(self, q):
        w, z = np.asarray(q.weights), np.asarray(q.nodes)
        assert abs(w.sum() - 1.0) < 1e-12
        assert abs(np.dot(w, z)) < 1e-12
        assert abs(np.dot(w, z * z) - q.dt) < 1e-10

    def test_bad_weights_rejected(self):
        with pytest.raises(ValidationError):
            NoiseQuadrature(nodes=(0.0, 1.0), weights=(0.5, 0.6), dt=1.0)


class TestAugmentedState:
    def test_no_delay_is_scalar_state(self):
        spec = still_spec()
        s = initial_lifted_state(spec, TimeGrid.for_spec(spec, 0.5))
        assert s.shape == (1,)

    def test_zero_history_padding(self):
        spec = feedback_spec()
        s = initial_lifted_state(spec, TimeGrid.for_spec(spec, 0.01))
        assert list(s) == [0.0] * 6

    def test_lift_dimension_from_delay_ratio(self):
        grid = TimeGrid.for_spec(feedback_spec(delay=0.05), 0.01)
        assert grid.delay_steps + 1 == 6

    def test_lags_order_newest_first(self):
        spec = feedback_spec()
        grid = TimeGrid.for_spec(spec, 0.01)
        noise = draw_noise_matrix(3, 1, grid)
        vals = simulate_batch(spec, grid, noise, ImpulseControl())[2][0]
        s = initial_lifted_state(spec, grid)[None, :]
        k = 40
        for j in range(k):
            s = step_transition_batch(s, j * grid.dt, noise[:, j], spec, grid.dt)
        assert s[0, 0] == vals[k]
        assert s[0, 5] == vals[k - 5]


class TestStepTransition:
    def test_pure_shift(self):
        spec = still_spec()
        s = np.array([[3.0, 2.0, 1.0]])
        out = step_transition_batch(s, 0.0, 0.0, spec, 0.5)
        assert list(out[0]) == [3.0, 3.0, 2.0]

    def test_delay_feedback_hand_value(self):
        spec = feedback_spec()
        s = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 2.0]])
        out = step_transition_batch(s, 0.0, 0.0, spec, 0.01)
        assert out[0, 0] == pytest.approx(0.99)
        assert list(out[0, 1:]) == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_quadrature_mean_matches_monte_carlo(self):
        spec = feedback_spec()
        q = gauss_hermite_quadrature(0.01, 7)
        s = np.array([[0.5, 0.1, -0.2, 0.0, 0.3, 0.4]])
        quad_mean = sum(w * step_transition_batch(s, 0.0, z, spec, 0.01)[0, 0]
                        for z, w in zip(q.nodes, q.weights))
        rng = np.random.default_rng(1)
        zs = rng.normal(0.0, np.sqrt(0.01), 40000)
        mc = np.array([step_transition_batch(s, 0.0, z, spec, 0.01)[0, 0]
                       for z in zs[:200]])
        # linear-in-z head: MC mean of the full sample computed directly
        heads = s[0, 0] + (s[0, 0] - s[0, 5]) * 0.01 + zs
        se = heads.std(ddof=1) / np.sqrt(len(zs))
        assert abs(quad_mean - heads.mean()) < 3 * se
        assert mc.shape == (200,)


class TestImpulseTransition:
    def test_additive_on_head_only(self):
        spec = feedback_spec()
        out = impulse_transition_batch(np.zeros((1, 6)), 2.0, spec)
        assert list(out[0]) == [2.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_neutral_impulse_identity(self):
        spec = feedback_spec()
        s = np.array([[0.7, -0.1, 0.0, 0.2, 0.0, 0.0]])
        out = impulse_transition_batch(s, 0.0, spec)
        assert list(out[0]) == list(s[0])

    def test_double_impulse_composes(self):
        spec = feedback_spec()
        s = np.array([[0.5, 0.1, 0.0, 0.0, 0.0, 0.0]])
        once = impulse_transition_batch(impulse_transition_batch(s, 1.0, spec),
                                        -2.0, spec)
        combined = spec.intervention(spec.intervention(0.5, 1.0), -2.0)
        assert once[0, 0] == pytest.approx(combined)

    def test_inadmissible_impulse_rejected(self):
        spec = feedback_spec()
        grid = TimeGrid.for_spec(spec, 0.01)
        with pytest.raises(ValidationError, match="outside admissible set"):
            simulate_batch(spec, grid, draw_noise_matrix(0, 2, grid),
                           ImpulseControl(((0.1, 5.0),)))

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=6),
           st.floats(-2, 2))
    def test_shift_register_property(self, lags, u):
        spec = feedback_spec()
        s = np.array([lags])
        jumped = impulse_transition_batch(s, u, spec)
        assert list(jumped[0, 1:]) == lags[1:]
        stepped = step_transition_batch(s, 0.0, 0.0, spec, 0.01)
        assert list(stepped[0, 1:]) == lags[:-1]
