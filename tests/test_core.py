"""Problem specs, fixed controls, payoff evaluation, assumption probes."""

import dataclasses
import math

import numpy as np
import pytest

from sddeimpulse import (ImpulseControl, ImpulseSet, ProblemSpec,
                         ValidationError, build_problem_spec, check_assumptions)
from sddeimpulse.core import _REGISTRY, structure
from sddeimpulse.simulate import TimeGrid, simulate_batch


def tiny_spec():
    # driftless unit-noise scalar problem, squared penalties, T = 1
    return ProblemSpec(
        horizon=1.0,
        delay=0.0,
        drift=lambda t, x, y: np.zeros_like(np.asarray(x, dtype=float)),
        diffusion=lambda t, x, y: np.ones_like(np.asarray(x, dtype=float)),
        intervention=lambda x, u: x + u,
        running_reward=lambda t, x: -(x * x),
        impulse_cost=lambda x, u, t: 0.1 * (1.0 + u * u),
        terminal_reward=lambda x: -(x * x),
        impulse_set=ImpulseSet(-1.0, 1.0),
        initial_segment=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
    )


class TestImpulseSet:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValidationError):
            ImpulseSet(1.0, -1.0)

    def test_grid_endpoints(self):
        g = ImpulseSet(-2.0, 2.0).grid(5)
        assert list(g) == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            ImpulseSet(0.0, math.inf)


class TestImpulseControl:
    def test_decreasing_times_rejected(self):
        with pytest.raises(ValidationError):
            ImpulseControl(((0.5, 0.0), (0.2, 0.0)))

    def test_equal_times_fine(self):
        c = ImpulseControl(((0.5, 1.0), (0.5, -1.0)))
        assert len(c.events) == 2


class TestTotalPayoff:
    """simulate_batch's per-path payoffs against sums written out by hand."""

    def test_zero_path_zero_value(self):
        spec = tiny_spec()
        grid = TimeGrid.for_spec(spec, 0.5)
        payoffs = simulate_batch(spec, grid, np.zeros((1, 2)),
                                 ImpulseControl())[0]
        assert payoffs.tolist() == [0.0]

    def test_constant_path_left_endpoint_rule(self):
        # x == 1 on two half steps: running -2*(1*0.5), terminal -1
        spec = dataclasses.replace(
            tiny_spec(),
            diffusion=lambda t, x, y: np.zeros_like(np.asarray(x, dtype=float)),
            initial_segment=lambda t: np.ones_like(np.asarray(t, dtype=float)))
        grid = TimeGrid.for_spec(spec, 0.5)
        payoffs = simulate_batch(spec, grid, np.zeros((1, 2)),
                                 ImpulseControl())[0]
        assert payoffs[0] == pytest.approx(-2.0)

    def test_single_impulse_hand_sum(self):
        # impulse -1 at t=0.5 on each noise branch, one path per branch,
        # checked against the discrete sum written out by hand
        spec = tiny_spec()
        grid = TimeGrid.for_spec(spec, 0.5)
        r = math.sqrt(0.5)
        branches = [(z1, z2) for z1 in (-r, r) for z2 in (-r, r)]
        payoffs = simulate_batch(spec, grid, np.array(branches),
                                 ImpulseControl(((0.5, -1.0),)))[0]
        for (z1, z2), payoff in zip(branches, payoffs):
            x_half = z1 - 1.0
            x_end = x_half + z2
            expect = -(0.0 + x_half ** 2) * 0.5 - x_end ** 2 - 0.2
            assert payoff == pytest.approx(expect, abs=1e-12)


class TestCheckAssumptions:
    def test_zero_cost_fails_with_witness(self):
        spec = dataclasses.replace(tiny_spec(),
                                   impulse_cost=lambda x, u, t: 0.0 * u)
        report = check_assumptions(spec, sample_budget=500, rng_seed=3)
        bad = report["impulse_cost_positive"]
        assert not bad.passed
        assert len(bad.witness) == 3

    def test_clamped_jump_growth_passes(self):
        spec = dataclasses.replace(
            tiny_spec(),
            intervention=lambda x, u: np.clip(x + u, -5.0, 5.0),
            impulse_set=ImpulseSet(-2.0, 2.0))
        report = check_assumptions(spec, sample_budget=2000, rng_seed=3,
                                   growth_bound=7.0)
        assert report["intervention_growth"].passed

    def test_quadratic_cost_passes_floor(self):
        report = check_assumptions(tiny_spec(), sample_budget=2000, rng_seed=3)
        assert report["impulse_cost_positive"].passed

    def test_budget_validated(self):
        with pytest.raises(ValidationError):
            check_assumptions(tiny_spec(), sample_budget=0, rng_seed=1)


class TestRegistry:
    BASE = {
        "drift": {"name": "linear_delay_feedback", "a": 1.0, "k_p": 1.0},
        "diffusion": {"name": "constant", "value": 1.0},
        "intervention": {"name": "additive"},
        "running_reward": {"name": "neg_square"},
        "terminal_reward": {"name": "neg_square"},
        "impulse_cost": {"name": "quadratic", "scale": 0.1},
        "initial_segment": {"name": "constant", "value": 0.0},
        "impulse_set": [-2.0, 2.0],
        "horizon": 1.0,
        "delay": 0.05,
    }

    def test_round_trip_values(self):
        spec = build_problem_spec(self.BASE)
        assert spec.horizon == 1.0 and spec.delay == 0.05
        assert spec.drift(0.0, 1.0, 2.0) == pytest.approx(-1.0)
        assert spec.impulse_cost(0.0, 2.0, 0.0) == pytest.approx(0.5)
        assert spec.running_reward(0.0, 3.0) == pytest.approx(-9.0)
        assert spec.terminal_reward(-2.0) == pytest.approx(-4.0)
        assert float(spec.initial_segment(-0.03)) == 0.0
        assert spec.impulse_set.lower == -2.0 and spec.impulse_set.upper == 2.0

    def test_unknown_drift_name(self):
        cfg = dict(self.BASE, drift={"name": "mystery"})
        with pytest.raises(ValidationError):
            build_problem_spec(cfg)

    def test_unknown_parameter_key(self):
        cfg = dict(self.BASE,
                   drift={"name": "linear_delay_feedback", "a": 1.0,
                          "k_p": 1.0, "typo": 3.0})
        with pytest.raises(ValidationError):
            build_problem_spec(cfg)

    def test_negative_horizon_rejected(self):
        cfg = dict(self.BASE, horizon=-1.0)
        with pytest.raises(ValidationError):
            build_problem_spec(cfg)

    def test_unknown_name_that_is_not_a_string(self):
        for name in (["zero"], {"zero": 1}, 3, None):
            cfg = dict(self.BASE, drift={"name": name})
            with pytest.raises(ValidationError,
                               match="unknown drift registry name"):
                build_problem_spec(cfg)


# Array inputs whose shapes differ, so each coefficient's broadcast shape shows
_T = np.array([[0.1], [0.7]])
_X = np.array([[-3.5, -0.25, 0.0], [0.5, 1.75, 4.0]])
_Y = np.array([2.25, -1.5, 0.75])
_U = np.array([[-2.0, 0.5, 1.25]])
_ARGS = {"drift": (_T, _X, _Y), "diffusion": (_T, _X, _Y),
         "intervention": (_X, _U), "running_reward": (_T, _X),
         "terminal_reward": (_X,), "impulse_cost": (_X, _U, _T),
         "initial_segment": (_T,)}

# Every registry entry, with its closed form on the _ARGS of its family
REGISTRY_ENTRIES = [
    ("drift", {"name": "zero"}, lambda t, x, y: np.zeros((2, 3))),
    ("drift", {"name": "linear_delay_feedback", "a": 1.5, "k_p": 0.7},
     lambda t, x, y: 1.5 * x - 0.7 * y),
    ("drift", {"name": "custom_affine", "c0": 0.25, "c_x": -1.5, "c_y": 0.5},
     lambda t, x, y: 0.25 + -1.5 * x + 0.5 * y),
    ("drift", {"name": "custom_affine"},
     lambda t, x, y: 0.0 + 0.0 * x + 0.0 * y),
    ("diffusion", {"name": "constant", "value": 0.3},
     lambda t, x, y: np.full((2, 3), 0.3)),
    ("diffusion", {"name": "zero"}, lambda t, x, y: np.zeros((2, 3))),
    ("intervention", {"name": "additive"}, lambda x, u: x + u),
    ("intervention", {"name": "additive_clamped", "limit": 1.5},
     lambda x, u: np.minimum(np.maximum(x + u, -1.5), 1.5)),
    ("running_reward", {"name": "neg_square"}, lambda t, x: -(x * x)),
    ("running_reward", {"name": "zero"}, lambda t, x: np.zeros((2, 3))),
    ("terminal_reward", {"name": "neg_square"}, lambda x: -(x * x)),
    ("terminal_reward", {"name": "zero"}, lambda x: np.zeros((2, 3))),
    ("impulse_cost", {"name": "quadratic", "scale": 0.2},
     lambda x, u, t: 0.2 * (1.0 + u * u)),
    ("impulse_cost", {"name": "quadratic"},
     lambda x, u, t: 0.1 * (1.0 + u * u)),
    ("impulse_cost", {"name": "constant", "value": 0.4},
     lambda x, u, t: np.full((2, 3), 0.4)),
    ("initial_segment", {"name": "constant", "value": -0.5},
     lambda t: np.full((2, 1), -0.5)),
    ("initial_segment", {"name": "constant"}, lambda t: np.zeros((2, 1))),
]


@pytest.mark.parametrize(
    "family,entry,closed_form", REGISTRY_ENTRIES,
    ids=["-".join([f, *map(str, e.values())]) for f, e, _ in REGISTRY_ENTRIES])
def test_registry_entry_matches_closed_form(family, entry, closed_form):
    spec = build_problem_spec(dict(TestRegistry.BASE, **{family: entry}))
    got = getattr(spec, family)(*_ARGS[family])
    want = closed_form(*_ARGS[family])
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got, want)



# Every registry entry, with the structure tag it carries
_AFFINE_ZERO = ("affine", {"c0": 0.0, "c_x": 0.0, "c_y": 0.0})
REGISTRY_TAGS = [
    ("drift", {"name": "zero"}, _AFFINE_ZERO),
    ("drift", {"name": "linear_delay_feedback", "a": 1.5, "k_p": 0.7},
     ("affine", {"c0": 0.0, "c_x": 1.5, "c_y": -0.7})),
    ("drift", {"name": "custom_affine", "c0": 0.25, "c_x": -1.5, "c_y": 0.5},
     ("affine", {"c0": 0.25, "c_x": -1.5, "c_y": 0.5})),
    ("drift", {"name": "custom_affine"}, _AFFINE_ZERO),
    ("diffusion", {"name": "constant", "value": 3},
     ("constant", {"value": 3.0})),
    ("diffusion", {"name": "zero"}, ("constant", {"value": 0.0})),
    ("intervention", {"name": "additive"}, ("additive", {})),
    ("intervention", {"name": "additive_clamped", "limit": 1.5},
     ("additive_clamped", {"limit": 1.5})),
    ("running_reward", {"name": "neg_square"}, ("quadratic", {"scale": -1.0})),
    ("running_reward", {"name": "zero"}, ("zero", {})),
    ("terminal_reward", {"name": "neg_square"}, ("quadratic", {"scale": -1.0})),
    ("terminal_reward", {"name": "zero"}, ("zero", {})),
    ("impulse_cost", {"name": "quadratic", "scale": 0.2},
     ("quadratic", {"scale": 0.2})),
    ("impulse_cost", {"name": "quadratic"}, ("quadratic", {"scale": 0.1})),
    ("impulse_cost", {"name": "constant", "value": 0.4},
     ("constant", {"value": 0.4})),
    ("initial_segment", {"name": "constant", "value": -0.5},
     ("constant", {"value": -0.5})),
    ("initial_segment", {"name": "constant"}, ("constant", {"value": 0.0})),
]


def test_registry_tags_cover_every_entry():
    assert ({(family, entry["name"]) for family, entry, _ in REGISTRY_TAGS}
            == {(family, name) for family, names in _REGISTRY.items()
                for name in names})


@pytest.mark.parametrize(
    "family,entry,tag", REGISTRY_TAGS,
    ids=["-".join([f, *map(str, e.values())]) for f, e, _ in REGISTRY_TAGS])
def test_registry_entry_carries_its_tag(family, entry, tag):
    spec = build_problem_spec(dict(TestRegistry.BASE, **{family: entry}))
    got = structure(getattr(spec, family))
    assert got == tag
    # the parameters are the config's, read as floats
    assert all(type(v) is float for v in got[1].values())


def test_replaced_coefficient_has_no_tag():
    spec = build_problem_spec(TestRegistry.BASE)
    replaced = dataclasses.replace(spec, drift=lambda t, x, y: x - y)
    assert structure(replaced.drift) is None
    assert structure(replaced.diffusion) == ("constant", {"value": 1.0})
    assert structure(spec.drift) == ("affine",
                                     {"c0": 0.0, "c_x": 1.0, "c_y": -1.0})
    assert all(structure(getattr(tiny_spec(), family)) is None
               for family in _REGISTRY)
