"""Problem specs, fixed controls, payoff evaluation, assumption probes."""

import dataclasses
import inspect
import json
import math
import os

import numpy as np
import pytest

from sddeimpulse import (ImpulseControl, ImpulseSet, ProblemSpec,
                         ValidationError, build_problem_spec, check_assumptions)
from sddeimpulse.core import K_GROWTH, R_BOX, _REGISTRY, structure
from sddeimpulse.simulate import TimeGrid, simulate_batch

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "configs")


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


def registry_spec(**entries):
    """TestRegistry.BASE with the given problem entries replaced."""
    return build_problem_spec(dict(TestRegistry.BASE, **entries))


class TestCheckAssumptions:
    def test_zero_cost_fails_with_witness(self):
        spec = registry_spec(impulse_cost={"name": "constant", "value": 0.0})
        bad = check_assumptions(spec)["impulse_cost_positive"]
        assert not bad.passed and bad.estimate == 0.0
        x, u, t = bad.witness
        assert spec.impulse_cost(x, u, t) == 0.0

    def test_clamped_jump_growth_passes(self):
        # |x + u| reaches 5 + 8 on the box; the clamp at 5 keeps it in 10
        wide = [-8.0, 8.0]
        additive = check_assumptions(registry_spec(impulse_set=wide))
        clamped = check_assumptions(registry_spec(
            impulse_set=wide,
            intervention={"name": "additive_clamped", "limit": 5.0}))
        assert additive["intervention_growth"].estimate == 3.0
        assert not additive["intervention_growth"].passed
        assert clamped["intervention_growth"].estimate == -5.0
        assert clamped["intervention_growth"].passed

    def test_quadratic_cost_passes_floor(self):
        floor = check_assumptions(registry_spec())["impulse_cost_positive"]
        assert floor.passed and floor.estimate == 0.1
        assert floor.witness == (0.0, 0.0, 0.0)

    def test_takes_the_spec_alone(self):
        assert list(inspect.signature(check_assumptions).parameters) == [
            "spec"]
        assert check_assumptions(registry_spec()) == \
            check_assumptions(registry_spec())

    def test_untagged_coefficient_reads_unknown(self):
        spec = dataclasses.replace(registry_spec(),
                                   drift=lambda t, x, y: x - y)
        report = check_assumptions(spec)
        unknown = report["drift_lipschitz"]
        assert unknown.estimate is None and not unknown.passed
        assert report["diffusion_lipschitz"].passed
        assert all(c.estimate is None and not c.passed
                   for c in check_assumptions(tiny_spec()).checks)

    @pytest.mark.parametrize("bounds,scale,floor,witness", [
        ([-2.0, 2.0], 0.1, 0.1, 0.0), ([0.5, 3.0], 0.1, 0.125, 0.5),
        ([-3.0, -0.5], 0.1, 0.125, -0.5), ([-1.0, 3.0], -0.1, -1.0, 3.0),
        ([-3.0, 1.0], -0.1, -1.0, -3.0)])
    def test_fee_floor_either_sign(self, bounds, scale, floor, witness):
        spec = registry_spec(impulse_set=bounds, impulse_cost={
            "name": "quadratic", "scale": scale})
        got = check_assumptions(spec)["impulse_cost_positive"]
        assert got.estimate == pytest.approx(floor, rel=1e-15)
        assert got.witness == (0.0, witness, 0.0)
        assert got.passed == (floor > spec.min_impulse_cost)

    @pytest.mark.parametrize("entry,estimate", [
        ({"name": "neg_square"}, 10.0), ({"name": "zero"}, 0.0)])
    def test_terminal_reward_lipschitz(self, entry, estimate):
        spec = registry_spec(terminal_reward=entry)
        got = check_assumptions(spec)["terminal_reward_lipschitz"]
        assert (got.estimate, got.passed, got.witness) == (estimate, True, ())
        untagged = check_assumptions(dataclasses.replace(
            spec, terminal_reward=lambda x: -(x * x)))
        got = untagged["terminal_reward_lipschitz"]
        assert got.estimate is None and not got.passed
        assert not untagged.passed
        assert [c for c in untagged.checks if c.estimate is None] == [got]

    @pytest.mark.parametrize("config,drift,fee,growth", [
        ("tiny1.json", 0.0, 0.2, -4.0), ("tiny2.json", 1.0, 0.2, -4.0),
        ("delay_feedback_reduced.json", 1.0, 0.4, -3.0),
        ("delay_feedback.json", 1.0, 0.4, -3.0)])
    def test_shipped_configs(self, config, drift, fee, growth):
        with open(os.path.join(CONFIGS, config)) as fh:
            spec = build_problem_spec(json.load(fh)["problem"])
        report = check_assumptions(spec)
        assert [c.estimate for c in report.checks] == [
            drift, 0.0, 10.0, 10.0, fee, growth, math.sqrt(2.0), 0.1]
        # every shipped jump x + u moves faster than a contraction
        assert [c.name for c in report.checks if not c.passed] == [
            "intervention_lipschitz"]


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

    @pytest.mark.parametrize("limit", [-1.0, 0.0, -0.0, math.inf, math.nan])
    def test_clamp_that_cannot_clamp_rejected(self, limit):
        # np.clip maps every state to -1 at limit -1, and to +-0 at limit 0
        cfg = dict(self.BASE, intervention={"name": "additive_clamped",
                                            "limit": limit})
        with pytest.raises(ValidationError,
                           match=r"^problem\.intervention\.limit: must be "
                                 "finite and positive"):
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


def sampled_constants(spec, n, seed=0):
    """The random-pair sampler that check_assumptions replaced, kept as a
    reference: per check, the largest sampled Lipschitz ratio or growth
    excess, or the smallest sampled fee, over n pairs drawn on the checks'
    domains (|x|, |y| <= R_BOX, u in the impulse set, t in [0, T])."""
    rng = np.random.default_rng(seed)
    t, t2 = (rng.uniform(0, spec.horizon, n) for _ in range(2))
    x, y, x2, y2 = (rng.uniform(-R_BOX, R_BOX, n) for _ in range(4))
    lo, hi = spec.impulse_set.lower, spec.impulse_set.upper
    u, v = rng.uniform(lo, hi, n), rng.uniform(lo, hi, n)

    def ratio(num, den):
        return float(np.max(np.abs(num) / np.maximum(den, 1e-12)))

    pair = np.abs(x - x2) + np.abs(y - y2)
    gx, gy = spec.intervention(x, u), spec.intervention(y, v)
    return {
        "drift_lipschitz": ratio(
            spec.drift(t, x, y) - spec.drift(t, x2, y2), pair),
        "diffusion_lipschitz": ratio(
            spec.diffusion(t, x, y) - spec.diffusion(t, x2, y2), pair),
        "running_reward_lipschitz": ratio(
            spec.running_reward(t, x) - spec.running_reward(t, x2),
            np.abs(x - x2)),
        "terminal_reward_lipschitz": ratio(
            spec.terminal_reward(x) - spec.terminal_reward(x2),
            np.abs(x - x2)),
        "impulse_cost_lipschitz": ratio(
            spec.impulse_cost(x, u, t) - spec.impulse_cost(x2, v, t2),
            np.sqrt((x - x2) ** 2 + (u - v) ** 2 + (t - t2) ** 2)),
        "intervention_growth": float(np.max(
            np.abs(gx) - np.maximum(K_GROWTH, np.abs(x)))),
        # the sampler reported the excess |dGamma| - |d(x, u)|; the exact
        # check reports the constant that bounds this ratio
        "intervention_lipschitz": ratio(gx - gy, np.hypot(x - y, u - v)),
        "impulse_cost_positive": float(np.min(spec.impulse_cost(x, u, t))),
    }


# family -> the checks its coefficient feeds
FEEDS = {"drift": ("drift_lipschitz",),
         "diffusion": ("diffusion_lipschitz",),
         "running_reward": ("running_reward_lipschitz",),
         "terminal_reward": ("terminal_reward_lipschitz",),
         "impulse_cost": ("impulse_cost_lipschitz", "impulse_cost_positive"),
         "intervention": ("intervention_growth", "intervention_lipschitz")}
CHECKED_TAGS = [(f, e) for f, e, _ in REGISTRY_TAGS if f in FEEDS]


@pytest.mark.parametrize("bounds", [[-2.0, 2.0], [0.5, 3.0], [-3.0, -0.5]])
@pytest.mark.parametrize(
    "family,entry", CHECKED_TAGS,
    ids=["-".join([f, *map(str, e.values())]) for f, e in CHECKED_TAGS])
def test_exact_constant_bounds_the_sampler(family, entry, bounds):
    spec = registry_spec(impulse_set=bounds, **{family: entry})
    report = check_assumptions(spec)
    assert all(math.isfinite(report[name].estimate) for name in FEEDS[family])
    sampled = sampled_constants(spec, 100_000)
    for check in report.checks:
        # the sampler never passes the constant, and comes close to it: the
        # constant is the least bound (the fee's ratio converges slowest)
        gap = sampled[check.name] - check.estimate
        if check.name == "impulse_cost_positive":
            gap = -gap
        assert -0.15 * max(1.0, abs(check.estimate)) <= gap <= 1e-12
