"""Problem definitions, fixed controls, assumption checks and JSON key checks.

State and impulses are scalar: the delayed-feedback application and both tiny
validation instances are one-dimensional, and every downstream module (lattice,
bellman) assumes a scalar current value with scalar lags.

All coefficient callables must accept numpy arrays elementwise (the built-in
registry functions do).  A registry coefficient also carries its structure
tag (see `structure`), which callers read to know when a shortcut is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TIME_TOL = 1e-9


class ValidationError(ValueError):
    """Raised when a spec, control or config violates a structural invariant."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImpulseSet:
    """Closed interval of admissible scalar impulse magnitudes."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValidationError("impulse set bounds must be finite")
        if self.lower > self.upper:
            raise ValidationError("impulse set is empty")

    def contains(self, u, tol=TIME_TOL):
        return self.lower - tol <= u <= self.upper + tol

    def grid(self, n_points):
        """Uniform discretization, endpoints included."""
        if n_points < 1:
            raise ValidationError("impulse grid needs at least one point")
        if n_points == 1:
            return np.array([0.5 * (self.lower + self.upper)])
        return np.linspace(self.lower, self.upper, n_points)


@dataclass(frozen=True)
class ProblemSpec:
    """One impulse-control problem: dynamics, intervention map, rewards, costs.

    Sign convention: the engine always MAXIMIZES
        E[ sum f(t_k, X_k) dt + g(X_T) - sum ell(X_pre, u, t) ].
    Cost-minimization problems are encoded by negating f and g.
    """

    horizon: float
    delay: float
    drift: Callable  # (t, x, x_delayed) -> dx/dt contribution
    diffusion: Callable  # (t, x, x_delayed) -> noise coefficient
    intervention: Callable  # Gamma(x, u) -> post-impulse value
    running_reward: Callable  # f(t, x)
    impulse_cost: Callable  # ell(x, u, t)
    terminal_reward: Callable  # g(x)
    impulse_set: ImpulseSet
    initial_segment: Callable  # alpha(t) on [-delay, 0]
    min_impulse_cost: float = 0.05  # strict lower bound required of ell

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValidationError(f"horizon must be finite and positive, got "
                                  f"{self.horizon}")
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ValidationError(f"delay must be finite and nonnegative, got "
                                  f"{self.delay}")
        if not self.min_impulse_cost > 0:
            raise ValidationError("min_impulse_cost must be positive")


@dataclass(frozen=True)
class ImpulseControl:
    """Finite ordered sequence of (time, impulse) pairs with nondecreasing times.

    Events scheduled exactly at the horizon are inert: they are never applied
    and never charged (a time-T pair marks an unused intervention slot).
    """

    events: tuple = ()

    def __post_init__(self):
        evs = tuple((float(t), float(u)) for t, u in self.events)
        object.__setattr__(self, "events", evs)
        times = [t for t, _ in evs]
        if any(b < a - TIME_TOL for a, b in zip(times, times[1:])):
            raise ValidationError("impulse times must be nondecreasing")

    def validate_against(self, spec: ProblemSpec):
        for t, u in self.events:
            if t < -TIME_TOL or t > spec.horizon + TIME_TOL:
                raise ValidationError(f"impulse time {t} outside [0, {spec.horizon}]")
            if not spec.impulse_set.contains(u):
                raise ValidationError(f"impulse {u} outside admissible set")


# ---------------------------------------------------------------------------
# Assumption checks
# ---------------------------------------------------------------------------

# The state box [-R_BOX, R_BOX] of the running-reward and jump-growth checks,
# and the growth bound: |Gamma(x, u)| <= max(K_GROWTH, |x|), which is
# K_GROWTH on the box
R_BOX, K_GROWTH = 5.0, 10.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    estimate: float | None  # None: the coefficient's structure is unknown
    witness: tuple
    detail: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_assumptions(spec: ProblemSpec) -> AssumptionReport:
    """The exact constants of the regularity assumptions on (a, b, f, g,
    ell, Gamma), read from the coefficients' structure tags; the README states
    each check's inequality, norm and domain.  A coefficient with no tag
    reads estimate None and fails.  Report-only: failures are entries, not
    errors."""
    lo, hi = spec.impulse_set.lower, spec.impulse_set.upper
    # |x + u| peaks on the box at `peak`, whose impulse is the one farthest
    # from 0; `near` is the one nearest 0.  A one-point set moves no u
    peak = (R_BOX, hi) if hi >= -lo else (-R_BOX, lo)
    near, far = min(max(0.0, lo), hi), peak[1]
    jump = (math.sqrt(2.0) if lo < hi else 1.0, ())
    fee = 2.0 * abs(far) if lo < hi else 0.0
    # f and g: a reward s x^2 moves by at most 2|s| R per unit on the box
    reward = {"quadratic": lambda scale: (2.0 * abs(scale) * R_BOX, ()),
              "zero": lambda: (0.0, ())}
    checks = (
        ("drift_lipschitz", spec.drift, math.isfinite,
         {"affine": lambda c0, c_x, c_y: (max(abs(c_x), abs(c_y)), ())},
         "L in |a(t,x,y) - a(t,x',y')| <= L (|x-x'| + |y-y'|)"),
        ("diffusion_lipschitz", spec.diffusion, math.isfinite,
         {"constant": lambda value: (0.0, ())},
         "L in |b(t,x,y) - b(t,x',y')| <= L (|x-x'| + |y-y'|)"),
        ("running_reward_lipschitz", spec.running_reward, math.isfinite,
         reward,
         f"L in |f(t,x) - f(t,x')| <= L |x-x'| on |x|, |x'| <= {R_BOX}"),
        ("terminal_reward_lipschitz", spec.terminal_reward, math.isfinite,
         reward,
         f"L in |g(x) - g(x')| <= L |x-x'| on |x|, |x'| <= {R_BOX}"),
        ("impulse_cost_lipschitz", spec.impulse_cost, math.isfinite,
         {"quadratic": lambda scale: (abs(scale) * fee, ()),
          "constant": lambda value: (0.0, ())},
         "L in |ell(x,u,t) - ell(x',u',t')| <= L |(x,u,t) - (x',u',t')|"),
        ("intervention_growth", spec.intervention, lambda e: e <= 0.0,
         {"additive": lambda: (abs(sum(peak)) - K_GROWTH, peak),
          "additive_clamped": lambda limit: (
              min(abs(sum(peak)), limit) - K_GROWTH, peak)},
         f"max |Gamma(x,u)| - {K_GROWTH} on |x| <= {R_BOX}, required <= 0"),
        ("intervention_lipschitz", spec.intervention, lambda e: e <= 1.0,
         {"additive": lambda: jump, "additive_clamped": lambda limit: jump},
         "L in |Gamma(x,u) - Gamma(y,v)| <= L |(x,u) - (y,v)|, "
         "required <= 1"),
        ("impulse_cost_positive", spec.impulse_cost,
         lambda e: e > spec.min_impulse_cost,
         {"quadratic": lambda scale: min((scale * (1.0 + u * u), (0.0, u, 0.0))
                                        for u in (near, far)),
          "constant": lambda value: (value, (0.0, lo, 0.0))},
         f"min ell over the impulse set, required > {spec.min_impulse_cost}"),
    )
    results = []
    for name, coefficient, verdict, rules, detail in checks:
        # each rule maps the tag's parameters to an (estimate, witness) pair
        kind, params = structure(coefficient) or (None, {})
        estimate, witness = (rules[kind](**params) if kind in rules
                             else (None, ()))
        results.append(CheckResult(
            name, estimate is not None and bool(verdict(estimate)), estimate,
            witness, detail))
    return AssumptionReport(tuple(results))


# ---------------------------------------------------------------------------
# Coefficient registry (JSON-loadable problem specs)
# ---------------------------------------------------------------------------

def real_number(v, name):
    """v as a float, if it is a JSON number (an int or a float, not a bool);
    anything else is a ValidationError naming the setting."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{name}: must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValidationError(f"{name}: too large for a float") from None


def json_object(v, name):
    """v, if it is a JSON object; anything else is a ValidationError naming
    the section."""
    if not isinstance(v, dict):
        raise ValidationError(f"{name}: must be a JSON object, got {v!r}")
    return v


def reject_unknown(d, allowed, where):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown} "
                              f"(allowed: {sorted(allowed)})")


def require(d, key, where):
    if key not in d:
        raise ValidationError(f"{where}.{key}: required")
    return d[key]


def integer(d, where, key, default=None, lowest=1):
    """d[key], or `default` when the key is absent (required when there is
    no default), if it is a JSON integer of at least `lowest` (None: no
    bound).  Floats, strings and booleans are rejected."""
    v = require(d, key, where) if default is None else d.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{where}.{key}: must be an integer, got {v!r}")
    if lowest is not None and v < lowest:
        raise ValidationError(f"{where}.{key}: must be >= {lowest}, got {v}")
    return v


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _full(x, value):
    return np.full_like(np.asarray(x, dtype=float), value)


def _tag(kind, **fixed):
    """A tag maker: (kind, the entry's parameters and `fixed`)."""
    return lambda **params: (kind, {**params, **fixed})


# family -> registry name -> (required parameters, optional parameters with
# their defaults, factory taking the parameters by keyword and returning the
# coefficient, tag maker taking the same parameters and returning the
# coefficient's structure tag)
_REGISTRY = {
    "drift": {
        "zero": ((), {}, lambda: lambda t, x, y: _zeros(x),
                 _tag("affine", c0=0.0, c_x=0.0, c_y=0.0)),
        "linear_delay_feedback": (
            ("a", "k_p"), {}, lambda a, k_p: lambda t, x, y: a * x - k_p * y,
            lambda a, k_p: ("affine", {"c0": 0.0, "c_x": a, "c_y": -k_p})),
        "custom_affine": (
            (), {"c0": 0.0, "c_x": 0.0, "c_y": 0.0},
            lambda c0, c_x, c_y: lambda t, x, y: c0 + c_x * x + c_y * y,
            _tag("affine")),
    },
    "diffusion": {
        "constant": (("value",), {},
                     lambda value: lambda t, x, y: _full(x, value),
                     _tag("constant")),
        "zero": ((), {}, lambda: lambda t, x, y: _zeros(x),
                 _tag("constant", value=0.0)),
    },
    "intervention": {
        "additive": ((), {}, lambda: lambda x, u: x + u, _tag("additive")),
        "additive_clamped": (
            ("limit",), {},
            lambda limit: lambda x, u: np.clip(x + u, -limit, limit),
            _tag("additive_clamped")),
    },
    "running_reward": {
        "neg_square": ((), {}, lambda: lambda t, x: -(x * x),
                       _tag("quadratic", scale=-1.0)),
        "zero": ((), {}, lambda: lambda t, x: _zeros(x), _tag("zero")),
    },
    "terminal_reward": {
        "neg_square": ((), {}, lambda: lambda x: -(x * x),
                       _tag("quadratic", scale=-1.0)),
        "zero": ((), {}, lambda: lambda x: _zeros(x), _tag("zero")),
    },
    "impulse_cost": {
        "quadratic": ((), {"scale": 0.1},
                      lambda scale: lambda x, u, t: scale * (1.0 + u * u),
                      _tag("quadratic")),
        "constant": (("value",), {}, lambda value: lambda x, u, t: _full(
            np.broadcast_arrays(x, u)[0], value), _tag("constant")),
    },
    "initial_segment": {
        "constant": ((), {"value": 0.0},
                     lambda value: lambda t: _full(t, value),
                     _tag("constant")),
    },
}
_PROBLEM_KEYS = (*_REGISTRY, "impulse_set", "horizon", "delay",
                 "min_impulse_cost")


def structure(coefficient):
    """The (kind, parameters) tag of a coefficient built from the registry,
    or None for any other callable, whose structure is unknown."""
    return getattr(coefficient, "structure", None)


def _build(family, cfg):
    """The `family` coefficient that the registry entry `cfg` names, tagged
    with its structure (its `structure` attribute).  The tag belongs to the
    callable, so a spec whose coefficient is replaced loses it."""
    where = f"problem.{family}"
    name = json_object(cfg, where).get("name")
    # a name that is not a string is unknown too, not an unhashable key
    entry = _REGISTRY[family].get(name) if isinstance(name, str) else None
    if entry is None:
        raise ValidationError(f"{where}.name: unknown {family} registry "
                              f"name {name!r}")
    required, optional, factory, tag = entry
    reject_unknown(cfg, ("name", *required, *optional), where)
    params = {k: require(cfg, k, where) for k in required}
    params.update({k: cfg.get(k, d) for k, d in optional.items()})
    params = {k: real_number(v, f"{where}.{k}") for k, v in params.items()}
    if not 0.0 < params.get("limit", 1.0) < math.inf:  # a clamp must clamp
        raise ValidationError(f"{where}.limit: must be finite and positive, "
                              f"got {params['limit']}")
    coefficient = factory(**params)
    coefficient.structure = tag(**params)
    return coefficient


def build_problem_spec(problem_cfg: dict) -> ProblemSpec:
    """Build a ProblemSpec from a JSON-style dict of registry selections.

    Unknown keys anywhere in the document are errors.
    """
    reject_unknown(problem_cfg, _PROBLEM_KEYS, "problem")
    bounds = require(problem_cfg, "impulse_set", "problem")
    if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
        raise ValidationError("problem.impulse_set: must be a [lower, upper] "
                              f"pair, got {bounds!r}")
    lo, hi = bounds
    return ProblemSpec(
        horizon=real_number(require(problem_cfg, "horizon", "problem"),
                            "problem.horizon"),
        delay=real_number(require(problem_cfg, "delay", "problem"),
                          "problem.delay"),
        impulse_set=ImpulseSet(real_number(lo, "problem.impulse_set"),
                               real_number(hi, "problem.impulse_set")),
        min_impulse_cost=real_number(problem_cfg.get("min_impulse_cost", 0.05),
                                     "problem.min_impulse_cost"),
        **{family: _build(family, require(problem_cfg, family, "problem"))
           for family in _REGISTRY})
