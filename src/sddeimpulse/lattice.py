"""Markov lift of the delay system and one-step transition kernels.

The lifted state is the shift register (X_t, X_{t-dt}, ..., X_{t-delay});
its length m is delay/dt + 1, and a batch of N lifted states is one (N, m)
array, newest value first in each row.  Noise expectations are taken
against a small moment-matched quadrature (Gauss-Hermite by default).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .core import ProblemSpec, ValidationError


@dataclass(frozen=True)
class NoiseQuadrature:
    """Discrete increment distribution matching the Gaussian step moments."""

    nodes: np.ndarray
    weights: np.ndarray
    dt: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValidationError("nodes and weights must be matching vectors")
        if np.any(weights <= 0):
            raise ValidationError("quadrature weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValidationError("quadrature weights must sum to 1")
        if abs(float(weights @ nodes)) > 1e-10:
            raise ValidationError("quadrature mean must be 0")
        if abs(float(weights @ nodes ** 2) - self.dt) > 1e-10:
            raise ValidationError("quadrature variance must equal dt")


def gauss_hermite_quadrature(dt: float, n_nodes: int = 7) -> NoiseQuadrature:
    """Gauss-Hermite nodes rescaled to an N(0, dt) increment."""
    h, w = hermgauss(n_nodes)
    return NoiseQuadrature(nodes=h * np.sqrt(2.0 * dt), weights=w / np.sqrt(np.pi),
                           dt=dt)


def two_point_quadrature(dt: float) -> NoiseQuadrature:
    """Bernoulli +-sqrt(dt) increment; exact carrier for binary-tree noise."""
    r = np.sqrt(dt)
    return NoiseQuadrature(nodes=np.array([-r, r]), weights=np.array([0.5, 0.5]),
                           dt=dt)


def three_point_quadrature(dt: float) -> NoiseQuadrature:
    """Three-point increment {-sqrt(3 dt), 0, sqrt(3 dt)} with weights
    {1/6, 2/3, 1/6}; matches mean, variance and fourth moment."""
    r = np.sqrt(3.0 * dt)
    return NoiseQuadrature(nodes=np.array([-r, 0.0, r]),
                           weights=np.array([1 / 6, 2 / 3, 1 / 6]), dt=dt)


def euler_head(x, x_del, t: float, z, spec: ProblemSpec, dt: float):
    """Euler update of the head x given the delayed value x_del."""
    return x + spec.drift(t, x, x_del) * dt + spec.diffusion(t, x, x_del) * z


def step_transition_batch(states: np.ndarray, t: float, z, spec: ProblemSpec,
                          dt: float) -> np.ndarray:
    """Euler step on the head, then shift the register; states is (N, m),
    z scalar or (N,)."""
    out = np.empty_like(states)
    out[:, 0] = euler_head(states[:, 0], states[:, -1], t, z, spec, dt)
    out[:, 1:] = states[:, :-1]
    return out


def impulse_transition_batch(states: np.ndarray, u, spec: ProblemSpec) -> np.ndarray:
    """Apply the jump map to the head only; past observed values stay put."""
    out = states.copy()
    out[:, 0] = spec.intervention(states[:, 0], u)
    return out
