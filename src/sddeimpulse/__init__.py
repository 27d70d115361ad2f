"""Finite-horizon impulse control of stochastic delay differential equations.

Simulation of impulsively controlled delay SDE paths, backward dynamic
programming for values and policies on the lifted delay state, and
brute-force oracles for validating the solver on small instances.
"""

from .core import (AssumptionReport, ImpulseControl, ImpulseEvent, ImpulseSet,
                   ProblemSpec, Trajectory, ValidationError, build_problem_spec,
                   check_assumptions, compose_controls, total_payoff)
from .lattice import (NoiseQuadrature, gauss_hermite_quadrature,
                      three_point_quadrature, two_point_quadrature)
from .simulate import (NoiseDraw, SimulationError, TimeGrid, draw_noise,
                       estimate_J, flow_stability_probe, simulate_controlled)
from .bellman import (DivergenceError, GridBackend, GridValueFunction, Policy,
                      RegressionBackend, RegressionValueFunction,
                      fit_regression_step, k_value_iteration,
                      load_value_function, policy_stack, save_value_function)
from .oracle import (FiniteTree, enumerate_controls, exact_snell_on_tree,
                     exact_state_axis)

__version__ = "0.1.0"
