"""Finite-horizon impulse control of stochastic delay differential equations.

Simulation of impulsively controlled delay SDE paths, backward dynamic
programming for values and policies on the lifted delay state, and
brute-force oracles for validating the solver on small instances.
"""

from .core import (AssumptionReport, ImpulseControl, ImpulseSet, ProblemSpec,
                   ValidationError, build_problem_spec, check_assumptions)
from .lattice import (NoiseQuadrature, gauss_hermite_quadrature,
                      three_point_quadrature, two_point_quadrature)
from .simulate import (SimulationError, TimeGrid, draw_noise, estimate_J,
                       flow_stability_probe)
from .bellman import (DivergenceError, GridBackend, GridValueFunction, Policy,
                      RegressionBackend, RegressionValueFunction,
                      budget_decider, fit_regression_step, k_value_iteration,
                      load_value_function, save_value_function)
from .oracle import (FiniteTree, enumerate_controls, exact_snell_on_tree,
                     exact_state_axis)

__version__ = "0.1.0"
