"""Brute-force oracles: exhaustive control enumeration and exact tree Snell."""

import dataclasses
import json
import os

import numpy as np
import pytest

from sddeimpulse.bellman import GridBackend, k_value_iteration
from sddeimpulse.cli import RunConfig
from sddeimpulse.oracle import (BudgetExceeded, FiniteTree,
                                enumerate_controls, evaluate_table,
                                exact_snell_on_tree, exact_state_axis,
                                expected_reward_under_rule, table_to_json)

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "configs")


def tiny_instance(name):
    """(cfg, tree) for configs/<name>: the loaded config and the tree that
    oracle-compare builds from it."""
    cfg = RunConfig.load(os.path.join(CONFIGS, name))
    quad = cfg.quadrature
    tree = FiniteTree.for_grid(cfg.initial_state()[0, 0], cfg.dt,
                               cfg.grid.n_steps, quad.nodes, quad.weights,
                               cfg.u_grid())
    return cfg, tree


def two_step_binary_tree(u_grid=(0.0,)):
    step = ((-1.0, 1.0), (0.5, 0.5))
    return FiniteTree(0.0, 0.5, (step, step), tuple(u_grid))


class TestFiniteTree:
    def test_node_counts(self):
        tree = two_step_binary_tree()
        assert [len(list(tree.nodes(l))) for l in range(3)] == [1, 2, 4]
        assert tree.node_count() == 7

    def test_tiny_instances_match_frozen_shapes(self):
        for name in ("tiny1.json", "tiny2.json"):
            cfg, tree = tiny_instance(name)
            assert tree.depth == 2
            assert cfg.spec.horizon == pytest.approx(1.0)


class TestEnumerateControls:
    def test_tiny1_no_intervention_hand_sum(self):
        # four leaves of a driftless +-sqrt(dt) walk from 0, f = -x^2,
        # g = -x^2: running term -0.5*(0 + 0.5 + ... ) and terminal -E[X_1^2]
        cfg, tree = tiny_instance("tiny1.json")
        best, table = enumerate_controls(cfg.spec, tree, 0)
        assert best == pytest.approx(-1.25)
        assert all(choice is None for choice in table.values())

    def test_tiny2_without_drift_equals_tiny1_baseline(self):
        cfg, tree = tiny_instance("tiny2.json")
        still = dataclasses.replace(cfg.spec, drift=lambda t, x, y: 0.0 * x)
        best, _ = enumerate_controls(still, tree, 0)
        assert best == pytest.approx(-1.875 + 0.625)

    def test_tiny2_frozen_baseline(self):
        cfg, tree = tiny_instance("tiny2.json")
        best, _ = enumerate_controls(cfg.spec, tree, 0)
        assert best == pytest.approx(-1.875)

    def test_prohibitive_cost_reduces_to_no_intervention(self):
        cfg, tree = tiny_instance("tiny1.json")
        dear = dataclasses.replace(cfg.spec,
                                   impulse_cost=lambda x, u, t: 1e6 + 0 * u)
        best0, _ = enumerate_controls(dear, tree, 0)
        best2, table = enumerate_controls(dear, tree, 2)
        assert best2 == pytest.approx(best0)
        assert all(choice is None for choice in table.values())

    def test_value_monotone_in_budget(self):
        cfg, tree = tiny_instance("tiny1.json")
        vals = [enumerate_controls(cfg.spec, tree, k)[0] for k in range(3)]
        assert vals[1] >= vals[0] - 1e-12
        assert vals[2] >= vals[1] - 1e-12

    def test_table_evaluates_to_reported_value(self):
        cfg, tree = tiny_instance("tiny1.json")
        for k in (1, 2):
            best, table = enumerate_controls(cfg.spec, tree, k)
            assert evaluate_table(cfg.spec, tree, table, k) == pytest.approx(
                best, abs=1e-12)

    def test_node_budget_guard(self):
        cfg, tree = tiny_instance("tiny1.json")
        with pytest.raises(BudgetExceeded):
            enumerate_controls(cfg.spec, tree, 40)


class TestExactSnell:
    def test_zero_rewards(self):
        tree = two_step_binary_tree()
        env, stop = exact_snell_on_tree(tree, {p: 0.0 for p in tree.all_nodes()})
        assert all(v == 0.0 for v in env.values())
        assert all(stop.values())

    def test_hand_example_stops_on_up_branch(self):
        tree = two_step_binary_tree()
        rewards = {(): 0.0, (0,): 1.0, (1,): -1.0,
                   (0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}
        env, stop = exact_snell_on_tree(tree, rewards)
        assert env[()] == 0.5
        assert not stop[()]
        assert stop[(0,)] and not stop[(1,)]

    def test_rule_achieves_envelope_exactly(self):
        rng = np.random.default_rng(5)
        tree = two_step_binary_tree()
        rewards = {p: float(rng.normal()) for p in tree.all_nodes()}
        env, stop = exact_snell_on_tree(tree, rewards)
        assert expected_reward_under_rule(tree, rewards, stop) == env[()]


class TestDualRoute:
    def test_enumeration_matches_value_iteration(self):
        # the root off the origin checks that the exact axis starts at the
        # tree's root
        for name, start in (("tiny1.json", 0.0), ("tiny1.json", 0.5),
                            ("tiny2.json", 0.0)):
            cfg, tree = tiny_instance(name)
            tree = dataclasses.replace(tree, initial_state=start)
            for k in (1, 2):
                axis = exact_state_axis(cfg.spec, tree, k)
                its, _ = k_value_iteration(
                    cfg.spec, cfg.grid, GridBackend(axis),
                    cfg.quadrature, cfg.u_grid(), k_max=k, tol=1e-12)
                best, _ = enumerate_controls(cfg.spec, tree, k)
                v = its[-1].value_at(0, np.array([[start]]))[0]
                assert abs(v - best) <= 1e-9


class TestTableJson:
    def test_round_trip(self):
        table = {(): None, (0,): 1.0, (1,): None}
        blob = table_to_json(table)
        back = json.loads(blob)
        assert back == {"": None, "0": 1.0, "1": None}
