"""Independent ground truth on small finite noise trees.

Exhaustive search over adapted decision tables and an exact Snell recursion,
kept deliberately simple and separate from the production solver so the two
can be compared.  Only the delay-free case is carried on trees.  The module
defines no problem of its own: `FiniteTree.for_grid` builds the tree whose
every level branches like a noise quadrature, and `oracle-compare` feeds it a
config's quadrature, impulse grid, time step and initial state, so
`configs/tiny1.json` and `configs/tiny2.json` are the one definition of the
instances the solver is checked on.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .core import ProblemSpec, ValidationError

EVAL_BUDGET = 10_000_000


class BudgetExceeded(ValidationError):
    """Enumeration would exceed the evaluation guard."""


@dataclass(frozen=True)
class FiniteTree:
    """Finite noise tree: per-level branch increments with probabilities.

    Nodes are addressed by paths (tuples of branch indices); the root is ().
    `u_grid` is the discrete impulse menu attached to the instance.
    """

    initial_state: float
    dt: float
    steps: tuple  # per level: (increment values, probabilities)
    u_grid: tuple

    def __post_init__(self):
        for values, probs in self.steps:
            if len(values) != len(probs):
                raise ValidationError("branch values/probabilities mismatch")
            if abs(sum(probs) - 1.0) > 1e-12:
                raise ValidationError("branch probabilities must sum to 1")

    @classmethod
    def for_grid(cls, initial_state, dt, depth, nodes, weights, u_grid):
        """The tree of `depth` levels that each branch into the quadrature
        `nodes` with probabilities `weights`, rooted at `initial_state`."""
        step = (tuple(map(float, nodes)), tuple(map(float, weights)))
        return cls(initial_state=float(initial_state), dt=dt,
                   steps=(step,) * depth, u_grid=tuple(map(float, u_grid)))

    @property
    def depth(self):
        return len(self.steps)

    def nodes(self, level):
        shape = [len(self.steps[l][0]) for l in range(level)]
        return itertools.product(*(range(s) for s in shape))

    def all_nodes(self):
        for level in range(self.depth + 1):
            yield from self.nodes(level)

    def node_count(self):
        total, width = 0, 1
        for level in range(self.depth + 1):
            total += width
            if level < self.depth:
                width *= len(self.steps[level][0])
        return total


def _child_state(spec, tree, level, post, z):
    t = level * tree.dt
    return post + float(spec.drift(t, post, post)) * tree.dt \
        + float(spec.diffusion(t, post, post)) * z


def enumerate_controls(spec: ProblemSpec, tree: FiniteTree, max_impulses: int):
    """Exact optimum over all adapted decision tables with at most
    `max_impulses` impulses along any root-leaf path.

    Each node independently chooses CONTINUE or one impulse from the menu;
    the search walks every choice combination subtree by subtree.  Returns
    (best expected payoff, best table); tie-break is the first choice in
    menu order (CONTINUE, then impulses by grid index), which makes the
    result the lexicographically smallest optimal table.
    """
    if spec.delay != 0:
        raise ValidationError("tree oracle only carries the delay-free case")
    options = len(tree.u_grid) + 1  # CONTINUE or one impulse per node
    if tree.node_count() * options ** max_impulses > EVAL_BUDGET:
        raise BudgetExceeded(
            f"budget of {max_impulses} impulses: {tree.node_count()} nodes "
            f"x {options}**{max_impulses} choices exceed the enumeration "
            f"limit of {EVAL_BUDGET} evaluations")
    evals = [0]

    def best(level, path, state, budget):
        evals[0] += 1
        if evals[0] > EVAL_BUDGET:
            raise BudgetExceeded("evaluation budget exceeded")
        if level == tree.depth:
            return float(spec.terminal_reward(state)), {}
        values, probs = tree.steps[level]
        t = level * tree.dt
        choices = [None] + ([*tree.u_grid] if budget > 0 else [])
        best_val, best_choice, best_sub = -np.inf, None, None
        for choice in choices:
            if choice is None:
                post, immediate, used = state, 0.0, 0
            else:
                post = float(spec.intervention(state, choice))
                immediate = -float(spec.impulse_cost(state, choice, t))
                used = 1
            immediate += float(spec.running_reward(t, post)) * tree.dt
            total = immediate
            sub = {}
            for b, (z, p) in enumerate(zip(values, probs)):
                child = _child_state(spec, tree, level, post, z)
                v, tab = best(level + 1, path + (b,), child, budget - used)
                total += p * v
                sub.update(tab)
            if total > best_val:
                best_val, best_choice, best_sub = total, choice, sub
        table = {path: best_choice}
        table.update(best_sub)
        return best_val, table

    value, table = best(0, (), tree.initial_state, max_impulses)
    return value, table


def evaluate_table(spec: ProblemSpec, tree: FiniteTree, table, max_impulses=None):
    """Expected payoff of a given decision table (None = CONTINUE per node)."""

    def walk(level, path, state, used):
        if level == tree.depth:
            return float(spec.terminal_reward(state))
        choice = table.get(path)
        if max_impulses is not None and used >= max_impulses:
            choice = None
        t = level * tree.dt
        if choice is None:
            post, immediate = state, 0.0
        else:
            post = float(spec.intervention(state, choice))
            immediate = -float(spec.impulse_cost(state, choice, t))
            used += 1
        immediate += float(spec.running_reward(t, post)) * tree.dt
        values, probs = tree.steps[level]
        total = immediate
        for b, (z, p) in enumerate(zip(values, probs)):
            total += p * walk(level + 1, path + (b,),
                              _child_state(spec, tree, level, post, z), used)
        return total

    return walk(0, (), tree.initial_state, 0)


def table_from_decisions(decide, spec: ProblemSpec, tree: FiniteTree,
                         max_impulses: int):
    """Induce a decision table by walking the tree with a budget-aware rule.

    `decide(level, state, budget)` returns None (continue) or an impulse; the
    budget decrements after each impulse, matching the intervention-count
    hierarchy of the solver's policies.
    """

    def walk(level, path, state, budget, table):
        if level == tree.depth:
            return
        choice = decide(level, state, budget) if budget > 0 else None
        table[path] = choice
        post = state if choice is None else float(spec.intervention(state, choice))
        used = 0 if choice is None else 1
        values, _ = tree.steps[level]
        for b, z in enumerate(values):
            walk(level + 1, path + (b,),
                 _child_state(spec, tree, level, post, z), budget - used, table)

    table = {}
    walk(0, (), tree.initial_state, max_impulses, table)
    return table


def exact_snell_on_tree(tree: FiniteTree, rewards):
    """Exact backward Snell recursion plus the first-contact stopping rule.

    Returns (envelope, stop) as node-path mappings; stop marks the nodes
    where the envelope meets the reward, i.e. where stopping is optimal.
    """

    env = {}

    def backward(level, path):
        r = rewards[path]
        if level == tree.depth:
            env[path] = r
            return r
        values, probs = tree.steps[level]
        children = [backward(level + 1, path + (b,)) for b in range(len(values))]
        cont = float(np.dot(np.asarray(probs, dtype=float), children))
        env[path] = max(r, cont)
        return env[path]

    backward(0, ())
    stop = {path: env[path] == rewards[path] for path in env}
    return env, stop


def expected_reward_under_rule(tree: FiniteTree, rewards, stop):
    """E[reward at the first-contact stopping time]; equals the root envelope."""

    def walk(level, path):
        if level == tree.depth or stop[path]:
            return rewards[path]
        values, probs = tree.steps[level]
        children = [walk(level + 1, path + (b,)) for b in range(len(values))]
        return float(np.dot(np.asarray(probs, dtype=float), children))

    return walk(0, ())


def exact_state_axis(spec: ProblemSpec, tree: FiniteTree, k_max: int,
                     tol: float = 1e-12):
    """All state values reachable through Euler steps and up to `k_max`
    impulse applications per decision level, deduplicated; using these as
    grid nodes makes grid-backend interpolation exact on the tree."""
    level_states = {float(tree.initial_state)}
    collected = set()
    for level in range(tree.depth + 1):
        expanded = set(level_states)
        for _ in range(k_max):
            expanded |= {float(spec.intervention(x, u))
                         for x in expanded for u in tree.u_grid}
        collected |= expanded
        if level == tree.depth:
            break
        values, _ = tree.steps[level]
        level_states = {_child_state(spec, tree, level, x, z)
                        for x in expanded for z in values}
    axis = np.array(sorted(collected))
    keep = np.concatenate(([True], np.diff(axis) > tol))
    return axis[keep]


def table_to_json(table):
    """Serializable form of a decision table for diffing policies."""
    return json.dumps(
        {",".join(map(str, path)): choice for path, choice in sorted(table.items())},
        sort_keys=True, indent=2)
