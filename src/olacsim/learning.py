"""OLAC's learned dual multiplier beta(t), computed as a whole path.

beta(t) is the maximizer of the empirical dual: the dual function evaluated
with the frequencies of the states seen before slot t instead of the true
probabilities. It depends on the state sequence and V only, never on the
backlog or the actions taken, so the whole path is learned before the slot
loop. beta(0) = 0; every later slot re-solves warm-started at the previous
beta, and the diminishing step schedule is continued across re-solves (offset
by the slot index) so that the step size matches the drift rate of the
empirical optimum, which moves by O(1/t) per slot.
"""
from __future__ import annotations

import numpy as np

from .dual import DualSolverConfig, DualTables, maximize_dual
from .model import NetworkInstance

__all__ = ["default_tracking_solver", "dual_learn"]


def default_tracking_solver(instance: NetworkInstance, V: float) -> DualSolverConfig:
    """Per-slot re-solve budget: cheap once warm, capped during early learning."""
    return DualSolverConfig(max_iterations=150, tolerance=1e-7 * max(1.0, V), window=8)


def dual_learn(instance: NetworkInstance, states, V: float) -> tuple[np.ndarray, int]:
    """OLAC's beta path over ``states``: row t maximizes the dual on states[:t].

    Returns the (len(states), r) path and the number of solves that hit their
    iteration cap; such a solve still sets beta to the best iterate found.
    """
    path = np.zeros((len(states), instance.r))
    counts = np.zeros(instance.M, dtype=np.int64)
    tables = DualTables(instance, V)
    cfg = default_tracking_solver(instance, V)
    flagged = 0
    for t in range(1, len(states)):
        counts[states[t - 1]] += 1
        cfg.warm_start = path[t - 1]
        cfg.step_offset = t
        result = maximize_dual(instance, counts / t, V, cfg, tables=tables)
        path[t] = result.gamma
        flagged += not result.converged
    return path, flagged
