"""Empirical state distribution and the learned dual multiplier beta(t).

beta(t) is the maximizer of the empirical dual: the dual function evaluated
with the observed state frequencies instead of the true probabilities. It is
re-solved on a configurable cadence with warm starts; the diminishing step
schedule is continued across re-solves (offset by the slot index) so that the
step size matches the drift rate of the empirical optimum, which moves by
O(1/t) per slot.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dual import DualSolverConfig, DualTables, maximize_dual
from .model import NetworkInstance

__all__ = ["EmpiricalDistribution", "DualLearnState", "dual_learn"]


@dataclass
class EmpiricalDistribution:
    """Running state-visit counts with an optional pseudo-count prior."""

    counts: np.ndarray
    t: int = 0
    prior: np.ndarray | None = None

    @classmethod
    def empty(cls, m: int, prior=None) -> "EmpiricalDistribution":
        prior_arr = None if prior is None else np.asarray(prior, dtype=float)
        return cls(counts=np.zeros(m, dtype=np.int64), t=0, prior=prior_arr)

    def observe(self, state_id: int) -> "EmpiricalDistribution":
        if not 0 <= state_id < self.counts.size:
            raise KeyError(f"unknown state id {state_id}")
        self.counts[state_id] += 1
        self.t += 1
        return self

    @property
    def defined(self) -> bool:
        return self.t > 0 or self.prior is not None

    def estimate(self) -> np.ndarray:
        """Frequency estimate (counts + prior) / (t + prior mass)."""
        if self.prior is None:
            if self.t == 0:
                raise ValueError("empirical distribution undefined at t=0 without a prior")
            return self.counts / self.t
        return (self.counts + self.prior) / (self.t + self.prior.sum())

    def max_error(self, true_dist) -> float:
        """max_i |estimate_i - true_i|, the worst per-state estimation error."""
        return float(np.abs(self.estimate() - np.asarray(true_dist, dtype=float)).max())


@dataclass
class DualLearnState:
    """Current learned multiplier plus re-solve bookkeeping.

    ``tables`` are the reduced dual tables, built on the first solve and
    reused by every later one; ``solve_cfg`` is a private copy of
    ``solver_cfg`` that each solve points at the current warm start.
    """

    beta: np.ndarray
    solver_cfg: DualSolverConfig
    relearn_period: int = 1
    last_solved_at: int | None = None
    solver_flag: bool = False  # last solve hit its iteration cap
    tables: DualTables | None = field(default=None, init=False, repr=False)
    solve_cfg: DualSolverConfig = field(init=False, repr=False)

    def __post_init__(self):
        self.solve_cfg = replace(self.solver_cfg)

    @classmethod
    def initial(cls, r: int, solver_cfg: DualSolverConfig, relearn_period: int = 1) -> "DualLearnState":
        return cls(beta=np.zeros(r), solver_cfg=solver_cfg, relearn_period=relearn_period)


def dual_learn(
    instance: NetworkInstance,
    ed: EmpiricalDistribution,
    V: float,
    state: DualLearnState,
    slot: int,
) -> DualLearnState:
    """Re-solve the empirical dual if the re-learn cadence is due.

    Leaves beta at its current value when no observations (and no prior)
    exist. The solve is warm-started at the current beta with the step
    schedule offset by ``slot``; a solve that exhausts its iteration budget
    still updates beta to the best iterate found, with ``solver_flag`` set.
    """
    if state.last_solved_at is not None and slot - state.last_solved_at < state.relearn_period:
        return state
    if not ed.defined:
        return state
    if state.tables is None:
        state.tables = DualTables(instance, V)
    cfg = state.solve_cfg
    cfg.warm_start = state.beta
    cfg.step_offset = slot
    result = maximize_dual(instance, ed.estimate(), V, cfg, tables=state.tables)
    state.beta = result.gamma
    state.last_solved_at = slot
    state.solver_flag = not result.converged
    return state
