"""Per-slot decision rules: Backpressure, OLAC, OLAC2.

All three maximize  -V*f(s, x) + sum_j w_j * (mu_j(s, x) - A_j(s, x))
over the state's actions; they differ in the weight vector w and in what they
learn. Backpressure weighs by the queue backlog. OLAC weighs by the effective
backlog q + beta - theta, where beta is the learned multiplier and theta a
positive offset that lets the weights dip below the optimal multiplier
(enabling under-provisioned actions). OLAC2 runs Backpressure weights over
LIFO queues and performs a one-shot learn-and-adjust at slot T_l = round(V^c).

The rules trust their arguments (numpy vectors, q >= 0, beta >= 0, theta > 0,
a state with at least one action): ``sim.run`` checks its inputs once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dual import DualSolveResult, maximize_dual
from .model import NetworkInstance

__all__ = [
    "BACKPRESSURE",
    "OLAC",
    "OLAC2",
    "ControllerConfig",
    "bp_decide",
    "olac_decide",
    "olac2_step",
]

BACKPRESSURE = "Backpressure"
OLAC = "OLAC"
OLAC2 = "OLAC2"
KINDS = (BACKPRESSURE, OLAC, OLAC2)


@dataclass
class ControllerConfig:
    """Which rule to run and its knobs; unused knobs are ignored per kind."""

    kind: str
    V: float
    theta: np.ndarray | None = None          # OLAC; default (ln V)^2 per queue
    c: float = 2.0 / 3.0                     # OLAC2 learn-time exponent

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if not 1 <= self.V < math.inf:
            raise ValueError("V must be a finite number >= 1")
        if self.kind == OLAC2 and not 0 <= self.c < 1:
            raise ValueError("c must lie in [0, 1)")

    def resolved_theta(self, r: int) -> np.ndarray:
        if self.theta is not None:
            theta = np.asarray(self.theta, dtype=float)
            if theta.shape != (r,):
                raise ValueError(f"theta has shape {theta.shape}, expected ({r},)")
            if not (np.isfinite(theta).all() and (theta > 0).all()):
                raise ValueError("theta must be componentwise positive and finite")
            return theta
        return np.full(r, math.log(self.V) ** 2 if self.V > 1 else 1.0)

    def learn_slot(self) -> int:
        """OLAC2's one-shot learn time T_l = round(V^c), at least 1."""
        return max(1, round(self.V**self.c))


def _decide_weighted(instance: NetworkInstance, state_id: int, weights: np.ndarray, V: float) -> int:
    # padded actions have cost +inf, hence score -inf; never selected
    scores = -V * instance.costs[state_id] - instance.drift[state_id] @ weights
    return int(scores.argmax())


def bp_decide(instance: NetworkInstance, state_id: int, q: np.ndarray, V: float) -> int:
    """Max-weight rule: argmax of -V*f + q.(mu - A); ties to the smallest id."""
    return _decide_weighted(instance, state_id, q, V)


def olac_decide(instance: NetworkInstance, state_id: int, q: np.ndarray, beta: np.ndarray, theta: np.ndarray,
                V: float) -> int:
    """Backpressure rule on the effective backlog q + beta - theta (unclamped)."""
    return _decide_weighted(instance, state_id, q + beta - theta, V)


def olac2_step(instance: NetworkInstance, dist, cfg: ControllerConfig, eta_0: float | None = None) -> DualSolveResult:
    """OLAC2's one-shot learn at slot T_l: the exact maximizer of the empirical dual.

    ``dist`` is the empirical distribution of the states seen before T_l; the
    engine adjusts the backlog to the returned ``gamma``, which lies in OLAC's
    box 0 <= gamma <= xi. ``eta_0`` is the true distribution's slack when the
    caller has it (see ``maximize_dual``). An instance without service slack
    raises NoSlackError.
    """
    return maximize_dual(instance, dist, cfg.V, eta_0=eta_0)
