"""OLAC's learned dual multiplier beta(t), computed exactly as a whole path.

beta(t) maximizes the empirical dual: the dual function with the frequencies
of the states seen before slot t in place of the true probabilities, over the
box 0 <= beta <= xi. It depends on the state sequence and V only, never on
the backlog or the actions taken, so the whole path is learned before the
slot loop.

The maximizer is read off the boxed LP of ``dual._CountLP``, written in
counts (n_c observations of class c, n_i of state i): its dual is the
empirical dual times the count t, with beta the prices of the queue rows.
Costs are in units of V: the LP is solved at V = 1 and the path scaled by V,
so beta(t; V) = V * beta(t; 1) exactly. The box is the paper's multiplier
bound xi = V * f_max / eta_0, where eta_0 is the largest service slack of the
true distribution (``dual.max_slack``); eta_0 is the one number derived from
the true probabilities that the learner sees. An instance without slack
(eta_0 <= 0) has no box and is rejected.

An observation of state i adds e_class(i) plus its folded arrivals to the
right-hand side b, so the basic solution x_B = B^-1 b grows by the column
B^-1 b_i. The kept basis stays optimal while x_B >= 0 (right-hand-side
ranging), so beta only changes at a slot where that check fails; the dual
simplex then restores feasibility from the kept basis.
"""
from __future__ import annotations

import numpy as np

# maximize_dual is not called here; it stays a module attribute because
# profilers rebind it by name
from .dual import FEAS_TOL, _CountLP, maximize_dual  # noqa: F401
from .model import NetworkInstance

__all__ = ["dual_learn"]

# slots checked per block: the first block after a pivot, and the cap as blocks double
FIRST_BLOCK = 8
MAX_BLOCK = 4096


def dual_learn(instance: NetworkInstance, states, V: float, eta_0: float | None = None) -> tuple[np.ndarray, int]:
    """OLAC's beta path over ``states``: row t maximizes the empirical dual on states[:t].

    Returns the (len(states), r) path and the number of slots at which the box
    binds (some beta_j = xi). beta(0) = 0. ``eta_0`` is the true
    distribution's slack when the caller has already solved it; it is solved
    here otherwise.
    """
    states = np.asarray(states, dtype=np.int64)
    H = len(states)
    lp = _CountLP(instance, eta_0)
    starts, betas = [0], [lp.beta]
    x = np.zeros(lp.a.shape[0])
    t = 0  # observations folded into x: states[:t]
    block = FIRST_BLOCK
    bscale = max(1.0, float(np.abs(lp.rhs).max()))
    while t < H - 1:
        n = min(block, H - 1 - t)
        # row k is x_B after observing states[t..t+k], the basis check for slot t+k+1
        ahead = x + np.cumsum(lp.step[states[t : t + n]], axis=0)
        bad = (ahead < -FEAS_TOL * (1.0 + bscale * (t + n))).any(axis=1)
        if not bad.any():
            x = ahead[-1]
            t += n
            block = min(2 * block, MAX_BLOCK)
            continue
        t += int(bad.argmax()) + 1
        x = lp.restore(lp.rhs @ np.bincount(states[:t], minlength=instance.M))
        if not np.array_equal(lp.beta, betas[-1]):
            starts.append(t)
            betas.append(lp.beta)
        block = FIRST_BLOCK
    betas = np.array(betas)
    lengths = np.diff(np.append(starts, H))
    return V * np.repeat(betas, lengths, axis=0), int(lengths[(betas >= lp.xi).any(axis=1)].sum())
