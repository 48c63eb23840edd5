"""OLAC's learned dual multiplier beta(t), computed exactly as a whole path of segments.

beta(t) maximizes the empirical dual: the dual function with the frequencies
of the states seen before slot t in place of the true probabilities, over the
box 0 <= beta <= xi. It depends on the state sequence and V only, never on
the backlog or the actions taken, so the whole path is learned before the
slot loop.

The maximizer is read off the boxed LP of ``dual._CountLP``, written in
counts (n_c observations of class c, n_i of state i): its dual is the
empirical dual times the count t, with beta the prices of the queue rows.
Costs are in units of V: the LP is solved at V = 1 and its caller scales the
path, as beta(t; V) = V * beta(t; 1) exactly. The box is the paper's multiplier
bound xi = V * f_max / eta_0, where eta_0 is the largest service slack of the
true distribution (``dual.nominal_slack``, solved once per instance); eta_0 is
the one number derived from the true probabilities that the learner sees. An
instance without slack (eta_0 <= 0) has no box and is rejected.

An observation of state i adds e_class(i) plus its folded arrivals to the
right-hand side b, so the basic solution x_B = B^-1 b grows by the column
B^-1 b_i. The kept basis stays optimal while x_B >= 0 (right-hand-side
ranging), so beta only changes at a slot where that check fails; the dual
simplex then restores feasibility from the kept basis. The check runs on a
block of slots at a time: one cumulative sum of their growth columns, the
current x_B added in place, and one argmax over the sign test for the first
slot that fails. The count LP keeps the factorisations of its recent bases
and, per basis, the entering column of each leaving row it has priced, so a
pivot that comes back costs no inversion and no ratio test.
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


def dual_learn(instance: NetworkInstance, states) -> tuple[list[int], np.ndarray, int]:
    """OLAC's V = 1 beta path over ``states`` as segments: beta(t) maximizes the empirical dual on states[:t].

    Returns ``(starts, betas, flagged)``: beta(t) = betas[k] from slot starts[k]
    (the first is 0) to the next start, one read-only row per segment, and the
    number of slots at which the box binds (some beta_j = xi). beta(0) = 0. At
    V the path is V * betas and the count the same: ``sim.run`` keeps the
    segments with the instance, so the same seed's runs at other V reuse them.
    """
    states = np.asarray(states, dtype=np.int64)
    H = len(states)
    lp = _CountLP(instance)
    starts, betas = [0], [lp.beta]
    x = np.zeros(lp.a.shape[0])
    t = 0  # observations folded into x: states[:t]
    # counts of states[:counted], as floats: rhs @ counts then needs no cast
    counts, counted = np.zeros(instance.M), 0
    block = FIRST_BLOCK
    bscale = max(1.0, float(np.abs(lp.rhs).max()))
    while t < H - 1:
        n = min(block, H - 1 - t)
        # row k is x_B after observing states[t..t+k], the basis check for slot t+k+1
        ahead = np.add.accumulate(lp.step.take(states[t : t + n], axis=0))
        ahead += x
        bad = ahead < -FEAS_TOL * (1.0 + bscale * (t + n))
        first = int(bad.argmax())  # in row order, so its row is the first slot that fails
        if not bad.item(first):
            x = ahead[-1]
            t += n
            block = min(2 * block, MAX_BLOCK)
            continue
        t += first // bad.shape[1] + 1
        counts += np.bincount(states[counted:t], minlength=instance.M)
        counted = t
        x = lp.restore(lp.rhs @ counts)
        # a kept basis hands back its own beta array, equal to itself
        if lp.beta is not betas[-1] and lp.beta.tolist() != betas[-1].tolist():
            starts.append(t)
            betas.append(lp.beta)
        block = FIRST_BLOCK
    betas = np.array(betas)
    betas.flags.writeable = False
    lengths = np.diff(np.append(starts, H))
    return starts, betas, int(lengths[(betas >= lp.xi).any(axis=1)].sum())
