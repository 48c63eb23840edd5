"""OLAC's learned dual multiplier beta(t), computed exactly as a whole path.

beta(t) maximizes the empirical dual: the dual function with the frequencies
of the states seen before slot t in place of the true probabilities, over the
box 0 <= beta <= xi. It depends on the state sequence and V only, never on
the backlog or the actions taken, so the whole path is learned before the
slot loop.

The maximizer is read off the policy LP of ``dual.class_lp`` written in
counts (n_c observations of class c, n_i of state i):

    min  sum_cx f_cx y_cx + xi * sum_j s_j
    s.t. sum_x y_cx = n_c                                   (one row per class)
         sum_cx services_cx,j y_cx + s_j - u_j = sum_i n_i A_ij     (one per queue)
         y, s, u >= 0

where an unfolded class keeps its arrivals in its drift (``services`` is
-drift) and the right-hand side sums the arrivals of folded states only. Its
dual is the empirical dual times the count t, with beta the prices of the
queue rows; the shortfall column s_j turns the box beta_j <= xi into a column,
so the LP is always feasible. Costs are in units of V: the LP is solved at
V = 1 and the path scaled by V, so beta(t; V) = V * beta(t; 1) exactly.

The box is the paper's multiplier bound xi = V * f_max / eta_0, where eta_0 is
the largest service slack of the true distribution (``dual.max_slack``, the
slack LP on the same class tables). eta_0 is the one number derived from the
true probabilities that the learner sees. An instance without slack
(eta_0 <= 0) has no box and is rejected.

An observation of state i adds e_class(i) plus its folded arrivals to the
right-hand side b, so the basic solution x_B = B^-1 b grows by the column
B^-1 b_i. The kept basis stays optimal while x_B >= 0 (right-hand-side
ranging), so beta only changes at a slot where that check fails; the dual
simplex then restores feasibility from the kept basis.
"""
from __future__ import annotations

import numpy as np

# maximize_dual is no longer called here; it stays a module attribute because
# profilers rebind it by name
from .dual import class_lp, max_slack, maximize_dual  # noqa: F401
from .model import NetworkInstance

__all__ = ["dual_learn"]

# x_B entries above -FEAS_TOL * (1 + max|b|) count as non-negative
FEAS_TOL = 1e-9
# a pivot row entry must be below -PIVOT_TOL to enter
PIVOT_TOL = 1e-9
# ratios within TIE_TOL * max(1, best) of the minimum tie; the smallest column wins
TIE_TOL = 1e-12
# slots checked per block: the first block after a pivot, and the cap as blocks double
FIRST_BLOCK = 8
MAX_BLOCK = 4096


class _CountLP:
    """The count LP with one kept basis and its inverse.

    Columns are those of ``dual.class_lp`` (the kept actions in class order),
    then s (cost xi), then u (cost 0); rows are the classes, then the queues.
    The start basis, the cheapest action of each class (smallest id on ties)
    plus every u_j, is dual feasible at beta = 0 and primal feasible at b = 0.
    """

    def __init__(self, instance: NetworkInstance):
        tables, a, costs, self.rhs = class_lp(instance)
        self.n_class = n_class = tables.shape[0]
        r, n_y = instance.r, costs.size
        self.a = np.zeros((n_class + r, n_y + 2 * r))
        self.a[:, :n_y] = a
        self.a[n_class:, n_y:] = np.hstack([np.eye(r), -np.eye(r)])
        self.eta_0 = max_slack(instance, instance.probabilities)
        if not self.eta_0 > 0:
            raise ValueError(
                f"OLAC needs service slack: eta_0 = {self.eta_0:g} <= 0, so the multiplier bound "
                "xi = V * f_max / eta_0 is infinite"
            )
        self.xi = instance.f_max / self.eta_0
        self.c = np.concatenate([costs, np.full(r, self.xi), np.zeros(r)])
        self.s_cols = np.arange(n_y, n_y + r)
        self.u_cols = np.arange(n_y + r, n_y + 2 * r)
        column = np.cumsum(np.isfinite(tables.base)).reshape(tables.shape) - 1  # LP column of each kept slot
        cheapest = column[np.arange(n_class), tables.base.reshape(tables.shape).argmin(axis=1)]
        self.basis = np.concatenate([cheapest, self.u_cols])
        self._refactor()
        self._read_basis()

    def _refactor(self):
        self.binv = np.linalg.inv(self.a[:, self.basis])
        self.y = self.c[self.basis] @ self.binv
        self.d = self.c - self.y @ self.a
        self.d[self.basis] = 0.0

    def _read_basis(self):
        """beta and the per-state growth of x_B for the current basis."""
        # x_B grows by step[i] when state i is observed
        self.step = (self.binv @ self.rhs).T
        basic = np.zeros(self.c.size, dtype=bool)
        basic[self.basis] = True
        beta = np.clip(self.y[self.n_class :], 0.0, self.xi)
        # a basic column has zero reduced cost: beta_j = xi exactly when s_j is basic, 0 when u_j is
        beta[basic[self.s_cols]] = self.xi
        beta[basic[self.u_cols]] = 0.0
        self.beta = beta

    def restore(self, b: np.ndarray) -> np.ndarray:
        """Dual simplex from the kept basis until x_B = B^-1 b >= 0; returns x_B.

        Leaving row: the most negative x_B, ties to the smallest row. Entering
        column: the minimum ratio of reduced cost to |pivot row entry|, ties to
        the smallest column. B^-1 is refactored after every pivot.
        """
        tol = FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
        limit = 50 * self.a.shape[1]
        for _ in range(limit):
            x = self.binv @ b
            row = int(np.argmin(x))
            if x[row] >= -tol:
                self._read_basis()
                return x
            alpha = self.binv[row] @ self.a
            enter = alpha < -PIVOT_TOL
            if not enter.any():
                raise RuntimeError("count LP infeasible, which its shortfall columns rule out")
            ratio = np.full(alpha.size, np.inf)
            ratio[enter] = np.maximum(self.d[enter], 0.0) / -alpha[enter]
            best = ratio.min()
            col = int(np.argmax(ratio <= best + TIE_TOL * max(1.0, best)))
            self.basis[row] = col
            self._refactor()
        raise RuntimeError(f"dual simplex did not restore feasibility within {limit} pivots")


def dual_learn(instance: NetworkInstance, states, V: float) -> tuple[np.ndarray, int]:
    """OLAC's beta path over ``states``: row t maximizes the empirical dual on states[:t].

    Returns the (len(states), r) path and the number of slots at which the box
    binds (some beta_j = xi). beta(0) = 0.
    """
    states = np.asarray(states, dtype=np.int64)
    H = len(states)
    lp = _CountLP(instance)
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
