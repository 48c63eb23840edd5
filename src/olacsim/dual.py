"""Dual function evaluation and maximization, plus exact primal-side oracles.

The dual of the static problem  min V * sum_i pi_i * f(i, x_i)  subject to
average arrivals <= average services is separable over states:

    g(gamma) = sum_i pi_i * min_x [ V*f(i,x) + gamma . (A(i,x) - mu(i,x)) ]

g is concave piecewise-linear in gamma. Every LP here is written on the
classes of the reduced tables (``DualTables``, one read-only record per
instance from ``class_lp``; on the two-queue instance 112 action columns and
18 rows, against 640 and 66 on the full tables) and solved by one engine, a
dual simplex from a dual feasible start basis (``_DualSimplex``):

- the policy LP (``primal_oracle``) gives the optimal mean cost and, as its
  queue-row prices, the optimal multiplier; the slack LP (``max_slack``)
  gives eta_0. Both go through ``solve_lp``, each from a start basis of its
  own; at the true distribution each is solved once per instance and kept
  in ``instance.derived``, the slack LP with its optimal basis, from which
  the slack LP at any other distribution starts;
- ``maximize_dual`` maximizes g over the box 0 <= gamma <= xi =
  V*f_max/eta_0 exactly, as the prices of the same LP written with a
  shortfall column per queue (``_CountLP``); OLAC's learner keeps that LP's
  basis over a whole run, and the factorisation of each recent basis with a
  memo of the pivots priced from it. A learn is bound by numpy's per-call
  cost: on the two-queue instance a uniform 5000-slot learn takes about
  10 ms (2-core x86-64 host), 72% of it in ``restore``: new inversions
  22%, ratio tests 16%, prices and reduced costs 10%, x_B 9%.

Analysis constants (slack eta_0, polyhedral decay rho, attraction radius
D_p) are derived from these oracles. rho is exact: the smallest support
value of the dual's superdifferential at its maximizer, over the facet
normals of that Minkowski sum (``estimate_polyhedral_rho``). It does not
depend on V, so the instance keeps it, with a direction that attains it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .model import NetworkInstance

__all__ = [
    "DualSolveResult",
    "DualTables",
    "PrimalSolution",
    "InstanceAnalysis",
    "InfeasibleInstanceError",
    "NoSlackError",
    "dual_value",
    "maximize_dual",
    "class_lp",
    "primal_oracle",
    "max_slack",
    "estimate_polyhedral_rho",
    "compute_analysis",
]

class InfeasibleInstanceError(RuntimeError):
    """The static problem admits no stabilizing mixture (no slack)."""


class NoSlackError(ValueError):
    """The instance has no service slack (eta_0 <= 0), so the learned multiplier has no box."""


@dataclass
class DualSolveResult:
    gamma: np.ndarray
    at_box: bool  # some gamma_j sits on the box xi
    iterations: int  # dual simplex pivots


@dataclass
class PrimalSolution:
    f_av_star: float
    multiplier_v1: np.ndarray  # optimal dual prices of the V=1 problem


@dataclass
class InstanceAnalysis:
    """Everything the harness precomputes once per (instance, V); B and f_max are the instance's own."""

    V: float
    f_av_star: float
    gamma_star: np.ndarray
    g_star: float
    eta_0: float
    rho_hat: float
    eta: float
    D_p: float
    xi: float  # multiplier magnitude bound V*f_max/eta_0 (inf without slack): the learners' box, bit for bit


def _check_weights(instance: NetworkInstance, dist) -> np.ndarray:
    """``dist`` as floats: one finite, non-negative weight per state (a distribution or counts)."""
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (instance.M,):
        raise ValueError(f"distribution has shape {dist.shape}, expected ({instance.M},)")
    for problem, bad in (("non-finite", ~np.isfinite(dist)), ("negative", dist < 0)):
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"distribution has a {problem} entry at state {i}: {dist[i]:g}")
    return dist


def _check_dims(instance: NetworkInstance, gamma, dist):
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (instance.r,):
        raise ValueError(f"multiplier has shape {gamma.shape}, expected ({instance.r},)")
    return gamma, _check_weights(instance, dist)


def dual_value(instance: NetworkInstance, dist, gamma, V: float) -> float:
    """Distribution-weighted sum of per-state dual values."""
    gamma, dist = _check_dims(instance, gamma, dist)
    scores = V * instance.costs + instance.drift @ gamma
    return float(dist @ scores.min(axis=1))


class DualTables:
    """The dual's tables reduced to classes of states, and the static LP on them.

    Two reductions that leave every minimizer over gamma >= 0 in place, at
    every V > 0:

    - Folding. A state whose arrivals are the same for every action adds the
      same gamma . A(i) to all of its action scores, so its argmin is the
      argmin of V*f - gamma . mu. Such states that share the cost and service
      rows fold into one class. A state with action-dependent arrivals is a
      class of its own and keeps its full drift.
    - Pruning. Action x of a class is dropped when some action y has
      f_y <= f_x and drift_y <= drift_x in every component, and also y < x
      or f_y < f_x. For gamma >= 0 the score of y is then at most that of x,
      so x is never the smallest-id minimizer, not even at gamma = 0, where
      only costs decide.

    The kept actions of a class stay in id order, padded to a common width
    with +inf cost, so argmin ties still go to the smallest id; costs are in
    units of V. ``action_ids[class_of]`` maps a per-class slot back to each
    state's action id, and ``folded`` marks the states whose arrivals left the
    class's drift. The two-queue instance reduces from 64 states x 10 actions
    to 16 classes x 9 slots (112 real actions). ``class_lp`` keeps one record
    per instance.

    The class LP, on which every LP of this module is written: its columns
    are the kept actions in class order, with costs ``cost`` in units of V;
    its rows (``a``) are the classes, sum_x y_cx = w_c, then the queues,
    sum_cx services_cx,j y_cx = (arrivals of the folded states)_j, where
    ``services`` is -drift, so an unfolded class keeps its arrivals in its
    column. The right-hand side of state weights w (a distribution or
    counts) is rhs @ w. ``cheapest_cols`` and ``min_drift_cols`` are the
    start columns of those LPs, one per class. Every array is read-only.
    """

    def __init__(self, instance: NetworkInstance):
        M, K = instance.costs.shape
        r = instance.r
        valid = np.arange(K) < instance.action_counts[:, None]
        base = instance.costs
        services = instance.services
        fold = ((instance.arrivals == instance.arrivals[:, :1]) | ~valid[..., None]).all(axis=(1, 2))
        # states that cannot fold get a tag of their own, so they never share a class
        tag = np.where(fold, 0.0, np.arange(1.0, M + 1.0))
        key = np.hstack([base, services.reshape(M, K * r), tag[:, None]])
        _, rep, class_of = np.unique(key, axis=0, return_index=True, return_inverse=True)
        class_of = class_of.reshape(-1)

        cost = base[rep]
        drift = np.where(fold[rep, None, None], -services[rep], instance.drift[rep])
        ids = np.arange(K)
        dominated = (
            valid[rep][:, :, None]
            & (cost[:, :, None] <= cost[:, None, :])
            & (drift[:, :, None, :] <= drift[:, None, :, :]).all(axis=3)
            & ((ids[:, None] < ids[None, :]) | (cost[:, :, None] < cost[:, None, :]))
        ).any(axis=1)
        keep = valid[rep] & ~dominated

        n_class, width = rep.size, int(keep.sum(axis=1).max())
        order = np.argsort(~keep, axis=1, kind="stable")[:, :width]  # kept ids first, in id order
        kept = np.take_along_axis(keep, order, axis=1)
        self.shape = (n_class, width)
        self.base = np.where(kept, np.take_along_axis(cost, order, axis=1), np.inf).ravel()
        self.drift = np.where(
            kept[..., None], np.take_along_axis(drift, order[..., None], axis=1), 0.0
        ).reshape(-1, r)
        self.class_of = class_of
        self.action_ids = order  # action id of each class slot
        self.folded = fold

        real = np.isfinite(self.base)
        n_y = int(real.sum())
        classes = np.arange(n_class)
        self.a = np.zeros((n_class + r, n_y))
        self.a[np.repeat(classes, width)[real], np.arange(n_y)] = 1.0
        self.a[n_class:] = -self.drift[real].T
        self.cost = self.base[real]
        self.rhs = np.zeros((n_class + r, M))
        self.rhs[class_of, np.arange(M)] = 1.0
        self.rhs[n_class:] = (instance.arrivals[:, 0] * fold[:, None]).T
        column = np.cumsum(real).reshape(self.shape) - 1  # LP column of each kept slot
        # the policy and count LPs start from each class's cheapest kept action,
        # smallest id on ties: at zero queue prices the reduced costs are cost
        # differences within a class, >= 0
        self.cheapest_cols = column[classes, self.base.reshape(self.shape).argmin(axis=1)]
        # the slack LP starts from each class's kept action of smallest queue-1
        # drift, smallest id on ties: at queue prices e_1 the reduced costs are
        # queue-1 drift differences within a class, >= 0
        drift_1 = np.where(real, self.drift[:, 0], np.inf).reshape(self.shape)
        self.min_drift_cols = column[classes, drift_1.argmin(axis=1)]
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                _frozen(value)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def class_lp(instance: NetworkInstance) -> DualTables:
    """``DualTables(instance)``, built once per instance (``instance.derived``): later calls return the same record."""
    if "class_lp" not in instance.derived:
        instance.derived["class_lp"] = DualTables(instance)
    return instance.derived["class_lp"]


def nominal_slack(instance: NetworkInstance) -> float:
    """eta_0 = ``max_slack(instance, instance.probabilities)``, solved once per instance (``instance.derived``).

    The slack has a slot of its own, apart from the policy LP's: the learners
    read the slack only, so an instance without slack, whose policy LP can be
    infeasible, raises NoSlackError there. Its optimal basis sits next to it
    (``slack_basis``), the start of every other distribution's slack LP.
    """
    if "eta_0" not in instance.derived:
        instance.derived["eta_0"] = max_slack(instance, instance.probabilities)
    return instance.derived["eta_0"]


def learner_slack(instance: NetworkInstance) -> float:
    """``nominal_slack``, which must be positive: the learners' box is xi = V * f_max / eta_0."""
    eta_0 = nominal_slack(instance)
    if not eta_0 > 0:
        raise NoSlackError(
            f"the learned multiplier needs service slack: eta_0 = {eta_0:g} <= 0, so its bound "
            "xi = V * f_max / eta_0 is infinite"
        )
    return eta_0


# x_B entries above -FEAS_TOL * (1 + max|b|) count as non-negative
FEAS_TOL = 1e-9
# a pivot row entry must be below -PIVOT_TOL to enter
PIVOT_TOL = 1e-9
# ratios within TIE_TOL * max(1, best) of the minimum tie; the smallest column wins
TIE_TOL = 1e-12
# factorisations a _DualSimplex keeps, for its most recent bases: the dual simplex
# flickers between degenerate bases of one vertex, so a basis it has just left
# comes back at once. On the two-queue instance this size inverts each
# distinct basis of a run once, as an unbounded cache would (10 runs of 5000
# uniform or 2500 unbalanced slots: 2142 and 2285 inversions, about 22% of a
# learn's 10 ms); a size of 4 comes within 2% of that.
BASIS_CACHE = 16


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


# np.linalg.inv's own gufunc under the error state that np.linalg.inv sets, so the
# same bits and the same LinAlgError on a singular matrix, without its Python checks
_inverse = np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore", under="ignore")(
    _umath_linalg.inv
)


class _DualSimplex:
    """min c.x s.t. a.x = b, x >= 0, by the dual simplex, with one kept basis and its inverse.

    ``basis`` lists one column per row and must be dual feasible: every
    reduced cost d = c - y.a, with prices y = c_B B^-1, is >= 0. ``restore``
    keeps d >= 0 while it pivots to x_B = B^-1 b >= 0, so the basis it ends
    on is optimal (Bertsimas & Tsitsiklis, Introduction to Linear
    Optimization, 1997, section 4.5).

    ``factors`` keeps the factorisation of each of the last ``BASIS_CACHE``
    bases, keyed by the basis bytes: B^-1, the prices y, the reduced costs
    clamped at zero, max(d, 0), which the ratio test reads, a memo of the
    entering column of each leaving row priced from that basis, and two
    slots that ``_CountLP`` fills when it reads a basis; every array is
    read-only. A basis that comes back reuses them; they are the floats a new
    factorisation would give, since it would make the same numpy calls on the
    same operands. The ratio test depends on the basis and the leaving row
    alone, so a memo hit is the column it would pick again. ``_inverse`` is
    the one place a basis is inverted; a singular basis raises LinAlgError.
    """

    def __init__(self, a: np.ndarray, c: np.ndarray, basis: np.ndarray):
        self.a, self.c, self.basis = a, c, basis
        self.pivots = 0
        self.limit = 50 * a.shape[1]
        # basis bytes -> [binv, y, clamp, memo, step, beta], least recently used first
        self.factors: dict[bytes, list] = {}
        self._refactor()

    def _refactor(self):
        """B^-1, y, max(d, 0) and the memo of the current basis: kept ones, or a new inversion."""
        key = self.basis.tobytes()
        factor = self.factors.pop(key, None)
        if factor is None:
            binv = _inverse(self.a.take(self.basis, axis=1))
            y = self.c[self.basis] @ binv
            clamp = self.c - y @ self.a
            clamp[self.basis] = 0.0
            np.maximum(clamp, 0.0, out=clamp)
            binv.setflags(write=False)
            y.setflags(write=False)
            clamp.setflags(write=False)
            factor = [binv, y, clamp, {}, None, None]
            if len(self.factors) == BASIS_CACHE:
                del self.factors[next(iter(self.factors))]
        self.factors[key] = factor
        self._factor = factor
        self.binv, self.y, self.clamp, self.memo = factor[:4]

    def restore(self, b: np.ndarray) -> np.ndarray | None:
        """Dual simplex from the kept basis until x_B = B^-1 b >= 0; returns x_B, or None if a.x = b has no x >= 0.

        Leaving row: the most negative x_B, ties to the smallest row. Entering
        column: the minimum ratio of reduced cost to |pivot row entry|, ties to
        the smallest column; only the entering columns are tested, and a
        (basis, row) pair already priced reads its column from the basis's
        memo. A leaving row without an entering column proves the LP
        infeasible. After every pivot the new basis's factorisation is a kept
        one or a new inversion. The smallest ratio is taken over the ratios as
        Python floats, the same doubles, without ``ndarray.min``'s wrapper.
        """
        tol = FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
        for _ in range(self.limit):
            x = self.binv @ b
            row = int(x.argmin())
            if x.item(row) >= -tol:
                return x
            col = self.memo.get(row)
            if col is None:
                alpha = self.binv[row] @ self.a
                enter = (alpha < -PIVOT_TOL).nonzero()[0]
                if not enter.size:
                    return None
                ratio = self.clamp[enter] / -alpha[enter]
                best = min(ratio.tolist())
                col = self.memo[row] = enter.item((ratio <= best + TIE_TOL * max(1.0, best)).argmax())
            self.basis[row] = col
            self.pivots += 1
            self._refactor()
        raise RuntimeError(f"dual simplex did not restore feasibility within {self.limit} pivots")


def solve_lp(a: np.ndarray, c: np.ndarray, basis, b: np.ndarray):
    """min c.x s.t. a.x = b, x >= 0 from a dual feasible start ``basis``: (x_B, final basis, row prices).

    x_B is None when the LP is infeasible. The oracles' policy and slack LPs
    are solved here; the learners keep a ``_CountLP`` of their own.
    """
    lp = _DualSimplex(a, c, np.array(basis))
    return lp.restore(b), lp.basis, lp.y


class _CountLP(_DualSimplex):
    """The boxed dual's LP, in units of V, with one kept basis and its inverse.

    With state weights w (counts n or a distribution):

        min  sum_cx f_cx y_cx + xi * sum_j s_j
        s.t. sum_x y_cx = w_c                                    (one row per class)
             sum_cx services_cx,j y_cx + s_j - u_j = sum_i w_i A_ij     (one per queue)
             y, s, u >= 0

    Its dual is the dual function at w times sum(w), with gamma the prices of
    the queue rows; the shortfall column s_j turns the box gamma_j <= xi into
    a column, so the LP is always feasible. xi = f_max / eta_0, where eta_0 is
    the largest service slack of the true distribution (``nominal_slack``); an
    instance without slack (eta_0 <= 0) has no box and is rejected.

    Columns are those of ``class_lp`` (the kept actions in class order), then
    s (cost xi), then u (cost 0); rows are the classes, then the queues. The
    start basis, ``cheapest_cols`` plus every u_j, is dual feasible at
    gamma = 0 and primal feasible at w = 0.
    Each kept factorisation also holds, once read, ``step`` and ``beta``.
    """

    def __init__(self, instance: NetworkInstance):
        lp = class_lp(instance)
        self.rhs = lp.rhs
        self.n_class = n_class = lp.shape[0]
        r, n_y = instance.r, lp.cost.size
        count_a = np.zeros((n_class + r, n_y + 2 * r))
        count_a[:, :n_y] = lp.a
        count_a[n_class:, n_y:] = np.hstack([np.eye(r), -np.eye(r)])
        self.eta_0 = learner_slack(instance)
        self.xi = instance.f_max / self.eta_0
        self.n_y = n_y  # the first shortfall column
        c = np.concatenate([lp.cost, np.full(r, self.xi), np.zeros(r)])
        super().__init__(count_a, c, np.concatenate([lp.cheapest_cols, np.arange(n_y + r, n_y + 2 * r)]))
        self._read_basis()

    def _read_basis(self):
        """beta and the per-state growth of x_B for the current basis."""
        factor = self._factor
        if factor[4] is None:
            # x_B grows by step[i] when state i is observed; rows contiguous, as the learner gathers them
            step = np.ascontiguousarray((self.binv @ self.rhs).T)
            beta = np.maximum(self.y[self.n_class :], 0.0)
            np.minimum(beta, self.xi, out=beta)
            # a basic column has zero reduced cost: beta_j = xi exactly when s_j is basic, 0 when u_j is
            r = beta.size
            for col in self.basis.tolist():
                if col >= self.n_y:
                    j = col - self.n_y
                    beta[j % r] = self.xi if j < r else 0.0
            step.setflags(write=False)
            beta.setflags(write=False)
            factor[4], factor[5] = step, beta
        self.step, self.beta = factor[4], factor[5]

    def restore(self, b: np.ndarray) -> np.ndarray:
        """``_DualSimplex.restore``, then the new basis's beta and growth columns; returns x_B."""
        x = super().restore(b)
        if x is None:
            raise RuntimeError("count LP infeasible, which its shortfall columns rule out")
        self._read_basis()
        return x


def maximize_dual(instance: NetworkInstance, dist, V: float) -> DualSolveResult:
    """The exact maximizer of the dual at ``dist`` over the box 0 <= gamma <= xi.

    xi = V * f_max / eta_0 is ``InstanceAnalysis.xi`` bit for bit. The LP of
    ``_CountLP`` is solved once with the dual simplex from its start basis;
    ``gamma`` is V times its queue-row prices. An instance without service
    slack (eta_0 <= 0) raises NoSlackError.
    """
    dist = _check_weights(instance, dist)
    lp = _CountLP(instance)
    lp.restore(lp.rhs @ dist)
    return DualSolveResult(
        gamma=V * lp.beta,
        at_box=bool((lp.beta >= lp.xi).any()),
        iterations=lp.pivots,
    )


def primal_oracle(instance: NetworkInstance, dist) -> PrimalSolution:
    """Exact optimum of the static problem over randomized per-state policies, and its multiplier.

    Minimizes the mean cost subject to mean arrivals <= mean services, as the
    policy LP: ``class_lp``'s columns plus a surplus column u_j per queue,
    sum_cx services_cx,j y_cx - u_j = (mean folded arrivals)_j. It is solved
    by ``solve_lp`` from ``_CountLP``'s start basis without the shortfall
    columns (``cheapest_cols`` plus every u_j). Returns the unscaled optimum
    (no V factor); the queue rows' prices are the optimal multiplier of the
    V=1 problem. An LP without a feasible point raises
    InfeasibleInstanceError.
    """
    dist = _check_weights(instance, dist)
    lp = class_lp(instance)
    n_class, r, n_y = lp.shape[0], instance.r, lp.cost.size
    surplus = np.vstack([np.zeros((n_class, r)), -np.eye(r)])
    c = np.concatenate([lp.cost, np.zeros(r)])
    basis = np.concatenate([lp.cheapest_cols, np.arange(n_y, n_y + r)])
    x, basis, y = solve_lp(np.hstack([lp.a, surplus]), c, basis, lp.rhs @ dist)
    if x is None:
        raise InfeasibleInstanceError("no randomized policy satisfies the rate constraints")
    return PrimalSolution(f_av_star=float(c[basis] @ x), multiplier_v1=np.maximum(y[n_class:], 0.0))


def max_slack(instance: NetworkInstance, dist) -> float:
    """Largest eta with mean arrivals <= mean services - eta under some policy.

    The slack LP maximizes eta = ep - en subject to
    sum_cx services_cx,j y_cx - ep + en - u_j = (mean folded arrivals)_j on
    ``class_lp``'s columns. May be <= 0, which signals that no randomized
    policy stabilizes the given distribution with slack.

    At the true distribution ``solve_lp`` starts it from ``min_drift_cols``,
    ep on queue row 1 and u_j for j >= 2: its prices are e_1 on the queue
    rows, so every reduced cost is >= 0 on any instance. The instance keeps
    the optimal basis of that solve (``instance.derived["slack_basis"]``). At
    any other distribution only the right-hand side differs, so that basis is
    still dual feasible and the LP starts from it, usually zero or a few
    pivots from optimal; the true distribution's LP is solved first
    (``nominal_slack``) if the instance does not keep its basis yet, so no
    result depends on the order of calls.
    """
    dist = _check_weights(instance, dist)
    lp = class_lp(instance)
    n_class, r, n_y = lp.shape[0], instance.r, lp.cost.size
    extra = np.zeros((n_class + r, r + 2))  # columns ep, en, u
    extra[n_class:] = np.hstack([-np.ones((r, 1)), np.ones((r, 1)), -np.eye(r)])
    c = np.zeros(n_y + r + 2)
    c[n_y : n_y + 2] = -1.0, 1.0
    nominal = np.array_equal(dist, instance.probabilities)
    if nominal:
        basis = np.concatenate([lp.min_drift_cols, [n_y], np.arange(n_y + 3, n_y + r + 2)])
    else:
        if "slack_basis" not in instance.derived:
            nominal_slack(instance)
        basis = instance.derived["slack_basis"]
    x, basis, _ = solve_lp(np.hstack([lp.a, extra]), c, basis, lp.rhs @ dist)
    if x is None:
        raise RuntimeError("slack LP infeasible, which its free eta rules out")
    if nominal:
        instance.derived["slack_basis"] = _frozen(basis)
    return 0.0 - float(c[basis] @ x)  # 0.0 - x turns an optimum of -0.0 into 0.0


# scores within RHO_TIE_TOL times the size of their terms of a class's minimum tie
# at the V = 1 multiplier, and a multiplier entry within it of 0 is on the boundary
RHO_TIE_TOL = 1e-9


def nominal_policy(instance: NetworkInstance) -> PrimalSolution:
    """``primal_oracle`` at the true distribution, solved once per instance (``instance.derived["policy"]``)."""
    if "policy" not in instance.derived:
        instance.derived["policy"] = primal_oracle(instance, instance.probabilities)
    return instance.derived["policy"]


def _normals(edges: np.ndarray) -> np.ndarray:
    """The generalized cross product of each (r-1, r) block of the (N, r-1, r) array ``edges``: (N, r).

    Entry j is (-1)^j times the minor of the block without column j, each
    minor a Leibniz sum of elementwise products; the normal is orthogonal to
    every row of its block, and 0 when the rows are dependent. With r = 1 a
    block is empty and its normal is 1.
    """
    n, k, r = edges.shape
    normals = np.zeros((n, r))
    for j in range(r):
        cols = [col for col in range(r) if col != j]
        for perm in itertools.permutations(range(k)):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            term = np.full(n, (-1.0) ** (j + inversions))
            for row, col in enumerate(perm):
                term = term * edges[:, row, cols[col]]
            normals[:, j] += term
    return normals


def estimate_polyhedral_rho(instance: NetworkInstance) -> tuple[float, np.ndarray]:
    """The exact polyhedral decay rate of the dual at its maximizer, and a unit direction that attains it.

    rho is the largest constant with g(gamma*) - g(gamma) >= rho ||gamma - gamma*||
    for every gamma >= 0. g is concave, so the ratio never falls along a ray
    out of gamma*, and rho is the smallest one-sided rate -g'(gamma*; d) over
    unit directions d with d_j >= 0 wherever gamma*_j = 0. By g_V(V gamma) =
    V g_1(gamma) it is the same at every V, so it is computed at the V = 1
    multiplier gamma*_1 (``nominal_policy``) on ``class_lp``'s tables, where
    g(gamma) = sum_c w_c min_x (base_cx + drift_cx . gamma) + gamma . a_bar,
    with w and a_bar the class and queue rows of rhs @ pi.

    Each class c has a tie set T_c at gamma*_1: the slots whose score lies
    within RHO_TIE_TOL of the class minimum, relative to the size of the
    scores' terms; queue j is on the boundary (j in Z) when gamma*_1j is 0
    within that tolerance. With v = -d, -g'(gamma*; d) is

        h(v) = sum_c w_c max_{x in T_c} v . drift_cx + v . a_bar,

    the support function of the superdifferential, a Minkowski sum, plus the
    cone of e_j for j in Z (it adds nothing where v_j <= 0 on Z). The
    minimum of h over unit v lies at a facet normal of that sum, and every
    facet normal is orthogonal to r - 1 of its edge directions (Fukuda, J.
    Symb. Comp. 2004): the differences of tied drifts within a class, and
    e_j for j in Z. These span every queue: the policy LP's optimal basis is
    nonsingular, its action columns are tied and its basic surplus columns
    are queues in Z. So the candidates are +-e_j and both signs of the
    normal (``_normals``) of every (r - 1)-subset of the edge directions.
    Candidates with v_j > 0 for some j in Z leave the box and are dropped;
    rho is the smallest h of the others, clamped at 0, and 0 where 0 lies
    on the sum's boundary.

    Every product is elementwise and summed one queue at a time, so gamma*
    enters only through the tie test, and rho does not move with the BLAS
    kernel that solved the policy LP.
    """
    lp = class_lp(instance)
    n_class, width = lp.shape
    r = instance.r
    gamma = nominal_policy(instance).multiplier_v1
    score, size = lp.base.copy(), np.abs(lp.base)
    for j in range(r):
        score += lp.drift[:, j] * gamma[j]
        size += np.abs(lp.drift[:, j] * gamma[j])
    score = score.reshape(n_class, width)
    tol = RHO_TIE_TOL * (1.0 + size[np.isfinite(size)].max(initial=0.0))
    tied = (score <= score.min(axis=1, keepdims=True) + tol).ravel()
    boundary = gamma <= RHO_TIE_TOL * (1.0 + gamma.max(initial=0.0))

    drift = lp.drift[tied]
    tied_class = np.repeat(np.arange(n_class), width)[tied]
    pairs = [(x, y) for x, y in itertools.combinations(range(tied_class.size), 2) if tied_class[x] == tied_class[y]]
    edges = np.vstack([np.eye(r)[boundary], *(drift[x] - drift[y] for x, y in pairs)])
    lengths = np.sqrt((edges * edges).sum(axis=-1))
    edges = edges[lengths > 0] / lengths[lengths > 0, None]
    subsets = list(itertools.combinations(range(len(edges)), r - 1))
    normals = _normals(edges[np.array(subsets, dtype=int).reshape(len(subsets), r - 1)])
    # of unit edges a normal is as long as the sine volume they span: below 1e-12 they are dependent
    lengths = np.sqrt((normals * normals).sum(axis=-1))
    normals = normals[lengths > 1e-12] / lengths[lengths > 1e-12, None]
    candidates = np.vstack([np.eye(r), -np.eye(r), normals, -normals])
    candidates = candidates[(candidates[:, boundary] <= 0.0).all(axis=1)]

    weights = (lp.rhs * instance.probabilities).sum(axis=-1)
    dots = candidates[:, :1] * drift[:, 0]
    support = candidates[:, 0] * weights[n_class]
    for j in range(1, r):
        dots += candidates[:, j : j + 1] * drift[:, j]
        support += candidates[:, j] * weights[n_class + j]
    starts = np.flatnonzero(np.diff(tied_class, prepend=-1))
    support += (np.maximum.reduceat(dots, starts, axis=1) * weights[tied_class[starts]]).sum(axis=-1)
    best = int(support.argmin())
    return max(float(support[best]), 0.0), _frozen(0.0 - candidates[best])


# eta as a fraction of rho_hat
ETA_FRACTION = 0.1


def compute_analysis(instance: NetworkInstance, V: float) -> InstanceAnalysis:
    """Oracle bundle per (instance, V) at the true distribution: optimum, multiplier, slack, rho_hat, eta, D_p.

    gamma_star is V times the policy LP's dual prices, and g_star the dual
    function evaluated there on the full tables (``dual_value``), so that
    g_star = V*f_av_star (strong duality) checks the LP's prices against an
    independent evaluation, and g_star <= V*f_av_star (weak duality) holds
    for any multiplier. The policy LP, the slack LP and the decay rate rho
    (``estimate_polyhedral_rho``, with its direction) do not depend on V:
    the instance keeps them (``instance.derived``).

    eta = ETA_FRACTION * rho_hat; any fraction in (0, 1) yields a valid drift
    margin. D_p = (B - eta^2)/(2(rho_hat - eta)) is increasing in eta, so the
    small fraction keeps the convergence-measurement radius close to its
    minimum B/(2 rho_hat), which matters on instances whose dual has shallow
    directions (large D_p otherwise swallows the whole approach path). Where
    rho_hat = 0, eta and D_p are NaN.
    """
    policy = nominal_policy(instance)
    gamma_star = V * policy.multiplier_v1
    g_star = dual_value(instance, instance.probabilities, gamma_star, V)
    if "rho" not in instance.derived:
        instance.derived["rho"] = estimate_polyhedral_rho(instance)
    rho_hat = instance.derived["rho"][0]
    if rho_hat > 0:
        eta = ETA_FRACTION * rho_hat
        d_p = (instance.B - eta**2) / (2.0 * (rho_hat - eta))
    else:
        eta = math.nan
        d_p = math.nan
    eta_0 = nominal_slack(instance)
    return InstanceAnalysis(
        V=V,
        f_av_star=policy.f_av_star,
        gamma_star=gamma_star,
        g_star=g_star,
        eta_0=eta_0,
        rho_hat=rho_hat,
        eta=eta,
        D_p=d_p,
        xi=V * (instance.f_max / eta_0) if eta_0 > 0 else math.inf,
    )
