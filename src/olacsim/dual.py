"""Dual function evaluation and maximization, plus exact primal-side oracles.

The dual of the static problem  min V * sum_i pi_i * f(i, x_i)  subject to
average arrivals <= average services is separable over states:

    g(gamma) = sum_i pi_i * min_x [ V*f(i,x) + gamma . (A(i,x) - mu(i,x)) ]

g is concave piecewise-linear in gamma. The static problem is solved exactly
as a linear program over action mixtures on the classes of the reduced tables
(``DualTables``, ``class_lp``; the primal oracle), which also yields the
optimal multiplier through its dual prices; the slack LP behind eta_0 uses
the same columns. ``maximize_dual`` maximizes g over the box
0 <= gamma <= xi = V*f_max/eta_0 exactly, as the prices of the same LP
written with a shortfall column per queue (``_CountLP``); OLAC's learner
keeps that LP's basis over a whole run. On the two-queue instance these LPs
have 112 action columns and 18 rows, against 640 and 66 on the full tables.
Analysis constants (slack eta_0, polyhedral decay rho, attraction radius
D_p) are derived from these oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._simplex import solve_lp
from .model import NetworkInstance

__all__ = [
    "DualSolveResult",
    "DualTables",
    "RandomizedPolicy",
    "PrimalSolution",
    "AnalysisConstants",
    "InstanceAnalysis",
    "InfeasibleInstanceError",
    "NoSlackError",
    "dual_value",
    "supergradient",
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
    value: float
    at_box: bool  # some gamma_j sits on the box xi
    iterations: int  # dual simplex pivots


@dataclass
class RandomizedPolicy:
    """Per-state probability vectors over that state's actions."""

    per_state: list[np.ndarray]


@dataclass
class PrimalSolution:
    f_av_star: float
    policy: RandomizedPolicy
    multiplier_v1: np.ndarray  # optimal dual prices of the V=1 problem


@dataclass
class AnalysisConstants:
    B: float
    eta: float
    rho_hat: float
    D_p: float
    f_max: float


@dataclass
class InstanceAnalysis:
    """Everything the harness precomputes once per (instance, V)."""

    V: float
    f_av_star: float
    gamma_star: np.ndarray
    g_star: float
    eta_0: float
    constants: AnalysisConstants
    multiplier_v1: np.ndarray  # the policy LP's dual prices, as in PrimalSolution

    @property
    def xi(self) -> float:
        """Multiplier magnitude bound V*f_max/eta_0 (inf without slack): the learners' box, bit for bit."""
        if self.eta_0 <= 0:
            return math.inf
        return self.V * (self.constants.f_max / self.eta_0)


def _check_dims(instance: NetworkInstance, gamma, dist=None):
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (instance.r,):
        raise ValueError(f"multiplier has shape {gamma.shape}, expected ({instance.r},)")
    if dist is not None:
        dist = np.asarray(dist, dtype=float)
        if dist.shape != (instance.M,):
            raise ValueError(f"distribution has shape {dist.shape}, expected ({instance.M},)")
        return gamma, dist
    return gamma


def dual_value(instance: NetworkInstance, dist, gamma, V: float) -> float:
    """Distribution-weighted sum of per-state dual values."""
    gamma, dist = _check_dims(instance, gamma, dist)
    scores = V * instance.costs + instance.drift @ gamma
    return float(dist @ scores.min(axis=1))


def supergradient(instance: NetworkInstance, dist, gamma, V: float) -> np.ndarray:
    """A supergradient of the concave dual at gamma: the mean selected drift."""
    gamma, dist = _check_dims(instance, gamma, dist)
    scores = V * instance.costs + instance.drift @ gamma
    sel = scores.argmin(axis=1)
    return dist @ instance.drift[np.arange(instance.M), sel]


class DualTables:
    """The dual's tables reduced to classes of states, built once per instance.

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
    to 16 classes x 9 slots (112 real actions). The oracle LPs and the dual
    maximizer are written on these classes (``class_lp``).
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

        width = int(keep.sum(axis=1).max())
        order = np.argsort(~keep, axis=1, kind="stable")[:, :width]  # kept ids first, in id order
        kept = np.take_along_axis(keep, order, axis=1)
        self.shape = (rep.size, width)
        self.base = np.where(kept, np.take_along_axis(cost, order, axis=1), np.inf).ravel()
        self.drift = np.where(
            kept[..., None], np.take_along_axis(drift, order[..., None], axis=1), 0.0
        ).reshape(-1, r)
        self.class_of = class_of
        self.action_ids = order  # action id of each class slot
        self.folded = fold


def class_lp(instance: NetworkInstance):
    """The static LP on the classes of ``DualTables(instance)``: (tables, a, cost, rhs).

    Columns are the kept actions in class order, with costs in units of V.
    Rows are the classes, sum_x y_cx = w_c, then the queues,
    sum_cx services_cx,j y_cx = (arrivals of the folded states)_j, where
    ``services`` is -drift, so an unfolded class keeps its arrivals in its
    column. The right-hand side of state weights w (a distribution or counts)
    is rhs @ w. Folding and pruning leave the optimum in place (see
    ``DualTables``), so the policy and slack LPs are written on these columns,
    and so is the dual maximizer's LP.
    """
    tables = DualTables(instance)
    n_class, width = tables.shape
    real = np.isfinite(tables.base)
    n_y = int(real.sum())
    a = np.zeros((n_class + instance.r, n_y))
    a[np.repeat(np.arange(n_class), width)[real], np.arange(n_y)] = 1.0
    a[n_class:] = -tables.drift[real].T
    rhs = np.zeros((n_class + instance.r, instance.M))
    rhs[tables.class_of, np.arange(instance.M)] = 1.0
    rhs[n_class:] = (instance.arrivals[:, 0] * tables.folded[:, None]).T
    return tables, a, tables.base[real], rhs


# x_B entries above -FEAS_TOL * (1 + max|b|) count as non-negative
FEAS_TOL = 1e-9
# a pivot row entry must be below -PIVOT_TOL to enter
PIVOT_TOL = 1e-9
# ratios within TIE_TOL * max(1, best) of the minimum tie; the smallest column wins
TIE_TOL = 1e-12


class _CountLP:
    """The boxed dual's LP, in units of V, with one kept basis and its inverse.

    With state weights w (counts n or a distribution):

        min  sum_cx f_cx y_cx + xi * sum_j s_j
        s.t. sum_x y_cx = w_c                                    (one row per class)
             sum_cx services_cx,j y_cx + s_j - u_j = sum_i w_i A_ij     (one per queue)
             y, s, u >= 0

    Its dual is the dual function at w times sum(w), with gamma the prices of
    the queue rows; the shortfall column s_j turns the box gamma_j <= xi into
    a column, so the LP is always feasible. xi = f_max / eta_0, where eta_0 is
    the largest service slack of the true distribution (``max_slack``); an
    instance without slack (eta_0 <= 0) has no box and is rejected.

    Columns are those of ``class_lp`` (the kept actions in class order), then
    s (cost xi), then u (cost 0); rows are the classes, then the queues. The
    start basis, the cheapest action of each class (smallest id on ties) plus
    every u_j, is dual feasible at gamma = 0 and primal feasible at w = 0.

    ``eta_0``, when given, is taken as ``max_slack(instance,
    instance.probabilities)`` (a caller that has already solved it, such as
    the sweep's oracle); otherwise the slack LP is solved here.
    """

    def __init__(self, instance: NetworkInstance, eta_0: float | None = None):
        tables, a, costs, self.rhs = class_lp(instance)
        self.n_class = n_class = tables.shape[0]
        r, n_y = instance.r, costs.size
        self.a = np.zeros((n_class + r, n_y + 2 * r))
        self.a[:, :n_y] = a
        self.a[n_class:, n_y:] = np.hstack([np.eye(r), -np.eye(r)])
        self.eta_0 = max_slack(instance, instance.probabilities) if eta_0 is None else eta_0
        if not self.eta_0 > 0:
            raise NoSlackError(
                f"the learned multiplier needs service slack: eta_0 = {self.eta_0:g} <= 0, so its bound "
                "xi = V * f_max / eta_0 is infinite"
            )
        self.xi = instance.f_max / self.eta_0
        self.c = np.concatenate([costs, np.full(r, self.xi), np.zeros(r)])
        self.s_cols = np.arange(n_y, n_y + r)
        self.u_cols = np.arange(n_y + r, n_y + 2 * r)
        column = np.cumsum(np.isfinite(tables.base)).reshape(tables.shape) - 1  # LP column of each kept slot
        cheapest = column[np.arange(n_class), tables.base.reshape(tables.shape).argmin(axis=1)]
        self.basis = np.concatenate([cheapest, self.u_cols])
        self.pivots = 0
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
            self.pivots += 1
            self._refactor()
        raise RuntimeError(f"dual simplex did not restore feasibility within {limit} pivots")


def maximize_dual(instance: NetworkInstance, dist, V: float, eta_0: float | None = None) -> DualSolveResult:
    """The exact maximizer of the dual at ``dist`` over the box 0 <= gamma <= xi.

    xi = V * f_max / eta_0 is ``InstanceAnalysis.xi`` bit for bit. The LP of
    ``_CountLP`` is solved once with the dual simplex from its start basis;
    ``gamma`` is V times its queue-row prices and ``value`` V times its
    optimum. ``eta_0`` is the true distribution's slack if the caller has
    solved it already. An instance without service slack (eta_0 <= 0) raises
    NoSlackError.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (instance.M,):
        raise ValueError(f"distribution has shape {dist.shape}, expected ({instance.M},)")
    lp = _CountLP(instance, eta_0)
    x = lp.restore(lp.rhs @ dist)
    return DualSolveResult(
        gamma=V * lp.beta,
        value=V * float(lp.c[lp.basis] @ x),
        at_box=bool((lp.beta >= lp.xi).any()),
        iterations=lp.pivots,
    )


def primal_oracle(instance: NetworkInstance, dist) -> PrimalSolution:
    """Exact solution of the static problem over randomized per-state policies.

    Minimizes the mean cost subject to mean arrivals <= mean services, as the
    LP ``class_lp`` over class mixtures. Returns the unscaled optimum (no V
    factor) and an optimal policy; the LP dual prices give the optimal
    multiplier of the V=1 problem. Every state plays its class's mixture,
    mapped back to the state's action ids with pruned actions at 0; a class
    without probability mass plays its smallest kept action.
    """
    tables, a, cost, rhs = class_lp(instance)
    n_class = tables.shape[0]
    b = rhs @ np.asarray(dist, dtype=float)
    res = solve_lp(cost, a_ub=-a[n_class:], b_ub=-b[n_class:], a_eq=a[:n_class], b_eq=b[:n_class])
    if res.status == "infeasible":
        raise InfeasibleInstanceError("no randomized policy satisfies the rate constraints")
    if res.status != "optimal":
        raise RuntimeError(f"primal oracle LP ended with status {res.status}")
    mix = np.zeros(tables.base.size)
    mix[np.isfinite(tables.base)] = np.maximum(res.x, 0.0)
    mix = mix.reshape(tables.shape)
    total = mix.sum(axis=1)
    empty = total <= 0
    mix[empty, 0] = total[empty] = 1.0
    full = np.zeros(instance.costs.shape)
    np.put_along_axis(full, tables.action_ids[tables.class_of], (mix / total[:, None])[tables.class_of], axis=1)
    return PrimalSolution(
        f_av_star=float(res.objective),
        policy=RandomizedPolicy([full[i, :k] for i, k in enumerate(instance.action_counts)]),
        multiplier_v1=np.maximum(res.duals_ub, 0.0),
    )


def max_slack(instance: NetworkInstance, dist) -> float:
    """Largest eta with mean arrivals <= mean services - eta under some policy.

    Solved on the columns of ``class_lp``. May be <= 0, which signals that no
    randomized policy stabilizes the given distribution with slack.
    """
    tables, a, _, rhs = class_lp(instance)
    n_class, r = tables.shape[0], instance.r
    b = rhs @ np.asarray(dist, dtype=float)
    # maximize eta (free, split eta = ep - en)
    a_ub = np.hstack([-a[n_class:], np.ones((r, 1)), -np.ones((r, 1))])
    a_eq = np.hstack([a[:n_class], np.zeros((n_class, 2))])
    c = np.concatenate([np.zeros(a.shape[1]), [-1.0, 1.0]])
    res = solve_lp(c, a_ub=a_ub, b_ub=-b[n_class:], a_eq=a_eq, b_eq=b[:n_class])
    if res.status != "optimal":
        raise RuntimeError(f"slack LP ended with status {res.status}")
    return 0.0 - float(res.objective)  # 0.0 - x turns an optimum of -0.0 into 0.0


def estimate_polyhedral_rho(
    instance: NetworkInstance,
    dist,
    V: float,
    gamma_star,
    sample_count: int = 512,
    radius: float | None = None,
    seed: int = 0,
) -> float:
    """Sampled lower-decay-rate of the dual around its maximizer.

    Draws points on shells of distance up to ``radius`` around gamma_star
    (projected onto the non-negative orthant) and returns the minimum of
    (g(gamma_star) - g(gamma)) / ||gamma_star - gamma||. Non-positive output
    flags that the polyhedral decay condition is not numerically confirmed.
    This is a probe, not a proof.
    """
    gamma_star = np.asarray(gamma_star, dtype=float)
    if radius is None:
        radius = max(1.0, 0.05 * float(np.linalg.norm(gamma_star)))
    rng = np.random.default_rng(seed)
    g_star = dual_value(instance, dist, gamma_star, V)
    rho = math.inf
    for _ in range(sample_count):
        direction = rng.normal(size=instance.r)
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            continue
        point = np.maximum(gamma_star + (radius * rng.random()) * direction / norm, 0.0)
        d = float(np.linalg.norm(point - gamma_star))
        if d < 1e-6:
            continue
        rho = min(rho, (g_star - dual_value(instance, dist, point, V)) / d)
    return float(rho) if math.isfinite(rho) else 0.0


# eta as a fraction of rho_hat in the analysis constants
ETA_FRACTION = 0.1


def compute_analysis(
    instance: NetworkInstance,
    dist,
    V: float,
    rho_samples: int = 512,
    rho_seed: int = 0,
    lps_from: InstanceAnalysis | None = None,
) -> InstanceAnalysis:
    """Oracle bundle per (instance, V): optimum, multiplier, slack, constants.

    gamma_star is V times the policy LP's dual prices, and g_star the dual
    function evaluated there on the full tables (``dual_value``), so that
    g_star = V*f_av_star (strong duality) checks the LP's prices against an
    independent evaluation, and g_star <= V*f_av_star (weak duality) holds
    for any multiplier.

    The policy LP and the slack LP do not depend on V. ``lps_from``, an
    analysis of the same instance and distribution at any V, supplies their
    results (f_av_star, the V=1 multiplier, eta_0) instead of solving them again.

    eta = ETA_FRACTION * rho_hat; any fraction in (0, 1) yields a valid drift
    margin. D_p = (B - eta^2)/(2(rho_hat - eta)) is increasing in eta, so the
    small fraction keeps the convergence-measurement radius close to its
    minimum B/(2 rho_hat), which matters on instances whose dual has shallow
    directions (large D_p otherwise swallows the whole approach path).
    """
    if lps_from is None:
        primal = primal_oracle(instance, dist)
        f_av_star, multiplier_v1 = primal.f_av_star, primal.multiplier_v1
        eta_0 = max_slack(instance, dist)
    else:
        f_av_star, multiplier_v1, eta_0 = lps_from.f_av_star, lps_from.multiplier_v1, lps_from.eta_0
    gamma_star = V * multiplier_v1
    g_star = dual_value(instance, dist, gamma_star, V)
    rho_hat = estimate_polyhedral_rho(instance, dist, V, gamma_star, sample_count=rho_samples, seed=rho_seed)
    if rho_hat > 0:
        eta = ETA_FRACTION * rho_hat
        d_p = (instance.B - eta**2) / (2.0 * (rho_hat - eta))
    else:
        eta = math.nan
        d_p = math.nan
    constants = AnalysisConstants(B=instance.B, eta=eta, rho_hat=rho_hat, D_p=d_p, f_max=instance.f_max)
    return InstanceAnalysis(
        V=V,
        f_av_star=f_av_star,
        gamma_star=gamma_star,
        g_star=g_star,
        eta_0=eta_0,
        constants=constants,
        multiplier_v1=multiplier_v1,
    )
