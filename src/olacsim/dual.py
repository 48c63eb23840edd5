"""Dual function evaluation and maximization, plus exact primal-side oracles.

The dual of the static problem  min V * sum_i pi_i * f(i, x_i)  subject to
average arrivals <= average services is separable over states:

    g(gamma) = sum_i pi_i * min_x [ V*f(i,x) + gamma . (A(i,x) - mu(i,x)) ]

g is concave piecewise-linear in gamma. Every LP here is written on the
classes of the reduced tables (``DualTables``, ``class_lp``; on the two-queue
instance 112 action columns and 18 rows, against 640 and 66 on the full
tables) and solved by one engine, a dual simplex from a dual feasible start
basis (``_DualSimplex``):

- the policy LP (``primal_oracle``) gives the optimal mean cost and, as its
  queue-row prices, the optimal multiplier; the slack LP (``max_slack``)
  gives eta_0. Both go through ``solve_lp``, each from a start basis of its
  own;
- ``maximize_dual`` maximizes g over the box 0 <= gamma <= xi =
  V*f_max/eta_0 exactly, as the prices of the same LP written with a
  shortfall column per queue (``_CountLP``); OLAC's learner keeps that LP's
  basis over a whole run.

Analysis constants (slack eta_0, polyhedral decay rho, attraction radius
D_p) are derived from these oracles.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .model import NetworkInstance

__all__ = [
    "DualSolveResult",
    "DualTables",
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
class PrimalSolution:
    f_av_star: float
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


# class_lp's result per live instance, keyed by id(instance); weakref.finalize
# drops an entry when its instance goes, before the id can be reused
_CLASS_LPS: dict[int, tuple] = {}


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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

    It is built once per instance: later calls return the same tuple, whose
    arrays (the tables' too) are read-only.
    """
    lp = _CLASS_LPS.get(id(instance))
    if lp is None:
        lp = _CLASS_LPS[id(instance)] = _build_class_lp(instance)
        weakref.finalize(instance, _CLASS_LPS.pop, id(instance), None)
    return lp


def _build_class_lp(instance: NetworkInstance):
    tables = DualTables(instance)
    for value in vars(tables).values():
        if isinstance(value, np.ndarray):
            _frozen(value)
    n_class, width = tables.shape
    real = np.isfinite(tables.base)
    n_y = int(real.sum())
    a = np.zeros((n_class + instance.r, n_y))
    a[np.repeat(np.arange(n_class), width)[real], np.arange(n_y)] = 1.0
    a[n_class:] = -tables.drift[real].T
    rhs = np.zeros((n_class + instance.r, instance.M))
    rhs[tables.class_of, np.arange(instance.M)] = 1.0
    rhs[n_class:] = (instance.arrivals[:, 0] * tables.folded[:, None]).T
    return tables, _frozen(a), _frozen(tables.base[real]), _frozen(rhs)


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
# uniform or 2500 unbalanced slots); a size of 4 comes within 2% of that.
BASIS_CACHE = 16


class _DualSimplex:
    """min c.x s.t. a.x = b, x >= 0, by the dual simplex, with one kept basis and its inverse.

    ``basis`` lists one column per row and must be dual feasible: every
    reduced cost d = c - y.a, with prices y = c_B B^-1, is >= 0. ``restore``
    keeps d >= 0 while it pivots to x_B = B^-1 b >= 0, so the basis it ends
    on is optimal (Bertsimas & Tsitsiklis, Introduction to Linear
    Optimization, 1997, section 4.5).

    ``factors`` keeps the factorisation of each of the last ``BASIS_CACHE``
    bases, keyed by the basis bytes: B^-1, the prices y, the reduced costs d
    and two slots that ``_CountLP`` fills when it reads a basis, all
    read-only. A basis that comes back reuses them; they are the floats a new
    factorisation would give, since it would make the same numpy calls on the
    same operands.
    """

    def __init__(self, a: np.ndarray, c: np.ndarray, basis: np.ndarray):
        self.a, self.c, self.basis = a, c, basis
        self.pivots = 0
        # basis bytes -> [binv, y, d, step, beta], least recently used first
        self.factors: dict[bytes, list] = {}
        self._refactor()

    def _refactor(self):
        """B^-1, y and d of the current basis: kept ones, or a new inversion."""
        key = self.basis.tobytes()
        factor = self.factors.pop(key, None)
        if factor is None:
            binv = np.linalg.inv(self.a[:, self.basis])
            y = self.c[self.basis] @ binv
            d = self.c - y @ self.a
            d[self.basis] = 0.0
            factor = [_frozen(binv), _frozen(y), _frozen(d), None, None]
            if len(self.factors) == BASIS_CACHE:
                del self.factors[next(iter(self.factors))]
        self.factors[key] = factor
        self._factor = factor
        self.binv, self.y, self.d = factor[:3]

    def restore(self, b: np.ndarray) -> np.ndarray | None:
        """Dual simplex from the kept basis until x_B = B^-1 b >= 0; returns x_B, or None if a.x = b has no x >= 0.

        Leaving row: the most negative x_B, ties to the smallest row. Entering
        column: the minimum ratio of reduced cost to |pivot row entry|, ties to
        the smallest column; only the entering columns are tested. A leaving
        row without an entering column proves the LP infeasible. After every
        pivot the new basis's factorisation is a kept one or a new inversion.
        """
        tol = FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0)))
        limit = 50 * self.a.shape[1]
        for _ in range(limit):
            x = self.binv @ b
            row = int(x.argmin())
            if x[row] >= -tol:
                return x
            alpha = self.binv[row] @ self.a
            enter = (alpha < -PIVOT_TOL).nonzero()[0]
            if not enter.size:
                return None
            ratio = np.maximum(self.d[enter], 0.0) / -alpha[enter]
            best = ratio.min()
            self.basis[row] = enter[(ratio <= best + TIE_TOL * max(1.0, best)).argmax()]
            self.pivots += 1
            self._refactor()
        raise RuntimeError(f"dual simplex did not restore feasibility within {limit} pivots")


def solve_lp(a: np.ndarray, c: np.ndarray, basis, b: np.ndarray):
    """min c.x s.t. a.x = b, x >= 0 from a dual feasible start ``basis``: (x_B, final basis, row prices).

    x_B is None when the LP is infeasible. The oracles' policy and slack LPs
    are solved here; the learners keep a ``_CountLP`` of their own.
    """
    lp = _DualSimplex(a, c, np.array(basis))
    return lp.restore(b), lp.basis, lp.y


def _best_in_class(tables: DualTables, score: np.ndarray) -> np.ndarray:
    """``class_lp``'s column of each class's kept action of smallest score, smallest id on ties."""
    column = np.cumsum(np.isfinite(tables.base)).reshape(tables.shape) - 1  # LP column of each kept slot
    score = np.where(np.isfinite(tables.base), score, np.inf).reshape(tables.shape)
    return column[np.arange(tables.shape[0]), score.argmin(axis=1)]


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
    the largest service slack of the true distribution (``max_slack``); an
    instance without slack (eta_0 <= 0) has no box and is rejected.

    Columns are those of ``class_lp`` (the kept actions in class order), then
    s (cost xi), then u (cost 0); rows are the classes, then the queues. The
    start basis, the cheapest action of each class (smallest id on ties) plus
    every u_j, is dual feasible at gamma = 0 and primal feasible at w = 0.

    ``eta_0``, when given, is taken as ``max_slack(instance,
    instance.probabilities)`` (a caller that has already solved it, such as
    the sweep's oracle); otherwise the slack LP is solved here. Each kept
    factorisation also holds, once read, ``step`` and ``beta``.
    """

    def __init__(self, instance: NetworkInstance, eta_0: float | None = None):
        tables, a, costs, self.rhs = class_lp(instance)
        self.n_class = n_class = tables.shape[0]
        r, n_y = instance.r, costs.size
        count_a = np.zeros((n_class + r, n_y + 2 * r))
        count_a[:, :n_y] = a
        count_a[n_class:, n_y:] = np.hstack([np.eye(r), -np.eye(r)])
        self.eta_0 = max_slack(instance, instance.probabilities) if eta_0 is None else eta_0
        if not self.eta_0 > 0:
            raise NoSlackError(
                f"the learned multiplier needs service slack: eta_0 = {self.eta_0:g} <= 0, so its bound "
                "xi = V * f_max / eta_0 is infinite"
            )
        self.xi = instance.f_max / self.eta_0
        self.s_cols = np.arange(n_y, n_y + r)
        self.u_cols = np.arange(n_y + r, n_y + 2 * r)
        c = np.concatenate([costs, np.full(r, self.xi), np.zeros(r)])
        super().__init__(count_a, c, np.concatenate([_best_in_class(tables, tables.base), self.u_cols]))
        self._read_basis()

    def _read_basis(self):
        """beta and the per-state growth of x_B for the current basis."""
        factor = self._factor
        if factor[3] is None:
            # x_B grows by step[i] when state i is observed
            step = (self.binv @ self.rhs).T
            basic = np.zeros(self.c.size, dtype=bool)
            basic[self.basis] = True
            beta = np.clip(self.y[self.n_class :], 0.0, self.xi)
            # a basic column has zero reduced cost: beta_j = xi exactly when s_j is basic, 0 when u_j is
            beta[basic[self.s_cols]] = self.xi
            beta[basic[self.u_cols]] = 0.0
            factor[3], factor[4] = _frozen(step), _frozen(beta)
        self.step, self.beta = factor[3], factor[4]

    def restore(self, b: np.ndarray) -> np.ndarray:
        """``_DualSimplex.restore``, then the new basis's beta and growth columns; returns x_B."""
        x = super().restore(b)
        if x is None:
            raise RuntimeError("count LP infeasible, which its shortfall columns rule out")
        self._read_basis()
        return x


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
    """Exact optimum of the static problem over randomized per-state policies, and its multiplier.

    Minimizes the mean cost subject to mean arrivals <= mean services, as the
    policy LP: ``class_lp``'s columns plus a surplus column u_j per queue,
    sum_cx services_cx,j y_cx - u_j = (mean folded arrivals)_j. It is solved
    by ``solve_lp`` from ``_CountLP``'s start basis without the shortfall
    columns (each class's cheapest kept action, smallest id on ties, plus
    every u_j), which is dual feasible at zero queue prices. Returns the
    unscaled optimum (no V factor); the queue rows' prices are the optimal
    multiplier of the V=1 problem. An LP without a feasible point raises
    InfeasibleInstanceError.
    """
    tables, a, cost, rhs = class_lp(instance)
    n_class, r, n_y = tables.shape[0], instance.r, cost.size
    surplus = np.vstack([np.zeros((n_class, r)), -np.eye(r)])
    c = np.concatenate([cost, np.zeros(r)])
    basis = np.concatenate([_best_in_class(tables, tables.base), np.arange(n_y, n_y + r)])
    x, basis, y = solve_lp(np.hstack([a, surplus]), c, basis, rhs @ np.asarray(dist, dtype=float))
    if x is None:
        raise InfeasibleInstanceError("no randomized policy satisfies the rate constraints")
    return PrimalSolution(f_av_star=float(c[basis] @ x), multiplier_v1=np.maximum(y[n_class:], 0.0))


def max_slack(instance: NetworkInstance, dist) -> float:
    """Largest eta with mean arrivals <= mean services - eta under some policy.

    The slack LP maximizes eta = ep - en subject to
    sum_cx services_cx,j y_cx - ep + en - u_j = (mean folded arrivals)_j on
    ``class_lp``'s columns. ``solve_lp`` starts it from each class's kept
    action with the largest queue-1 service (smallest id on ties), ep on queue
    row 1 and u_j for j >= 2: its prices are e_1 on the queue rows, so every
    reduced cost is >= 0 on any instance. May be <= 0, which signals that no
    randomized policy stabilizes the given distribution with slack.
    """
    tables, a, _, rhs = class_lp(instance)
    n_class, r, n_y = tables.shape[0], instance.r, a.shape[1]
    extra = np.zeros((n_class + r, r + 2))  # columns ep, en, u
    extra[n_class:] = np.hstack([-np.ones((r, 1)), np.ones((r, 1)), -np.eye(r)])
    c = np.zeros(n_y + r + 2)
    c[n_y : n_y + 2] = -1.0, 1.0
    # the largest service has the smallest drift
    basis = np.concatenate([_best_in_class(tables, tables.drift[:, 0]), [n_y], np.arange(n_y + 3, n_y + r + 2)])
    x, basis, _ = solve_lp(np.hstack([a, extra]), c, basis, rhs @ np.asarray(dist, dtype=float))
    if x is None:
        raise RuntimeError("slack LP infeasible, which its free eta rules out")
    return 0.0 - float(c[basis] @ x)  # 0.0 - x turns an optimum of -0.0 into 0.0


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
    rho_hat = estimate_polyhedral_rho(instance, dist, V, gamma_star, seed=rho_seed)
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
