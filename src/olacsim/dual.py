"""Dual function evaluation and maximization, plus exact primal-side oracles.

The dual of the static problem  min V * sum_i pi_i * f(i, x_i)  subject to
average arrivals <= average services is separable over states:

    g(gamma) = sum_i pi_i * min_x [ V*f(i,x) + gamma . (A(i,x) - mu(i,x)) ]

g is concave piecewise-linear in gamma; it is maximized here by projected
supergradient ascent on reduced tables (``DualTables``). The same static
problem is solved exactly as a linear program over action mixtures on the
classes of those tables (``class_lp``; the primal oracle), which also yields
the optimal multiplier through its dual prices; the slack LP behind eta_0
uses the same columns, and so does OLAC's learner. On the two-queue instance
these LPs have 112 action columns and 18 rows, against 640 and 66 on the full
tables. Analysis constants (slack eta_0, polyhedral decay rho, attraction
radius D_p) are derived from these oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._simplex import solve_lp
from .model import NetworkInstance

__all__ = [
    "DualSolverConfig",
    "DualSolveResult",
    "DualTables",
    "RandomizedPolicy",
    "PrimalSolution",
    "AnalysisConstants",
    "InstanceAnalysis",
    "InfeasibleInstanceError",
    "per_state_dual",
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


@dataclass
class DualSolverConfig:
    """Projected supergradient ascent settings.

    The step at inner iteration k is a/(b + k) with a = V * delta_max and
    b = 10. The ascent stops once the best value has not improved by more
    than ``tolerance`` over ``window`` consecutive iterations.
    """

    max_iterations: int = 4000
    tolerance: float = 1e-9
    window: int = 200
    warm_start: np.ndarray | None = None


@dataclass
class DualSolveResult:
    gamma: np.ndarray
    value: float
    converged: bool
    iterations: int


@dataclass
class RandomizedPolicy:
    """Per-state probability vectors over that state's actions."""

    per_state: list[np.ndarray]

    def validate(self, tol=1e-9) -> bool:
        return all(
            v.min(initial=0.0) >= -tol and abs(v.sum() - 1.0) <= tol for v in self.per_state
        )


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
        """Multiplier magnitude bound V*f_max/eta_0 (inf without slack): OLAC's box, bit for bit."""
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


def per_state_dual(instance: NetworkInstance, state_id: int, gamma, V: float):
    """Minimum of V*f + gamma.(A - mu) over one state's actions.

    Returns (value, argmin action id); exact ties go to the smallest id.
    """
    gamma = _check_dims(instance, gamma)
    if not 0 <= state_id < instance.M:
        raise KeyError(f"unknown state id {state_id}")
    if instance.action_counts[state_id] == 0:
        raise ValueError(f"state {state_id} has no actions")
    scores = V * instance.costs[state_id] + instance.drift[state_id] @ gamma
    k = int(np.argmin(scores))
    return float(scores[k]), k


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
    """The dual's tables reduced for the ascent, built once per (instance, V).

    Two reductions that leave every minimizer over gamma >= 0 in place:

    - Folding. A state whose arrivals are the same for every action adds the
      same gamma . A(i) to all of its action scores, so its argmin is the
      argmin of V*f - gamma . mu. Such states that share the cost and service
      rows fold into one class. A state with action-dependent arrivals is a
      class of its own and keeps its full drift.
    - Pruning. Action x of a class is dropped when some action y has
      V*f_y <= V*f_x and drift_y <= drift_x in every component, and also
      y < x or V*f_y < V*f_x. For gamma >= 0 the score of y is then at most
      that of x, so x is never the smallest-id minimizer, not even at
      gamma = 0, where only costs decide.

    The kept actions of a class stay in id order, padded to a common width
    with +inf cost, so argmin ties still go to the smallest id. ``rows`` maps
    a per-class selection back to the full-table rows i*K + x of every state;
    the ascent computes its supergradient on those rows, as ``supergradient``
    does. The two-queue instance reduces from 64 states x 10 actions to
    16 classes x 9 slots (112 real actions). OLAC's exact learner writes its
    LP on the same classes; ``folded`` marks the states whose arrivals left
    the class's drift.
    """

    def __init__(self, instance: NetworkInstance, V: float):
        M, K = instance.costs.shape
        r = instance.r
        self.V = V
        self.M = M
        valid = np.arange(K) < instance.action_counts[:, None]
        base = V * instance.costs
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
        self._state_rows = (np.arange(M)[:, None] * K + order[class_of]).ravel()
        self._state_offset = np.arange(M) * width
        self.full_base = base.ravel()
        self.full_drift = instance.drift.reshape(M * K, r)
        self.folded = fold

    def rows(self, sel: np.ndarray) -> np.ndarray:
        """Full-table row of each state's selected action, from a per-class selection."""
        return self._state_rows[self._state_offset + sel[self.class_of]]


def maximize_dual(
    instance: NetworkInstance,
    dist,
    V: float,
    cfg: DualSolverConfig | None = None,
    *,
    tables: DualTables | None = None,
) -> DualSolveResult:
    """Projected supergradient ascent on gamma >= 0, tracking the best iterate.

    Subgradient steps are not monotone, so the best iterate by value (the warm
    start counts as iterate zero) is returned, together with a convergence
    flag that is False when the iteration cap was reached before the
    improvement-based stop triggered.

    Each iteration selects actions on ``tables`` (built here when not given).
    A selection fixes the value's constant and its supergradient for the
    whole solve, since ``dist`` does not change, so both are memoized per
    selection and the value is const + grad . gamma.
    """
    cfg = cfg or DualSolverConfig()
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (instance.M,):
        raise ValueError(f"distribution has shape {dist.shape}, expected ({instance.M},)")
    if tables is None:
        tables = DualTables(instance, V)
    elif tables.V != V or tables.M != instance.M:
        raise ValueError("dual tables were built for another instance or V")
    r = instance.r
    a, b = V * instance.delta_max, 10.0

    gamma = np.zeros(r) if cfg.warm_start is None else np.asarray(cfg.warm_start, dtype=float).copy()
    if gamma.shape != (r,):
        raise ValueError(f"warm start has shape {gamma.shape}, expected ({r},)")

    base, drift = tables.base, tables.drift
    scores = np.empty(tables.shape)
    flat = scores.reshape(-1)
    memo: dict[bytes, tuple[float, np.ndarray]] = {}

    def evaluate(g):
        np.dot(drift, g, out=flat)
        np.add(flat, base, out=flat)
        sel = scores.argmin(axis=1)
        key = sel.tobytes()
        hit = memo.get(key)
        if hit is None:
            rows = tables.rows(sel)
            hit = memo[key] = (float(dist @ tables.full_base[rows]), dist @ tables.full_drift[rows])
        const, grad = hit
        return const + grad.dot(g), grad

    best_value, grad = evaluate(gamma)
    best_gamma = gamma.copy()
    last_improve = 0
    converged = False
    iterations = 0
    for it in range(1, cfg.max_iterations + 1):
        iterations = it
        step = a / (b + it)
        gamma = np.maximum(gamma + step * grad, 0.0)
        value, grad = evaluate(gamma)
        if value > best_value + cfg.tolerance:
            best_value = value
            best_gamma = gamma.copy()
            last_improve = it
        if it - last_improve >= cfg.window:
            converged = True
            break
    return DualSolveResult(best_gamma, float(best_value), converged, iterations)


def class_lp(instance: NetworkInstance):
    """The static LP on the classes of ``DualTables(instance, 1.0)``: (tables, a, cost, rhs).

    Columns are the kept actions in class order, with costs in units of V.
    Rows are the classes, sum_x y_cx = w_c, then the queues,
    sum_cx services_cx,j y_cx = (arrivals of the folded states)_j, where
    ``services`` is -drift, so an unfolded class keeps its arrivals in its
    column. The right-hand side of state weights w (a distribution or counts)
    is rhs @ w. Folding and pruning leave the optimum in place (see
    ``DualTables``), so the policy and slack LPs are written on these columns,
    and so is OLAC's count LP.
    """
    tables = DualTables(instance, 1.0)
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

    The ascent is warm-started at the LP dual prices scaled by V; by weak
    duality its value can never exceed V*f_av_star, so equality certifies both
    oracles at once.

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
    warm = V * multiplier_v1
    res = maximize_dual(instance, dist, V, DualSolverConfig(max_iterations=2000, window=100, warm_start=warm))
    rho_hat = estimate_polyhedral_rho(instance, dist, V, res.gamma, sample_count=rho_samples, seed=rho_seed)
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
        gamma_star=res.gamma,
        g_star=res.value,
        eta_0=eta_0,
        constants=constants,
        multiplier_v1=multiplier_v1,
    )
