"""Slot-loop simulation engine: sample states, learn, decide and serve, then measure.

States are presampled from the instance distribution with a PCG64 generator;
the seed is split into two independent streams (state sampling, reserved) via
SeedSequence spawning. Identical (instance, config, gamma_star) inputs
reproduce bit-identical results. The learned multipliers depend on the
states only, so OLAC's whole path and OLAC2's one-shot learn run before the
slot loop. OLAC's path is learned at V = 1 and scaled by V, so runs of one
seed at several V can share it (``SimConfig.unit_beta``).

The multiplier estimate whose convergence is measured is q(t) for
Backpressure and OLAC2 and q(t) + beta(t) - theta for OLAC; at OLAC2's learn
slot the backlog adjustment is applied before the slot's metrics are taken,
so the measured estimate jumps to the learned target there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controllers import OLAC, OLAC2, ControllerConfig, bp_decide, olac2_step, olac_decide
from .dual import NoSlackError
from .learning import dual_learn
from .model import NetworkInstance
from .queueing import DelayAccumulator, DelayStats, QueueLedger, adjust_to, apply_slot

__all__ = ["SimConfig", "RunResult", "run", "convergence_time", "sample_states"]

# consecutive within-zeta slots that make T_zeta_sustained
SUSTAIN_WINDOW = 100


@dataclass
class SimConfig:
    """One run's settings; ``eta_0`` and ``unit_beta`` are optional hand-overs from the sweep.

    Both are results the run would otherwise compute itself and that do not
    depend on V: the oracle's slack ``eta_0``, and OLAC's V = 1 beta path from
    an earlier run of the same seed. Either way the run's outputs are the same
    bit for bit.
    """

    horizon: int
    seed: int
    controller: ControllerConfig
    zeta: float | None = None
    initial_backlog: np.ndarray | None = None  # test hook
    # the true distribution's service slack max_slack(instance, instance.probabilities)
    # when the caller has solved it (the sweep's oracle); the learners solve it otherwise
    eta_0: float | None = None
    # RunResult.unit_beta of an earlier OLAC run with the same instance, seed,
    # horizon and eta_0; this run scales it by its V (other kinds ignore it)
    unit_beta: tuple[np.ndarray, int] | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.zeta is not None and not 0 < self.zeta < math.inf:
            raise ValueError(f"zeta must be None or positive and finite, got {self.zeta!r}")
        if self.eta_0 is not None and not math.isfinite(self.eta_0):
            raise ValueError(f"eta_0 must be None or finite, got {self.eta_0!r}")


@dataclass
class RunResult:
    avg_cost: float
    avg_backlog: float
    delay: DelayStats
    t_zeta_first: int | None
    t_zeta_sustained: int | None
    dropped: np.ndarray
    # per-slot paths, one entry per slot (beta_trace for OLAC only); a sweep
    # writes them to its trace files, if any, and drops them from its results
    gamma_trace: np.ndarray | None
    beta_trace: np.ndarray | None
    queue_trace: np.ndarray | None
    cost_trace: np.ndarray | None
    # slots whose learned multiplier sits on the box xi in some queue: OLAC's
    # beta(t), or OLAC2's gamma (one slot, T_l)
    solver_flagged_slots: int = 0
    # OLAC2's learn slot T_l (None for the other kinds)
    t_learn: int | None = None
    # OLAC: the (horizon, r) beta path at V = 1 and its box-bound slot count,
    # for SimConfig.unit_beta of the same seed's runs at other V
    unit_beta: tuple[np.ndarray, int] | None = None


def sample_states(instance: NetworkInstance, horizon: int, seed: int) -> np.ndarray:
    """I.i.d. state indices via inverse CDF on the first spawned seed stream."""
    streams = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.Generator(np.random.PCG64(streams[0]))
    cum = np.cumsum(instance.probabilities)
    cum[-1] = max(cum[-1], 1.0)
    draws = rng.random(horizon)
    return np.minimum(np.searchsorted(cum, draws, side="right"), instance.M - 1)


def convergence_time(dist, zeta: float, window: int = 1) -> int | None:
    """First slot that starts ``window`` consecutive slots with ``dist <= zeta``.

    With the default window this is the first hit; a run of within-zeta slots
    shorter than ``window`` that ends at the horizon does not count.
    """
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    within = np.concatenate(([0], np.cumsum(np.asarray(dist) <= zeta)))
    hits = np.nonzero(within[window:] - within[:-window] == window)[0]
    return int(hits[0]) if hits.size else None


def _distances(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean distance to center, bit-identical to sqrt(d @ d) row by row."""
    d = x - center
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None]).ravel())


def _check_inputs(instance: NetworkInstance, cfg: SimConfig) -> None:
    """Everything the slot kernels trust, checked once per run."""
    for name, table in (("arrival", instance.arrivals), ("service", instance.services)):
        if not (np.isfinite(table).all() and (table >= 0).all()):
            raise ValueError(f"instance {name} entries must be finite and non-negative")
    if (instance.action_counts == 0).any():
        raise ValueError(f"state {int(np.argmin(instance.action_counts))} has no actions")
    if cfg.initial_backlog is not None:
        backlog = np.asarray(cfg.initial_backlog, dtype=float)
        if backlog.shape != (instance.r,):
            raise ValueError(f"initial_backlog has shape {backlog.shape}, expected ({instance.r},)")
        if not (np.isfinite(backlog).all() and (backlog >= 0).all()):
            raise ValueError("initial_backlog must be finite and non-negative")
    if cfg.unit_beta is not None:
        path, flagged = cfg.unit_beta
        expected = (cfg.horizon, instance.r)
        if np.shape(path) != expected:
            raise ValueError(f"unit_beta's path has shape {np.shape(path)}, expected {expected}")
        if not (np.isfinite(path).all() and (np.asarray(path) >= 0).all()):
            raise ValueError("unit_beta's path must be finite and non-negative")
        if not (isinstance(flagged, (int, np.integer)) and 0 <= flagged <= cfg.horizon):
            raise ValueError(
                f"unit_beta's flagged slot count must be an integer in [0, {cfg.horizon}], got {flagged!r}"
            )


def run(instance: NetworkInstance, cfg: SimConfig, gamma_star) -> RunResult:
    """Execute the slot loop and collect metrics against the supplied optimum.

    gamma_star is measurement-side knowledge (the true-distribution optimum,
    typically from the analysis oracles); controllers never see it. The loop
    only decides and serves; every metric is derived from the recorded
    backlog and action paths afterwards.
    """
    ctrl = cfg.controller
    kind = ctrl.kind
    V = ctrl.V
    r = instance.r
    H = cfg.horizon
    gamma_star = np.asarray(gamma_star, dtype=float)
    if gamma_star.shape != (r,):
        raise ValueError(f"gamma_star has shape {gamma_star.shape}, expected ({r},)")
    _check_inputs(instance, cfg)
    # per-kind facts, settled once: the slot loop branches on `olac` only
    olac = kind == OLAC
    theta = ctrl.resolved_theta(r) if olac else None
    t_learn = ctrl.learn_slot() if kind == OLAC2 else None
    discipline = "LIFO" if kind == OLAC2 else "FIFO"

    states_seq = sample_states(instance, H, cfg.seed)
    flagged = 0
    unit_beta = None
    # both learners see the states only, so they run before the first slot,
    # which is where an instance without service slack is rejected
    try:
        if olac:
            # learned at V = 1 and scaled: V * beta(t; 1) is dual_learn(..., V) bit for bit
            unit_beta = cfg.unit_beta
            if unit_beta is None:
                unit_beta = dual_learn(instance, states_seq, 1.0, eta_0=cfg.eta_0)
            beta_path, flagged = V * np.asarray(unit_beta[0], dtype=float), int(unit_beta[1])
        elif t_learn is not None and t_learn < H:
            empirical = np.bincount(states_seq[:t_learn], minlength=instance.M) / t_learn
            learned = olac2_step(instance, empirical, ctrl, eta_0=cfg.eta_0)
            flagged = int(learned.at_box)
    except NoSlackError as exc:
        raise NoSlackError(f"{kind}: {exc}") from None
    if olac and (beta_path < 0).any():
        raise ValueError("the learned beta must be non-negative")
    ledger = QueueLedger(r)
    if cfg.initial_backlog is not None:
        ledger.add_initial(cfg.initial_backlog)
    delay_acc = DelayAccumulator(r)
    dropped = np.zeros(r)
    q_path = np.empty((H, r))
    actions = np.empty(H, dtype=np.int64)
    # per-(state, action) rows of r floats, read by the ledger once per slot
    arrival_rows = instance.arrivals.tolist()
    service_rows = instance.services.tolist()
    # -V * costs per state, made once per run; the rules index it like instance.drift_rows
    neg_v_costs = tuple(-V * instance.costs)
    # the ledger's float list, updated in place; each slot copies it into its q_path row
    totals = ledger._totals

    for t, sid in enumerate(states_seq.tolist()):
        q = q_path[t]
        q[:] = totals
        if olac:
            action = olac_decide(instance, sid, q, beta_path[t], theta, V, neg_v_costs)
        else:
            action = bp_decide(instance, sid, q, V, neg_v_costs)
            if t == t_learn:
                # OLAC2 keeps the action taken on the backlog before the adjustment
                dropped += adjust_to(ledger, learned.gamma, t).dropped
                q[:] = totals
        actions[t] = action
        records = apply_slot(ledger, arrival_rows[sid][action], service_rows[sid][action], t, discipline)
        delay_acc.add_many(records)

    delay = delay_acc.finalize(H)
    costs = instance.costs[states_seq, actions]
    # the estimate is q(t), or q(t) + beta(t) - theta for OLAC
    dist = _distances(q_path + beta_path - theta if olac else q_path, gamma_star)
    beta_dist = _distances(beta_path, gamma_star) if olac else None
    t_first = t_sustained = None
    if cfg.zeta is not None:
        t_first = convergence_time(dist, cfg.zeta)
        t_sustained = convergence_time(dist, cfg.zeta, SUSTAIN_WINDOW)

    # sequential sums (cumsum, not the pairwise np.sum) keep the averages' rounding
    return RunResult(
        avg_cost=float(np.cumsum(costs)[-1]) / H,
        avg_backlog=float(np.cumsum(q_path.sum(axis=1))[-1]) / H,
        delay=delay,
        t_zeta_first=t_first,
        t_zeta_sustained=t_sustained,
        dropped=dropped,
        gamma_trace=dist,
        beta_trace=beta_dist,
        queue_trace=q_path,
        cost_trace=costs,
        solver_flagged_slots=flagged,
        t_learn=t_learn,
        unit_beta=unit_beta,
    )
