"""Slot-loop simulation engine: sample states, learn, decide and serve, then measure.

States are presampled from the instance distribution with a PCG64 generator;
the seed is split into two independent streams (state sampling, reserved) via
SeedSequence spawning. Identical (instance, config, gamma_star) inputs
reproduce bit-identical results. The learned multipliers depend on the
states only, so OLAC's whole path and OLAC2's one-shot learn run before the
slot loop. OLAC's path is learned at V = 1 and scaled by V, and the instance
keeps the last one learned (``dual.instance_store``), keyed by (seed,
horizon): the same seed's next run at another V reuses it.

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
from .dual import NoSlackError, instance_store
from .learning import dual_learn
from .model import NetworkInstance
from .queueing import DelayAccumulator, DelayStats, QueueLedger, adjust_to, apply_slot

__all__ = ["SimConfig", "RunResult", "run", "convergence_time", "sample_states"]

# consecutive within-zeta slots that make T_zeta_sustained
SUSTAIN_WINDOW = 100


@dataclass
class SimConfig:
    """One run's settings."""

    horizon: int
    seed: int
    controller: ControllerConfig
    zeta: float | None = None
    initial_backlog: np.ndarray | None = None  # test hook

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.zeta is not None and not 0 < self.zeta < math.inf:
            raise ValueError(f"zeta must be None or positive and finite, got {self.zeta!r}")


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


def run(instance: NetworkInstance, cfg: SimConfig, gamma_star) -> RunResult:
    """Execute the slot loop and collect metrics against the supplied optimum.

    gamma_star is measurement-side knowledge (the true-distribution optimum,
    typically from the analysis oracles); controllers never see it. The loop
    only decides and serves; every metric is derived from the recorded
    backlog and action paths afterwards. The instance is not checked again:
    a NetworkInstance is valid once built.
    """
    ctrl = cfg.controller
    kind = ctrl.kind
    V = ctrl.V
    r = instance.r
    H = cfg.horizon
    gamma_star = np.asarray(gamma_star, dtype=float)
    if gamma_star.shape != (r,):
        raise ValueError(f"gamma_star has shape {gamma_star.shape}, expected ({r},)")
    if cfg.initial_backlog is not None:
        backlog = np.asarray(cfg.initial_backlog, dtype=float)
        if backlog.shape != (r,):
            raise ValueError(f"initial_backlog has shape {backlog.shape}, expected ({r},)")
        if not (np.isfinite(backlog).all() and (backlog >= 0).all()):
            raise ValueError("initial_backlog must be finite and non-negative")
    # per-kind facts, settled once: the slot loop branches on `olac` only
    olac = kind == OLAC
    theta = ctrl.resolved_theta(r) if olac else None
    t_learn = ctrl.learn_slot() if kind == OLAC2 else None
    discipline = "LIFO" if kind == OLAC2 else "FIFO"

    states_seq = sample_states(instance, H, cfg.seed)
    flagged = 0
    # both learners see the states only, so they run before the first slot,
    # which is where an instance without service slack is rejected
    try:
        if olac:
            # learned at V = 1 and scaled: V * beta(t; 1) is dual_learn(..., V) bit for bit.
            # The instance keeps one path, the last learned: a sweep task runs
            # one seed's V values back to back
            store = instance_store(instance)
            kept = store.get("olac_path")
            if kept is None or kept[0] != (cfg.seed, H):
                path, count = dual_learn(instance, states_seq, 1.0)
                path.flags.writeable = False
                kept = store["olac_path"] = ((cfg.seed, H), path, count)
            beta_path, flagged = V * kept[1], kept[2]
        elif t_learn is not None and t_learn < H:
            empirical = np.bincount(states_seq[:t_learn], minlength=instance.M) / t_learn
            learned = olac2_step(instance, empirical, ctrl)
            flagged = int(learned.at_box)
    except NoSlackError as exc:
        raise NoSlackError(f"{kind}: {exc}") from None
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
            action = olac_decide(instance, sid, q, beta_path[t], theta, neg_v_costs)
        else:
            action = bp_decide(instance, sid, q, neg_v_costs)
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
    )
