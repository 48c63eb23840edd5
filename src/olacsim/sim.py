"""Slot-loop simulation engine: sample states, learn, then decide, serve, measure.

States are presampled from the instance distribution with a PCG64 generator;
the seed is split into two independent streams (state sampling, reserved) via
SeedSequence spawning, and the generator name is echoed in the run metadata.
Identical (instance, config, gamma_star) inputs reproduce bit-identical
results. OLAC's learned multiplier depends on the states only, so its whole
path is learned before the slot loop.

The multiplier estimate whose convergence is measured is q(t) for
Backpressure and OLAC2 and q(t) + beta(t) - theta for OLAC; at OLAC2's learn
slot the backlog adjustment is applied before the slot's metrics are taken,
so the measured estimate jumps to the learned target there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .controllers import BACKPRESSURE, OLAC, OLAC2, ControllerConfig, bp_decide, olac2_step, olac_decide
from .learning import dual_learn
from .model import NetworkInstance
from .queueing import DelayAccumulator, DelayStats, QueueLedger, adjust_to, apply_slot

__all__ = ["SimConfig", "RunResult", "run", "convergence_time", "sample_states"]

RNG_NAME = "pcg64"
# consecutive within-zeta slots that make T_zeta_sustained
SUSTAIN_WINDOW = 100


@dataclass
class SimConfig:
    horizon: int
    seed: int
    controller: ControllerConfig
    zeta: float | None = None
    metric_sample_period: int = 1
    initial_backlog: np.ndarray | None = None  # test hook
    checkpoints: tuple[int, ...] = ()

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.metric_sample_period < 1:
            raise ValueError("metric_sample_period must be >= 1")


@dataclass
class RunResult:
    avg_cost: float
    avg_backlog: float
    delay: DelayStats
    t_zeta_first: int | None
    t_zeta_sustained: int | None
    dropped: np.ndarray
    trace_slots: np.ndarray
    gamma_trace: np.ndarray
    beta_trace: np.ndarray | None
    queue_trace: np.ndarray
    cost_trace: np.ndarray
    checkpoints: dict = field(default_factory=dict)
    solver_flagged_slots: int = 0
    metadata: dict = field(default_factory=dict)


def sample_states(instance: NetworkInstance, horizon: int, seed: int) -> np.ndarray:
    """I.i.d. state indices via inverse CDF on the first spawned seed stream."""
    streams = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.Generator(np.random.PCG64(streams[0]))
    cum = np.cumsum(instance.probabilities)
    cum[-1] = max(cum[-1], 1.0)
    draws = rng.random(horizon)
    return np.minimum(np.searchsorted(cum, draws, side="right"), instance.M - 1)


def convergence_time(trace, gamma_star, zeta: float) -> int | None:
    """First index of a multiplier-estimate series within zeta of gamma_star."""
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    trace = np.asarray(trace, dtype=float)
    gamma_star = np.asarray(gamma_star, dtype=float)
    dists = np.linalg.norm(trace - gamma_star, axis=-1)
    hits = np.nonzero(dists <= zeta)[0]
    return int(hits[0]) if hits.size else None


def run(instance: NetworkInstance, cfg: SimConfig, gamma_star) -> RunResult:
    """Execute the slot loop and collect metrics against the supplied optimum.

    gamma_star is measurement-side knowledge (the true-distribution optimum,
    typically from the analysis oracles); controllers never see it.
    """
    ctrl = cfg.controller
    kind = ctrl.kind
    V = ctrl.V
    r = instance.r
    gamma_star = np.asarray(gamma_star, dtype=float)
    if gamma_star.shape != (r,):
        raise ValueError(f"gamma_star has shape {gamma_star.shape}, expected ({r},)")
    # per-kind facts, settled once: the slot loop branches on `olac` only
    olac = kind == OLAC
    theta = ctrl.resolved_theta(r) if olac else None
    t_learn = ctrl.learn_slot() if kind == OLAC2 else None
    discipline = "LIFO" if kind == OLAC2 else "FIFO"

    states_seq = sample_states(instance, cfg.horizon, cfg.seed)
    flagged = 0
    if olac:
        beta_path, flagged = dual_learn(instance, states_seq, V)
    ledger = QueueLedger(r)
    if cfg.initial_backlog is not None:
        ledger.add_initial(cfg.initial_backlog)
    delay_acc = DelayAccumulator(r)

    n_samples = (cfg.horizon + cfg.metric_sample_period - 1) // cfg.metric_sample_period
    trace_slots = np.empty(n_samples, dtype=np.int64)
    gamma_trace = np.empty(n_samples)
    beta_trace = np.empty(n_samples) if olac else None
    queue_trace = np.empty((n_samples, r))
    cost_trace = np.empty(n_samples)
    checkpoint_set = set(cfg.checkpoints)
    checkpoints: dict[int, dict] = {}

    cost_sum = 0.0
    backlog_sum = 0.0
    dropped = np.zeros(r)
    t_first = None
    t_sustained = None
    run_start = None
    run_len = 0
    sample_idx = 0
    costs_tab = instance.costs
    arrivals_tab = instance.arrivals
    services_tab = instance.services

    for t in range(cfg.horizon):
        sid = int(states_seq[t])
        q = ledger.totals
        if olac:
            beta = beta_path[t]
            action = olac_decide(instance, sid, q, beta, theta, V)
            gamma_t = q + beta - theta
            bdiff = beta - gamma_star
            beta_dist = math.sqrt(float(bdiff @ bdiff))
        else:
            action = bp_decide(instance, sid, q, V)
            if t == t_learn:
                # OLAC2 keeps the action taken on the backlog before the adjustment
                empirical = np.bincount(states_seq[:t], minlength=instance.M) / t
                learned = olac2_step(instance, empirical, ctrl)
                dropped += adjust_to(ledger, learned.gamma, t).dropped
                if not learned.converged:
                    flagged += 1
                q = ledger.totals
            gamma_t = q
        backlog_sum += q.sum()
        diff = gamma_t - gamma_star
        dist = math.sqrt(float(diff @ diff))
        if cfg.zeta is not None:
            if dist <= cfg.zeta:
                if t_first is None:
                    t_first = t
                if run_start is None:
                    run_start = t
                    run_len = 0
                run_len += 1
                if run_len >= SUSTAIN_WINDOW and t_sustained is None:
                    t_sustained = run_start
            else:
                run_start = None
                run_len = 0
        if t in checkpoint_set:
            entry = {"distance": dist}
            if olac:
                entry["beta"] = beta.copy()
                entry["beta_distance"] = beta_dist
            if kind != BACKPRESSURE and t > 0:
                empirical = np.bincount(states_seq[:t], minlength=instance.M) / t
                entry["max_delta"] = float(np.abs(empirical - instance.probabilities).max())
            checkpoints[t] = entry

        cost = float(costs_tab[sid, action])
        cost_sum += cost
        if t % cfg.metric_sample_period == 0:
            trace_slots[sample_idx] = t
            gamma_trace[sample_idx] = dist
            if beta_trace is not None:
                beta_trace[sample_idx] = beta_dist
            queue_trace[sample_idx] = q
            cost_trace[sample_idx] = cost
            sample_idx += 1

        records = apply_slot(ledger, arrivals_tab[sid, action], services_tab[sid, action], t, discipline)
        delay_acc.add_many(records)

    delay = delay_acc.finalize(cfg.horizon, ledger.totals)
    metadata = {
        "kind": kind,
        "V": V,
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "rng": RNG_NAME,
        "rng_streams": "seedsequence-spawn(states, reserved)",
        "discipline": discipline,
        "zeta": cfg.zeta,
        "metric_sample_period": cfg.metric_sample_period,
        "sustain_window": SUSTAIN_WINDOW,
        "theta": None if theta is None else theta.tolist(),
        "c": ctrl.c if kind == OLAC2 else None,
        "T_l": t_learn,
        "initial_backlog": None if cfg.initial_backlog is None else list(map(float, cfg.initial_backlog)),
        "burn_in": 0,
    }
    return RunResult(
        avg_cost=cost_sum / cfg.horizon,
        avg_backlog=backlog_sum / cfg.horizon,
        delay=delay,
        t_zeta_first=t_first,
        t_zeta_sustained=t_sustained,
        dropped=dropped,
        trace_slots=trace_slots[:sample_idx],
        gamma_trace=gamma_trace[:sample_idx],
        beta_trace=None if beta_trace is None else beta_trace[:sample_idx],
        queue_trace=queue_trace[:sample_idx],
        cost_trace=cost_trace[:sample_idx],
        checkpoints=checkpoints,
        solver_flagged_slots=flagged,
        metadata=metadata,
    )
