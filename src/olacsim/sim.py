"""Slot-loop simulation engine: sample states, plan the run, decide and serve, then measure.

States are presampled from the instance distribution with a PCG64 generator;
the seed is split into two independent streams (state sampling, reserved) via
SeedSequence spawning. Identical (instance, config, gamma_star) inputs
reproduce bit-identical results.

The controllers differ in three things, settled before slot 0 in the run's
plan (``_plan``, the only reader of the controller kind): the discipline,
OLAC's beta path and theta, and OLAC2's reset of the backlog to its learned
gamma at T_l. The learners see the states only, so they run in the plan.
OLAC's path, segments of slots with one beta each, is learned at V = 1 and
scaled by V, and the instance keeps the last one learned (its ``derived``
slot ``olac_path``), keyed by (seed, horizon): the same seed's next run at
another V reuses it.
One slot loop, the same for every kind, walks the plan's segments. A slot
copies the ledger's totals into its row of the backlog path, decides on that
row, and serves in one ``add_many(apply_slot(...))`` expression; the actions
go to a list. The loop reads ``bp_decide``, ``olac_decide``, ``apply_slot``
and ``DelayAccumulator.add_many`` once per run, from this module's globals and
the accumulator: a tracer that rebinds those names before the run sees every
call, and one bound at import time would escape it
(``tests/test_tracer_contract.py``). On the two-queue instance a slot costs
about 4 us: the decision rule about 1.5, ``apply_slot`` and ``add_many``
about 1.3, the row copy about 0.4, and the loop's own bookkeeping the rest
(2-core x86-64 host, Python 3.11, numpy 2.4).

The multiplier estimate whose convergence is measured is q(t), or
q(t) + beta(t) - theta with a beta path (OLAC), formed after the loop in
one pass: each segment's V * beta repeated over its slots. At OLAC2's reset
slot the adjustment is applied before the slot's metrics are taken, so the
measured estimate jumps to the learned target there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controllers import OLAC, OLAC2, ControllerConfig, bp_decide, olac2_step, olac_decide
from .dual import NoSlackError, learner_slack
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
    """I.i.d. state indices via inverse CDF on the first spawned seed stream.

    The probabilities may sum to within ``model.PROB_SUM_TOL`` of 1, so the
    CDF is raised to 1 at the last state of positive probability and ends
    there: every draw in [0, 1) lands on a state of positive probability.
    """
    streams = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.Generator(np.random.PCG64(streams[0]))
    last = int(np.flatnonzero(instance.probabilities)[-1])
    cum = np.cumsum(instance.probabilities[: last + 1])
    cum[-1] = max(cum[-1], 1.0)
    return np.searchsorted(cum, rng.random(horizon), side="right")


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


@dataclass(frozen=True)
class _Plan:
    """What a run's controller kind settles before slot 0; the slot loop reads only this."""

    discipline: str                 # "LIFO" for OLAC2, "FIFO" otherwise
    segments: tuple                 # (start, stop, OLAC's V * beta on slots start..stop-1, or None: decide on q)
    betas: np.ndarray | None        # OLAC's V * beta, one row per segment: the segments' third entries
    theta: np.ndarray | None        # OLAC's offset
    reset_gamma: np.ndarray | None  # the backlog OLAC2 is adjusted to at slot t_learn
    flagged: int                    # RunResult.solver_flagged_slots
    t_learn: int | None             # OLAC2's T_l, also past the horizon (no reset then)


def _plan(instance: NetworkInstance, cfg: SimConfig, states: np.ndarray) -> _Plan:
    """The plan of one run; the learners see the states only, so an instance without slack fails here."""
    ctrl, H = cfg.controller, cfg.horizon
    on_q = ((0, H, None),)  # one segment without beta: Backpressure's and OLAC2's
    try:
        if ctrl.kind == OLAC:
            theta = ctrl.resolved_theta(instance.r)
            # learned at V = 1 and scaled. The instance keeps one path, the
            # last learned: a sweep task runs one seed's V values back to back
            kept = instance.derived.get("olac_path")
            if kept is None or kept[0] != (cfg.seed, H):
                kept = instance.derived["olac_path"] = ((cfg.seed, H), *dual_learn(instance, states))
            _, starts, betas, flagged = kept
            betas = ctrl.V * betas
            return _Plan("FIFO", tuple(zip(starts, [*starts[1:], H], betas)), betas, theta, None, flagged, None)
        if ctrl.kind == OLAC2:
            t_learn = ctrl.learn_slot()
            if t_learn >= H:
                learner_slack(instance)  # nothing is learned, and still an instance without slack fails
                return _Plan("LIFO", on_q, None, None, None, 0, t_learn)
            learned = olac2_step(instance, np.bincount(states[:t_learn], minlength=instance.M) / t_learn, ctrl)
            return _Plan("LIFO", on_q, None, None, learned.gamma, int(learned.at_box), t_learn)
    except NoSlackError as exc:
        raise NoSlackError(f"{ctrl.kind}: {exc}") from None
    return _Plan("FIFO", on_q, None, None, None, 0, None)


def run(instance: NetworkInstance, cfg: SimConfig, gamma_star) -> RunResult:
    """Execute the slot loop and collect metrics against the supplied optimum.

    gamma_star is measurement-side knowledge (the true-distribution optimum,
    typically from the analysis oracles); controllers never see it. The loop
    only decides and serves, the same for every controller, on the run's
    plan (``_plan``); every metric is derived from the recorded backlog and
    action paths afterwards. The instance is not checked again: a
    NetworkInstance is valid once built.
    """
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

    states_seq = sample_states(instance, H, cfg.seed)
    plan = _plan(instance, cfg, states_seq)
    theta, t_learn, discipline = plan.theta, plan.t_learn, plan.discipline
    ledger = QueueLedger(r)
    if cfg.initial_backlog is not None:
        ledger.add_initial(cfg.initial_backlog)
    delay_acc = DelayAccumulator(r)
    dropped = np.zeros(r)
    q_path = np.empty((H, r))
    actions = []
    # per-(state, action) rows of r floats, read by the ledger once per slot;
    # the instance keeps them, made by its first run
    if "slot_rows" not in instance.derived:
        instance.derived["slot_rows"] = tuple(
            tuple(tuple(map(tuple, rows)) for rows in table.tolist())
            for table in (instance.arrivals, instance.services)
        )
    arrival_rows, service_rows = instance.derived["slot_rows"]
    # -V * costs per state, made once per run; the rules index it like instance.drift_rows
    neg_v_costs = tuple(-cfg.controller.V * instance.costs)
    # the ledger's float list, updated in place; each slot copies it into its q_path row
    totals = ledger.totals
    states = states_seq.tolist()
    # the per-slot calls, read from the module globals once per run: a tracer
    # that rebinds them before the run still sees every call
    bp, olac, apply, add, record = bp_decide, olac_decide, apply_slot, delay_acc.add_many, actions.append

    for start, stop, beta in plan.segments:
        for t, sid in enumerate(states[start:stop], start):
            q = q_path[t]
            q[:] = totals
            if beta is None:
                action = bp(instance, sid, q, neg_v_costs)
            else:
                action = olac(instance, sid, q, beta, theta, neg_v_costs)
            if t == t_learn:  # OLAC2's reset; t never reaches H, and the other kinds have None
                # the action stays the one taken on the backlog before the adjustment
                dropped += adjust_to(ledger, plan.reset_gamma, t).dropped
                q[:] = totals
            record(action)
            add(apply(ledger, arrival_rows[sid][action], service_rows[sid][action], t, discipline))

    delay = delay_acc.finalize(H)
    costs = instance.costs[states_seq, actions]
    # the estimate is q(t), or q(t) + beta(t) - theta with a beta path, its segments' rows repeated over their slots
    estimate, beta_trace = q_path, None
    if theta is not None:
        lengths = [stop - start for start, stop, _ in plan.segments]
        estimate = (q_path + np.repeat(plan.betas, lengths, axis=0)) - theta
        beta_trace = np.repeat(_distances(plan.betas, gamma_star), lengths)
    dist = _distances(estimate, gamma_star)
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
        beta_trace=beta_trace,
        queue_trace=q_path,
        cost_trace=costs,
        solver_flagged_slots=plan.flagged,
        t_learn=plan.t_learn,
    )
