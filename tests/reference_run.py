"""A whole run, slot by slot, written to be read: the reference ``sim.run`` is checked against.

Every slot does what the paper's controllers do, in the order they do it:

1. read the backlog q(t);
2. choose the action that maximizes -V*f + w.(mu - A), with w = q for
   Backpressure and OLAC2 and w = (q + beta(t)) - theta for OLAC;
3. at OLAC2's learn slot T_l, drop or pad the backlog to the learned gamma
   (the action stays the one chosen on the backlog before);
4. serve the chosen action's service and add its arrivals, FIFO, or LIFO for
   OLAC2.

The queues are the reference ledger of ``conftest`` (``RefQueueLedger``,
``RefDelayAccumulator``), and every metric is summed slot by slot in plain
Python. Only the learners and the state sampler are shared with ``olacsim``:
OLAC's beta path comes from ``learning.dual_learn`` (its segments are expanded
here, one row per slot) and OLAC2's gamma from ``dual.maximize_dual``; both
have their own HiGHS checks. The score is formed with the same ``np.dot`` as
``controllers``, so under one BLAS kernel the two runs agree bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from olacsim.controllers import OLAC, OLAC2
from olacsim.dual import maximize_dual
from olacsim.learning import dual_learn
from olacsim.sim import SUSTAIN_WINDOW, SimConfig, sample_states

from conftest import RefDelayAccumulator, RefQueueLedger, ref_adjust_to, ref_apply_slot


@dataclass
class ReferenceRun:
    actions: list[int]
    q_path: np.ndarray         # backlog per slot, after OLAC2's adjustment at T_l
    avg_cost: float
    avg_backlog: float
    dropped: np.ndarray
    t_zeta_first: int | None
    t_zeta_sustained: int | None
    mean_delay: float | None
    delivered_rate: np.ndarray
    flagged: int


def first_run_start(within: list[bool], window: int) -> int | None:
    """The first slot that starts ``window`` consecutive within-zeta slots."""
    length = 0
    for t, ok in enumerate(within):
        length = length + 1 if ok else 0
        if length == window:
            return t - window + 1
    return None


def reference_run(instance, cfg: SimConfig, gamma_star) -> ReferenceRun:
    ctrl, H, r = cfg.controller, cfg.horizon, instance.r
    V = ctrl.V
    states = sample_states(instance, H, cfg.seed)

    beta = theta = learned = None
    flagged, discipline, t_learn = 0, "FIFO", -1
    if ctrl.kind == OLAC:
        starts, betas, flagged = dual_learn(instance, states)
        stops = list(starts[1:]) + [H]
        beta = np.empty((H, r))
        for start, stop, row in zip(starts, stops, betas):
            beta[start:stop] = V * row
        theta = ctrl.resolved_theta(r)
    elif ctrl.kind == OLAC2:
        discipline, t_learn = "LIFO", ctrl.learn_slot()
        if t_learn < H:
            seen = np.bincount(states[:t_learn], minlength=instance.M) / t_learn
            learned = maximize_dual(instance, seen, V)
            flagged = int(learned.at_box)

    ledger, delays = RefQueueLedger(r), RefDelayAccumulator(r)
    dropped = np.zeros(r)
    actions, q_path, within = [], np.empty((H, r)), []
    cost_sum = backlog_sum = 0.0
    for t in range(H):
        s = int(states[t])
        q = ledger.totals
        w = q if beta is None else (q + beta[t]) - theta
        scores = -V * instance.costs[s] - np.dot(instance.drift_rows[s], w)
        action = int(scores.argmax())
        if t == t_learn:
            dropped = dropped + ref_adjust_to(ledger, learned.gamma, t).dropped
            q = ledger.totals
        actions.append(action)
        q_path[t] = q
        estimate = q if beta is None else (q + beta[t]) - theta
        d = estimate - gamma_star
        within.append(cfg.zeta is not None and math.sqrt(d @ d) <= cfg.zeta)
        cost_sum += instance.costs[s, action]
        backlog_sum += sum(q.tolist())
        delays.add_many(ref_apply_slot(ledger, instance.arrivals[s, action], instance.services[s, action], t,
                                       discipline))

    stats = delays.finalize(H)
    return ReferenceRun(
        actions=actions,
        q_path=q_path,
        avg_cost=cost_sum / H,
        avg_backlog=backlog_sum / H,
        dropped=dropped,
        t_zeta_first=first_run_start(within, 1) if cfg.zeta is not None else None,
        t_zeta_sustained=first_run_start(within, SUSTAIN_WINDOW) if cfg.zeta is not None else None,
        mean_delay=stats.mean_delay,
        delivered_rate=stats.delivered_rate,
        flagged=flagged,
    )
