import csv
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from olacsim.dual import InfeasibleInstanceError, class_lp, max_slack, primal_oracle
from olacsim.learning import dual_learn
from olacsim.model import ActionSpec, NetworkInstance, StateSpec, build_two_queue_example

# Every property test draws the same examples on every run: Tier-1 takes the
# same time each run, and a failure reproduces without a saved example.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def two_queue():
    return build_two_queue_example([0.25, 0.25, 0.25, 0.25])


@pytest.fixture(scope="session")
def two_queue_unbalanced():
    return build_two_queue_example([0.1, 0.4, 0.4, 0.1])


def make_instance(r, probs, actions_per_state):
    """Build an instance from plain nested lists: [(cost, arrivals, services), ...] per state."""
    states = [StateSpec(p, tuple(ActionSpec(c, tuple(a), tuple(s)) for c, a, s in acts))
              for p, acts in zip(probs, actions_per_state)]
    return NetworkInstance(r, states)


def single_state_instance(actions, r=1):
    return make_instance(r, [1.0], [actions])


def flat_dual():
    """One state, one queue, actions (cost 0, drift 0) and (cost 1, drift -1).

    Its dual min(0, 1 - gamma) is flat on [0, 1], so it has no polyhedral
    decay at gamma* = 0; it has service slack, so every controller runs on it.
    """
    return single_state_instance([(0.0, [0.0], [0.0]), (1.0, [0.0], [1.0])])


def per_state_dual(instance, state_id, gamma, V):
    """Minimum of V*f + gamma.(A - mu) over one state's actions, as (value, argmin action id).

    The reference the decision rule and the reduced tables are checked
    against; exact ties go to the smallest id, and padded actions cost +inf.
    """
    scores = V * instance.costs[state_id] + instance.drift[state_id] @ np.asarray(gamma, dtype=float)
    k = int(np.argmin(scores))
    return float(scores[k]), k


def dense_path(instance, states, V):
    """OLAC's beta path over ``states`` at V, one row per slot, and its flagged count.

    ``learning.dual_learn``'s V = 1 segments, expanded and scaled the way the
    learner once did it itself, so the rows are the same bytes.
    """
    starts, betas, flagged = dual_learn(instance, states)
    return V * np.repeat(betas, np.diff(np.append(starts, len(states))), axis=0), flagged


def read_csv(path):
    """A CSV's rows as dicts of their cells' text, keyed by the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def total(ledger, j):
    """Queue j's backlog as a float, read from the ledger's float list of totals."""
    return ledger.totals[j]


def random_instance(rng, max_m=8, max_r=2, max_actions=5):
    m = int(rng.integers(1, max_m + 1))
    r = int(rng.integers(1, max_r + 1))
    probs = rng.dirichlet(np.ones(m))
    actions = []
    for _ in range(m):
        k = int(rng.integers(1, max_actions + 1))
        acts = []
        for _ in range(k):
            cost = float(rng.uniform(0, 3))
            arr = rng.uniform(0, 2, size=r)
            srv = rng.uniform(0, 3, size=r)
            acts.append((cost, arr.tolist(), srv.tolist()))
        actions.append(acts)
    return make_instance(r, probs.tolist(), actions)


def random_multiplier_instances(seed, count, **kwargs):
    """Deterministic stream of random instances with strictly positive slack and a multiplier clear of 0.

    Most random instances with slack have gamma* = 0, since costs and
    services are drawn independently and the cheapest policy is often
    already stable; the stream keeps those whose V = 1 multiplier has
    |gamma*| > 0.1, so the backlog and the multiplier weigh in.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        inst = random_instance(rng, **kwargs)
        try:
            if max_slack(inst, inst.probabilities) > 1e-6:
                if np.linalg.norm(primal_oracle(inst, inst.probabilities).multiplier_v1) > 0.1:
                    out.append(inst)
        except InfeasibleInstanceError:
            continue
    return out


# score cells (multipliers x class slots) that class_dual_values builds at once:
# 64 KiB a temporary
SCORE_CELLS = 1 << 13


def class_dual_values(instance, dist, gammas, V):
    """The dual at each row of the (S, r) array ``gammas >= 0``, on ``class_lp``'s tables: the grid oracle.

    g(gamma) = w . min over slots of (V*base + drift . gamma), plus
    gamma . a_bar, where w and a_bar are the class and queue rows of
    rhs @ dist: a folded class's arrivals do not depend on its action, so
    they leave its minimum as the term gamma . a_bar. Pruning keeps each
    class's smallest score for gamma >= 0 only (``DualTables``), so a
    negative multiplier can read too high. Every product is elementwise and
    summed in a fixed order, drift . gamma one queue at a time; the rows are
    scored SCORE_CELLS cells at a time. It scores many multipliers in one
    call, where ``dual.dual_value`` takes one.
    """
    lp = class_lp(instance)
    n_class, width = lp.shape
    weights = (lp.rhs * dist).sum(axis=-1)
    w, a_bar = weights[:n_class], weights[n_class:]
    base = V * lp.base
    values = np.empty(len(gammas))
    rows = max(1, SCORE_CELLS // base.size)
    for start in range(0, len(gammas), rows):
        block = gammas[start : start + rows]
        drift_gamma = block[:, :1] * lp.drift[:, 0]
        for j in range(1, instance.r):
            drift_gamma += block[:, j : j + 1] * lp.drift[:, j]
        mins = (base + drift_gamma).reshape(len(block), n_class, width).min(axis=2)
        values[start : start + rows] = (mins * w).sum(axis=-1) + (block * a_bar).sum(axis=-1)
    return values


def state_index(a1_on, a2_on, c1_idx, c2_idx):
    """Two-queue builder enumeration order: (a1, a2, C1, C2) nested loops."""
    return ((a1_on * 2 + a2_on) * 4 + c1_idx) * 4 + c2_idx


# -- reference ledger ----------------------------------------------------------
#
# The queue ledger as it was written with numpy counters and a dataclass per
# departure. The code is kept as it was; only the names (Ref prefix) and the
# docstrings changed, and the unused add_initial hook is left out. The
# plain-float ledger of olacsim.queueing must reproduce it to the last bit.

_REF_DUST = 1e-12


@dataclass
class RefDepartureRecord:
    queue: int
    amount: float
    arrival_slot: int
    departure_slot: int
    was_null: bool


@dataclass
class RefAdjustmentRecord:
    dropped: np.ndarray        # total amount removed per queue (newest first)
    dropped_null: np.ndarray   # portion of `dropped` that was null padding
    added_null: np.ndarray     # null amount appended per queue


class RefQueueLedger:
    """Per-queue chunk lists plus conservation counters."""

    def __init__(self, r: int):
        self.r = int(r)
        self.chunks: list[deque] = [deque() for _ in range(self.r)]
        self._totals = np.zeros(self.r)
        # conservation counters (real = non-null)
        self.arrived = np.zeros(self.r)
        self.departed_real = np.zeros(self.r)
        self.departed_null = np.zeros(self.r)  # null chunks served from the ledger
        self.padding_null = np.zeros(self.r)   # service deficit, never enqueued
        self.dropped_real = np.zeros(self.r)
        self.dropped_null = np.zeros(self.r)
        self.added_null = np.zeros(self.r)

    @property
    def totals(self) -> np.ndarray:
        return self._totals.copy()

    def remaining_real(self) -> np.ndarray:
        return np.array([sum(c[1] for c in q if not c[2]) for q in self.chunks])


def _ref_serve(ledger: RefQueueLedger, j: int, amount: float, slot: int, lifo: bool, out: list):
    """Remove up to `amount` from queue j, newest-first when lifo."""
    chunks = ledger.chunks[j]
    need = amount
    while need > _REF_DUST and chunks:
        chunk = chunks[-1] if lifo else chunks[0]
        take = chunk[1] if chunk[1] <= need else need
        out.append(RefDepartureRecord(j, take, chunk[0], slot, chunk[2]))
        if chunk[2]:
            ledger.departed_null[j] += take
        else:
            ledger.departed_real[j] += take
        need -= take
        chunk[1] -= take
        if chunk[1] <= _REF_DUST:
            if lifo:
                chunks.pop()
            else:
                chunks.popleft()
    return need


def ref_apply_slot(ledger: RefQueueLedger, arrivals, services, slot: int, discipline: str = "FIFO"):
    """One slot of queue dynamics on numpy r-vectors; returns the departures it caused."""
    lifo = discipline == "LIFO"
    out: list[RefDepartureRecord] = []
    for j, (a, mu) in enumerate(zip(arrivals.tolist(), services.tolist())):
        if mu > 0:
            deficit = _ref_serve(ledger, j, mu, slot, lifo, out)
            if deficit > _REF_DUST:
                out.append(RefDepartureRecord(j, deficit, slot, slot, True))
                ledger.padding_null[j] += deficit
        if a > 0:
            ledger.chunks[j].append([slot, a, False])
            ledger.arrived[j] += a
        ledger._totals[j] = max(ledger._totals[j] - mu, 0.0) + a
    return out


def ref_adjust_to(ledger: RefQueueLedger, target, slot: int) -> RefAdjustmentRecord:
    """Force totals to `target`: drop newest-first when above, pad with null below."""
    target = np.asarray(target, dtype=float)
    if target.shape != (ledger.r,):
        raise ValueError("target must be an r-vector")
    if (target < 0).any():
        raise ValueError("target must be non-negative")
    dropped = np.zeros(ledger.r)
    dropped_null = np.zeros(ledger.r)
    added = np.zeros(ledger.r)
    for j in range(ledger.r):
        excess = ledger._totals[j] - target[j]
        if excess > 0:
            chunks = ledger.chunks[j]
            need = excess
            while need > _REF_DUST and chunks:
                chunk = chunks[-1]
                take = chunk[1] if chunk[1] <= need else need
                if chunk[2]:
                    dropped_null[j] += take
                    ledger.dropped_null[j] += take
                else:
                    ledger.dropped_real[j] += take
                need -= take
                chunk[1] -= take
                if chunk[1] <= _REF_DUST:
                    chunks.pop()
            dropped[j] = excess
        elif excess < 0:
            ledger.chunks[j].append([slot, float(-excess), True])
            ledger.added_null[j] += -excess
            added[j] = -excess
        ledger._totals[j] = float(target[j])
    return RefAdjustmentRecord(dropped=dropped, dropped_null=dropped_null, added_null=added)


@dataclass
class RefDelayStats:
    mean_delay: float | None
    delivered_rate: np.ndarray


class RefDelayAccumulator:
    """Streaming amount-weighted delay over the real (non-null) departures."""

    def __init__(self, r: int):
        self.weighted_delay = np.zeros(r)
        self.delivered = np.zeros(r)

    def add_many(self, records) -> None:
        for rec in records:
            if not rec.was_null:
                self.weighted_delay[rec.queue] += rec.amount * (rec.departure_slot - rec.arrival_slot)
                self.delivered[rec.queue] += rec.amount

    def finalize(self, horizon: int) -> RefDelayStats:
        total = self.delivered.sum()
        return RefDelayStats(
            mean_delay=float(self.weighted_delay.sum() / total) if total > 0 else None,
            delivered_rate=self.delivered / max(horizon, 1),
        )
