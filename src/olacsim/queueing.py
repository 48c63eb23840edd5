"""Timestamped fluid queues with FIFO/LIFO service and per-unit delay accounting.

Queue totals follow the slotted recursion

    q_j(t+1) = max(q_j(t) - mu_j(t), 0) + A_j(t)

service is applied to the content present at the start of the slot; arrivals
join afterwards and are first servable in the next slot. When the allocated
service mu_j exceeds the available content, the deficit is transmitted as null
padding (recorded, never enqueued). Content is fluid: chunks carry real-valued
amounts and their arrival slot, so departures can be attributed to arrival
times under either discipline.

The per-slot state is plain Python: the totals and the conservation counters
are float lists and a departure is a tuple

    (queue, amount, arrival_slot, departure_slot, was_null)

The slot loop calls ``apply_slot`` and ``DelayAccumulator.add_many`` once per
slot, so they avoid numpy scalars; ``QueueLedger.totals``,
``remaining_real()`` and ``DelayStats.delivered_rate`` are numpy arrays.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AdjustmentRecord",
    "DelayStats",
    "DelayAccumulator",
    "QueueLedger",
    "apply_slot",
    "adjust_to",
]

_DUST = 1e-12

FIFO = "FIFO"
LIFO = "LIFO"


@dataclass
class AdjustmentRecord:
    dropped: np.ndarray        # total amount removed per queue (newest first)
    dropped_null: np.ndarray   # portion of `dropped` that was null padding
    added_null: np.ndarray     # null amount appended per queue


class QueueLedger:
    """Per-queue chunk lists plus conservation counters.

    Chunks are [arrival_slot, amount, is_null] triples ordered oldest-first.
    The cached totals follow the scalar recursion exactly; chunk sums agree
    with them to float accumulation error. Totals and counters are float
    lists, one entry per queue.
    """

    def __init__(self, r: int):
        self.r = int(r)
        self.chunks: list[deque] = [deque() for _ in range(self.r)]
        self._totals = [0.0] * self.r
        # conservation counters (real = non-null)
        self.arrived = [0.0] * self.r
        self.departed_real = [0.0] * self.r
        self.departed_null = [0.0] * self.r  # null chunks served from the ledger
        self.padding_null = [0.0] * self.r   # service deficit, never enqueued
        self.dropped_real = [0.0] * self.r
        self.dropped_null = [0.0] * self.r
        self.added_null = [0.0] * self.r

    @property
    def totals(self) -> np.ndarray:
        return np.array(self._totals)

    def remaining_real(self) -> np.ndarray:
        return np.array([sum(c[1] for c in q if not c[2]) for q in self.chunks])

    def add_initial(self, amounts, slot: int = 0) -> None:
        """Seed backlog before a run (test hook); counts as real arrivals."""
        amounts = np.asarray(amounts, dtype=float)
        for j in range(self.r):
            if amounts[j] > 0:
                self.chunks[j].append([slot, float(amounts[j]), False])
                self._totals[j] += float(amounts[j])
                self.arrived[j] += float(amounts[j])


def apply_slot(ledger: QueueLedger, arrivals, services, slot: int, discipline: str = FIFO) -> list[tuple]:
    """One slot of queue dynamics; returns the departures it caused.

    Serves min(q_j, mu_j) from the existing chunks (front for FIFO, back for
    LIFO), emits a null departure for any service deficit, then appends the
    slot's arrivals as a new chunk. Each departure is a tuple
    ``(queue, amount, arrival_slot, departure_slot, was_null)``. Trusts its
    inputs: arrivals and services are sequences of r non-negative floats
    (``sim.run`` checks the instance tables once and passes list rows).
    """
    lifo = discipline == LIFO
    out: list[tuple] = []
    totals = ledger._totals
    for j, (a, mu) in enumerate(zip(arrivals, services)):
        if mu > 0:
            chunks = ledger.chunks[j]
            need = mu
            while need > _DUST and chunks:
                chunk = chunks[-1] if lifo else chunks[0]
                take = chunk[1] if chunk[1] <= need else need
                out.append((j, take, chunk[0], slot, chunk[2]))
                if chunk[2]:
                    ledger.departed_null[j] += take
                else:
                    ledger.departed_real[j] += take
                need -= take
                chunk[1] -= take
                if chunk[1] <= _DUST:
                    if lifo:
                        chunks.pop()
                    else:
                        chunks.popleft()
            if need > _DUST:
                out.append((j, need, slot, slot, True))
                ledger.padding_null[j] += need
        if a > 0:
            ledger.chunks[j].append([slot, a, False])
            ledger.arrived[j] += a
        # max(left, 0.0), spelt out: the same float, without a builtin call per queue
        left = totals[j] - mu
        totals[j] = (0.0 if left < 0.0 else left) + a
    return out


def adjust_to(ledger: QueueLedger, target, slot: int) -> AdjustmentRecord:
    """Force totals to `target`: drop newest-first when above, pad with null below."""
    target = np.asarray(target, dtype=float)
    if target.shape != (ledger.r,):
        raise ValueError("target must be an r-vector")
    if (target < 0).any():
        raise ValueError("target must be non-negative")
    dropped = np.zeros(ledger.r)
    dropped_null = np.zeros(ledger.r)
    added = np.zeros(ledger.r)
    for j, level in enumerate(target.tolist()):
        excess = ledger._totals[j] - level
        if excess > 0:
            chunks = ledger.chunks[j]
            need = excess
            while need > _DUST and chunks:
                chunk = chunks[-1]
                take = chunk[1] if chunk[1] <= need else need
                if chunk[2]:
                    dropped_null[j] += take
                    ledger.dropped_null[j] += take
                else:
                    ledger.dropped_real[j] += take
                need -= take
                chunk[1] -= take
                if chunk[1] <= _DUST:
                    chunks.pop()
            dropped[j] = excess
        elif excess < 0:
            ledger.chunks[j].append([slot, -excess, True])
            ledger.added_null[j] += -excess
            added[j] = -excess
        ledger._totals[j] = level
    return AdjustmentRecord(dropped=dropped, dropped_null=dropped_null, added_null=added)


@dataclass
class DelayStats:
    mean_delay: float | None
    delivered_rate: np.ndarray


class DelayAccumulator:
    """Streaming amount-weighted delay over the real (non-null) departures."""

    def __init__(self, r: int):
        self.weighted_delay = [0.0] * r
        self.delivered = [0.0] * r

    def add_many(self, records) -> None:
        weighted_delay, delivered = self.weighted_delay, self.delivered
        for j, amount, arrival_slot, departure_slot, was_null in records:
            if not was_null:
                weighted_delay[j] += amount * (departure_slot - arrival_slot)
                delivered[j] += amount

    def finalize(self, horizon: int) -> DelayStats:
        # numpy's sums, not Python's: from eight queues on, numpy sums pairwise
        weighted_delay, delivered = np.array(self.weighted_delay), np.array(self.delivered)
        total = delivered.sum()
        return DelayStats(
            mean_delay=float(weighted_delay.sum() / total) if total > 0 else None,
            delivered_rate=delivered / max(horizon, 1),
        )
