import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olacsim.controllers import ControllerConfig
from olacsim.queueing import (
    DelayAccumulator,
    DepartureRecord,
    QueueLedger,
    adjust_to,
    apply_slot,
)
from olacsim.sim import SimConfig, run

from conftest import single_state_instance, total


def ledger_with_chunks(chunks, r=1, queue=0):
    """Seed queue `queue` with (slot, amount) chunks via apply_slot arrivals."""
    led = QueueLedger(r)
    for slot, amount in chunks:
        arr = np.zeros(r)
        arr[queue] = amount
        apply_slot(led, arr, np.zeros(r), slot, "FIFO")
    return led


def chunk_sum(led, j):
    return float(sum(c[1] for c in led.chunks[j]))


def remaining_null(led, j):
    return float(sum(c[1] for c in led.chunks[j] if c[2]))


def delay_stats(records, *, horizon, r):
    acc = DelayAccumulator(r)
    acc.add_many(records)
    return acc.finalize(horizon)


class TestApplySlot:
    def test_fifo_serves_oldest(self):
        led = ledger_with_chunks([(0, 2.0), (1, 3.0)])
        recs = apply_slot(led, np.array([1.0]), np.array([3.0]), 2, "FIFO")
        assert total(led, 0) == pytest.approx(3.0, abs=1e-12)
        served = [(r.arrival_slot, r.amount) for r in recs if not r.was_null]
        assert served == [(0, 2.0), (1, 1.0)]
        assert not any(r.was_null for r in recs)

    def test_null_padding_when_empty(self):
        led = QueueLedger(1)
        recs = apply_slot(led, np.array([2.0]), np.array([2.0]), 4, "FIFO")
        assert total(led, 0) == pytest.approx(2.0)
        nulls = [r for r in recs if r.was_null]
        assert len(nulls) == 1 and nulls[0].amount == pytest.approx(2.0)
        assert nulls[0].arrival_slot == 4 and nulls[0].departure_slot == 4
        assert list(led.chunks[0]) == [[4, 2.0, False]]

    def test_lifo_hand_trace(self):
        led = ledger_with_chunks([(0, 2.0), (1, 2.0)])
        recs = apply_slot(led, np.array([0.0]), np.array([3.0]), 5, "LIFO")
        served = [(r.arrival_slot, r.amount, r.departure_slot - r.arrival_slot) for r in recs]
        assert served == [(1, 2.0, 4), (0, 1.0, 5)]
        assert list(led.chunks[0]) == [[0, 1.0, False]]

    def test_negative_inputs_rejected(self):
        # apply_slot trusts its vectors; a run refuses an instance whose tables
        # hold a negative arrival or service, before its first slot
        for arrivals, services, name in (([-1.0], [0.0], "arrival"), ([0.0], [-1.0], "service")):
            instance = single_state_instance([(0.0, [0.0], [1.0]), (1.0, arrivals, services)])
            cfg = SimConfig(horizon=5, seed=0, controller=ControllerConfig("Backpressure", 1.0))
            with pytest.raises(ValueError, match=f"instance {name} entries"):
                run(instance, cfg, np.zeros(1))

    def test_scalar_recursion_equivalence_bulk(self):
        # ledger totals track max(q - mu, 0) + a over a long random schedule
        rng = np.random.default_rng(0)
        led = QueueLedger(1)
        q = 0.0
        n = 1_000_000
        # alternating load phases exercise deep queues and frequent emptying
        mus = rng.uniform(0, 3.0, size=n)
        arrs = rng.uniform(0, 3.0, size=n)
        arrs[: n // 3] *= 1.2      # overload: queue builds
        arrs[n // 3 :] *= 0.6      # drain: queue empties often
        worst = 0.0
        for t in range(n):
            apply_slot(led, arrs[t : t + 1], mus[t : t + 1], t, "FIFO")
            q = max(q - mus[t], 0.0) + arrs[t]
            worst = max(worst, abs(total(led, 0) - q))
        assert worst <= 1e-9
        assert abs(chunk_sum(led, 0) - q) <= 1e-9

    def test_fifo_lifo_totals_identical(self):
        rng = np.random.default_rng(5)
        led_f, led_l = QueueLedger(2), QueueLedger(2)
        for t in range(2000):
            arr = rng.uniform(0, 2, size=2)
            mu = rng.uniform(0, 2.2, size=2)
            apply_slot(led_f, arr, mu, t, "FIFO")
            apply_slot(led_l, arr, mu, t, "LIFO")
            assert np.array_equal(led_f.totals, led_l.totals)


class TestAdjustTo:
    def test_drop_and_pad(self):
        led = ledger_with_chunks([(0, 6.0), (1, 4.0)], r=2, queue=0)
        rec = adjust_to(led, np.array([4.0, 7.0]), 2)
        assert np.allclose(led.totals, [4.0, 7.0])
        assert rec.dropped[0] == pytest.approx(6.0)
        assert rec.added_null[1] == pytest.approx(7.0)
        # newest-first drop: slot-1 chunk gone entirely, slot-0 chunk shrunk
        assert [c[0] for c in led.chunks[0]] == [0]
        assert led.chunks[1][-1][2] is True

    def test_noop_when_equal(self):
        led = ledger_with_chunks([(0, 3.0)])
        rec = adjust_to(led, np.array([3.0]), 1)
        assert not (rec.dropped.any() or rec.added_null.any())
        assert total(led, 0) == 3.0

    def test_exact_postcondition(self):
        rng = np.random.default_rng(2)
        led = QueueLedger(2)
        for t in range(100):
            apply_slot(led, rng.uniform(0, 2, 2), rng.uniform(0, 2, 2), t)
        target = rng.uniform(0, 50, 2)
        adjust_to(led, target, 100)
        assert np.array_equal(led.totals, target)


class TestDelayStats:
    def test_single_departure(self):
        stats = delay_stats([DepartureRecord(0, 2.0, 3, 10, False)], horizon=20, r=1)
        assert stats.mean_delay == pytest.approx(7.0)
        assert stats.delivered_rate[0] == pytest.approx(2.0 / 20)

    def test_no_departures(self):
        stats = delay_stats([], horizon=10, r=2)
        assert stats.mean_delay is None
        assert np.allclose(stats.delivered_rate, 0.0)

    def test_null_departures_excluded_by_default(self):
        recs = [DepartureRecord(0, 1.0, 0, 5, False), DepartureRecord(0, 3.0, 5, 5, True)]
        stats = delay_stats(recs, horizon=10, r=1)
        assert stats.mean_delay == pytest.approx(5.0)
        assert stats.delivered_rate[0] == pytest.approx(0.1)  # null never counts as delivered


@st.composite
def schedules(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    steps = []
    for _ in range(n):
        kind = draw(st.sampled_from(["slot", "slot", "slot", "adjust"]))
        if kind == "slot":
            arr = draw(st.floats(0, 3))
            mu = draw(st.floats(0, 3))
            steps.append(("slot", arr, mu))
        else:
            steps.append(("adjust", draw(st.floats(0, 8)), None))
    return steps


class TestConservation:
    @settings(max_examples=200, deadline=None)
    @given(schedules(), st.sampled_from(["FIFO", "LIFO"]))
    def test_real_units_conserved(self, steps, discipline):
        led = QueueLedger(1)
        acc = DelayAccumulator(1)
        for t, step in enumerate(steps):
            if step[0] == "slot":
                recs = apply_slot(led, np.array([step[1]]), np.array([step[2]]), t, discipline)
                acc.add_many(recs)
            else:
                adjust_to(led, np.array([step[1]]), t)
        arrived = led.arrived[0]
        accounted = led.departed_real[0] + led.dropped_real[0] + led.remaining_real()[0]
        assert arrived == pytest.approx(accounted, abs=1e-6)
        # null bookkeeping closes too
        null_in = led.added_null[0]
        null_out = led.departed_null[0] + led.dropped_null[0] + remaining_null(led, 0)
        assert null_in == pytest.approx(null_out, abs=1e-6)
        # chunk sum matches cached total
        assert chunk_sum(led, 0) == pytest.approx(total(led, 0), abs=1e-9)
