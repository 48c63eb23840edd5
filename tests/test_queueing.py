import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olacsim.model import InstanceError
from olacsim.queueing import (
    DelayAccumulator,
    QueueLedger,
    adjust_to,
    apply_slot,
)

from conftest import (
    RefDelayAccumulator,
    RefQueueLedger,
    ref_adjust_to,
    ref_apply_slot,
    single_state_instance,
    total,
)


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


FLOWS = ("arrived", "departed_real", "departed_null", "padding_null", "dropped_real", "dropped_null", "added_null")


def ledger_flows(led, arrivals, records, adjustments, padding):
    """Per-queue real and null flows, derived from what the ledger returns and what it was fed.

    ``arrivals`` are the arrival rows fed in, ``records`` the departures
    apply_slot returned, ``adjustments`` adjust_to's records and ``padding``
    each slot's service deficit max(mu - q, 0), from the totals before the
    slot. Null departures are the null records less that padding; real drops
    are the drops less their null part. The keys are FLOWS plus the real and
    null content of the chunks left.
    """
    flows = {name: np.zeros(led.r) for name in FLOWS}
    for row in arrivals:
        flows["arrived"] += row
    for j, amount, _, _, was_null in records:
        flows["departed_null" if was_null else "departed_real"][j] += amount
    for row in padding:
        flows["padding_null"] += row
        flows["departed_null"] -= row
    for rec in adjustments:
        flows["dropped_real"] += rec.dropped - rec.dropped_null
        flows["dropped_null"] += rec.dropped_null
        flows["added_null"] += rec.added_null
    for name, null in (("remaining_real", False), ("remaining_null", True)):
        flows[name] = np.array([sum(c[1] for c in chunks if c[2] == null) for chunks in led.chunks])
    return flows


def assert_conserved(flows):
    """Real arrivals and null additions are each departed, dropped or still queued."""
    real_out = flows["departed_real"] + flows["dropped_real"] + flows["remaining_real"]
    null_out = flows["departed_null"] + flows["dropped_null"] + flows["remaining_null"]
    assert flows["arrived"] == pytest.approx(real_out, abs=1e-6)
    assert flows["added_null"] == pytest.approx(null_out, abs=1e-6)


def deficit(services, led):
    """The service that finds no content this slot: max(mu - q, 0) per queue."""
    return [max(mu - q, 0.0) for mu, q in zip(services, led.totals)]


def delay_stats(records, *, horizon, r):
    acc = DelayAccumulator(r)
    acc.add_many(records)
    return acc.finalize(horizon)


class TestApplySlot:
    def test_fifo_serves_oldest(self):
        led = ledger_with_chunks([(0, 2.0), (1, 3.0)])
        recs = apply_slot(led, np.array([1.0]), np.array([3.0]), 2, "FIFO")
        assert total(led, 0) == pytest.approx(3.0, abs=1e-12)
        served = [(arrived, amount) for _, amount, arrived, _, was_null in recs if not was_null]
        assert served == [(0, 2.0), (1, 1.0)]
        assert not any(was_null for *_, was_null in recs)

    def test_null_padding_when_empty(self):
        led = QueueLedger(1)
        recs = apply_slot(led, np.array([2.0]), np.array([2.0]), 4, "FIFO")
        assert total(led, 0) == pytest.approx(2.0)
        nulls = [rec for rec in recs if rec[4]]
        assert len(nulls) == 1
        _, amount, arrived, departed, _ = nulls[0]
        assert amount == pytest.approx(2.0)
        assert arrived == 4 and departed == 4
        assert list(led.chunks[0]) == [[4, 2.0, False]]

    def test_lifo_hand_trace(self):
        led = ledger_with_chunks([(0, 2.0), (1, 2.0)])
        recs = apply_slot(led, np.array([0.0]), np.array([3.0]), 5, "LIFO")
        served = [(arrived, amount, departed - arrived) for _, amount, arrived, departed, _ in recs]
        assert served == [(1, 2.0, 4), (0, 1.0, 5)]
        assert list(led.chunks[0]) == [[0, 1.0, False]]

    # a chunk served exactly, and one left with a remainder of about 5e-13 <= _DUST: either goes
    @pytest.mark.parametrize("need", [2.0, 2.0 - 5e-13])
    @pytest.mark.parametrize("discipline, kept", [("FIFO", [1, 2.0, False]), ("LIFO", [0, 2.0, False])])
    def test_chunk_served_to_dust_is_popped(self, need, discipline, kept):
        led = ledger_with_chunks([(0, 2.0), (1, 2.0)])
        recs = apply_slot(led, [0.0], [need], 3, discipline)
        assert recs == [(0, need, 1 - kept[0], 3, False)]  # no null padding
        assert list(led.chunks[0]) == [kept]
        assert led.totals == [4.0 - need]

    def test_negative_inputs_rejected(self):
        # apply_slot trusts its vectors; an instance whose tables hold a
        # negative arrival or service is never built, so no run reaches it
        for arrivals, services, name in (([-1.0], [0.0], "arrival"), ([0.0], [-1.0], "service")):
            with pytest.raises(InstanceError, match=f"state 0 action 1: negative {name} entry"):
                single_state_instance([(0.0, [0.0], [1.0]), (1.0, arrivals, services)])

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

    @pytest.mark.parametrize(
        "target, message",
        [
            ([1.0], "r-vector"),
            ([1.0, 2.0, 3.0], "r-vector"),
            ([-1.0, 1.0], "non-negative"),
            ([np.nan, 1.0], "finite"),
            ([1.0, np.inf], "finite"),
            ([-np.inf, 1.0], "finite"),
        ],
        ids=["short", "long", "negative", "nan", "inf", "minus-inf"],
    )
    def test_bad_target_rejected(self, target, message):
        led = ledger_with_chunks([(0, 3.0)], r=2)
        with pytest.raises(ValueError, match=message):
            adjust_to(led, target, 1)
        # a rejected target leaves the ledger as it was
        assert led.totals == [3.0, 0.0]
        assert [list(q) for q in led.chunks] == [[[0, 3.0, False]], []]


class TestDelayStats:
    def test_single_departure(self):
        stats = delay_stats([(0, 2.0, 3, 10, False)], horizon=20, r=1)
        assert stats.mean_delay == pytest.approx(7.0)
        assert stats.delivered_rate[0] == pytest.approx(2.0 / 20)

    def test_no_departures(self):
        stats = delay_stats([], horizon=10, r=2)
        assert stats.mean_delay is None
        assert np.allclose(stats.delivered_rate, 0.0)

    def test_null_departures_excluded_by_default(self):
        recs = [(0, 1.0, 0, 5, False), (0, 3.0, 5, 5, True)]
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
        arrivals, records, adjustments, padding = [], [], [], []
        for t, step in enumerate(steps):
            if step[0] == "slot":
                padding.append(deficit([step[2]], led))
                arrivals.append([step[1]])
                records += apply_slot(led, np.array([step[1]]), np.array([step[2]]), t, discipline)
            else:
                adjustments.append(adjust_to(led, np.array([step[1]]), t))
        # real and null bookkeeping both close
        assert_conserved(ledger_flows(led, arrivals, records, adjustments, padding))
        # chunk sum matches cached total
        assert chunk_sum(led, 0) == pytest.approx(total(led, 0), abs=1e-9)


@st.composite
def ledger_runs(draw):
    """(r, discipline, slots, adjust slot, adjust scale, adjust offset).

    A slot is (arrivals, services) per queue; a service ("backlog", extra)
    serves the queue's backlog plus extra, so service at and above the
    backlog is drawn often. An extra of -1e-14 to -9e-13 (service at least 0)
    leaves a remainder of at most _DUST on the last chunk served, which is
    popped. The adjustment, at most one, sets queue j to scale_j * q_j +
    offset_j, which lies above or below the backlog.
    """
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    amount = st.one_of(st.just(0.0), st.floats(0, 3))
    extra = st.one_of(st.just(0.0), st.floats(0, 2), st.floats(-9e-13, -1e-14))
    service = st.one_of(amount, st.tuples(st.just("backlog"), extra))
    slots = [
        (draw(st.lists(amount, min_size=r, max_size=r)), draw(st.lists(service, min_size=r, max_size=r)))
        for _ in range(n)
    ]
    adjust_slot = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    scale = draw(st.lists(st.floats(0, 2), min_size=r, max_size=r))
    offset = draw(st.lists(st.one_of(st.just(0.0), st.floats(0, 3)), min_size=r, max_size=r))
    return r, draw(st.sampled_from(["FIFO", "LIFO"])), slots, adjust_slot, scale, offset


def chunk_lists(led):
    return [[list(chunk) for chunk in chunks] for chunks in led.chunks]


class TestReferenceLedger:
    """The plain-float ledger against the numpy/dataclass ledger it replaced, compared with ==."""

    @settings(max_examples=300, deadline=None)
    @given(ledger_runs())
    def test_bit_identical_to_reference(self, case):
        r, discipline, slots, adjust_slot, scale, offset = case
        led, ref = QueueLedger(r), RefQueueLedger(r)
        acc, ref_acc = DelayAccumulator(r), RefDelayAccumulator(r)
        arrivals, records, adjustments, padding = [], [], [], []
        for t, (slot_arrivals, services) in enumerate(slots):
            if t == adjust_slot:
                target = [s * q + o for s, q, o in zip(scale, led.totals, offset)]
                rec, ref_rec = adjust_to(led, np.array(target), t), ref_adjust_to(ref, np.array(target), t)
                for name in ("dropped", "dropped_null", "added_null"):
                    assert getattr(rec, name).tolist() == getattr(ref_rec, name).tolist()
                adjustments.append(rec)
            mu = [max(q + s[1], 0.0) if isinstance(s, tuple) else s for s, q in zip(services, led.totals)]
            padding.append(deficit(mu, led))
            arrivals.append(slot_arrivals)
            recs = apply_slot(led, slot_arrivals, mu, t, discipline)
            ref_recs = ref_apply_slot(ref, np.array(slot_arrivals), np.array(mu), t, discipline)
            assert recs == [
                (d.queue, d.amount, d.arrival_slot, d.departure_slot, d.was_null) for d in ref_recs
            ]
            records += recs
            acc.add_many(recs)
            ref_acc.add_many(ref_recs)
            assert led.totals == ref.totals.tolist()
            assert chunk_lists(led) == chunk_lists(ref)
        # the ledger's per-slot state stays plain Python floats
        assert all(type(x) is float for x in led.totals)
        stats, ref_stats = acc.finalize(len(slots)), ref_acc.finalize(len(slots))
        assert stats.mean_delay == ref_stats.mean_delay
        assert stats.delivered_rate.tolist() == ref_stats.delivered_rate.tolist()
        # the flows derived from the records are the reference's counters, and they balance
        flows = ledger_flows(led, arrivals, records, adjustments, padding)
        for name in FLOWS:
            assert flows[name] == pytest.approx(getattr(ref, name), abs=1e-6), name
        assert flows["remaining_real"].tolist() == ref.remaining_real().tolist()
        assert_conserved(flows)
