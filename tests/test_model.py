import json
import math

import numpy as np
import pytest

from olacsim.model import (
    InstanceError,
    build_two_queue_example,
    load_instance_file,
    serialize_instance,
)

from conftest import make_instance, state_index


class TestTwoQueueBuilder:
    def test_shape_and_probabilities(self, two_queue):
        assert two_queue.r == 2
        assert two_queue.M == 64
        assert all(len(s.actions) == 10 for s in two_queue.states)
        assert two_queue.probabilities.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("channel", [[0.25] * 4, [0.1, 0.4, 0.4, 0.1], [0.7, 0.1, 0.1, 0.1]])
    def test_mean_arrival_rates(self, channel):
        inst = build_two_queue_example(channel)
        lam = inst.probabilities @ inst.arrivals[:, 0, :]  # arrivals do not depend on the action
        assert abs(lam[0] - 0.6) <= 1e-12
        assert abs(lam[1] - 0.8) <= 1e-12

    def test_specific_state_action_tables(self, two_queue):
        # state (a=(2,0), C=(6,2)); action (serve 1, P=3) has id 4
        sid = state_index(1, 0, 3, 1)
        act = two_queue.states[sid].actions[4]
        assert act.cost == 3.0
        assert act.arrivals == (2.0, 0.0)
        assert act.services[0] == pytest.approx(math.log(19.0), abs=1e-15)
        assert act.services[1] == 0.0
        # probability of that state under uniform channels
        assert two_queue.states[sid].probability == pytest.approx(0.3 * 0.6 * 0.25 * 0.25, abs=1e-15)

    def test_unbalanced_channel_probabilities(self, two_queue_unbalanced):
        # C_j = 0 and 6 carry probability 0.1 each
        sid_c0 = state_index(0, 0, 0, 1)
        p = two_queue_unbalanced.states[sid_c0].probability
        assert p == pytest.approx(0.7 * 0.6 * 0.1 * 0.4, abs=1e-15)

    def test_derived_bounds(self, two_queue):
        assert two_queue.delta_max == 3.0
        assert two_queue.f_max == 3.0
        assert two_queue.B == (two_queue.r / 2.0) * two_queue.delta_max**2

    def test_bound_covers_all_tables(self, two_queue):
        for i in range(two_queue.M):
            k = two_queue.action_counts[i]
            assert np.abs(two_queue.arrivals[i, :k]).max() <= two_queue.delta_max
            assert np.abs(two_queue.services[i, :k]).max() <= two_queue.delta_max
            assert np.abs(two_queue.costs[i, :k]).max() <= two_queue.delta_max

    def test_invalid_channel_dist_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            build_two_queue_example([0.5, 0.6, 0.0, 0.0])
        with pytest.raises(ValueError, match="non-negative"):
            build_two_queue_example([-0.1, 0.5, 0.3, 0.3])
        with pytest.raises(ValueError, match="4 entries"):
            build_two_queue_example([0.5, 0.5])
        with pytest.raises(ValueError, match="finite"):
            build_two_queue_example([float("nan"), 0.5, 0.25, 0.25])


class TestValidate:
    """The constructor is the one check: an invalid instance is never built."""

    def test_probability_sum_violation(self):
        with pytest.raises(InstanceError, match="probability sum 1.1"):
            make_instance(1, [0.5, 0.6], [[(0.0, [0.0], [0.0])], [(0.0, [0.0], [0.0])]])

    def test_empty_action_set(self):
        with pytest.raises(InstanceError, match="state 0: empty action set"):
            make_instance(1, [1.0], [[]])

    def test_negative_entries_flagged(self):
        with pytest.raises(InstanceError) as info:
            make_instance(1, [1.0], [[(-1.0, [0.0], [-2.0])]])
        assert "state 0 action 0: negative cost -1" in str(info.value)
        assert "state 0 action 0: negative service entry" in str(info.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["probability", "cost", "arrival", "service"])
    def test_non_finite_entries_flagged(self, field, bad):
        # every comparison with NaN is false, so a sign check alone lets it through
        prob = bad if field == "probability" else 1.0
        cost = bad if field == "cost" else 0.0
        arr = [bad] if field == "arrival" else [0.0]
        srv = [bad] if field == "service" else [1.0]
        with pytest.raises(InstanceError, match=f"non-finite {field}"):
            make_instance(1, [prob], [[(0.0, [0.0], [1.0]), (cost, arr, srv)]])

    @pytest.mark.parametrize("arrivals, services", [([0.0, 0.0, 1.0], [1.0, 1.0]), ([0.0, 0.0], [1.0, 1.0, 1.0]),
                                                    ([0.0], [1.0, 1.0]), ([0.0, 0.0], [])],
                             ids=["arrivals-longer", "services-longer", "arrivals-shorter", "services-empty"])
    def test_vector_length_other_than_r(self, arrivals, services):
        # a length-1 vector would broadcast into any r, so the length is checked, not the fill
        with pytest.raises(InstanceError, match=r"^invalid instance: state 0 action 1: vector length != r=2$"):
            make_instance(2, [1.0], [[(0.0, [0.0, 0.0], [1.0, 1.0]), (0.0, arrivals, services)]])

    @pytest.mark.parametrize("r", [0, -1])
    def test_r_below_one(self, r):
        with pytest.raises(InstanceError, match=f"r={r} must be >= 1"):
            make_instance(r, [1.0], [[(0.0, [], [])]])

    def test_every_violation_listed(self):
        with pytest.raises(InstanceError) as info:
            make_instance(1, [0.5, 1.5, math.nan], [[(0.0, [0.0, 1.0], [1.0])], [], [(-2.0, [-1.0], [math.inf])]])
        assert str(info.value) == (
            "invalid instance: state 0 action 0: vector length != r=1; probability sum nan; "
            "state 2: non-finite probability nan; state 1: probability 1.5 outside [0, 1]; "
            "state 1: empty action set; state 2 action 0: negative cost -2; "
            "state 2 action 0: negative arrival entry; state 2 action 0: non-finite service entry"
        )

    def test_derived_bounds_on_ragged_tables(self):
        # the bounds read the real entries only: padded costs are +inf, padded vectors 0
        inst = make_instance(2, [0.5, 0.5], [[(1.0, [0.5, 0.0], [0.0, 4.0]), (2.5, [0.0, 0.0], [1.0, 0.0])],
                                             [(0.5, [3.0, 0.0], [0.0, 0.0])]])
        assert (inst.delta_max, inst.f_max, inst.B) == (4.0, 2.5, 16.0)
        assert inst.action_counts.tolist() == [2, 1] and inst.costs[1, 1] == math.inf


def load_text(tmp_path, text):
    """The instance a file holding ``text`` loads as."""
    path = tmp_path / "instance.json"
    path.write_text(text, encoding="utf-8")
    return load_instance_file(path)


class TestSerialization:
    def test_round_trip_two_queue(self, tmp_path, two_queue):
        text = json.dumps(serialize_instance(two_queue))
        loaded = load_text(tmp_path, text)
        assert loaded == two_queue
        # a second round trip is byte-identical
        assert json.dumps(serialize_instance(loaded)) == text

    def test_negative_service_rejected(self, tmp_path):
        doc = {"r": 1, "states": [{"probability": 1.0,
                                   "actions": [{"cost": 0.0, "arrivals": [0.0], "services": [-1.0]}]}]}
        with pytest.raises(InstanceError, match="negative service"):
            load_text(tmp_path, json.dumps(doc))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_rejected(self, tmp_path, token):
        # Python's JSON parser accepts these tokens
        text = (
            '{"r": 1, "states": [{"probability": 1.0, "actions": '
            '[{"cost": %s, "arrivals": [0.0], "services": [1.0]}]}]}' % token
        )
        with pytest.raises(InstanceError, match="non-finite cost"):
            load_text(tmp_path, text)

    def test_empty_document(self, tmp_path):
        with pytest.raises(InstanceError, match="empty document"):
            load_text(tmp_path, "")

    def test_parse_error_reports_position(self, tmp_path):
        with pytest.raises(InstanceError, match="line 1"):
            load_text(tmp_path, "{not json")

    def test_missing_field(self, tmp_path):
        with pytest.raises(InstanceError, match="missing top-level field"):
            load_text(tmp_path, json.dumps({"states": []}))

    @pytest.mark.parametrize("top, state, action, match", [
        ({"r": 1.7}, {}, {}, "r must be an integer, got 1.7"),
        ({"r": "1"}, {}, {}, "r must be an integer, got '1'"),
        ({"r": True}, {}, {}, "r must be an integer, got True"),
        ({}, {"probability": "1.0"}, {}, r"states\[0\]\.probability must be a number"),
        ({}, {}, {"cost": True}, r"states\[0\]\.actions\[0\]\.cost must be a number"),
        ({}, {}, {"arrivals": ["0.0"]}, r"states\[0\]\.actions\[0\]\.arrivals\[0\] must be a number"),
        ({"name": "x"}, {}, {}, r"top-level: unknown key\(s\) 'name'"),
        ({}, {"id": 0}, {}, r"states\[0\]: unknown key\(s\) 'id'"),
        ({}, {}, {"servces": [1.0]}, r"states\[0\]\.actions\[0\]: unknown key\(s\) 'servces'"),
    ], ids=["r-float", "r-string", "r-bool", "probability-string", "cost-bool", "arrivals-string",
            "top-level-key", "state-key", "action-key"])
    def test_wrongly_typed_or_unknown_field_rejected(self, tmp_path, top, state, action, match):
        # numbers must be JSON numbers (a string, a boolean or 1.7 queues is not
        # read as one) and every object's keys are checked, at all three levels
        action = {"cost": 0.0, "arrivals": [0.0], "services": [1.0], **action}
        doc = {"r": 1, "states": [{"probability": 1.0, "actions": [action], **state}], **top}
        with pytest.raises(InstanceError, match=match):
            load_text(tmp_path, json.dumps(doc))
