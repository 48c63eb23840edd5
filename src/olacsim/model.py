"""Problem instances: network states, per-state action sets, cost/traffic/service tables.

An instance is a finite i.i.d. state space. Each state carries a probability
and a finite ordered list of actions; each action has a scalar cost, an
arrival vector and a service vector (one entry per queue). Bounds
(``delta_max``, ``f_max``, ``B``) are always derived from the tables, never
user-supplied.

JSON documents, instances here and scenarios in ``cli``, are read through
``read_int``, ``read_number``, ``read_list`` and ``read_object``: a number
must be a JSON number, an object may hold only the keys it lists, and each
error names the field it rejects.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ActionSpec",
    "StateSpec",
    "NetworkInstance",
    "ValidationReport",
    "InstanceError",
    "validate",
    "build_two_queue_example",
    "serialize_instance",
    "load_instance",
    "load_instance_file",
]

PROB_SUM_TOL = 1e-9
# the keys of an instance document's states and actions, every one required
STATE_KEYS = ("probability", "actions")
ACTION_KEYS = ("cost", "arrivals", "services")

# Two-queue example constants: on/off arrivals of 2 packets with rates
# (0.3, 0.4), four channel gains per queue, five power levels, log rate law.
TWO_QUEUE_ARRIVAL_PROBS = (0.3, 0.4)
TWO_QUEUE_ARRIVAL_SIZE = 2.0
TWO_QUEUE_CHANNEL_GAINS = (0.0, 2.0, 4.0, 6.0)
TWO_QUEUE_POWER_LEVELS = (0.0, 0.75, 1.5, 2.25, 3.0)


class InstanceError(ValueError):
    """Raised when an instance or scenario document cannot be parsed or fails validation."""


@dataclass(frozen=True)
class ActionSpec:
    """One feasible action in one state: cost plus per-queue arrivals/services."""

    id: int
    cost: float
    arrivals: tuple[float, ...]
    services: tuple[float, ...]


@dataclass(frozen=True)
class StateSpec:
    id: int
    probability: float
    actions: tuple[ActionSpec, ...]


class NetworkInstance:
    """Immutable problem instance with derived bounds and dense action tables.

    The dense tables pad ragged action lists: padded cost entries are +inf
    (never selected by any argmin/argmax), padded arrival/service entries are
    zero. ``action_counts[i]`` gives the number of real actions of state i.
    Treat instances as read-only; they are shared across concurrent runs.
    """

    def __init__(self, r: int, states: tuple[StateSpec, ...] | list[StateSpec]):
        self.r = int(r)
        self.states = tuple(states)
        self.M = len(self.states)
        self.probabilities = np.array([s.probability for s in self.states], dtype=float)
        self.action_counts = np.array([len(s.actions) for s in self.states], dtype=np.int64)

        k_max = int(self.action_counts.max()) if self.M else 1
        k_max = max(k_max, 1)
        self.costs = np.full((self.M, k_max), np.inf)
        self.arrivals = np.zeros((self.M, k_max, self.r))
        self.services = np.zeros((self.M, k_max, self.r))
        for i, state in enumerate(self.states):
            for k, act in enumerate(state.actions):
                self.costs[i, k] = act.cost
                self.arrivals[i, k, :] = act.arrivals
                self.services[i, k, :] = act.services
        # drift = arrivals - services; the dual's per-action slope vectors
        self.drift = self.arrivals - self.services
        # drift's (K, r) block of each state, made once: the decision rule
        # indexes this tuple instead of slicing drift, a new view, every slot
        self.drift_rows = tuple(self.drift)

        finite = self.costs[np.isfinite(self.costs)]
        magnitudes = [np.abs(finite).max(initial=0.0)]
        for i in range(self.M):
            k = self.action_counts[i]
            if k:
                magnitudes.append(np.abs(self.arrivals[i, :k]).max(initial=0.0))
                magnitudes.append(np.abs(self.services[i, :k]).max(initial=0.0))
        self.delta_max = float(max(magnitudes, default=0.0))
        self.f_max = float(finite.max(initial=0.0))
        self.B = (self.r / 2.0) * self.delta_max**2

    def __eq__(self, other):
        if not isinstance(other, NetworkInstance):
            return NotImplemented
        return self.r == other.r and self.states == other.states

    def __repr__(self):
        return f"NetworkInstance(r={self.r}, M={self.M}, delta_max={self.delta_max:g})"


@dataclass
class ValidationReport:
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        return "valid" if self.ok else "; ".join(self.violations)


def validate(instance: NetworkInstance) -> ValidationReport:
    """Report every violated instance invariant; an empty report means valid."""
    violations: list[str] = []
    total = float(sum(s.probability for s in instance.states))
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        violations.append(f"probability sum {total:g}")
    for state in instance.states:
        if not math.isfinite(state.probability):
            violations.append(f"state {state.id}: non-finite probability {state.probability:g}")
        elif not (0.0 <= state.probability <= 1.0):
            violations.append(f"state {state.id}: probability {state.probability:g} outside [0, 1]")
        if not state.actions:
            violations.append(f"state {state.id}: empty action set")
        seen = set()
        for act in state.actions:
            where = f"state {state.id} action {act.id}"
            if act.id in seen:
                violations.append(f"state {state.id}: duplicate action id {act.id}")
            seen.add(act.id)
            if not math.isfinite(act.cost):
                violations.append(f"{where}: non-finite cost {act.cost:g}")
            elif act.cost < 0:
                violations.append(f"{where}: negative cost {act.cost:g}")
            if len(act.arrivals) != instance.r or len(act.services) != instance.r:
                violations.append(f"{where}: vector length != r={instance.r}")
            for name, vec in (("arrival", act.arrivals), ("service", act.services)):
                if not all(math.isfinite(x) for x in vec):
                    violations.append(f"{where}: non-finite {name} entry")
                elif any(x < 0 for x in vec):
                    violations.append(f"{where}: negative {name} entry")
    return ValidationReport(violations)


def build_two_queue_example(channel_dist) -> NetworkInstance:
    """Two queues behind one server on time-varying channels.

    State: joint outcome (a1, a2, C1, C2) of the two on/off arrival processes
    and the two channel gains (64 states, product probabilities). Action:
    (serve queue j, power P) over 5 power levels (10 actions); cost P, service
    of the served queue ln(1 + C_j * P), zero for the other. Actions are
    ordered serve-1 then serve-2, power ascending.
    """
    cd = np.asarray(channel_dist, dtype=float)
    if cd.shape != (4,):
        raise ValueError(f"channel_dist must have 4 entries, got shape {cd.shape}")
    if not (cd >= 0).all():
        raise ValueError("channel_dist entries must be non-negative and finite")
    if abs(cd.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"channel_dist must sum to 1, got {cd.sum():g}")

    p1, p2 = TWO_QUEUE_ARRIVAL_PROBS
    amount = TWO_QUEUE_ARRIVAL_SIZE
    states = []
    sid = 0
    for a1, pa1 in ((0.0, 1 - p1), (amount, p1)):
        for a2, pa2 in ((0.0, 1 - p2), (amount, p2)):
            for c1, pc1 in zip(TWO_QUEUE_CHANNEL_GAINS, cd):
                for c2, pc2 in zip(TWO_QUEUE_CHANNEL_GAINS, cd):
                    actions = []
                    aid = 0
                    for served, gain in ((0, c1), (1, c2)):
                        for power in TWO_QUEUE_POWER_LEVELS:
                            mu = [0.0, 0.0]
                            mu[served] = math.log1p(gain * power)
                            actions.append(
                                ActionSpec(aid, power, (a1, a2), tuple(mu))
                            )
                            aid += 1
                    states.append(
                        StateSpec(sid, pa1 * pa2 * pc1 * pc2, tuple(actions))
                    )
                    sid += 1
    return NetworkInstance(2, states)


def serialize_instance(instance: NetworkInstance) -> dict:
    """Plain-dict form matching the instance document schema."""
    return {
        "r": instance.r,
        "states": [
            {
                "probability": s.probability,
                "actions": [
                    {
                        "cost": a.cost,
                        "arrivals": list(a.arrivals),
                        "services": list(a.services),
                    }
                    for a in s.actions
                ],
            }
            for s in instance.states
        ],
    }


def read_int(value, field: str) -> int:
    """A JSON integer, or a float with an integral value; never a boolean."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise InstanceError(f"{field} must be an integer, got {value!r}")
    return int(value)


def read_number(value, field: str) -> float:
    """A JSON integer or float (NaN and Infinity included); never a boolean or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(f"{field} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise InstanceError(f"{field} lies beyond the float range") from None


def read_list(value, field: str, read=None) -> list:
    """A non-empty JSON list, each entry passed through ``read(entry, "field[i]")`` if given."""
    if not isinstance(value, list) or not value:
        raise InstanceError(f"{field} must be a non-empty list, got {value!r}")
    return value if read is None else [read(v, f"{field}[{i}]") for i, v in enumerate(value)]


def read_object(value, field: str, allowed, required=()) -> dict:
    """A JSON object whose keys are all in ``allowed`` and include every ``required`` one."""
    if not isinstance(value, dict):
        raise InstanceError(f"{field} must be an object, got {value!r}")
    unknown = [key for key in value if key not in allowed]
    if unknown:
        raise InstanceError(f"{field}: unknown key(s) {', '.join(map(repr, unknown))}; accepted: {', '.join(allowed)}")
    for key in required:
        if key not in value:
            raise InstanceError(f"missing {field} field {key!r}")
    return value


def _instance_from_dict(doc) -> NetworkInstance:
    doc = read_object(doc, "top-level", ("r", "states"), ("r", "states"))
    r = read_int(doc["r"], "r")
    states = []
    for i, raw_state in enumerate(read_list(doc["states"], "states")):
        state = read_object(raw_state, f"states[{i}]", STATE_KEYS, STATE_KEYS)
        actions = []
        for k, raw_action in enumerate(read_list(state["actions"], f"states[{i}].actions")):
            where = f"states[{i}].actions[{k}]"
            action = read_object(raw_action, where, ACTION_KEYS, ACTION_KEYS)
            actions.append(ActionSpec(
                k,
                read_number(action["cost"], f"{where}.cost"),
                tuple(read_list(action["arrivals"], f"{where}.arrivals", read_number)),
                tuple(read_list(action["services"], f"{where}.services", read_number)),
            ))
        states.append(StateSpec(i, read_number(state["probability"], f"states[{i}].probability"), tuple(actions)))
    return NetworkInstance(r, states)


def load_instance(text: str) -> NetworkInstance:
    """Parse an instance document (JSON) and validate it.

    Raises InstanceError with a position on parse failure and with the full
    violation report on validation failure.
    """
    if not text.strip():
        raise InstanceError("empty document")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    instance = _instance_from_dict(doc)
    report = validate(instance)
    if not report.ok:
        raise InstanceError(f"invalid instance: {report}")
    return instance


def load_instance_file(path) -> NetworkInstance:
    """``load_instance`` on a file's text; an InstanceError's message starts with the path."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return load_instance(text)
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from None
