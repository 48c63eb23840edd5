"""Problem instances: network states, per-state action sets, cost/traffic/service tables.

An instance is a finite i.i.d. state space. Each state carries a probability
and a finite ordered list of actions; each action has a scalar cost, an
arrival vector and a service vector (one entry per queue). Bounds
(``delta_max``, ``f_max``, ``B``) are always derived from the tables, never
user-supplied.

JSON documents, instances here and scenarios in ``cli``, are read through
``read_int``, ``read_number``, ``read_bool``, ``read_str``, ``read_list`` and
``read_object``: a number must be a JSON number, an object may hold only the
keys it lists, and each error names the field it rejects. ``read_json_file``
reads either kind of file.
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
    "InstanceError",
    "build_two_queue_example",
    "serialize_instance",
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

    cost: float
    arrivals: tuple[float, ...]
    services: tuple[float, ...]


@dataclass(frozen=True)
class StateSpec:
    probability: float
    actions: tuple[ActionSpec, ...]


class NetworkInstance:
    """Immutable problem instance with derived bounds and dense action tables.

    The constructor is the one check of an instance: it raises InstanceError
    listing every violation, so an instance that exists is valid. States and
    actions are identified by position. The dense tables pad ragged action
    lists: padded cost entries are +inf (never selected by any argmin/argmax),
    padded arrival/service entries are zero. ``action_counts[i]`` gives the
    number of real actions of state i. Treat the tables as read-only; they
    are shared across concurrent runs.

    ``derived`` keeps what the instance alone determines, each entry filled
    once on first use: ``class_lp`` (``dual.class_lp``), ``eta_0`` and
    ``slack_basis`` (``dual.nominal_slack`` and the optimal basis of its slack
    LP), ``policy`` (``dual.nominal_policy``, the policy LP), ``rho``
    (``dual.estimate_polyhedral_rho``'s decay rate and its direction),
    ``slot_rows`` (the arrival and service rows as tuples of r floats, which
    ``sim.run`` hands the ledger each slot), and the last ``olac_path`` made
    (``sim``'s OLAC path, per seed and horizon).
    It is not compared, and a pickled copy starts without it.
    """

    def __init__(self, r: int, states: tuple[StateSpec, ...] | list[StateSpec]):
        self.r = int(r)
        if self.r < 1:
            raise InstanceError(f"invalid instance: r={self.r} must be >= 1")
        self.states = tuple(states)
        self.M = len(self.states)
        self.probabilities = np.array([s.probability for s in self.states], dtype=float)
        self.action_counts = np.array([len(s.actions) for s in self.states], dtype=np.int64)

        k_max = int(self.action_counts.max()) if self.M else 1
        k_max = max(k_max, 1)
        self.costs = np.full((self.M, k_max), np.inf)
        self.arrivals = np.zeros((self.M, k_max, self.r))
        self.services = np.zeros((self.M, k_max, self.r))
        violations = []
        for i, state in enumerate(self.states):
            for k, act in enumerate(state.actions):
                self.costs[i, k] = act.cost
                if len(act.arrivals) != self.r or len(act.services) != self.r:
                    violations.append(f"state {i} action {k}: vector length != r={self.r}")
                    continue
                self.arrivals[i, k, :] = act.arrivals
                self.services[i, k, :] = act.services
        violations += self._violations()
        if violations:
            raise InstanceError(f"invalid instance: {'; '.join(violations)}")
        # drift = arrivals - services; the dual's per-action slope vectors
        self.drift = self.arrivals - self.services
        # drift's (K, r) block of each state, made once: the decision rule
        # indexes this tuple instead of slicing drift, a new view, every slot
        self.drift_rows = tuple(self.drift)

        # padded entries are 0 (arrivals, services) or left out (costs), and max is exact
        real_costs = self.costs[np.isfinite(self.costs)]
        self.delta_max = float(max(real_costs.max(initial=0.0), self.arrivals.max(initial=0.0),
                                   self.services.max(initial=0.0)))
        self.f_max = float(real_costs.max(initial=0.0))
        self.B = (self.r / 2.0) * self.delta_max**2
        self.derived = {}

    def _violations(self) -> list[str]:
        """Every violated invariant of the filled tables, one message each."""
        p, c = self.probabilities, self.costs
        # a sequential sum (cumsum, not the pairwise np.sum), in state order
        total = float(np.cumsum(p)[-1]) if self.M else 0.0
        out = [] if abs(total - 1.0) <= PROB_SUM_TOL else [f"probability sum {total:g}"]
        finite = np.isfinite(p)
        out += [f"state {i}: non-finite probability {p[i]:g}" for i in np.flatnonzero(~finite)]
        out += [f"state {i}: probability {p[i]:g} outside [0, 1]" for i in np.flatnonzero(finite & ((p < 0) | (p > 1)))]
        out += [f"state {i}: empty action set" for i in np.flatnonzero(self.action_counts == 0)]
        real = np.arange(c.shape[1]) < self.action_counts[:, None]
        finite = np.isfinite(c)
        out += [f"state {i} action {k}: non-finite cost {c[i, k]:g}" for i, k in np.argwhere(real & ~finite)]
        out += [f"state {i} action {k}: negative cost {c[i, k]:g}" for i, k in np.argwhere(real & finite & (c < 0))]
        # padded arrival and service entries are 0, so they pass both checks
        for name, table in (("arrival", self.arrivals), ("service", self.services)):
            finite = np.isfinite(table).all(axis=2)
            out += [f"state {i} action {k}: non-finite {name} entry" for i, k in np.argwhere(~finite)]
            negative = finite & (table < 0).any(axis=2)
            out += [f"state {i} action {k}: negative {name} entry" for i, k in np.argwhere(negative)]
        return out

    def __getstate__(self):
        return {**vars(self), "derived": {}}

    def __eq__(self, other):
        if not isinstance(other, NetworkInstance):
            return NotImplemented
        return self.r == other.r and self.states == other.states

    def __repr__(self):
        return f"NetworkInstance(r={self.r}, M={self.M}, delta_max={self.delta_max:g})"


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
    for a1, pa1 in ((0.0, 1 - p1), (amount, p1)):
        for a2, pa2 in ((0.0, 1 - p2), (amount, p2)):
            for c1, pc1 in zip(TWO_QUEUE_CHANNEL_GAINS, cd):
                for c2, pc2 in zip(TWO_QUEUE_CHANNEL_GAINS, cd):
                    actions = []
                    for served, gain in ((0, c1), (1, c2)):
                        for power in TWO_QUEUE_POWER_LEVELS:
                            mu = [0.0, 0.0]
                            mu[served] = math.log1p(gain * power)
                            actions.append(ActionSpec(power, (a1, a2), tuple(mu)))
                    states.append(StateSpec(pa1 * pa2 * pc1 * pc2, tuple(actions)))
    return NetworkInstance(2, states)


def serialize_instance(instance: NetworkInstance) -> dict:
    """Plain-dict form matching the instance document schema."""
    return {"r": instance.r, "states": [
        {"probability": s.probability,
         "actions": [{"cost": a.cost, "arrivals": list(a.arrivals), "services": list(a.services)} for a in s.actions]}
        for s in instance.states]}


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


def read_bool(value, field: str) -> bool:
    """A JSON ``true`` or ``false``; never a string or a number."""
    if not isinstance(value, bool):
        raise InstanceError(f"{field} must be true or false, got {value!r}")
    return value


def read_str(value, field: str) -> str:
    """A non-empty JSON string: an empty path would name the directory it sits in."""
    if not isinstance(value, str) or not value:
        raise InstanceError(f"{field} must be a non-empty string, got {value!r}")
    return value


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
                read_number(action["cost"], f"{where}.cost"),
                tuple(read_list(action["arrivals"], f"{where}.arrivals", read_number)),
                tuple(read_list(action["services"], f"{where}.services", read_number)),
            ))
        states.append(StateSpec(read_number(state["probability"], f"states[{i}].probability"), tuple(actions)))
    return NetworkInstance(r, states)


def _parse(text: str):
    if not text.strip():
        raise InstanceError("empty document")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def read_json_file(path, build=None):
    """``build(doc)`` on the JSON document of a UTF-8 file, or the document; an InstanceError starts with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = _parse(fh.read())
        return doc if build is None else build(doc)
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path}: not UTF-8 text: {exc}") from None
    except InstanceError as exc:
        raise InstanceError(f"{path}: {exc}") from None


def load_instance_file(path) -> NetworkInstance:
    """The instance in a JSON file; an InstanceError (a parse error's position, or every
    violation the constructor finds) starts with the path."""
    return read_json_file(path, _instance_from_dict)
