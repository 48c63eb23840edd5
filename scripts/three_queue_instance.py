#!/usr/bin/env python3
"""Write the three-queue instance that ``scenarios/three_queue_smoke.json`` reads.

    PYTHONPATH=src python3 scripts/three_queue_instance.py [PATH]

PATH defaults to ``scenarios/instances/three_queue.json``. The instance is
the builtin two-queue recipe at r = 3. Queue j gets Bernoulli arrivals of
ARRIVAL_SIZE packets at rate ARRIVAL_PROBS[j] and a channel gain drawn from
the two equally likely values CHANNEL_GAINS[j], which differ by queue. Each
slot serves one queue at one of POWER_LEVELS, at cost equal to the power and
service ln(1 + gain * power) for that queue alone: 64 states x 9 actions.
States run over the outcomes of queue 1, then 2, then 3 (arrival, then
gain), the last fastest; actions serve queue 1, 2, then 3, power ascending.
The file is written through ``model.serialize_instance``.
"""
from __future__ import annotations

import itertools
import json
import math
import os
import sys

from olacsim.model import ActionSpec, NetworkInstance, StateSpec, serialize_instance

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_PATH = os.path.join(ROOT, "scenarios", "instances", "three_queue.json")
ARRIVAL_PROBS = (0.2, 0.25, 0.3)
ARRIVAL_SIZE = 2.0
CHANNEL_GAINS = ((1.0, 3.0), (0.5, 2.5), (2.0, 4.0))
POWER_LEVELS = (0.0, 1.5, 3.0)


def build_three_queue() -> NetworkInstance:
    r = len(ARRIVAL_PROBS)
    # each queue's outcomes: (arrival, gain, probability)
    outcomes = [
        [(a, gain, pa / len(gains)) for a, pa in ((0.0, 1.0 - p), (ARRIVAL_SIZE, p)) for gain in gains]
        for p, gains in zip(ARRIVAL_PROBS, CHANNEL_GAINS)
    ]
    states = []
    for outcome in itertools.product(*outcomes):
        arrivals = tuple(a for a, _, _ in outcome)
        actions = []
        for served, (_, gain, _) in enumerate(outcome):
            for power in POWER_LEVELS:
                mu = [0.0] * r
                mu[served] = math.log1p(gain * power)
                actions.append(ActionSpec(power, arrivals, tuple(mu)))
        states.append(StateSpec(math.prod(p for _, _, p in outcome), tuple(actions)))
    return NetworkInstance(r, states)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else DEFAULT_PATH
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(serialize_instance(build_three_queue())) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
