"""``sim.run`` against the slot-by-slot reference run of ``tests/reference_run.py``.

The actions and the backlog path must agree bit for bit, and so must every
metric summed from them. The delay metrics may differ by rounding only
(``DELAY_RTOL``): they are ratios of sums over the departures, which a ledger
may accumulate in another order or read off the backlog by Little's law, a
form ROADMAP direction 2 measured at 2.4e-13 relative from the direct sum.
"""
import os

import numpy as np
import pytest

import olacsim.sim
from olacsim.controllers import ControllerConfig
from olacsim.dual import primal_oracle
from olacsim.model import load_instance_file
from olacsim.sim import SimConfig, run

from conftest import random_multiplier_instances
from reference_run import reference_run

DELAY_RTOL = 1e-12
THREE_QUEUE = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "instances", "three_queue.json")


def run_recording_actions(instance, cfg, gamma_star, monkeypatch):
    """``sim.run``, with the action of every slot read off its decision rules."""
    actions = []

    def recorded(rule):
        def decide(*args):
            actions.append(rule(*args))
            return actions[-1]
        return decide

    for name in ("bp_decide", "olac_decide"):
        monkeypatch.setattr(olacsim.sim, name, recorded(getattr(olacsim.sim, name)))
    return run(instance, cfg, gamma_star), actions


def assert_same_run(instance, kind, V, horizon, seed, monkeypatch):
    gamma_star = V * primal_oracle(instance, instance.probabilities).multiplier_v1
    zeta = ZETA_SHARE * float(np.linalg.norm(gamma_star))
    cfg = SimConfig(horizon=horizon, seed=seed, controller=ControllerConfig(kind, V), zeta=zeta)
    live, actions = run_recording_actions(instance, cfg, gamma_star, monkeypatch)
    ref = reference_run(instance, cfg, gamma_star)
    assert actions == ref.actions
    assert live.queue_trace.tobytes() == ref.q_path.tobytes()
    assert (live.avg_cost, live.avg_backlog) == (ref.avg_cost, ref.avg_backlog)
    assert live.dropped.tolist() == ref.dropped.tolist()
    assert (live.t_zeta_first, live.t_zeta_sustained) == (ref.t_zeta_first, ref.t_zeta_sustained)
    assert live.solver_flagged_slots == ref.flagged
    if ref.mean_delay is None:
        assert live.delay.mean_delay is None
    else:
        assert live.delay.mean_delay == pytest.approx(ref.mean_delay, rel=DELAY_RTOL, abs=0.0)
    assert live.delay.delivered_rate == pytest.approx(ref.delivered_rate, rel=DELAY_RTOL, abs=0.0)


# zeta as a share of |gamma*|: the estimate starts at distance |gamma*| (q = 0)
# and crosses zeta within most of the horizons below
ZETA_SHARE = 0.75

# (kind, V, horizon): OLAC2's T_l = round(V^(2/3)) is 22 at V = 100, inside
# every horizon here, and 100 at V = 1000, past the 60-slot horizon
RUNS = [
    ("Backpressure", 20.0, 300),
    ("OLAC", 20.0, 300),
    ("OLAC", 100.0, 200),
    ("OLAC2", 100.0, 300),
    ("OLAC2", 1000.0, 60),
]

# random instances with r up to 4 whose multiplier gamma* is clear of 0, so the
# backlog and beta weigh in every decision
RANDOM = random_multiplier_instances(1, 6, max_r=4)


def test_random_instances_cover_one_to_four_queues():
    assert {instance.r for instance in RANDOM} == {1, 2, 3, 4}


@pytest.mark.parametrize("index", range(len(RANDOM)))
@pytest.mark.parametrize("kind, V, horizon", RUNS)
def test_random_instances(kind, V, horizon, index, monkeypatch):
    assert_same_run(RANDOM[index], kind, V, horizon, index, monkeypatch)


@pytest.mark.parametrize("kind", ["Backpressure", "OLAC", "OLAC2"])
@pytest.mark.parametrize("shipped", ["two_queue", "three_queue"])
def test_shipped_instances(request, monkeypatch, kind, shipped):
    instance = request.getfixturevalue("two_queue") if shipped == "two_queue" else load_instance_file(THREE_QUEUE)
    assert_same_run(instance, kind, 50.0, 3000, 3, monkeypatch)
