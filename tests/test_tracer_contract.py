"""perfbench's tracer rebinds olacsim's module attributes by name.

``perfbench/tracing.py`` looks each traced function up on its module when
``--trace 1`` starts, so renaming or deleting one of them breaks the traced
benchmark without breaking any other test. This builds the tracer's bindings
over the olacsim modules and runs a short sweep of each controller under them.
"""
import os
import sys
import types

import pytest

import olacsim.cli
import olacsim.controllers
import olacsim.dual
import olacsim.learning
import olacsim.queueing
import olacsim.sim
from olacsim.cli import Scenario, run_scenario

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return tracing


def modules():
    return types.SimpleNamespace(
        cli=olacsim.cli, sim=olacsim.sim, dual=olacsim.dual, learning=olacsim.learning,
        controllers=olacsim.controllers, queueing=olacsim.queueing,
    )


def test_every_traced_attribute_resolves(tracing):
    olac = modules()
    bindings = tracing.Tracer().bindings(olac)
    assert len(bindings) == 18
    for owner, attr, traced in bindings:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
        assert callable(traced)


def traced_sweep(tracing, out_dir, **fields):
    doc = {
        "instance": {"builtin": "two_queue"},
        "V_values": [100],
        "seeds": [0],
        "workers": 1,
        **fields,
    }
    tracer = tracing.Tracer()
    with tracer.installed(modules()):
        manifest = run_scenario(Scenario.from_dict(doc), out_dir=str(out_dir))
    assert manifest["failed"] == 0
    return tracer


@pytest.mark.parametrize("kind", ["Backpressure", "OLAC", "OLAC2"])
def test_traced_sweep_pins_per_slot_calls(tracing, tmp_path, kind):
    # the decision rule, the ledger and the delay accounting are called once
    # per slot through the traced bindings (and finalize and the state
    # sampling once per run): a rule or a ledger bound at import time would
    # escape the tracer. The only slack LP is the oracle's: the
    # learners take its eta_0. The oracles' LPs, the policy LP and that slack
    # LP, are solved through dual.solve_lp, the tracer's simplex.* metrics
    horizon = 200
    tracer = traced_sweep(tracing, tmp_path, controllers=[{"kind": kind}], horizon=horizon)
    if kind == "OLAC2":
        assert tracer.calls("controllers.olac2_learn", controller="OLAC2") == 1
        assert tracer.calls("controllers.olac2_maximize_dual", controller="OLAC2") == 1
    if kind == "OLAC":
        assert tracer.calls("learning.dual_learn", controller="OLAC") == 1
    assert tracer.calls("sim.sample_states", controller=kind) == 1
    assert tracer.calls("controllers.decide", controller=kind) == horizon
    assert tracer.calls("queueing.apply_slot", controller=kind) == horizon
    assert tracer.calls("queueing.delay_accounting", controller=kind) == horizon + 1
    assert tracer.calls("dual.compute_analysis") == 1
    # the exact rate rho is one call through dual's module global
    assert tracer.calls("dual.rho_probe") == 1
    assert tracer.calls("dual.max_slack") == 1
    assert tracer.calls("simplex.solve_lp") == 2


def test_traced_assumption_check_solves_one_lp_per_perturbation(tracing, tmp_path):
    tracer = traced_sweep(tracing, tmp_path, controllers=[{"kind": "Backpressure"}], horizon=50,
                          assumption_check=True, perturbation_count=3)
    assert tracer.calls("dual.max_slack") == 1 + 3
    assert tracer.calls("simplex.solve_lp") == 2 + 3


def test_traced_sweep_computes_rho_once_per_instance(tracing, tmp_path):
    # rho does not depend on V: the instance keeps it, and each V's analysis reads it
    tracer = traced_sweep(tracing, tmp_path, controllers=[{"kind": "Backpressure"}], horizon=50, V_values=[20, 100])
    assert tracer.calls("dual.compute_analysis") == 2
    assert tracer.calls("dual.rho_probe") == 1
