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


@pytest.mark.parametrize("kind", ["Backpressure", "OLAC", "OLAC2"])
def test_traced_sweep_pins_per_slot_calls(tracing, tmp_path, kind):
    # the ledger and the delay accounting are called once per slot (and
    # finalize once per run), and the only slack LP is the oracle's: the
    # learners take its eta_0
    horizon = 200
    doc = {
        "instance": {"builtin": "two_queue"},
        "controllers": [{"kind": kind}],
        "V_values": [100],
        "seeds": [0],
        "horizon": horizon,
        "workers": 1,
    }
    tracer = tracing.Tracer()
    with tracer.installed(modules()):
        manifest = run_scenario(Scenario.from_dict(doc), out_dir=str(tmp_path))
    assert manifest["failed"] == 0
    if kind == "OLAC2":
        assert tracer.calls("controllers.olac2_learn", controller="OLAC2") == 1
        assert tracer.calls("controllers.olac2_maximize_dual", controller="OLAC2") == 1
    if kind == "OLAC":
        assert tracer.calls("learning.dual_learn", controller="OLAC") == 1
    assert tracer.calls("queueing.apply_slot", controller=kind) == horizon
    assert tracer.calls("queueing.delay_accounting", controller=kind) == horizon + 1
    assert tracer.calls("dual.compute_analysis") == 1
    assert tracer.calls("dual.max_slack") == 1
