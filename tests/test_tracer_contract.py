"""perfbench's tracer rebinds olacsim's module attributes by name.

``perfbench/tracing.py`` looks each traced function up on its module when
``--trace 1`` starts, so renaming or deleting one of them breaks the traced
benchmark without breaking any other test. This builds the tracer's bindings
over the olacsim modules and runs a short OLAC2 sweep under them.
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


def test_traced_sweep_records_olac2_learn(tracing, tmp_path):
    doc = {
        "instance": {"builtin": "two_queue"},
        "controllers": [{"kind": "OLAC2"}],
        "V_values": [100],
        "seeds": [0],
        "horizon": 200,
        "workers": 1,
    }
    tracer = tracing.Tracer()
    with tracer.installed(modules()):
        manifest = run_scenario(Scenario.from_dict(doc), out_dir=str(tmp_path))
    assert manifest["failed"] == 0
    assert tracer.calls("controllers.olac2_learn", controller="OLAC2") == 1
    assert tracer.calls("controllers.olac2_maximize_dual", controller="OLAC2") == 1
    assert tracer.calls("queueing.apply_slot", controller="OLAC2") == 200
    assert tracer.calls("dual.compute_analysis") == 1
