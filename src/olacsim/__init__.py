"""Simulator and optimization toolkit for learning-aided stochastic network control."""

from .controllers import BACKPRESSURE, OLAC, OLAC2, ControllerConfig, bp_decide, olac2_step, olac_decide
from .dual import (
    AnalysisConstants,
    InstanceAnalysis,
    compute_analysis,
    dual_value,
    max_slack,
    maximize_dual,
    primal_oracle,
    supergradient,
)
from .learning import dual_learn
from .model import (
    ActionSpec,
    InstanceError,
    NetworkInstance,
    StateSpec,
    build_two_queue_example,
    load_instance,
    load_instance_file,
    serialize_instance,
)
from .queueing import QueueLedger, adjust_to, apply_slot
from .sim import RunResult, SimConfig, convergence_time, run

__version__ = "0.1.0"
