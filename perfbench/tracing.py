"""Traced run: per-layer spans and counts recorded from outside olacsim.

The tracer rebinds the module attributes that olacsim looks up at call time
(``olacsim.sim.apply_slot``, ``olacsim.learning.maximize_dual``, ...) with
wrappers that time each call. Nothing under ``src/`` changes. Spans are
aggregated in memory by (name, parent span, controller kind) and written out
once by the caller; a span's self time is its duration minus the time its
child spans cover.

Layers are olacsim's modules. Slot-loop spans carry the controller kind of
the ``sim.run`` call they happen in, so the per-layer metrics below get a
``.<controller>`` suffix.
"""
from __future__ import annotations

import contextlib
import time

import numpy as np

CONTROLLERS = ("Backpressure", "OLAC", "OLAC2")

# Spans recorded by the benchmark around its own calls.
SCENARIO_LOAD = "cli.scenario_load"
RUN_SCENARIO = "cli.run_scenario"
PROBE = "bench.host_probe"


@contextlib.contextmanager
def patched(bindings):
    """Set each (owner, attribute, value) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
    try:
        for owner, attr, value in bindings:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory span and counter aggregation for one traced sweep."""

    def __init__(self):
        self.spans: dict[tuple, list] = {}  # (name, parent, controller) -> [calls, total_s, self_s]
        self.counts: dict[tuple, float] = {}  # (name, controller) -> sum
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._controller = None

    def add(self, name, value) -> None:
        key = (name, self._controller)
        self.counts[key] = self.counts.get(key, 0.0) + float(value)

    def wrap(self, name, fn, count=None):
        """``fn`` timed as span ``name``; ``count(tracer, args, result)`` runs after it."""

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (name, parent, self._controller)
                rec = self.spans.get(key)
                if rec is None:
                    rec = self.spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def wrap_run(self, fn):
        """``sim.run`` span; everything inside it is tagged with the controller kind."""
        traced = self.wrap("sim.run", fn)

        def run(instance, cfg, gamma_star):
            self._controller = cfg.controller.kind
            try:
                return traced(instance, cfg, gamma_star)
            finally:
                self._controller = None

        return run

    def bindings(self, olac):
        """(owner, attribute, traced function) for every call the trace covers."""
        cli, sim, dual, learning, controllers, queueing = (
            olac.cli, olac.sim, olac.dual, olac.learning, olac.controllers, olac.queueing,
        )
        acc = queueing.DelayAccumulator
        spec = [
            (dual, "compute_analysis", "dual.compute_analysis", None),
            (dual, "primal_oracle", "dual.primal_oracle", None),
            (dual, "maximize_dual", "dual.oracle_ascent", None),
            (dual, "max_slack", "dual.max_slack", None),
            (dual, "estimate_polyhedral_rho", "dual.rho_probe", None),
            (dual, "solve_lp", "simplex.solve_lp", None),
            (sim, "sample_states", "sim.sample_states", None),
            (sim, "bp_decide", "controllers.decide", None),
            (sim, "olac_decide", "controllers.decide", None),
            (sim, "olac2_step", "controllers.olac2_learn", None),
            (controllers, "maximize_dual", "controllers.olac2_maximize_dual", _count_olac2_learn),
            (sim, "dual_learn", "learning.dual_learn", None),
            (learning, "maximize_dual", "learning.maximize_dual", _count_learn),
            (sim, "apply_slot", "queueing.apply_slot", _count_departures),
            (sim, "adjust_to", "queueing.adjust_to", _count_adjust),
            (acc, "add_many", "queueing.delay_accounting", None),
            (acc, "finalize", "queueing.delay_accounting", None),
        ]
        out = [(owner, attr, self.wrap(name, getattr(owner, attr), count)) for owner, attr, name, count in spec]
        out.append((cli, "run", self.wrap_run(cli.run)))
        return out

    def installed(self, olac):
        return patched(self.bindings(olac))

    # -- aggregation -------------------------------------------------------

    def _sum(self, field, name, parent=..., controller=...):
        return sum(
            rec[field]
            for (n, p, c), rec in self.spans.items()
            if n == name and (parent is ... or p == parent) and (controller is ... or c == controller)
        )

    def calls(self, name, **kw):
        return self._sum(0, name, **kw)

    def total(self, name, **kw):
        return self._sum(1, name, **kw)

    def self_time(self, name, **kw):
        return self._sum(2, name, **kw)

    def count(self, name, controller):
        return self.counts.get((name, controller), 0.0)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metric values of this sweep (names as in BENCHMARK.json)."""
        m = {
            "cli.scenario_load_s": self.total(SCENARIO_LOAD),
            "cli.assumption_check_s": self.total("dual.max_slack", parent=RUN_SCENARIO),
            "cli.assumption_check_lps": self.calls("dual.max_slack", parent=RUN_SCENARIO),
            "cli.collect_s": self.self_time(RUN_SCENARIO),
            "dual.compute_analysis_s": self.total("dual.compute_analysis"),
            "dual.compute_analysis_calls": self.calls("dual.compute_analysis"),
            "dual.primal_oracle_s": self.total("dual.primal_oracle"),
            "dual.oracle_ascent_s": self.total("dual.oracle_ascent"),
            "dual.rho_probe_s": self.total("dual.rho_probe"),
            "dual.max_slack_s": self.total("dual.max_slack"),
            "dual.max_slack_calls": self.calls("dual.max_slack"),
            "simplex.solve_lp_s": self.total("simplex.solve_lp"),
            "simplex.solve_lp_calls": self.calls("simplex.solve_lp"),
        }
        solves = self.calls("learning.maximize_dual", controller="OLAC")
        m.update({
            "learning.dual_learn_s.OLAC": self.self_time("learning.dual_learn", controller="OLAC"),
            "learning.maximize_dual_s.OLAC": self.total("learning.maximize_dual", controller="OLAC"),
            "learning.solves.OLAC": solves,
            "learning.iterations_per_solve.OLAC": self.count("learning.iterations", "OLAC") / max(solves, 1),
            "learning.flagged_ratio.OLAC": self.count("learning.flagged", "OLAC") / max(solves, 1),
            "learning.beta_moved_ratio.OLAC": self.count("learning.beta_moved", "OLAC") / max(solves, 1),
        })
        for c in CONTROLLERS:
            slots = self.calls("queueing.apply_slot", controller=c)
            m.update({
                f"controllers.decide_s.{c}": self.total("controllers.decide", controller=c),
                f"controllers.decide_calls.{c}": self.calls("controllers.decide", controller=c),
                f"queueing.apply_slot_s.{c}": self.total("queueing.apply_slot", controller=c),
                f"queueing.departure_records_per_slot.{c}": (
                    self.count("queueing.departure_records", c) / max(slots, 1)
                ),
                f"queueing.delay_accounting_s.{c}": self.total("queueing.delay_accounting", controller=c),
                f"sim.sample_states_s.{c}": self.total("sim.sample_states", controller=c),
                f"sim.run_s.{c}": self.total("sim.run", controller=c),
                f"sim.loop_self_s.{c}": self.self_time("sim.run", controller=c),
            })
        learns = self.calls("controllers.olac2_maximize_dual", controller="OLAC2")
        m.update({
            "controllers.olac2_learn_s.OLAC2": self.total("controllers.olac2_learn", controller="OLAC2"),
            "controllers.olac2_learn_iterations.OLAC2": (
                self.count("controllers.olac2_learn_iterations", "OLAC2") / max(learns, 1)
            ),
            "queueing.adjust_to_s.OLAC2": self.total("queueing.adjust_to", controller="OLAC2"),
            "queueing.adjust_dropped.OLAC2": self.count("queueing.adjust_dropped", "OLAC2"),
            "queueing.adjust_added_null.OLAC2": self.count("queueing.adjust_added_null", "OLAC2"),
        })
        return m

    @classmethod
    def merged(cls, tracers) -> "Tracer":
        """One tracer whose spans are the sums over ``tracers``."""
        out = cls()
        for tracer in tracers:
            for key, rec in tracer.spans.items():
                acc = out.spans.setdefault(key, [0, 0.0, 0.0])
                for i, value in enumerate(rec):
                    acc[i] += value
        return out

    def span_table(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "controller": c, "calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
            for (n, p, c), rec in sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        ]


def _count_learn(tracer, args, result):
    warm = args[3].warm_start
    tracer.add("learning.iterations", result.iterations)
    tracer.add("learning.flagged", not result.converged)
    tracer.add("learning.beta_moved", warm is None or not np.array_equal(result.gamma, warm))


def _count_olac2_learn(tracer, args, result):
    tracer.add("controllers.olac2_learn_iterations", result.iterations)


def _count_departures(tracer, args, result):
    tracer.add("queueing.departure_records", len(result))


def _count_adjust(tracer, args, result):
    tracer.add("queueing.adjust_dropped", result.dropped.sum())
    tracer.add("queueing.adjust_added_null", result.added_null.sum())
