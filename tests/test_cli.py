import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olacsim.cli import (
    FIELDS,
    REQUIRED,
    Scenario,
    _execute_run,
    _float_texts,
    _perturbed_distributions,
    _write_trace,
    emit_plotdata,
    main,
    run_scenario,
)
from olacsim.controllers import ControllerConfig
from olacsim.dual import compute_analysis, max_slack
from olacsim.model import InstanceError, read_bool, read_int, read_number, read_str, serialize_instance
from olacsim.sim import SimConfig, run

from conftest import flat_dual, read_csv


SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SMOKE = os.path.join(SCENARIOS, "smoke.json")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def smoke_doc(**overrides):
    doc = {
        "instance": {"builtin": "two_queue", "channel_dist": [0.25, 0.25, 0.25, 0.25]},
        "controllers": [{"kind": "Backpressure"}, {"kind": "OLAC"}, {"kind": "OLAC2"}],
        "V_values": [50],
        "seeds": [0, 1],
        "horizon": 300,
        "workers": 1,
    }
    doc.update(overrides)
    return doc


# fields of the wrong JSON type or out of range, each with the name its error gives, keyed
# by test id: none may load (a string "false" is not false, 2.7 slots are not 2) or fail later
WRONG_TYPES = {
    "instance-string": ({"instance": "file.json"}, "instance"),
    "instance-number": ({"instance": 5}, "instance"),
    "instance-file-number": ({"instance": {"file": 5}}, "instance file"),
    "controllers-number": ({"controllers": 5}, "controllers"),
    "trace-string": ({"trace": "false"}, "trace"),
    "assumption_check-string": ({"assumption_check": "no"}, "assumption_check"),
    "horizon-fractional": ({"horizon": 2.7}, "horizon"),
    "seeds-fractional": ({"seeds": [1.5]}, "seeds"),
    "horizon-bool": ({"horizon": True}, "horizon"),
    "workers-string": ({"workers": "2"}, "workers"),
    "out_dir-number": ({"out_dir": 5}, "out_dir"),
    # numbers are JSON numbers: a string or a boolean is not read as one
    "V_values-string": ({"V_values": ["50"]}, r"V_values\[0\]"),
    "V_values-bool": ({"V_values": [True]}, r"V_values\[0\]"),
    "epsilon_s-string": ({"epsilon_s": "0.05"}, "epsilon_s"),
    "zeta-value-string": ({"zeta": {"policy": "absolute", "value": "3"}}, "zeta.value"),
    "channel_dist-string": ({"instance": {"builtin": "two_queue", "channel_dist": ["0.25"] * 4}}, "channel_dist"),
    "theta-string": ({"controllers": [{"kind": "OLAC", "theta": ["1", "1"]}]}, "theta"),
    "c-bool": ({"controllers": [{"kind": "OLAC2", "c": False}]}, "controller.c"),
    "epsilon_s-beyond-float-range": ({"epsilon_s": 10**400}, "epsilon_s lies beyond the float range"),
    # every object is key-checked: a misspelt key is not dropped without a word
    "zeta-radius": ({"zeta": {"policy": "auto_Dp", "radius": 3}}, r"zeta: unknown key\(s\) 'radius'"),
    "instance-chanel_dist": ({"instance": {"builtin": "two_queue", "chanel_dist": [0.1, 0.4, 0.4, 0.1]}},
                             "'chanel_dist'"),
    "instance-file-and-builtin": ({"instance": {"file": "inst.json", "builtin": "two_queue"}},
                                  r"instance: unknown key\(s\) 'builtin'"),
    # numpy's seed check would fail it only after the output directory exists, without its name
    "rho_seed-negative": ({"rho_seed": -1}, "rho_seed must be >= 0, got -1$"),
    # a key of the other policy is not dropped without a word
    "zeta-value-without-policy": ({"zeta": {"value": 3}}, "missing zeta field 'policy'"),
    "zeta-auto_Dp-value": ({"zeta": {"policy": "auto_Dp", "value": 3}},
                           r"zeta: unknown key\(s\) 'value'; accepted: policy$"),
    # an empty path would mean $OLACSIM_OUT, or the scenario's directory
    "out_dir-empty": ({"out_dir": ""}, "out_dir must be a non-empty string, got ''"),
    "instance-file-empty": ({"instance": {"file": ""}}, "instance file must be a non-empty string, got ''"),
}
# sweep entries given twice, with the error they raise, keyed by test id: their
# runs would write identical summary rows, or rows and trace files of one label
DUPLICATE_ENTRIES = {
    "V-int-and-float": ({"V_values": [10, 10.0]}, r"V_values: duplicate entry 10\.0"),
    "seeds": ({"seeds": [0, 3, 0]}, "seeds: duplicate entry 0"),
    "two-Backpressure": ({"controllers": [{"kind": "Backpressure"}, {"kind": "Backpressure"}]},
                         "controllers: duplicate entry 'Backpressure'"),
    "two-OLAC-thetas": ({"controllers": [{"kind": "OLAC", "theta": [1.0, 1.0]}, {"kind": "OLAC", "theta": [2.0, 2.0]}]},
                        "controllers: duplicate entry 'OLAC'"),
    # V is written {v:g} in trace file names: these two would write one file per (controller, seed)
    "V-one-trace-label": ({"V_values": [100.0001, 100.0002]},
                          r"V_values: 100\.0001 and 100\.0002 share the trace label V100$"),
}
# controller entries that must not load, with the error they raise, keyed by test id
BAD_KNOBS = {
    "OLAC2-c-above-range": ({"kind": "OLAC2", "c": 1.5}, "c must lie"),
    "OLAC-theta-shape": ({"kind": "OLAC", "theta": [1.0]}, "theta has shape"),
    "OLAC-theta-negative": ({"kind": "OLAC", "theta": [1.0, -1.0]}, "positive"),
    "OLAC-discipline": ({"kind": "OLAC", "discipline": "LIFO"}, "unknown key.*'discipline'"),
    "OLAC-relearn_period": ({"kind": "OLAC", "relearn_period": 0}, "relearn_period'; accepted"),
    "OLAC-theta_log_base": ({"kind": "OLAC", "theta_log_base": 1.0}, "unknown key.*'theta_log_base'"),
    "OLAC-prior": ({"kind": "OLAC", "prior": [1.0, 1.0]}, "unknown key.*'prior'"),
    "OLAC2-prior": ({"kind": "OLAC2", "prior": [float("nan")] * 64}, "prior"),
    "OLAC-relearn_perod": ({"kind": "OLAC", "relearn_perod": 2}, "unknown key.*'relearn_perod'"),
    "OLAC-theta-nan": ({"kind": "OLAC", "theta": [float("nan"), 1.0]}, "positive and finite"),
    "OLAC-theta-inf": ({"kind": "OLAC", "theta": [float("inf"), 1.0]}, "positive and finite"),
    # a knob of another kind is not ignored: each kind lists its own keys
    "OLAC-c": ({"kind": "OLAC", "c": 7}, r"controller OLAC: unknown key\(s\) 'c'; accepted: kind, theta$"),
    "OLAC2-theta": ({"kind": "OLAC2", "theta": [5.0, 5.0]},
                    r"controller OLAC2: unknown key\(s\) 'theta'; accepted: kind, c$"),
    "Backpressure-theta-and-c": ({"kind": "Backpressure", "theta": [5, 5], "c": 0.9},
                                 r"controller Backpressure: unknown key\(s\) 'theta', 'c'; accepted: kind$"),
}
# oracle verb arguments a sweep would reject too, with the message, keyed by test id
BAD_ORACLE_ARGS = {
    "V-zero": (["--V", "0"], "V must be"),
    "V-negative": (["--V", "-5"], "V must be"),
    "V-nan": (["--V", "nan"], "V must be"),
    "V-inf": (["--V", "inf"], "V must be"),
    "V-below-one": (["--V", "0.5"], "V must be"),
    "channel-dist-length": (["--V", "50", "--channel-dist", "0.5,0.5"], "builtin two_queue"),
    "channel-dist-not-float": (["--V", "50", "--channel-dist", "x"], "could not convert"),
}

# instance files the constructor rejects, as (r, arrivals, services) of a
# one-state, one-action document, with the violation named, keyed by test id
BAD_INSTANCE_FILES = {
    "vector-longer-than-r": ((1, [0.0, 1.0], [1.0]), "state 0 action 0: vector length != r=1"),
    "vector-shorter-than-r": ((2, [0.0], [1.0, 1.0]), "state 0 action 0: vector length != r=2"),
    "r-zero": ((0, [0.0], [1.0]), "r=0 must be >= 1"),
    "r-negative": ((-1, [0.0], [1.0]), "r=-1 must be >= 1"),
}

# generated from FIELDS: a value of another JSON type per reader (an object's
# reader gets a list) and a value outside each bound; by hand, for the fields
# whose range a reader or a later step checks, one such value with its error.
# A boolean has no range, and metric_sample_period is read by nothing.
OTHER_JSON_TYPE = {read_int: "1", read_number: "0.5", read_bool: "false", read_str: 5}
OUTSIDE = {">= 0": -1, ">= 1": 0, "positive and finite": 0.0}
OUT_OF_RANGE = {
    "instance": ({"file": ""}, "instance file must be a non-empty string"),
    "V_values": ([0.5], "V must be a finite number >= 1"),
    "controllers": ([{"kind": "OLAC2", "c": 1.5}], r"controller OLAC2: c must lie in \[0, 1\)"),
    "zeta": ({"policy": "absolute", "value": 0}, r"zeta\.value must be positive and finite, got 0\.0$"),
    "out_dir": ("", "out_dir must be a non-empty string"),
}
READ = [key for key, field in FIELDS.items() if field.read is not None]
RANGED = [key for key in READ if FIELDS[key].read is not read_bool]


def wrongly_typed(key):
    field = FIELDS[key]
    if field.entry_id is not None:  # one entry, not in a list
        return smoke_doc()[key][0]
    return OTHER_JSON_TYPE.get(field.read, [])


def out_of_range(key):
    """A value of ``key`` outside its range, with the error it raises."""
    field = FIELDS[key]
    if field.bound is None:
        return OUT_OF_RANGE[key]
    value = OUTSIDE[field.bound]
    where = key if field.entry_id is None else f"{key}[0]"
    return ([value] if field.entry_id else value), re.escape(f"{where} must be {field.bound}, got {value!r}") + "$"


def readme_field_table():
    """README's scenario field table, as (key, default cell, bound cell) rows."""
    with open(README, encoding="utf-8") as fh:
        lines = fh.read().split("| field | JSON type | default | bound |\n| --- | --- | --- | --- |\n")[1].splitlines()
    rows = []
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines):
        key, _, default, bound = (cell.strip() for cell in line.strip("|").split(" | "))
        rows.append((key.strip("`"), default, bound))
    return rows


class TestScenarioParsing:
    def test_missing_fields(self):
        with pytest.raises(InstanceError, match="missing scenario field"):
            Scenario.from_dict({"instance": {"builtin": "two_queue"}})

    def test_empty_lists_rejected(self):
        with pytest.raises(InstanceError, match="non-empty"):
            Scenario.from_dict(smoke_doc(seeds=[]))

    def test_unknown_controller(self):
        with pytest.raises(InstanceError, match="unknown controller kind"):
            Scenario.from_dict(smoke_doc(controllers=[{"kind": "QLA"}]))

    def test_unknown_zeta_policy(self):
        with pytest.raises(InstanceError, match="zeta policy"):
            Scenario.from_dict(smoke_doc(zeta={"policy": "weird"}))

    @pytest.mark.parametrize("zeta", [{"policy": "absolute"}, {"policy": "absolute", "value": "x"},
                                      {"policy": "absolute", "value": float("nan")}, "absolute"])
    def test_bad_zeta_rejected(self, zeta):
        with pytest.raises(InstanceError, match="zeta"):
            Scenario.from_dict(smoke_doc(zeta=zeta))

    @pytest.mark.parametrize("channel", [[0.5, 0.5], [0.5, 0.6, 0.0, 0.0], [float("nan"), 0.5, 0.25, 0.25]])
    def test_bad_builtin_channel_rejected(self, channel):
        with pytest.raises(InstanceError, match="builtin two_queue"):
            Scenario.from_dict(smoke_doc(instance={"builtin": "two_queue", "channel_dist": channel}))

    @pytest.mark.parametrize("controller, match", list(BAD_KNOBS.values()), ids=list(BAD_KNOBS))
    def test_bad_controller_knob_rejected_at_load(self, controller, match):
        with pytest.raises(InstanceError, match=match):
            Scenario.from_dict(smoke_doc(controllers=[{"kind": "Backpressure"}, controller]))

    @pytest.mark.parametrize("overrides", [{"V_values": [0.5]}, {"V_values": [float("nan")]},
                                           {"V_values": ["x"]}, {"horizon": 0},
                                           {"epsilon_s": -0.05, "assumption_check": True},
                                           {"epsilon_s": float("nan"), "assumption_check": True},
                                           {"epsilon_s": float("inf")}, {"epsilon_s": 0.0},
                                           {"seeds": [0, -1]}, {"workers": 0},
                                           {"workers": -1}, {"perturbation_count": -1},
                                           {"rho_samples": 512}, *(doc for doc, _ in WRONG_TYPES.values())])
    def test_bad_grid_rejected_at_load(self, overrides):
        with pytest.raises(InstanceError):
            Scenario.from_dict(smoke_doc(**overrides))

    @pytest.mark.parametrize("overrides, field", list(WRONG_TYPES.values()), ids=list(WRONG_TYPES))
    def test_wrongly_typed_field_named_at_load(self, overrides, field):
        with pytest.raises(InstanceError, match=field):
            Scenario.from_dict(smoke_doc(**overrides))

    @pytest.mark.parametrize("overrides, match", list(DUPLICATE_ENTRIES.values()), ids=list(DUPLICATE_ENTRIES))
    def test_duplicate_sweep_entry_rejected_at_load(self, overrides, match):
        with pytest.raises(InstanceError, match=match):
            Scenario.from_dict(smoke_doc(**overrides))

    @pytest.mark.parametrize("key", READ)
    def test_every_field_rejects_a_wrongly_typed_value(self, key):
        with pytest.raises(InstanceError, match=re.escape(key)):
            Scenario.from_dict(smoke_doc(**{key: wrongly_typed(key)}))

    @pytest.mark.parametrize("key", RANGED)
    def test_every_field_rejects_an_out_of_range_value_before_any_output(self, tmp_path, capsys, key):
        value, match = out_of_range(key)
        with pytest.raises(InstanceError, match=match):
            Scenario.from_dict(smoke_doc(**{key: value}))
        (tmp_path / "scen.json").write_text(json.dumps(smoke_doc(**{key: value})))
        assert main(["run", str(tmp_path / "scen.json"), "--out", str(tmp_path / "out")]) == 2
        assert re.search(match, capsys.readouterr().err.splitlines()[-1])
        assert not (tmp_path / "out").exists()

    def test_readme_field_table_lists_every_field_with_its_default_and_bound(self):
        rows = readme_field_table()
        assert [key for key, _, _ in rows] == list(FIELDS)
        for key, default, bound in rows:
            field = FIELDS[key]
            if field.read is None:
                assert default == "ignored"
            elif field.default is REQUIRED:
                assert default == "required"
            else:
                assert re.match("`([^`]*)`", default)[1] == json.dumps(field.default)
            assert field.bound is None or bound.startswith(field.bound)

    def test_scenario_attributes_are_the_read_fields(self):
        assert list(Scenario.__dataclass_fields__) == READ

    def test_former_metric_sample_period_key_still_loads(self):
        # older scenario documents (and perfbench's generated ones) still carry it
        scenario = Scenario.from_dict(smoke_doc(metric_sample_period=100))
        assert not hasattr(scenario, "metric_sample_period")

    @pytest.mark.parametrize("key, value", [("traces", False), ("worker", 3)])
    def test_unknown_top_level_key_rejected(self, key, value):
        # a misspelt field would otherwise take its default without a word
        with open(SMOKE, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc[key] = value
        with pytest.raises(InstanceError, match=f"scenario: unknown key\\(s\\) '{key}'"):
            Scenario.from_dict(doc)

    @pytest.mark.parametrize("name", sorted(n for n in os.listdir(SCENARIOS) if n.endswith(".json")))
    def test_shipped_scenarios_load(self, name):
        Scenario.from_file(os.path.join(SCENARIOS, name))

    def test_bad_knob_fails_before_any_output(self, tmp_path):
        scen = tmp_path / "bad.json"
        scen.write_text(json.dumps(smoke_doc(controllers=[{"kind": "OLAC2", "c": 1.5}])))
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_instance_file_loading(self, tmp_path, two_queue):
        from olacsim.model import serialize_instance

        path = tmp_path / "inst.json"
        path.write_text(json.dumps(serialize_instance(two_queue)))
        scenario = Scenario.from_dict(smoke_doc(instance={"file": str(path)}))
        assert scenario.instance == two_queue


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("sweep")
    scenario = Scenario.from_dict(smoke_doc(trace=True, assumption_check=True, perturbation_count=5))
    manifest = run_scenario(scenario, out_dir=str(out_dir))
    return out_dir, manifest


class TestRunScenario:

    def test_outputs_exist(self, out):
        out_dir, manifest = out
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "oracle.csv").exists()
        assert (out_dir / "manifest.json").exists()
        assert len(manifest["runs"]) == 6

    def test_summary_schema_stable(self, out):
        out_dir, _ = out
        rows = read_csv(out_dir / "summary.csv")
        assert len(rows) == 6
        t_l = str(round(50.0 ** (2 / 3)))
        for row in rows:
            # every column present for every controller; absent concepts empty
            assert row["controller"] in ("Backpressure", "OLAC", "OLAC2")
            assert row["avg_cost"] != ""
            assert row["T_l"] == (t_l if row["controller"] == "OLAC2" else "")

    def test_oracle_row_strong_duality(self, out):
        out_dir, _ = out
        rows = read_csv(out_dir / "oracle.csv")
        assert len(rows) == 1
        row = rows[0]
        g_star = float(row["g_star"])
        f_star = float(row["f_av_star"])
        v = float(row["V"])
        assert abs(g_star / v - f_star) <= 1e-6 * max(1.0, f_star)
        assert float(row["eta_0"]) > 0
        assert row["min_perturbed_slack"] != ""

    def test_trace_files_written(self, out):
        out_dir, _ = out
        assert (out_dir / "trace_OLAC_V50_seed0.csv").exists()
        rows = read_csv(out_dir / "trace_OLAC_V50_seed0.csv")
        assert {"slot", "q_1", "q_2", "dist_gamma", "dist_beta", "inst_cost"} <= set(rows[0])

    def test_cells_read_back_as_the_runs_own_floats(self, out, two_queue):
        # the acceptance suite reads its criteria from these files, so every
        # cell must parse back to what a direct run or the oracles computed
        out_dir, _ = out
        ana = compute_analysis(two_queue, 50.0)
        perturbed = _perturbed_distributions(two_queue.probabilities, 5, 0.05, 0)
        (row,) = read_csv(out_dir / "oracle.csv")
        assert {key: float(text) for key, text in row.items()} == {
            "V": 50.0, "f_av_star": ana.f_av_star, "g_star": ana.g_star,
            "gamma_star_1": ana.gamma_star[0], "gamma_star_2": ana.gamma_star[1], "eta_0": ana.eta_0,
            "rho_hat": ana.rho_hat, "D_p": ana.D_p, "eta": ana.eta, "B": two_queue.B, "f_max": two_queue.f_max,
            "min_perturbed_slack": min(max_slack(two_queue, p) for p in perturbed),
        }
        for row in read_csv(out_dir / "summary.csv"):
            kind, seed = row.pop("controller"), int(row["seed"])
            cfg = SimConfig(horizon=300, seed=seed, controller=ControllerConfig(kind, 50.0), zeta=ana.D_p)
            res = run(two_queue, cfg, ana.gamma_star)
            assert {key: None if text == "" else float(text) for key, text in row.items()} == {
                "V": 50.0, "seed": seed, "horizon": 300, "avg_cost": res.avg_cost, "avg_backlog": res.avg_backlog,
                "mean_delay": res.delay.mean_delay,
                **{f"delivered_rate_{j + 1}": res.delay.delivered_rate[j] for j in range(2)},
                **{f"dropped_{j + 1}": res.dropped[j] for j in range(2)},
                "T_zeta_first": res.t_zeta_first, "T_zeta_sustained": res.t_zeta_sustained,
                "dropped_total": res.dropped.sum(), "T_l": res.t_learn, "solver_flagged_slots": res.solver_flagged_slots,
            }, kind
            # the trace's q, dist_gamma and inst_cost columns, read as the acceptance suite reads them
            trace = np.loadtxt(out_dir / f"trace_{kind}_V50_seed{seed}.csv", delimiter=",", skiprows=1,
                               usecols=(1, 2, 3, 5))
            assert np.array_equal(trace, np.column_stack([res.queue_trace, res.gamma_trace, res.cost_trace])), kind

    def test_byte_identical_reruns(self, tmp_path):
        scenario = Scenario.from_dict(smoke_doc())
        run_scenario(scenario, out_dir=str(tmp_path / "a"))
        run_scenario(scenario, out_dir=str(tmp_path / "b"))
        for name in ("summary.csv", "oracle.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_workers_do_not_change_outputs(self, tmp_path):
        # several V per seed: OLAC's shared beta path must not depend on how the pool splits the tasks
        doc = smoke_doc(V_values=[20, 50], seeds=[0, 1, 2], trace=True)
        serial = run_scenario(Scenario.from_dict(doc), out_dir=str(tmp_path / "serial"))
        doc["workers"] = 2
        pooled = run_scenario(Scenario.from_dict(doc), out_dir=str(tmp_path / "pooled"))
        assert serial["runs"] == pooled["runs"] and serial["failed"] == pooled["failed"] == 0
        names = sorted(p.name for p in (tmp_path / "serial").glob("*.csv"))
        assert len(names) == 2 + 18 and names == sorted(p.name for p in (tmp_path / "pooled").glob("*.csv"))
        for name in names:
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pooled" / name).read_bytes(), name

    def test_several_v_sweep_matches_single_v_sweeps(self, tmp_path):
        # OLAC learns its beta path once per seed and scales it by each V; every
        # row and trace is the one a sweep of that V alone writes
        doc = smoke_doc(V_values=[20, 100, 50], trace=True)
        manifest = run_scenario(Scenario.from_dict(doc), out_dir=str(tmp_path / "all"))
        # the manifest keeps the (controller, V, seed) order of the scenario
        assert [(r["controller"], r["V"], r["seed"]) for r in manifest["runs"]] == [
            (kind, v, seed) for kind in ("Backpressure", "OLAC", "OLAC2") for v in (20.0, 100.0, 50.0) for seed in (0, 1)
        ]
        summary = (tmp_path / "all" / "summary.csv").read_text().splitlines()
        for v in (20, 50, 100):
            one = tmp_path / str(v)
            run_scenario(Scenario.from_dict({**doc, "V_values": [v]}), out_dir=str(one))
            assert (one / "summary.csv").read_text().splitlines() == [
                summary[0], *(row for row in summary[1:] if row.split(",")[1] == repr(float(v)))
            ]
            for trace in one.glob("trace_*.csv"):
                assert trace.read_bytes() == (tmp_path / "all" / trace.name).read_bytes(), trace.name

    def test_beta_path_learned_once_per_seed(self, tmp_path, monkeypatch):
        # perfbench's assumption_sweep document (6 seeds, V 20 to 200) at a shorter horizon
        import importlib.util
        import olacsim.sim

        sys.path.insert(0, PERFBENCH)
        try:
            spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(PERFBENCH, "run.py"))
            perfbench = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, spec.name, perfbench)  # its dataclasses look their module up
            spec.loader.exec_module(perfbench)
        finally:
            sys.path.remove(PERFBENCH)
        # the benchmark's own documents load, at full and at self-test size
        for name in ("delay_table", "assumption_sweep"):
            for tiny in (False, True):
                Scenario.from_dict(perfbench.WORKLOADS[name].document(7, tiny=tiny))
        doc = {**perfbench.WORKLOADS["assumption_sweep"].document(7), "horizon": 200, "trace": False}
        calls = []
        real = olacsim.sim.dual_learn

        def counted(instance, states):
            calls.append(len(states))
            return real(instance, states)

        monkeypatch.setattr(olacsim.sim, "dual_learn", counted)
        scenario = Scenario.from_dict(doc)
        manifest = run_scenario(scenario, out_dir=str(tmp_path / "first"))
        assert manifest["failed"] == 0 and len(manifest["runs"]) == 3 * 4 * 6
        assert calls == [200] * 6
        # the instance keeps one path, the last seed's: the second sweep starts
        # on another seed, so it learns each seed's path again
        run_scenario(scenario, out_dir=str(tmp_path / "second"))
        assert calls == [200] * 12
        assert (tmp_path / "first" / "summary.csv").read_bytes() == (tmp_path / "second" / "summary.csv").read_bytes()

    def test_first_run_of_a_seed_fails(self, tmp_path, monkeypatch):
        # the failed run keeps no path: the seed's next V learns its own, and
        # every other row is the row of a sweep without the failure
        import olacsim.cli
        import olacsim.sim

        doc = smoke_doc(controllers=[{"kind": "OLAC"}], V_values=[20, 50, 100])
        clean = tmp_path / "clean"
        run_scenario(Scenario.from_dict(doc), out_dir=str(clean))
        real_run, real_learn = olacsim.cli.run, olacsim.sim.dual_learn
        learns = []

        def failing_run(instance, cfg, gamma_star):
            if (cfg.controller.V, cfg.seed) == (20.0, 1):
                raise RuntimeError("injected failure")
            return real_run(instance, cfg, gamma_star)

        def counted(instance, states):
            learns.append(len(states))
            return real_learn(instance, states)

        monkeypatch.setattr(olacsim.cli, "run", failing_run)
        monkeypatch.setattr(olacsim.sim, "dual_learn", counted)
        manifest = run_scenario(Scenario.from_dict(doc), out_dir=str(tmp_path / "out"))
        assert learns == [300, 300]
        assert manifest["failed"] == 1
        assert [r for r in manifest["runs"] if r["status"] != "ok"] == [
            {"controller": "OLAC", "V": 20.0, "seed": 1, "status": "error", "error": "RuntimeError: injected failure"}
        ]
        rows = read_csv(tmp_path / "out" / "summary.csv")
        assert rows == [row for row in read_csv(clean / "summary.csv") if (row["V"], row["seed"]) != ("20.0", "1")]

    @pytest.mark.parametrize("workers, runs, pool_size", [(5000, 2, 2), (2, 1, None), (2, 3, 2)])
    def test_pool_never_larger_than_the_sweep(self, tmp_path, monkeypatch, workers, runs, pool_size):
        # run_scenario imports the pool from concurrent.futures when it starts one
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        doc = smoke_doc(controllers=[{"kind": "Backpressure"}], seeds=list(range(runs)), horizon=20, workers=workers)
        manifest = run_scenario(Scenario.from_dict(doc), out_dir=str(tmp_path))
        assert len(manifest["runs"]) == runs and manifest["failed"] == 0
        assert sizes == ([] if pool_size is None else [pool_size])

    def test_import_leaves_the_process_pool_unloaded(self):
        # a sweep without a pool never loads multiprocessing; a new interpreter shows what the import loads
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = "import sys, olacsim.cli; print('concurrent.futures.process' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert done.stdout == "False\n"

    def test_traceless_sweep_leaves_orjson_unloaded(self, tmp_path):
        # only the trace writer imports orjson; the traced sweep after it shows the probe can see the import
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        doc = smoke_doc(controllers=[{"kind": "Backpressure"}], seeds=[0], horizon=20)
        code = (
            "import json, sys, olacsim.cli as cli\n"
            f"doc = json.loads({json.dumps(doc)!r})\n"
            "for trace in (False, True):\n"
            "    cli.run_scenario(cli.Scenario.from_dict(doc), out_dir=sys.argv[1] + str(trace), trace=trace)\n"
            "    print('orjson' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "trace_")], capture_output=True, text=True,
                              env=env, check=True)
        assert done.stdout == "False\nTrue\n"

    def test_trace_setting_does_not_change_summary_or_oracle(self, tmp_path):
        scenario = Scenario.from_file(SMOKE)
        run_scenario(scenario, out_dir=str(tmp_path / "off"), trace=False)
        run_scenario(scenario, out_dir=str(tmp_path / "on"), trace=True)
        assert not list((tmp_path / "off").glob("trace_*.csv"))
        for name in ("summary.csv", "oracle.csv"):
            assert (tmp_path / "off" / name).read_bytes() == (tmp_path / "on" / name).read_bytes()

    @pytest.mark.parametrize("kind", ["Backpressure", "OLAC"])
    def test_worker_writes_the_sweeps_trace_and_returns_no_paths(self, tmp_path, monkeypatch, two_queue, kind):
        # with a trace directory the worker writes the file a traced sweep
        # writes; without one it writes nothing, and it never returns a path
        name = f"trace_{kind}_V50_seed0.csv"
        doc = smoke_doc(controllers=[{"kind": kind}], seeds=[0], horizon=120, trace=True)
        run_scenario(Scenario.from_dict(doc), out_dir=str(tmp_path / "sweep"))
        ana = compute_analysis(two_queue, 50.0)
        job = (two_queue, {"kind": kind}, 50.0, 0, 120, ana.D_p, None, ana.gamma_star)
        for sub in ("on", "off"):
            (tmp_path / sub).mkdir()
        monkeypatch.chdir(tmp_path / "off")
        off = _execute_run(job)
        on = _execute_run((*job[:6], str(tmp_path / "on"), *job[7:]))
        assert os.listdir(tmp_path / "off") == []
        assert os.listdir(tmp_path / "on") == [name]
        assert (tmp_path / "on" / name).read_bytes() == (tmp_path / "sweep" / name).read_bytes()
        for res in (off, on):
            assert res.gamma_trace is res.beta_trace is res.queue_trace is res.cost_trace is None
        assert (off.avg_cost, off.avg_backlog) == (on.avg_cost, on.avg_backlog)

    def test_v_independent_lps_solved_once(self, tmp_path, monkeypatch):
        # the policy and slack LPs do not depend on V: one solve each per sweep,
        # which the learners of all three controllers reuse, and every oracle
        # row is the row a single-V sweep writes
        import olacsim.dual

        calls = {"primal_oracle": 0, "max_slack": 0}
        for name in calls:
            real = getattr(olacsim.dual, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(olacsim.dual, name, counted)
        doc = smoke_doc(V_values=[20, 50, 100], seeds=[0], horizon=50)
        manifest = run_scenario(Scenario.from_dict(doc), out_dir=str(tmp_path / "all"))
        assert manifest["failed"] == 0 and len(manifest["runs"]) == 3 * 3
        assert calls == {"primal_oracle": 1, "max_slack": 1}
        rows = (tmp_path / "all" / "oracle.csv").read_text().splitlines()
        for k, v in enumerate((20, 50, 100), start=1):
            run_scenario(Scenario.from_dict({**doc, "V_values": [v]}), out_dir=str(tmp_path / str(v)))
            assert (tmp_path / str(v) / "oracle.csv").read_text().splitlines() == [rows[0], rows[k]]

    @pytest.mark.parametrize("out_dir, env, name", [("", None, "out_dir"), (None, "", "$OLACSIM_OUT")])
    def test_empty_output_directory_rejected_before_any_work(self, tmp_path, monkeypatch, out_dir, env, name):
        # either would name the working directory; the `or` chain once read
        # them as absent and wrote ./out
        import olacsim.dual

        def no_oracles(*args):
            raise AssertionError("the oracles ran")

        monkeypatch.setattr(olacsim.dual, "compute_analysis", no_oracles)
        monkeypatch.chdir(tmp_path)
        if env is not None:
            monkeypatch.setenv("OLACSIM_OUT", env)
        scenario = Scenario.from_dict(smoke_doc(horizon=20, seeds=[0]))
        with pytest.raises(InstanceError, match=f"^{re.escape(name)} must be a non-empty string, got ''$"):
            run_scenario(scenario, out_dir=out_dir)
        assert os.listdir(tmp_path) == []


def _ref_fmt(value) -> str:
    """The cell text of the cell-by-cell trace writer."""
    if value is None:
        return ""
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            return "nan"
        return repr(v)
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def reference_trace(path, queue_trace, gamma_trace, beta_trace, cost_trace):
    """A trace CSV as the cell-by-cell writer wrote it: csv.writer rows of _ref_fmt cells."""
    horizon, r = queue_trace.shape
    header = ["slot"] + [f"q_{j + 1}" for j in range(r)] + ["dist_gamma", "dist_beta", "inst_cost"]
    beta = beta_trace if beta_trace is not None else [None] * horizon
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for t, (q, g, b, c) in enumerate(zip(queue_trace, gamma_trace, beta, cost_trace)):
            writer.writerow([_ref_fmt(v) for v in [t, *q, g, b, c]])


# the special floats, and both sides of repr's switches to exponent notation at 1e-4 and 1e16
EDGE_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), -1e-4,
    1e16, math.nextafter(1e16, 0.0), math.nextafter(1e16, math.inf), -1e16, 1.7976931348623157e308,
]
CELLS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(-10**17, 10**17).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e-6, max_value=1e-2) | st.floats(min_value=1e14, max_value=1e18),
)


@st.composite
def trace_paths(draw):
    horizon = draw(st.integers(1, 12))
    r = draw(st.integers(1, 3))

    def column(n):
        return np.array(draw(st.lists(CELLS, min_size=n, max_size=n)), dtype=float)

    beta = column(horizon) if draw(st.booleans()) else None
    return column(horizon * r).reshape(horizon, r), column(horizon), beta, column(horizon)


class TestTraceWriter:
    @settings(max_examples=200, deadline=None)
    @given(paths=trace_paths())
    def test_matches_the_cell_by_cell_writer(self, tmp_path_factory, paths):
        out = tmp_path_factory.mktemp("trace")
        _write_trace(out / "column.csv", *paths)
        reference_trace(out / "reference.csv", *paths)
        assert (out / "column.csv").read_bytes() == (out / "reference.csv").read_bytes()

    def test_repeated_zeros_and_nan_keep_their_text(self, tmp_path):
        # orjson writes the zeros, with their signs, and every NaN is written
        # as null and given repr's text, however many times it repeats
        column = np.array([0.0, -0.0, 0.0, 2.5, -0.0, math.nan, 2.5, math.nan, -math.nan, 0.0])
        paths = (np.vstack([column, -column]).T, column, column[::-1].copy(), column)
        _write_trace(tmp_path / "column.csv", *paths)
        reference_trace(tmp_path / "reference.csv", *paths)
        assert (tmp_path / "column.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert (tmp_path / "column.csv").read_text().splitlines()[2] == "1,-0.0,0.0,-0.0,nan,-0.0"

    def test_float_texts_are_reprs(self):
        # orjson's text is repr's only inside 1e-4 <= |x| < 1e16; if a later
        # orjson spells any double differently, this names the values
        rng = np.random.default_rng(20140)
        patterns = rng.integers(0, 2**64, size=50_000, dtype=np.uint64)
        # a fifth with the exponent field all zeros (zeros, subnormals) or all ones (inf, NaN payloads)
        exponent = np.uint64(0x7FF << 52)
        patterns[:5_000] &= ~exponent
        patterns[5_000:10_000] |= exponent
        log_uniform = 10.0 ** rng.uniform(-6.0, 18.0, size=50_000)
        neighbours = []
        for edge in (1e-4, 1e16):
            below = above = edge
            for _ in range(50):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
                neighbours += [below, above]
        values = np.concatenate([
            patterns.view(np.float64),
            log_uniform, -log_uniform,
            rng.integers(0, 2**53, size=25_000, endpoint=True).astype(np.float64),
            np.floor(2.0 ** rng.uniform(0.0, 53.0, size=25_000)),
            [1e-4, 1e16], neighbours, np.negative(neighbours),
        ])
        texts = _float_texts(values)
        expected = [repr(x) for x in values.tolist()]
        wrong = [(want, got) for want, got in zip(expected, texts) if want != got]
        assert len(texts) == len(expected) and wrong[:5] == []

    def test_strided_read_only_and_integer_valued_columns(self, tmp_path):
        # a column view, a read-only array and floats made from integers all
        # write what their contiguous copies and the cell-by-cell writer write
        horizon = 40
        wide = np.linspace(-3.0, 1e17, 4 * horizon).reshape(horizon, 4)
        queue = np.arange(4 * horizon, dtype=float).reshape(horizon, 4)[:, ::2]
        gamma, beta = wide[:, 1], wide[::-1, 3]
        cost = np.arange(horizon, dtype=float) * 3.0
        cost.flags.writeable = False
        strided = (queue, gamma, beta, cost)
        assert not (queue[:, 0].flags.c_contiguous or gamma.flags.c_contiguous or beta.flags.c_contiguous)
        _write_trace(tmp_path / "strided.csv", *strided)
        _write_trace(tmp_path / "copies.csv", *map(np.ascontiguousarray, strided))
        reference_trace(tmp_path / "reference.csv", *strided)
        assert (tmp_path / "strided.csv").read_bytes() == (tmp_path / "copies.csv").read_bytes()
        assert (tmp_path / "strided.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
        assert (tmp_path / "strided.csv").read_text().splitlines()[2].startswith("1,4.0,6.0,")


class TestPlotdata:
    def test_aggregates_mean_and_stderr(self, tmp_path):
        scenario = Scenario.from_dict(smoke_doc())
        run_scenario(scenario, out_dir=str(tmp_path))
        written = emit_plotdata(str(tmp_path / "summary.csv"))
        names = {os.path.basename(p) for p in written}
        assert names == {
            "fig_power_vs_V.csv",
            "fig_delay_vs_V.csv",
            "fig_convergence_vs_V.csv",
            "fig_queue_trace.csv",
        }
        rows = read_csv(tmp_path / "fig_power_vs_V.csv")
        assert len(rows) == 3  # one per controller at the single V
        for row in rows:
            assert int(row["n_runs"]) == int(row["n_values"]) == 2
            assert row["mean"] != "" and row["stderr"] != ""

    def test_n_values_counts_the_filled_cells_only(self, tmp_path):
        # two of three runs never reached zeta: the mean covers one run, not three
        (tmp_path / "summary.csv").write_text(
            "controller,V,seed,avg_cost,mean_delay,T_zeta_first\n"
            "Backpressure,800,0,1.0,5.0,100\n"
            "Backpressure,800,1,3.0,7.0,\n"
            "Backpressure,800,2,2.0,nan,\n"
            "OLAC,800,0,1.0,,\n"
        )
        emit_plotdata(str(tmp_path / "summary.csv"))
        cells = {name: [(r["controller"], r["n_runs"], r["n_values"], r["mean"], r["stderr"])
                        for r in read_csv(tmp_path / f"fig_{name}_vs_V.csv")]
                 for name in ("power", "delay", "convergence")}
        assert cells["convergence"] == [("Backpressure", "3", "1", "100.0", "0.0"), ("OLAC", "1", "0", "", "")]
        assert cells["delay"] == [("Backpressure", "3", "2", "6.0", "1.0"), ("OLAC", "1", "0", "", "")]
        assert cells["power"][0] == ("Backpressure", "3", "3", "2.0", repr(math.sqrt(1 / 3)))

    def test_empty_out_dir_rejected(self, tmp_path, monkeypatch):
        # it would write next to the working directory's files, not the summary's
        (tmp_path / "summary.csv").write_text("controller,V,seed,avg_cost,mean_delay,T_zeta_first\nOLAC,50,0,1,2,3\n")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(InstanceError, match="^out_dir must be a non-empty string, got ''$"):
            emit_plotdata("summary.csv", out_dir="")
        assert os.listdir(tmp_path) == ["summary.csv"]

    def test_empty_summary_errors(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("controller,V,seed\n")
        with pytest.raises(ValueError, match="no data rows"):
            emit_plotdata(str(path))


class TestPerturbations:
    def test_within_ball_and_valid(self, two_queue):
        pi = two_queue.probabilities
        for p in _perturbed_distributions(pi, 50, 0.05, seed=0):
            assert p.min() >= 0
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(p - pi) <= 0.05 + 1e-12


class TestMainEntry:
    def test_oracle_verb(self, capsys):
        rc = main(["oracle", "two_queue", "--V", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "f_av_star" in out and "D_p" in out

    def test_oracle_verb_prints_the_row_it_writes(self, tmp_path, capsys):
        assert main(["oracle", "two_queue", "--V", "50", "--channel-dist", "0.1,0.4,0.4,0.1",
                     "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        (row,) = read_csv(tmp_path / "oracle.csv")
        assert row["min_perturbed_slack"] == ""  # written blank, and not printed
        assert lines[:-1] == [f"{name:<20}{cell}" for name, cell in row.items() if cell]
        name, xi = lines[-1].split()
        assert name == "xi" and float(xi) == 50.0 * (float(row["f_max"]) / float(row["eta_0"]))

    @pytest.mark.parametrize("argv, message", list(BAD_ORACLE_ARGS.values()), ids=list(BAD_ORACLE_ARGS))
    def test_oracle_verb_rejects_what_a_sweep_rejects(self, tmp_path, capsys, argv, message):
        assert main(["oracle", "two_queue", *argv, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and not captured.out
        assert not (tmp_path / "out").exists()

    def test_oracle_verb_rejects_channel_dist_with_an_instance_file(self, tmp_path, capsys, two_queue):
        from olacsim.model import serialize_instance

        path = tmp_path / "inst.json"
        path.write_text(json.dumps(serialize_instance(two_queue)))
        argv = ["oracle", str(path), "--V", "50", "--channel-dist", "0.9,0.1", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--channel-dist applies to the builtin instance only" in captured.err and not captured.out
        assert not (tmp_path / "out").exists()

    def test_oracle_verb_reports_an_instance_without_a_feasible_policy(self, tmp_path, capsys):
        # arrivals 1 against service 0.5: the policy LP is infeasible, which is
        # an oracle's failure (status 1, as for a sweep), not a traceback
        path = tmp_path / "noslack.json"
        path.write_text(json.dumps({"r": 1, "states": [
            {"probability": 1, "actions": [{"cost": 0, "arrivals": [1], "services": [0.5]}]}]}))
        assert main(["oracle", str(path), "--V", "10", "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: no randomized policy satisfies the rate constraints\n"
        assert not captured.out
        assert not (tmp_path / "out").exists()

    def test_flat_dual_writes_every_output_without_a_radius(self, tmp_path, capsys):
        # g(gamma) = min(0, 1 - gamma) is flat on [0, 1]: rho = 0, so eta and D_p are NaN and
        # auto_Dp measures no convergence time, yet the sweep writes every file
        (tmp_path / "flat.json").write_text(json.dumps(serialize_instance(flat_dual())))
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(smoke_doc(instance={"file": "flat.json"}, seeds=[0], horizon=50, trace=True)))
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        names = sorted(os.listdir(tmp_path / "out"))
        traces = [f"trace_{kind}_V50_seed0.csv" for kind in ("Backpressure", "OLAC", "OLAC2")]
        assert names == sorted(["manifest.json", "oracle.csv", "summary.csv", *traces])
        (oracle,) = read_csv(tmp_path / "out" / "oracle.csv")
        assert (oracle["rho_hat"], oracle["eta"], oracle["D_p"]) == ("0.0", "nan", "nan")
        rows = read_csv(tmp_path / "out" / "summary.csv")
        assert len(rows) == 3
        assert all(row["T_zeta_first"] == row["T_zeta_sustained"] == "" for row in rows)

    def test_oracle_verb_warns_of_a_flat_dual(self, tmp_path, capsys):
        (tmp_path / "flat.json").write_text(json.dumps(serialize_instance(flat_dual())))
        assert main(["oracle", str(tmp_path / "flat.json"), "--V", "10"]) == 0
        out = capsys.readouterr().out
        assert "rho_hat = 0" in out and "not numerically confirmed" not in out

    def test_run_verb_rejects_a_wrongly_typed_field(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(smoke_doc(instance="file.json")))
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        assert "instance must be an object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_verb_names_the_bad_instance_file(self, tmp_path, capsys, two_queue):
        from olacsim.model import serialize_instance

        doc = serialize_instance(two_queue)
        doc["states"][0]["actions"][0]["cost"] = "0"
        (tmp_path / "inst.json").write_text(json.dumps(doc))
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(smoke_doc(instance={"file": "inst.json"})))
        assert main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'inst.json'}: states[0].actions[0].cost must be a number, got '0'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["run", "oracle"])
    @pytest.mark.parametrize("tables, message", list(BAD_INSTANCE_FILES.values()), ids=list(BAD_INSTANCE_FILES))
    def test_bad_instance_file_named_with_its_violation(self, tmp_path, capsys, tables, message, verb):
        r, arrivals, services = tables
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"r": r, "states": [
            {"probability": 1.0, "actions": [{"cost": 0.0, "arrivals": arrivals, "services": services}]}]}))
        (tmp_path / "scen.json").write_text(json.dumps(smoke_doc(instance={"file": "inst.json"})))
        argv = [str(tmp_path / "scen.json")] if verb == "run" else [str(path), "--V", "50"]
        assert main([verb, *argv, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert f"error: {path}: invalid instance: {message}" in captured.err
        assert "Traceback" not in captured.err and not captured.out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb, bad", [("run", "scenario"), ("run", "instance"), ("oracle", "instance")],
                             ids=["run-scenario", "run-instance", "oracle-instance"])
    def test_file_that_is_not_utf8_named(self, tmp_path, capsys, two_queue, verb, bad):
        from olacsim.model import serialize_instance

        docs = {"scenario": smoke_doc(instance={"file": "instance.json"}), "instance": serialize_instance(two_queue)}
        for name, doc in docs.items():
            data = json.dumps(doc).encode()
            if name == bad:  # one more key, spelt with a Latin-1 byte (0xe9) where UTF-8 needs two
                data = data[:-1] + b', "\xe9": 0}'
            (tmp_path / f"{name}.json").write_bytes(data)
        path = tmp_path / f"{bad}.json"
        argv = [str(tmp_path / "scenario.json")] if verb == "run" else [str(path), "--V", "50"]
        assert main([verb, *argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xe9" in err
        assert not (tmp_path / "out").exists()

    def test_run_verb_and_plotdata_verb(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(smoke_doc(horizon=100, seeds=[0])))
        rc = main(["run", str(scen), "--out", str(tmp_path / "out")])
        assert rc == 0
        rc = main(["plotdata", str(tmp_path / "out" / "summary.csv")])
        assert rc == 0

    def test_oracle_verb_writes_the_sweeps_oracle_csv(self, tmp_path, capsys):
        run_scenario(Scenario.from_dict(smoke_doc()), out_dir=str(tmp_path / "sweep"))
        assert main(["oracle", "two_queue", "--V", "50", "--out", str(tmp_path / "oracle")]) == 0
        assert (tmp_path / "oracle" / "oracle.csv").read_bytes() == (tmp_path / "sweep" / "oracle.csv").read_bytes()

    def test_run_verb_keeps_the_sweep_when_one_run_fails(self, tmp_path, monkeypatch, capsys):
        import olacsim.cli

        real_run = olacsim.cli.run

        def failing_run(instance, cfg, gamma_star):
            if cfg.controller.kind == "OLAC" and cfg.seed == 1:
                raise RuntimeError("injected failure")
            return real_run(instance, cfg, gamma_star)

        monkeypatch.setattr(olacsim.cli, "run", failing_run)
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(smoke_doc()))  # workers=1: the patch reaches every run
        out_dir = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out_dir)]) == 1
        assert len(read_csv(out_dir / "summary.csv")) == 5
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["failed"] == 1
        assert [r for r in manifest["runs"] if r["status"] != "ok"] == [
            {"controller": "OLAC", "V": 50.0, "seed": 1, "status": "error", "error": "RuntimeError: injected failure"}
        ]
        assert "injected failure" in capsys.readouterr().err

    def test_run_verb_records_olac2_without_slack_as_failed(self, tmp_path, capsys):
        from olacsim.model import serialize_instance

        from conftest import single_state_instance

        # arrivals equal the best service: eta_0 = 0, so OLAC2's learn has no box
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(serialize_instance(
            single_state_instance([(0.0, [1.0], [0.0]), (1.0, [1.0], [1.0])])
        )))
        doc = smoke_doc(instance={"file": str(inst)}, controllers=[{"kind": "Backpressure"}, {"kind": "OLAC2"}],
                        V_values=[10])
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out_dir)]) == 1
        assert [row["controller"] for row in read_csv(out_dir / "summary.csv")] == ["Backpressure"] * 2
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["failed"] == 2
        failed = [r for r in manifest["runs"] if r["status"] != "ok"]
        assert [(r["controller"], r["seed"]) for r in failed] == [("OLAC2", 0), ("OLAC2", 1)]
        assert all(r["error"].startswith("NoSlackError: OLAC2: ") and "eta_0 = 0" in r["error"] for r in failed)
        assert "OLAC2" in capsys.readouterr().err

    def test_assumption_check_on_one_state(self, tmp_path):
        from olacsim.model import serialize_instance

        from conftest import single_state_instance

        # one state has no other distribution: every perturbed draw is pi, and its slack is eta_0
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(serialize_instance(
            single_state_instance([(0.0, [1.0], [0.0]), (1.0, [1.0], [2.0])])
        )))
        assert [p.tolist() for p in _perturbed_distributions(np.array([1.0]), 3, 0.05, 0)] == [[1.0]] * 3
        doc = smoke_doc(instance={"file": str(inst)}, controllers=[{"kind": "Backpressure"}], V_values=[10],
                        seeds=[0], horizon=20, assumption_check=True, perturbation_count=4)
        manifest = run_scenario(Scenario.from_dict(doc), out_dir=str(tmp_path / "out"))
        assert manifest["failed"] == 0
        [row] = read_csv(tmp_path / "out" / "oracle.csv")
        assert row["min_perturbed_slack"] == row["eta_0"] == "1.0"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_run_verb_rejects_workers_below_one(self, tmp_path, capsys, workers):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(smoke_doc()))
        assert main(["run", str(scen), "--out", str(tmp_path / "out"), "--workers", workers]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["run", "oracle", "plotdata"])
    def test_empty_out_rejected_before_any_work(self, tmp_path, monkeypatch, capsys, verb):
        # run would write ./out, plotdata next to the summary, and oracle nothing
        (tmp_path / "scen.json").write_text(json.dumps(smoke_doc(horizon=20, seeds=[0])))
        (tmp_path / "summary.csv").write_text("controller,V,seed,avg_cost,mean_delay,T_zeta_first\nOLAC,50,0,1,2,3\n")
        argv = {"run": ["scen.json"], "oracle": ["two_queue", "--V", "50"], "plotdata": ["summary.csv"]}[verb]
        monkeypatch.chdir(tmp_path)
        assert main([verb, *argv, "--out", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --out must be a non-empty string, got ''\n" and not captured.out
        assert sorted(os.listdir(tmp_path)) == ["scen.json", "summary.csv"]

    def test_empty_olacsim_out_rejected_by_run_verb(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "scen.json").write_text(json.dumps(smoke_doc(horizon=20, seeds=[0])))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("OLACSIM_OUT", "")
        assert main(["run", "scen.json"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: $OLACSIM_OUT must be a non-empty string, got ''\n" and not captured.out
        assert os.listdir(tmp_path) == ["scen.json"]

    def test_run_verb_bad_scenario(self, tmp_path, capsys):
        scen = tmp_path / "bad.json"
        scen.write_text("{")
        assert main(["run", str(scen)]) == 2
