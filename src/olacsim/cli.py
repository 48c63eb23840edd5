"""Experiment runner: scenario files, sweeps, CSV outputs, assumption checks.

A scenario JSON document fully determines a reproduction run: the instance
(builtin two-queue or a file), the controllers, the V grid, seeds, horizon,
and the convergence-radius policy. Sweeps write one ``summary.csv`` row per
(controller, V, seed) run plus an ``oracle.csv`` row per V, optional per-run
trace files, and a ``manifest.json``. ``plotdata`` aggregates a summary into
per-figure mean/stderr tables. All CSVs are comma-delimited, UTF-8, LF,
header row first; outputs are byte-identical across repeated invocations.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import dual
from .controllers import BACKPRESSURE, KINDS, OLAC, OLAC2, ControllerConfig
from .model import (
    InstanceError, NetworkInstance, build_two_queue_example, load_instance_file, read_bool, read_int, read_json_file,
    read_list, read_number, read_object, read_str,
)
from .sim import RunResult, SimConfig, run

__all__ = ["Scenario", "run_scenario", "emit_plotdata", "main"]

OUT_DIR_ENV = "OLACSIM_OUT"

SUMMARY_COLUMNS_BASE = ["controller", "V", "seed", "horizon", "avg_cost", "avg_backlog", "mean_delay"]
SUMMARY_COLUMNS_TAIL = ["T_zeta_first", "T_zeta_sustained", "dropped_total", "T_l", "solver_flagged_slots"]

ORACLE_COLUMNS_BASE = ["V", "f_av_star", "g_star"]
ORACLE_COLUMNS_TAIL = ["eta_0", "rho_hat", "D_p", "eta", "B", "f_max", "min_perturbed_slack"]

# the keys a controller entry may carry, per kind, and a zeta object, per
# policy: a key of another kind or policy is an error
CONTROLLER_KEYS = {BACKPRESSURE: ("kind",), OLAC: ("kind", "theta"), OLAC2: ("kind", "c")}
ZETA_KEYS = {"auto_Dp": ("policy",), "absolute": ("policy", "value")}
UNIFORM_CHANNEL = [0.25, 0.25, 0.25, 0.25]
REQUIRED = object()


# each bound a field may have, by the text that README's field table and the error give it
BOUNDS = {">= 0": lambda value: value >= 0, ">= 1": lambda value: value >= 1,
          "positive and finite": lambda value: 0 < value < math.inf}


class Field(NamedTuple):
    """One key of a scenario document."""

    read: Callable | None               # read(value, key), on each entry of a list field; None: the key is ignored
    default: object = REQUIRED          # what an absent key reads as; a field whose default is null may be null
    bound: str | None = None            # a key of BOUNDS that the value, or each entry, must meet
    entry_id: Callable | None = None    # a list field's: a non-empty list whose entries differ in entry_id
    then: Callable | None = None        # then(value, got) finishes the value from the fields read before it


# the "value" of an absolute zeta, the convergence radius
ZETA_VALUE = Field(read_number, bound="positive and finite")


def _v_label(v: float) -> str:
    """V as trace file names write it, ``{v:g}``: V values that differ past six digits share a label."""
    return f"V{v:g}"


def _trace_name(kind: str, v: float, seed: int) -> str:
    return f"trace_{kind}_{_v_label(v)}_seed{seed}.csv"


def _read_instance(desc, key: str) -> NetworkInstance | str:
    """The builtin two-queue instance with its ``channel_dist``, or the path of ``{"file": path}``."""
    if isinstance(desc, dict) and "file" in desc:
        return read_str(read_object(desc, key, ("file",))["file"], "instance file")
    desc = read_object(desc, key, ("builtin", "channel_dist"), ("builtin",))
    if desc["builtin"] != "two_queue":
        raise InstanceError(f"unknown builtin instance {desc['builtin']!r}")
    channel = read_list(desc.get("channel_dist", UNIFORM_CHANNEL), "instance.channel_dist", read_number)
    try:
        return build_two_queue_example(channel)
    except ValueError as exc:
        raise InstanceError(f"builtin two_queue: {exc}") from exc


def _open_file(instance: NetworkInstance | str, got: dict) -> NetworkInstance:
    # a file's path is relative to the scenario's directory
    return load_instance_file(os.path.join(got["base_dir"], instance)) if isinstance(instance, str) else instance


def _distinct_labels(v_values: list[float], got: dict) -> list[float]:
    # two V values of one label would write one trace file; checked with or
    # without trace, since `olacsim run --trace` turns traces on after load
    labels = [_v_label(v) for v in v_values]
    for v, label in zip(v_values, labels):
        first = v_values[labels.index(label)]
        if first != v:
            raise InstanceError(f"V_values: {first!r} and {v!r} share the trace label {label}")
    return v_values


def _read_controller(entry, key: str) -> dict:
    """ControllerConfig kwargs without V: the kind first, then the keys of that kind."""
    kind = read_object(entry, "controller", entry, ("kind",))["kind"]
    if kind not in KINDS:
        raise InstanceError(f"unknown controller kind {kind!r}")
    entry = read_object(entry, f"controller {kind}", CONTROLLER_KEYS[kind])
    kwargs = {"kind": kind}
    if "c" in entry:
        kwargs["c"] = read_number(entry["c"], "controller.c")
    if entry.get("theta") is not None:
        kwargs["theta"] = np.array(read_list(entry["theta"], "controller.theta", read_number))
    return kwargs


def _configure(controllers: list[dict], got: dict) -> list[dict]:
    # every run's configuration is built here, so a bad knob fails at load,
    # not in a worker after the oracles have run
    for kwargs in controllers:
        try:
            for v in got["V_values"]:
                ControllerConfig(**kwargs, V=v).resolved_theta(got["instance"].r)
        except (ValueError, ArithmeticError) as exc:
            raise InstanceError(f"controller {kwargs['kind']}: {exc}") from exc
    return controllers


def _read_zeta(zeta, key: str) -> float | None:
    """The absolute convergence radius, or None for the auto_Dp policy (D_p at each V)."""
    policy = read_object(zeta, key, zeta, ("policy",))["policy"]
    if policy not in ZETA_KEYS:
        raise InstanceError(f"unknown zeta policy {policy!r}")
    zeta = read_object(zeta, key, ZETA_KEYS[policy], ZETA_KEYS[policy])
    return _read_field(zeta["value"], f"{key}.value", ZETA_VALUE, {}) if "value" in zeta else None


def _read_field(value, key: str, field: Field, got: dict):
    """A field's value, read and bounded (entry by entry for a list field), then finished."""
    def read(value, key):
        value = field.read(value, key)
        if field.bound is not None and not BOUNDS[field.bound](value):
            raise InstanceError(f"{key} must be {field.bound}, got {value!r}")
        return value

    if field.entry_id is None:
        value = read(value, key)
    else:
        value = read_list(value, key, read)
        ids = [field.entry_id(entry) for entry in value]
        for i, entry_id in enumerate(ids):
            if entry_id in ids[:i]:
                raise InstanceError(f"{key}: duplicate entry {entry_id!r}")
    return value if field.then is None else field.then(value, got)


# The scenario document, read key by key in this order, so that the controllers
# are configured at every V on the instance. A sweep entry given twice would
# repeat its runs or share a label: V values are compared as numbers, and
# summary rows and trace files are labelled by controller kind.
FIELDS = {
    "instance": Field(_read_instance, then=_open_file),
    "V_values": Field(read_number, entry_id=float, then=_distinct_labels),
    "seeds": Field(read_int, bound=">= 0", entry_id=int),
    "horizon": Field(read_int, bound=">= 1"),
    "controllers": Field(_read_controller, entry_id=itemgetter("kind"), then=_configure),
    "zeta": Field(_read_zeta, {"policy": "auto_Dp"}),
    "out_dir": Field(read_str, None),
    "trace": Field(read_bool, False),
    "assumption_check": Field(read_bool, False),
    "perturbation_count": Field(read_int, 100, ">= 0"),
    # the perturbed draw only ends once a candidate lies within epsilon_s of the
    # true distribution: a negative, zero, NaN or infinite radius can stall it
    "epsilon_s": Field(read_number, 0.05, "positive and finite"),
    "workers": Field(read_int, 1, ">= 1"),
    "rho_seed": Field(read_int, 0, ">= 0"),
    # older documents, and perfbench's generated ones, still carry it
    "metric_sample_period": Field(None, None),
}


@dataclass
class Scenario:
    """A scenario document's fields, each read as ``FIELDS`` says."""

    instance: NetworkInstance
    V_values: list[float]
    seeds: list[int]
    horizon: int
    controllers: list[dict]                 # ControllerConfig kwargs without V
    zeta: float | None                      # the absolute radius; None for auto_Dp
    out_dir: str | None
    trace: bool
    assumption_check: bool
    perturbation_count: int
    epsilon_s: float
    workers: int
    rho_seed: int

    @classmethod
    def from_dict(cls, doc: dict, base_dir: str = ".") -> "Scenario":
        doc = read_object(doc, "scenario", FIELDS, [key for key, field in FIELDS.items() if field.default is REQUIRED])
        got = {"base_dir": base_dir}
        for key, field in FIELDS.items():
            value = doc.get(key, field.default)
            if field.read is not None:
                got[key] = None if value is None and field.default is None else _read_field(value, key, field, got)
        del got["base_dir"]
        return cls(**got)

    @classmethod
    def from_file(cls, path) -> "Scenario":
        return cls.from_dict(read_json_file(path), base_dir=os.path.dirname(os.path.abspath(path)))


def _fmt(value) -> str:
    """Deterministic CSV cell: shortest round-trip floats, empty for None."""
    if value is None:
        return ""
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_trace(path, queue_trace, gamma_trace, beta_trace, cost_trace):
    """One run's trace CSV ``(slot, q_1..q_r, dist_gamma, dist_beta, inst_cost)``, a column at a time.

    Each path becomes Python floats once and each cell is the float's
    ``repr``, the text ``_fmt`` gives it; no such text holds a comma or a
    quote, so ``csv.writer`` would quote none of them. The slot is the row
    index, and ``dist_beta`` is empty without a beta path.
    """
    horizon, r = queue_trace.shape
    header = ["slot", *(f"q_{j + 1}" for j in range(r)), "dist_gamma", "dist_beta", "inst_cost"]
    beta = map(repr, beta_trace.tolist()) if beta_trace is not None else itertools.repeat("", horizon)
    columns = [
        map(str, range(horizon)),
        *(map(repr, q) for q in queue_trace.T.tolist()),
        map(repr, gamma_trace.tolist()),
        beta,
        map(repr, cost_trace.tolist()),
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *map(",".join, zip(*columns)), ""]))


def _execute_run(args):
    """One (controller, V, seed) simulation without its per-slot paths; its exception if it fails.

    With a ``trace_dir`` the run's trace file is written there first, in the
    task that ran it; then the paths are dropped, so neither the pool's
    pickles nor the collector hold a full-length path per run. A failed write
    is not a failed run: it raises.
    """
    instance, ctrl_kwargs, v, seed, horizon, zeta, trace_dir, gamma_star = args
    try:
        ctrl = ControllerConfig(**{**ctrl_kwargs, "V": v})
        res = run(instance, SimConfig(horizon=horizon, seed=seed, controller=ctrl, zeta=zeta), gamma_star)
    except Exception as exc:  # recorded per run by the collector
        return exc
    if trace_dir is not None:
        path = os.path.join(trace_dir, _trace_name(ctrl_kwargs["kind"], v, seed))
        _write_trace(path, res.queue_trace, res.gamma_trace, res.beta_trace, res.cost_trace)
    res.gamma_trace = res.beta_trace = res.queue_trace = res.cost_trace = None
    return res


def _execute_seed(jobs):
    """Worker entry: one (controller, seed)'s runs, one per V in scenario order.

    The jobs share the instance, seed and horizon, so they sample the same
    states, and OLAC's beta path, learned at V = 1 and scaled by V, is the
    same for every V: the instance keeps the path of the task's first run
    that learns it, and the later runs reuse it.
    """
    return [_execute_run(job) for job in jobs]


def _perturbed_distributions(pi: np.ndarray, count: int, eps: float, seed: int):
    """Random valid distributions within L2 distance eps of pi."""
    rng = np.random.default_rng(seed)
    out = []
    m = pi.size
    while len(out) < count:
        direction = rng.normal(size=m)
        direction -= direction.mean()
        norm = np.linalg.norm(direction)
        if norm < 1e-12:
            continue
        cand = pi + (eps * rng.random()) * direction / norm
        cand = np.maximum(cand, 0.0)
        s = cand.sum()
        if s <= 0:
            continue
        cand /= s
        if np.linalg.norm(cand - pi) <= eps:
            out.append(cand)
    return out


def _oracle_columns(r: int) -> list[str]:
    return ORACLE_COLUMNS_BASE + [f"gamma_star_{j + 1}" for j in range(r)] + ORACLE_COLUMNS_TAIL


def _oracle_row(ana: dual.InstanceAnalysis, instance: NetworkInstance, min_slack=None) -> list:
    return [ana.V, ana.f_av_star, ana.g_star, *(ana.gamma_star[j] for j in range(instance.r)),
            ana.eta_0, ana.rho_hat, ana.D_p, ana.eta, instance.B, instance.f_max, min_slack]


def _summary_columns(r: int) -> list[str]:
    return [*SUMMARY_COLUMNS_BASE, *(f"delivered_rate_{j + 1}" for j in range(r)),
            *(f"dropped_{j + 1}" for j in range(r)), *SUMMARY_COLUMNS_TAIL]


def _summary_row(label, v, seed, horizon, res: RunResult, r: int) -> list:
    return [label, v, seed, horizon, res.avg_cost, res.avg_backlog, res.delay.mean_delay,
            *(res.delay.delivered_rate[j] for j in range(r)), *(res.dropped[j] for j in range(r)),
            res.t_zeta_first, res.t_zeta_sustained, float(res.dropped.sum()), res.t_learn, res.solver_flagged_slots]


def run_scenario(scenario: Scenario, out_dir=None, workers=None, trace=None) -> dict:
    """Execute the sweep; returns the manifest dict (also written to disk).

    Oracles (gamma*, f*, eta_0, rho_hat, D_p) are computed once per V in the
    parent process; the V-independent policy and slack LPs are solved once,
    and the instance keeps them (``dual.instance_store``), so the learners
    read the oracle's eta_0. The runs are grouped into one task per
    (controller, seed), which runs that seed's V values in scenario order:
    OLAC's beta path does not depend on V, so it is learned in the task's
    first run that succeeds, kept with the instance and scaled by V in the
    others. Tasks execute in a pool of min(workers, tasks) processes when
    that is more than one; each task then unpickles an instance of its own,
    whose learners solve the slack LP again. With traces, each run's trace
    file is written by the task that ran it, right after the run, and no run
    hands its per-slot paths back. A single collector writes the other
    outputs, the manifest in (controller, V, seed) order and summary.csv
    sorted by it. A run that raises is recorded in the manifest (status
    "error", counted in "failed") and the other runs' outputs are still
    written; a failed output write raises.
    """
    out_dir = out_dir or scenario.out_dir or os.environ.get(OUT_DIR_ENV, "out")
    workers = workers if workers is not None else scenario.workers
    trace = scenario.trace if trace is None else trace
    os.makedirs(out_dir, exist_ok=True)
    instance = scenario.instance
    pi = instance.probabilities
    r = instance.r

    # the perturbed distributions do not depend on V: one slack minimum per scenario
    min_slack = None
    if scenario.assumption_check:
        perturbed = _perturbed_distributions(pi, scenario.perturbation_count, scenario.epsilon_s, scenario.rho_seed)
        min_slack = min(dual.max_slack(instance, p) for p in perturbed) if perturbed else None
    analyses = {v: dual.compute_analysis(instance, v, scenario.rho_seed) for v in sorted(scenario.V_values)}
    oracle_rows = [_oracle_row(ana, instance, min_slack) for ana in analyses.values()]
    _write_csv(os.path.join(out_dir, "oracle.csv"), _oracle_columns(r), oracle_rows)

    # auto_Dp takes each V's D_p, and no radius where D_p is undefined (NaN)
    zetas = {v: scenario.zeta if scenario.zeta is not None or math.isnan(ana.D_p) else ana.D_p
             for v, ana in analyses.items()}
    trace_dir = out_dir if trace else None
    tasks = [
        [(instance, ctrl_kwargs, v, seed, scenario.horizon, zetas[v], trace_dir, analyses[v].gamma_star)
         for v in scenario.V_values]
        for ctrl_kwargs in scenario.controllers
        for seed in scenario.seeds
    ]

    manifest = {"runs": [], "failed": 0, "out_dir": os.path.abspath(out_dir)}
    # a fork pool starts all its processes at once, so it gets no more than there are tasks
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_execute_seed, tasks, chunksize=1))
    else:
        outcomes = [_execute_seed(task) for task in tasks]

    # back to (controller, V, seed) order: task i * seeds + s holds its seed's runs in V order
    n_seeds = len(scenario.seeds)
    summary_rows = []
    for i, k, s in itertools.product(range(len(scenario.controllers)), range(len(scenario.V_values)), range(n_seeds)):
        job, res = tasks[i * n_seeds + s][k], outcomes[i * n_seeds + s][k]
        _, ctrl_kwargs, v, seed, horizon, *_ = job
        label = ctrl_kwargs["kind"]
        if isinstance(res, Exception):
            message = f"{type(res).__name__}: {res}"
            manifest["runs"].append({"controller": label, "V": v, "seed": seed, "status": "error", "error": message})
            manifest["failed"] += 1
            continue
        summary_rows.append(_summary_row(label, v, seed, horizon, res, r))
        manifest["runs"].append({"controller": label, "V": v, "seed": seed, "status": "ok"})

    summary_rows.sort(key=lambda row: (row[0], row[1], row[2]))
    _write_csv(os.path.join(out_dir, "summary.csv"), _summary_columns(r), summary_rows)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def emit_plotdata(summary_path, out_dir=None) -> list[str]:
    """Aggregate a summary.csv into per-figure mean/stderr tables."""
    src_dir = os.path.dirname(os.path.abspath(summary_path))
    out_dir = out_dir or src_dir
    with open(summary_path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"summary {summary_path} has no data rows")

    groups: dict[tuple[str, float], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["controller"], float(row["V"])), []).append(row)

    def stats(group, key):
        vals = [float(g[key]) for g in group if g[key] not in ("", "nan")]
        if not vals:
            return None, None
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1) if len(vals) > 1 else 0.0
        return mean, math.sqrt(var / len(vals))

    written = []

    def emit(name, key):
        out_rows = [[ctrl, v, len(groups[ctrl, v]), *stats(groups[ctrl, v], key)] for ctrl, v in sorted(groups)]
        path = os.path.join(out_dir, name)
        _write_csv(path, ["controller", "V", "n_runs", "mean", "stderr"], out_rows)
        written.append(path)

    emit("fig_power_vs_V.csv", "avg_cost")
    emit("fig_delay_vs_V.csv", "mean_delay")
    emit("fig_convergence_vs_V.csv", "T_zeta_first")

    # queue trace analogue: lowest-seed trace file per (controller, V), if present
    trace_rows = []
    for (ctrl, v) in sorted(groups):
        seeds = sorted(int(g["seed"]) for g in groups[(ctrl, v)])
        path = os.path.join(src_dir, _trace_name(ctrl, v, seeds[0]))
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            qcols = sorted((k for k in reader.fieldnames or () if k.startswith("q_")), key=lambda s: int(s[2:]))
            for trow in reader:
                trace_rows.append([ctrl, v, seeds[0], int(trow["slot"]), *(float(trow[k]) for k in qcols),
                                   float(trow["dist_gamma"])])
    qcount = max((len(rw) - 5 for rw in trace_rows), default=0)
    header = ["controller", "V", "seed", "slot"] + [f"q_{j + 1}" for j in range(qcount)] + ["dist_gamma"]
    path = os.path.join(out_dir, "fig_queue_trace.csv")
    _write_csv(path, header, trace_rows)
    written.append(path)
    return written


def _cmd_run(args) -> int:
    try:
        scenario = Scenario.from_file(args.scenario)
        if args.workers is not None:  # the bound of the scenario's workers
            _read_field(args.workers, "--workers", FIELDS["workers"], {})
    except (InstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run_scenario(scenario, out_dir=args.out, workers=args.workers, trace=args.trace or None)
    except Exception as exc:  # an oracle or an output write failed; failed runs are in the manifest
        print(f"error: scenario failed: {exc}", file=sys.stderr)
        return 1
    for entry in manifest["runs"]:
        if entry["status"] != "ok":
            print(f"error: run {entry['controller']} V={entry['V']:g} seed={entry['seed']}: {entry['error']}",
                  file=sys.stderr)
    print(f"wrote {manifest['out_dir']}/summary.csv ({len(manifest['runs'])} runs, {manifest['failed']} failed)")
    return 1 if manifest["failed"] else 0


def _cmd_oracle(args) -> int:
    """Print the oracle.csv row a sweep writes for V, one name and value a line, and xi."""
    desc = {"builtin": args.instance} if args.instance == "two_queue" else {"file": args.instance}
    try:
        if args.channel_dist:
            if "file" in desc:
                raise InstanceError("--channel-dist applies to the builtin instance only")
            desc["channel_dist"] = [float(x) for x in args.channel_dist.split(",")]
        ControllerConfig(KINDS[0], args.V)  # the V a sweep accepts
        instance = _read_field(desc, "instance", FIELDS["instance"], {"base_dir": "."})
    except (OSError, ValueError) as exc:  # InstanceError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        ana = dual.compute_analysis(instance, args.V)
    except Exception as exc:  # an oracle failed, as a sweep's would (say, no feasible policy)
        print(f"error: {args.instance}: {exc}", file=sys.stderr)
        return 1
    row = _oracle_row(ana, instance)
    for name, value in [*zip(_oracle_columns(instance.r), row), ("xi", ana.xi)]:
        print(f"{name:<20}{_fmt(value)}")
    if ana.rho_hat <= 0:
        print("warning: polyhedral decay not numerically confirmed (rho_hat <= 0)")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_csv(os.path.join(args.out, "oracle.csv"), _oracle_columns(instance.r), [row])
    return 0


def _cmd_plotdata(args) -> int:
    try:
        written = emit_plotdata(args.summary, out_dir=args.out)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="olacsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario sweep")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", default=None, help=f"output directory (default ${OUT_DIR_ENV} or ./out)")
    p_run.add_argument("--workers", type=int, default=None, help="parallel run workers")
    p_run.add_argument("--trace", action="store_true", help="write per-run trace CSVs")
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="solve the exact oracles for an instance")
    p_oracle.add_argument("instance", help="instance JSON file, or 'two_queue'")
    p_oracle.add_argument("--V", type=float, required=True)
    p_oracle.add_argument("--channel-dist", default=None, help="comma list for the builtin instance")
    p_oracle.add_argument("--out", default=None, help="also write oracle.csv here")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_plot = sub.add_parser("plotdata", help="aggregate a summary.csv into figure tables")
    p_plot.add_argument("summary", help="summary.csv from a sweep")
    p_plot.add_argument("--out", default=None, help="output directory (default: alongside summary)")
    p_plot.set_defaults(func=_cmd_plotdata)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
