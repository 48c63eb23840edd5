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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dual
from .controllers import BACKPRESSURE, KINDS, OLAC, OLAC2, ControllerConfig
from .model import (
    InstanceError, NetworkInstance, build_two_queue_example, load_instance_file, read_int, read_list, read_number,
    read_object,
)
from .sim import RunResult, SimConfig, run

__all__ = ["Scenario", "run_scenario", "emit_plotdata", "main"]

OUT_DIR_ENV = "OLACSIM_OUT"

SUMMARY_COLUMNS_BASE = [
    "controller", "V", "seed", "horizon", "avg_cost", "avg_backlog", "mean_delay",
]
SUMMARY_COLUMNS_TAIL = ["T_zeta_first", "T_zeta_sustained", "dropped_total", "T_l", "solver_flagged_slots"]

ORACLE_COLUMNS_BASE = ["V", "f_av_star", "g_star"]
ORACLE_COLUMNS_TAIL = ["eta_0", "rho_hat", "D_p", "eta", "B", "f_max", "min_perturbed_slack"]

# the keys a controller entry may carry, per kind: a knob of another kind is an error
CONTROLLER_KEYS = {BACKPRESSURE: ("kind",), OLAC: ("kind", "theta"), OLAC2: ("kind", "c")}
SCENARIO_KEYS = (
    "instance", "controllers", "V_values", "seeds", "horizon", "zeta", "out_dir", "trace", "assumption_check",
    "perturbation_count", "epsilon_s", "workers", "rho_seed",
    # accepted and ignored: older documents, and perfbench's generated ones, still carry it
    "metric_sample_period",
)
UNIFORM_CHANNEL = [0.25, 0.25, 0.25, 0.25]


def _flag(doc: dict, field: str) -> bool:
    value = doc.get(field, False)
    if not isinstance(value, bool):
        raise InstanceError(f"{field} must be true or false, got {value!r}")
    return value


def _no_duplicates(values, field: str) -> None:
    """Reject a second entry equal to an earlier one: its runs would repeat, or share a label."""
    seen = set()
    for value in values:
        if value in seen:
            raise InstanceError(f"{field}: duplicate entry {value!r}")
        seen.add(value)


def _v_label(v: float) -> str:
    """V as trace file names write it, ``{v:g}``: V values that differ past six digits share a label."""
    return f"V{v:g}"


def _trace_name(kind: str, v: float, seed: int) -> str:
    return f"trace_{kind}_{_v_label(v)}_seed{seed}.csv"


def _load_instance(desc, base_dir: str = ".") -> NetworkInstance:
    """A scenario's instance, ``{"builtin": "two_queue", "channel_dist": [...]}`` or ``{"file": path}``."""
    if isinstance(desc, dict) and "file" in desc:
        path = read_object(desc, "instance", ("file",))["file"]
        if not isinstance(path, str):
            raise InstanceError(f"instance file must be a path string, got {path!r}")
        return load_instance_file(os.path.join(base_dir, path))
    desc = read_object(desc, "instance", ("builtin", "channel_dist"), ("builtin",))
    if desc["builtin"] != "two_queue":
        raise InstanceError(f"unknown builtin instance {desc['builtin']!r}")
    channel = read_list(desc.get("channel_dist", UNIFORM_CHANNEL), "instance.channel_dist", read_number)
    try:
        return build_two_queue_example(channel)
    except ValueError as exc:
        raise InstanceError(f"builtin two_queue: {exc}") from exc


@dataclass
class Scenario:
    """Validated scenario document."""

    instance: NetworkInstance
    controllers: list[dict]                 # ControllerConfig kwargs without V
    v_values: list[float]
    seeds: list[int]
    horizon: int
    zeta_policy: str = "auto_Dp"            # or "absolute"
    zeta_value: float | None = None
    out_dir: str | None = None
    trace: bool = False
    assumption_check: bool = False
    perturbation_count: int = 100
    epsilon_s: float = 0.05
    workers: int = 1
    rho_seed: int = 0

    @classmethod
    def from_dict(cls, doc: dict, base_dir: str = ".") -> "Scenario":
        doc = read_object(doc, "scenario", SCENARIO_KEYS, SCENARIO_KEYS[:5])
        v_values = read_list(doc["V_values"], "V_values", read_number)
        seeds = read_list(doc["seeds"], "seeds", read_int)
        # compared as numbers: V 10 and 10.0 are one V
        _no_duplicates(v_values, "V_values")
        _no_duplicates(seeds, "seeds")
        # two V values of one label would write one trace file; checked with or
        # without trace, since `olacsim run --trace` turns traces on after load
        labels = {}
        for v in v_values:
            label = _v_label(v)
            if label in labels:
                raise InstanceError(f"V_values: {labels[label]!r} and {v!r} share the trace label {label}")
            labels[label] = v
        horizon = read_int(doc["horizon"], "horizon")
        if horizon < 1:
            raise InstanceError("horizon must be >= 1")
        instance = _load_instance(doc["instance"], base_dir)

        controllers = []
        for entry in read_list(doc["controllers"], "controllers"):
            # the kind first, then the keys of that kind
            kind = read_object(entry, "controller", entry, ("kind",))["kind"]
            if kind not in KINDS:
                raise InstanceError(f"unknown controller kind {kind!r}")
            c = read_object(entry, f"controller {kind}", CONTROLLER_KEYS[kind])
            kwargs = {"kind": kind, "V": 1.0}
            if "c" in c:
                kwargs["c"] = read_number(c["c"], "controller.c")
            if c.get("theta") is not None:
                kwargs["theta"] = np.array(read_list(c["theta"], "controller.theta", read_number))
            # every run's configuration is built here, so a bad knob fails at
            # load, not in a worker after the oracles have run
            try:
                for v in v_values:
                    ControllerConfig(**{**kwargs, "V": v}).resolved_theta(instance.r)
            except (ValueError, ArithmeticError) as exc:
                raise InstanceError(f"controller {kind}: {exc}") from exc
            controllers.append(kwargs)
        # one entry per kind: summary rows and trace files are labelled by kind
        _no_duplicates([c["kind"] for c in controllers], "controllers")

        zeta = read_object(doc.get("zeta", {}), "zeta", ("policy", "value"))
        policy = zeta.get("policy", "auto_Dp")
        if policy not in ("auto_Dp", "absolute"):
            raise InstanceError(f"unknown zeta policy {policy!r}")
        zeta_value = None
        if policy == "absolute":
            zeta_value = read_number(zeta.get("value"), "zeta.value")
            if not 0 < zeta_value < math.inf:
                raise InstanceError(f"zeta value must be positive and finite, got {zeta_value:g}")

        perturbation_count = read_int(doc.get("perturbation_count", 100), "perturbation_count")
        workers = read_int(doc.get("workers", 1), "workers")
        epsilon_s = read_number(doc.get("epsilon_s", 0.05), "epsilon_s")
        out_dir = doc.get("out_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise InstanceError(f"out_dir must be a path string, got {out_dir!r}")
        if min(seeds) < 0:
            raise InstanceError("seeds must be non-negative")
        if workers < 1:
            raise InstanceError("workers must be >= 1")
        if perturbation_count < 0:
            raise InstanceError("perturbation_count must be >= 0")
        # the perturbed draw only ends once a candidate lies within epsilon_s of the
        # true distribution: a negative, zero, NaN or infinite radius can stall it
        if not 0 < epsilon_s < math.inf:
            raise InstanceError(f"epsilon_s must be positive and finite, got {epsilon_s:g}")

        return cls(
            instance=instance,
            controllers=controllers,
            v_values=v_values,
            seeds=seeds,
            horizon=horizon,
            zeta_policy=policy,
            zeta_value=zeta_value,
            out_dir=out_dir,
            trace=_flag(doc, "trace"),
            assumption_check=_flag(doc, "assumption_check"),
            perturbation_count=perturbation_count,
            epsilon_s=epsilon_s,
            workers=workers,
            rho_seed=read_int(doc.get("rho_seed", 0), "rho_seed"),
        )

    @classmethod
    def from_file(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InstanceError(
                    f"parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
                ) from exc
            except UnicodeDecodeError as exc:
                raise InstanceError(f"{path}: not UTF-8 text: {exc}") from None
        return cls.from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))


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
    cols = list(SUMMARY_COLUMNS_BASE)
    cols += [f"delivered_rate_{j + 1}" for j in range(r)]
    cols += [f"dropped_{j + 1}" for j in range(r)]
    cols += SUMMARY_COLUMNS_TAIL
    return cols


def _summary_row(label, v, seed, horizon, res: RunResult, r: int):
    row = [label, v, seed, horizon, res.avg_cost, res.avg_backlog, res.delay.mean_delay]
    row += [res.delay.delivered_rate[j] for j in range(r)]
    row += [res.dropped[j] for j in range(r)]
    row += [
        res.t_zeta_first,
        res.t_zeta_sustained,
        float(res.dropped.sum()),
        res.t_learn,
        res.solver_flagged_slots,
    ]
    return row


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
    analyses = {v: dual.compute_analysis(instance, v, scenario.rho_seed) for v in sorted(scenario.v_values)}
    oracle_rows = [_oracle_row(ana, instance, min_slack) for ana in analyses.values()]
    _write_csv(os.path.join(out_dir, "oracle.csv"), _oracle_columns(r), oracle_rows)

    zetas = {}
    for v, ana in analyses.items():
        zeta = ana.D_p if scenario.zeta_policy == "auto_Dp" else scenario.zeta_value
        zetas[v] = None if zeta is not None and math.isnan(zeta) else zeta
    trace_dir = out_dir if trace else None
    tasks = [
        [(instance, ctrl_kwargs, v, seed, scenario.horizon, zetas[v], trace_dir, analyses[v].gamma_star)
         for v in scenario.v_values]
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
    for i, k, s in itertools.product(range(len(scenario.controllers)), range(len(scenario.v_values)), range(n_seeds)):
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
    out_dir = out_dir or os.path.dirname(os.path.abspath(summary_path)) or "."
    with open(summary_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
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
        if len(vals) > 1:
            var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
            stderr = math.sqrt(var / len(vals))
        else:
            stderr = 0.0
        return mean, stderr

    written = []

    def emit(name, key):
        out_rows = []
        for (ctrl, v) in sorted(groups):
            group = groups[(ctrl, v)]
            mean, stderr = stats(group, key)
            out_rows.append([ctrl, v, len(group), mean, stderr])
        path = os.path.join(out_dir, name)
        _write_csv(path, ["controller", "V", "n_runs", "mean", "stderr"], out_rows)
        written.append(path)

    emit("fig_power_vs_V.csv", "avg_cost")
    emit("fig_delay_vs_V.csv", "mean_delay")
    emit("fig_convergence_vs_V.csv", "T_zeta_first")

    # queue trace analogue: lowest-seed trace file per (controller, V), if present
    trace_rows = []
    src_dir = os.path.dirname(os.path.abspath(summary_path))
    for (ctrl, v) in sorted(groups):
        seeds = sorted(int(g["seed"]) for g in groups[(ctrl, v)])
        path = os.path.join(src_dir, _trace_name(ctrl, v, seeds[0]))
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            qcols = sorted((k for k in reader.fieldnames or () if k.startswith("q_")), key=lambda s: int(s[2:]))
            for trow in reader:
                out = [ctrl, v, seeds[0], int(trow["slot"])]
                out += [float(trow[k]) for k in qcols]
                out.append(float(trow["dist_gamma"]))
                trace_rows.append(out)
    qcount = max((len(rw) - 5 for rw in trace_rows), default=0)
    header = ["controller", "V", "seed", "slot"] + [f"q_{j + 1}" for j in range(qcount)] + ["dist_gamma"]
    path = os.path.join(out_dir, "fig_queue_trace.csv")
    _write_csv(path, header, trace_rows)
    written.append(path)
    return written


def _cmd_run(args) -> int:
    try:
        scenario = Scenario.from_file(args.scenario)
    except (InstanceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
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
        instance = _load_instance(desc)
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
