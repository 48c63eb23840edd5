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
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import dual
from .controllers import KINDS, ControllerConfig
from .model import InstanceError, NetworkInstance, build_two_queue_example, load_instance_file
from .sim import RunResult, SimConfig, run

__all__ = ["Scenario", "ScenarioError", "run_scenario", "emit_plotdata", "main"]

OUT_DIR_ENV = "OLACSIM_OUT"

SUMMARY_COLUMNS_BASE = [
    "controller", "V", "seed", "horizon", "avg_cost", "avg_backlog", "mean_delay",
]
SUMMARY_COLUMNS_TAIL = ["T_zeta_first", "T_zeta_sustained", "dropped_total", "T_l", "solver_flagged_slots"]

ORACLE_COLUMNS_BASE = ["V", "f_av_star", "g_star"]
ORACLE_COLUMNS_TAIL = ["eta_0", "rho_hat", "D_p", "eta", "B", "f_max", "min_perturbed_slack"]

CONTROLLER_KEYS = ("kind", "c", "theta")
SCENARIO_KEYS = (
    "instance", "controllers", "V_values", "seeds", "horizon", "zeta", "out_dir", "trace", "assumption_check",
    "perturbation_count", "epsilon_s", "workers", "rho_samples", "rho_seed",
)
# accepted and ignored: older documents, and perfbench's generated ones, still carry it
LEGACY_SCENARIO_KEYS = ("metric_sample_period",)


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    """Validated scenario document."""

    instance: NetworkInstance
    instance_desc: dict
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
    rho_samples: int = 512
    rho_seed: int = 0

    @classmethod
    def from_dict(cls, doc: dict, base_dir: str = ".") -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError("scenario document must be an object")
        unknown = [key for key in doc if key not in SCENARIO_KEYS + LEGACY_SCENARIO_KEYS]
        if unknown:
            raise ScenarioError(
                f"unknown scenario key(s) {', '.join(map(repr, unknown))}; accepted: {', '.join(SCENARIO_KEYS)}"
            )
        try:
            inst_desc = doc["instance"]
            controllers_raw = doc["controllers"]
            v_values = [float(v) for v in doc["V_values"]]
            seeds = [int(s) for s in doc["seeds"]]
            horizon = int(doc["horizon"])
        except KeyError as exc:
            raise ScenarioError(f"missing scenario field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed V_values, seeds or horizon: {exc}") from exc
        if not controllers_raw or not v_values or not seeds:
            raise ScenarioError("controllers, V_values and seeds must be non-empty")
        if horizon < 1:
            raise ScenarioError("horizon must be >= 1")

        if "builtin" in inst_desc:
            if inst_desc["builtin"] != "two_queue":
                raise ScenarioError(f"unknown builtin instance {inst_desc['builtin']!r}")
            channel = inst_desc.get("channel_dist", [0.25, 0.25, 0.25, 0.25])
            try:
                instance = build_two_queue_example(channel)
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"builtin two_queue: {exc}") from exc
        elif "file" in inst_desc:
            path = inst_desc["file"]
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            instance = load_instance_file(path)
        else:
            raise ScenarioError("instance must give 'builtin' or 'file'")

        controllers = []
        for c in controllers_raw:
            if not isinstance(c, dict) or "kind" not in c:
                raise ScenarioError("each controller needs a 'kind'")
            if c["kind"] not in KINDS:
                raise ScenarioError(f"unknown controller kind {c['kind']!r}")
            unknown = [key for key in c if key not in CONTROLLER_KEYS]
            if unknown:
                raise ScenarioError(
                    f"controller {c['kind']}: unknown key(s) {', '.join(map(repr, unknown))}; "
                    f"accepted: {', '.join(CONTROLLER_KEYS)}"
                )
            kwargs = {"kind": c["kind"], "V": 1.0}
            if "c" in c:
                kwargs["c"] = c["c"]
            # every run's configuration is built here, so a bad knob fails at
            # load, not in a worker after the oracles have run
            try:
                if c.get("theta") is not None:
                    kwargs["theta"] = np.asarray(c["theta"], dtype=float)
                for v in v_values:
                    ControllerConfig(**{**kwargs, "V": v}).resolved_theta(instance.r)
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise ScenarioError(f"controller {c['kind']}: {exc}") from exc
            controllers.append(kwargs)

        zeta = doc.get("zeta", {"policy": "auto_Dp"})
        if not isinstance(zeta, dict):
            raise ScenarioError("zeta must be an object")
        policy = zeta.get("policy", "auto_Dp")
        if policy not in ("auto_Dp", "absolute"):
            raise ScenarioError(f"unknown zeta policy {policy!r}")
        zeta_value = None
        if policy == "absolute":
            try:
                zeta_value = float(zeta["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ScenarioError(f"zeta policy 'absolute' needs a numeric 'value' ({exc!r})") from exc
            if not 0 < zeta_value < math.inf:
                raise ScenarioError(f"zeta value must be positive and finite, got {zeta_value:g}")

        try:
            perturbation_count = int(doc.get("perturbation_count", 100))
            epsilon_s = float(doc.get("epsilon_s", 0.05))
            workers = int(doc.get("workers", 1))
            rho_samples = int(doc.get("rho_samples", 512))
            rho_seed = int(doc.get("rho_seed", 0))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed sweep field: {exc}") from exc
        if min(seeds) < 0:
            raise ScenarioError("seeds must be non-negative")
        if workers < 1:
            raise ScenarioError("workers must be >= 1")
        if perturbation_count < 0:
            raise ScenarioError("perturbation_count must be >= 0")
        # the perturbed draw only ends once a candidate lies within epsilon_s of the
        # true distribution: a negative, zero, NaN or infinite radius can stall it
        if not 0 < epsilon_s < math.inf:
            raise ScenarioError(f"epsilon_s must be positive and finite, got {epsilon_s:g}")
        if rho_samples < 1:
            raise ScenarioError("rho_samples must be >= 1")

        return cls(
            instance=instance,
            instance_desc=inst_desc,
            controllers=controllers,
            v_values=v_values,
            seeds=seeds,
            horizon=horizon,
            zeta_policy=policy,
            zeta_value=zeta_value,
            out_dir=doc.get("out_dir"),
            trace=bool(doc.get("trace", False)),
            assumption_check=bool(doc.get("assumption_check", False)),
            perturbation_count=perturbation_count,
            epsilon_s=epsilon_s,
            workers=workers,
            rho_samples=rho_samples,
            rho_seed=rho_seed,
        )

    @classmethod
    def from_file(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioError(
                    f"parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
                ) from exc
        return cls.from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def _fmt(value) -> str:
    """Deterministic CSV cell: shortest round-trip floats, empty for None."""
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


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _execute_run(args):
    """Worker entry: one (controller, V, seed) simulation; its exception if it fails.

    Without ``trace`` the per-slot paths are dropped here, so neither the
    pool's pickles nor the collector hold a full-length path per run.
    """
    instance, ctrl_kwargs, v, seed, horizon, zeta, trace, gamma_star, eta_0 = args
    try:
        ctrl = ControllerConfig(**{**ctrl_kwargs, "V": v})
        cfg = SimConfig(horizon=horizon, seed=seed, controller=ctrl, zeta=zeta, eta_0=eta_0)
        res = run(instance, cfg, gamma_star)
    except Exception as exc:  # recorded per run by the collector
        return exc
    if not trace:
        res.gamma_trace = res.beta_trace = res.queue_trace = res.cost_trace = None
    return res


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


def _oracle_row(ana: dual.InstanceAnalysis, r: int, min_slack=None) -> list:
    c = ana.constants
    return [ana.V, ana.f_av_star, ana.g_star, *(ana.gamma_star[j] for j in range(r)),
            ana.eta_0, c.rho_hat, c.D_p, c.eta, c.B, c.f_max, min_slack]


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
        res.metadata.get("T_l"),
        res.solver_flagged_slots,
    ]
    return row


def run_scenario(scenario: Scenario, out_dir=None, workers=None, trace=None) -> dict:
    """Execute the sweep; returns the manifest dict (also written to disk).

    Oracles (gamma*, f*, eta_0, rho_hat, D_p) are computed once per V in the
    parent process, with the V-independent policy and slack LPs solved for
    the first V only; runs execute in a pool of min(workers, runs) processes
    when that is more than one; a single collector writes all outputs sorted
    by (controller, V, seed). A run that raises is recorded in the manifest
    (status "error", counted in "failed") and the other runs' outputs are
    still written. Each run gets the oracle's gamma* and eta_0, so the
    learners do not solve the slack LP again.
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
    analyses: dict[float, dual.InstanceAnalysis] = {}
    solved = None
    for v in sorted(set(scenario.v_values)):
        solved = analyses[v] = dual.compute_analysis(
            instance, pi, v, rho_samples=scenario.rho_samples, rho_seed=scenario.rho_seed, lps_from=solved
        )
    oracle_rows = [_oracle_row(ana, r, min_slack) for ana in analyses.values()]
    _write_csv(os.path.join(out_dir, "oracle.csv"), _oracle_columns(r), oracle_rows)

    jobs = []
    for ctrl_kwargs in scenario.controllers:
        for v in scenario.v_values:
            ana = analyses[v]
            zeta = ana.constants.D_p if scenario.zeta_policy == "auto_Dp" else scenario.zeta_value
            if zeta is not None and math.isnan(zeta):
                zeta = None
            for seed in scenario.seeds:
                jobs.append((instance, ctrl_kwargs, v, seed, scenario.horizon, zeta, trace, ana.gamma_star, ana.eta_0))

    manifest = {"runs": [], "failed": 0, "out_dir": os.path.abspath(out_dir)}
    # a fork pool starts all its processes at once, so it gets no more than there are runs
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_execute_run, jobs, chunksize=1))
    else:
        outcomes = [_execute_run(job) for job in jobs]

    summary_rows = []
    for job, res in zip(jobs, outcomes):
        _, ctrl_kwargs, v, seed, horizon, *_ = job
        label = ctrl_kwargs["kind"]
        if isinstance(res, Exception):
            message = f"{type(res).__name__}: {res}"
            manifest["runs"].append({"controller": label, "V": v, "seed": seed, "status": "error", "error": message})
            manifest["failed"] += 1
            continue
        summary_rows.append(_summary_row(label, v, seed, horizon, res, r))
        manifest["runs"].append({"controller": label, "V": v, "seed": seed, "status": "ok"})
        if trace:
            trace_path = os.path.join(out_dir, f"trace_{label}_V{v:g}_seed{seed}.csv")
            header = ["slot"] + [f"q_{j + 1}" for j in range(r)] + ["dist_gamma", "dist_beta", "inst_cost"]
            beta = res.beta_trace if res.beta_trace is not None else [None] * horizon
            paths = zip(res.queue_trace, res.gamma_trace, beta, res.cost_trace)
            _write_csv(trace_path, header, ([t, *q, g, b, c] for t, (q, g, b, c) in enumerate(paths)))

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
        path = os.path.join(src_dir, f"trace_{ctrl}_V{v:g}_seed{seeds[0]}.csv")
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for trow in csv.DictReader(fh):
                out = [ctrl, v, seeds[0], int(trow["slot"])]
                qcols = [k for k in trow if k.startswith("q_")]
                out += [float(trow[k]) for k in sorted(qcols, key=lambda s: int(s[2:]))]
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
    except (ScenarioError, InstanceError, OSError) as exc:
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


def _load_cli_instance(token: str, channel_dist) -> NetworkInstance:
    if token == "two_queue":
        return build_two_queue_example(channel_dist or [0.25, 0.25, 0.25, 0.25])
    return load_instance_file(token)


def _cmd_oracle(args) -> int:
    try:
        channel = [float(x) for x in args.channel_dist.split(",")] if args.channel_dist else None
        instance = _load_cli_instance(args.instance, channel)
    except (InstanceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pi = instance.probabilities
    ana = dual.compute_analysis(instance, pi, args.V)
    print(f"V            {args.V:g}")
    print(f"f_av_star    {ana.f_av_star!r}")
    print(f"g_star       {ana.g_star!r}")
    print(f"gamma_star   {ana.gamma_star.tolist()!r}")
    print(f"eta_0        {ana.eta_0!r}")
    print(f"rho_hat      {ana.constants.rho_hat!r}")
    print(f"eta          {ana.constants.eta!r}")
    print(f"D_p          {ana.constants.D_p!r}")
    print(f"xi           {ana.xi!r}")
    if ana.constants.rho_hat <= 0:
        print("warning: polyhedral decay not numerically confirmed (rho_hat <= 0)")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_csv(os.path.join(args.out, "oracle.csv"), _oracle_columns(instance.r), [_oracle_row(ana, instance.r)])
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
