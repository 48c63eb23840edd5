#!/usr/bin/env python3
"""Sweep benchmark for olacsim.

    python3 perfbench/run.py --workload delay_table --seed 1 --seconds 55 --trace 0

Generates a scenario document from ``--workload`` and ``--seed``, then
drives ``olacsim.cli.Scenario.from_dict`` + ``run_scenario`` (one process,
``workers=1``) on it again and again until ``--seconds`` are used. Every
sweep's outputs are checked; every repeat must reproduce the first sweep's
``summary.csv`` and ``oracle.csv`` byte for byte. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. The only
timers are around whole sweeps and around each ``sim.run`` call, where a
host-speed probe also runs (``hostspeed.py``); times are in reference
seconds. ``--trace 1`` spends half the time on untraced sweeps and half on
traced ones (``tracing.py``), and reports the per-layer metrics plus the
tracing overhead (traced minus untraced median ``sweep_s``).

olacsim is imported from the ``src/`` directory next to this one, never from
an installed copy. Outputs go to ``.perfbench_out/`` in the same checkout.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext

from hostspeed import HostProbe
from tracing import CONTROLLERS, PROBE, RUN_SCENARIO, SCENARIO_LOAD, Tracer, patched

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

UNIFORM = (0.25, 0.25, 0.25, 0.25)
UNBALANCED = (0.1, 0.4, 0.4, 0.1)

# Sizes used by the self-test: enough to exercise every layer, a few seconds a sweep.
TINY_HORIZON = 1000


class BenchError(RuntimeError):
    pass


@dataclasses.dataclass(frozen=True)
class Workload:
    """A scenario shape; the run seeds and rho_seed come from ``--seed``.

    Every workload runs all three controllers and a few perturbed slack LPs at
    least, so that every metric exists on every workload; BENCHMARK.json says
    which layer each one loads.
    """

    name: str
    channel: tuple
    v_values: tuple
    horizon: int
    seeds_per_sweep: int
    perturbations: int
    trace: bool

    def document(self, seed: int, tiny: bool = False) -> dict:
        rng = random.Random(seed)
        k = 1 if tiny else self.seeds_per_sweep
        return {
            "instance": {"builtin": "two_queue", "channel_dist": list(self.channel)},
            "controllers": [{"kind": kind} for kind in CONTROLLERS],
            "V_values": list(self.v_values),
            "seeds": rng.sample(range(2**31), k),
            "horizon": TINY_HORIZON if tiny else self.horizon,
            "zeta": {"policy": "auto_Dp"},
            "metric_sample_period": 100,
            "trace": self.trace,
            "assumption_check": True,
            "perturbation_count": 1 if tiny else self.perturbations,
            "epsilon_s": 0.05,
            "workers": 1,
            "rho_seed": rng.randrange(2**31),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("delay_table", UNIFORM, (100,), horizon=5000, seeds_per_sweep=10, perturbations=2, trace=False),
        Workload("assumption_sweep", UNBALANCED, (20, 50, 100, 200), horizon=2500, seeds_per_sweep=6,
                 perturbations=5, trace=True),
    )
}


# -- environment ---------------------------------------------------------------


class Olacsim:
    """The olacsim modules of this checkout."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "olacsim", "__init__.py")):
            raise BenchError(f"no olacsim package under {SRC}; run from a full checkout")
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        self.package = importlib.import_module("olacsim")
        where = os.path.dirname(os.path.abspath(self.package.__file__))
        if where != os.path.join(SRC, "olacsim"):
            raise BenchError(f"olacsim imported from {where}, not from {SRC}")
        for name in ("cli", "sim", "dual", "learning", "controllers", "queueing"):
            setattr(self, name, importlib.import_module(f"olacsim.{name}"))


def _git_rev() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(olac: Olacsim) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "olacsim_file": olac.package.__file__,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": _git_rev(),
    }


# -- one sweep -----------------------------------------------------------------


class RunTimer:
    """Stands in for ``olacsim.cli.run``: times each whole run, never a slot.

    A host-speed probe sample precedes every run, so each run lies between
    two samples.
    """

    def __init__(self, inner, sample):
        self.inner = inner
        self.sample = sample  # probe.sample, or a traced wrapper of it
        self.first_probe = None
        self.runs: list[tuple] = []  # (kind, V, seed, slots, host seconds, probe index)

    def __call__(self, instance, cfg, gamma_star):
        index = self.sample()
        if self.first_probe is None:
            self.first_probe = index
        start = time.perf_counter()
        result = self.inner(instance, cfg, gamma_star)
        elapsed = time.perf_counter() - start
        self.runs.append((cfg.controller.kind, cfg.controller.V, cfg.seed, cfg.horizon, elapsed, index))
        return result


@dataclasses.dataclass
class Sweep:
    sweep_s: float  # reference seconds (hostspeed.py)
    setup_s: float | None
    sweep_host_s: float  # the same spans in host seconds
    setup_host_s: float | None
    probe_s: float  # median probe time: the host's speed during the sweep
    run_times: list  # (kind, V, seed, slots, host seconds, reference seconds)
    runs: int
    failed_runs: int
    checks: list  # (name, ok)
    hashes: dict
    layers: dict | None = None


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(cell) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def check_outputs(doc: dict, out_dir: str) -> list[tuple[str, bool]]:
    """Checks on one sweep's files: counts, finiteness, duality, trace files."""
    checks = []
    summary = _read_csv(os.path.join(out_dir, "summary.csv"))
    oracle = _read_csv(os.path.join(out_dir, "oracle.csv"))
    n_runs = len(doc["controllers"]) * len(doc["V_values"]) * len(doc["seeds"])
    checks.append(("summary_rows", len(summary) == n_runs))
    checks.append(("oracle_rows", len(oracle) == len(set(doc["V_values"]))))
    numeric = [k for k in (summary[0] if summary else {}) if k.startswith(("avg_", "mean_", "delivered_", "dropped"))]
    checks.append(("summary_finite", bool(summary) and all(_finite(r[k]) for r in summary for k in numeric)))
    for row in oracle:
        v, f_star, g_star = float(row["V"]), float(row["f_av_star"]), float(row["g_star"])
        gammas = [row[k] for k in row if k.startswith("gamma_star_")]
        finite = all(_finite(x) for x in [v, f_star, g_star, *gammas])
        checks.append((f"oracle_finite@V{v:g}", finite))
        # criterion-1 tolerances
        checks.append((f"strong_duality@V{v:g}", finite and abs(g_star / v - f_star) / max(1.0, f_star) <= 1e-6))
        checks.append((f"weak_duality@V{v:g}", finite and g_star <= v * f_star + 1e-9))
    if doc["trace"]:
        for row in summary:
            path = os.path.join(out_dir, f"trace_{row['controller']}_V{float(row['V']):g}_seed{row['seed']}.csv")
            ok = os.path.exists(path) and len(_read_csv(path)) == doc["horizon"]
            checks.append((f"trace_rows:{os.path.basename(path)}", ok))
    return checks


def run_sweep(olac: Olacsim, doc: dict, out_dir: str, tracer: Tracer | None = None) -> Sweep:
    shutil.rmtree(out_dir, ignore_errors=True)
    n_runs = len(doc["controllers"]) * len(doc["V_values"]) * len(doc["seeds"])
    probe = HostProbe()
    load, sweep, sample = olac.cli.Scenario.from_dict, olac.cli.run_scenario, probe.sample
    if tracer is not None:
        load, sweep = tracer.wrap(SCENARIO_LOAD, load), tracer.wrap(RUN_SCENARIO, sweep)
        sample = tracer.wrap(PROBE, sample)  # keeps probe time out of every span's self time
    manifest = None
    with tracer.installed(olac) if tracer else nullcontext():
        timer = RunTimer(olac.cli.run, sample)
        with patched([(olac.cli, "run", timer)]):
            probe.sample()
            try:
                manifest = sweep(load(doc), out_dir=out_dir, workers=1)
            except Exception:  # a failing sweep is counted, and the benchmark goes on
                traceback.print_exc(file=sys.stderr)
            last = probe.sample()
    sweep_host_s, sweep_s = probe.between(0, last)
    setup_host_s, setup_s = probe.between(0, timer.first_probe) if timer.first_probe is not None else (None, None)
    result = Sweep(
        sweep_s=sweep_s,
        setup_s=setup_s,
        sweep_host_s=sweep_host_s,
        setup_host_s=setup_host_s,
        probe_s=statistics.median(end - begin for begin, end in probe.samples),
        run_times=[(*r[:5], r[4] * probe.scale(r[5])) for r in timer.runs],
        runs=n_runs,
        failed_runs=n_runs,
        checks=[],
        hashes={},
    )
    if manifest is not None:
        result.failed_runs = n_runs - sum(1 for r in manifest["runs"] if r["status"] == "ok")
        try:
            result.checks = check_outputs(doc, out_dir)
            result.hashes = {name: _sha256(os.path.join(out_dir, name)) for name in ("summary.csv", "oracle.csv")}
        except (OSError, KeyError, ValueError) as exc:
            result.checks.append((f"outputs_readable: {exc}", False))
    if tracer is not None:
        # span times in reference seconds too, at the sweep's mean host speed
        scale = sweep_s / sweep_host_s
        result.layers = {k: v * scale if k.endswith("_s") else v for k, v in tracer.layer_metrics().items()}
    return result


# -- metrics -------------------------------------------------------------------


def quality_metrics(doc: dict, out_dir: str) -> dict:
    """Deterministic result figures of one sweep (identical across repeats)."""
    summary = _read_csv(os.path.join(out_dir, "summary.csv"))
    f_star = {float(r["V"]): float(r["f_av_star"]) for r in _read_csv(os.path.join(out_dir, "oracle.csv"))}
    costs, delays = {}, {}
    for row in summary:
        key = (row["controller"], float(row["V"]))
        costs.setdefault(key, []).append(float(row["avg_cost"]))
        delays.setdefault(key, []).append(float(row["mean_delay"]))
    gap = max(abs(statistics.fmean(c) - f_star[v]) / f_star[v] for (_, v), c in costs.items())
    out = {"fstar_cost_ratio": 1.0 + gap}
    # Per V the median over seeds, not the mean: on the uniform channel about
    # one OLAC run in twelve learns badly early and ends near 63 slots, not 22.
    for kind in ("OLAC", "OLAC2"):
        out[f"delay_slots.{kind}"] = statistics.fmean(
            statistics.median(d) for (k, _), d in delays.items() if k == kind
        )
    return out


def measure(olac: Olacsim, doc: dict, out_dir: str, deadline: float, at_least: int,
            tracer_factory=None) -> list[Sweep]:
    """Repeat the sweep until the next one would end past ``deadline``."""
    sweeps = []
    while len(sweeps) < at_least or time.perf_counter() + statistics.median(
        s.sweep_host_s for s in sweeps
    ) <= deadline:
        sweeps.append(run_sweep(olac, doc, out_dir, tracer_factory() if tracer_factory else None))
    return sweeps


def slots_per_s(sweeps: list[Sweep], kind: str, field: int = 5) -> float:
    """Slots of one sweep over the summed per-run median seconds.

    Each (V, seed) run repeats once per sweep; taking each run's median over
    the repeats keeps a burst of host load during one repeat out of the figure.
    ``field`` 5 uses reference seconds, 4 host seconds.
    """
    times, slots = {}, {}
    for s in sweeps:
        for run in s.run_times:
            if run[0] == kind:
                times.setdefault(run[1:3], []).append(run[field])
                slots[run[1:3]] = run[3]
    if not times:
        return math.nan
    return sum(slots.values()) / sum(statistics.median(t) for t in times.values())


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else math.nan


def main(argv=None, tiny: bool = False, out_root: str = OUT_ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        olac = Olacsim()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    doc = workload.document(args.seed, tiny=tiny)
    out_dir = os.path.join(out_root, workload.name, "sweep")
    start = time.perf_counter()
    if args.trace:
        tracers = []

        def new_tracer():
            tracers.append(Tracer())
            return tracers[-1]

        plain = measure(olac, doc, out_dir, start + args.seconds / 2, at_least=1)
        traced = measure(olac, doc, out_dir, start + args.seconds, at_least=1, tracer_factory=new_tracer)
        sweeps = plain + traced
    else:
        # two sweeps at least, so that every run compares its outputs with a repeat
        sweeps = measure(olac, doc, out_dir, start + args.seconds, at_least=2)

    reference = next((s.hashes for s in sweeps if s.hashes), {})
    for s in sweeps[1:]:
        s.checks.append(("repeat_identical_outputs", bool(s.hashes) and s.hashes == reference))
    attempted = sum(s.runs + len(s.checks) for s in sweeps)
    failed = sum(s.failed_runs + sum(not ok for _, ok in s.checks) for s in sweeps)
    failures = sorted({name for s in sweeps for name, ok in s.checks if not ok})

    info = {"workload": workload.name, "seed": args.seed, "sweeps": len(sweeps), "scenario": doc,
            "hashes": reference, "failed_checks": failures, "environment": environment(olac)}
    if args.trace:
        layer_names = traced[0].layers.keys()
        metrics = {name: _median(s.layers[name] for s in traced) for name in layer_names}
        metrics["bench.trace_overhead_s"] = _median(s.sweep_s for s in traced) - _median(s.sweep_s for s in plain)
        info["spans"] = Tracer.merged(tracers).span_table()
    else:
        metrics = {
            "setup_s": _median(s.setup_s for s in sweeps),
            "sweep_s": _median(s.sweep_s for s in sweeps),
            **{f"slots_per_s.{k}": slots_per_s(sweeps, k) for k in CONTROLLERS},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        try:
            metrics.update(quality_metrics(doc, out_dir))
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            print(f"error: cannot read sweep outputs: {exc}", file=sys.stderr)
            failed += 1
        metrics["ok_ratio"] = 1.0 - failed / attempted
        info["fstar_gap_pct"] = 100.0 * (metrics.get("fstar_cost_ratio", math.nan) - 1.0)
        info["host_seconds"] = {
            "probe_s": _median(s.probe_s for s in sweeps),
            "setup_s": _median(s.setup_host_s for s in sweeps),
            "sweep_s": _median(s.sweep_host_s for s in sweeps),
            **{f"slots_per_s.{k}": slots_per_s(sweeps, k, field=4) for k in CONTROLLERS},
        }

    os.makedirs(os.path.dirname(out_dir), exist_ok=True)
    report = os.path.join(os.path.dirname(out_dir), f"report_seed{args.seed}_trace{args.trace}.json")
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({**info, "metrics": metrics, "per_sweep": [dataclasses.asdict(s) for s in sweeps]},
                  fh, indent=1, default=str)

    units = _units()
    print("# environment " + json.dumps(info["environment"], sort_keys=True))
    print("# hashes " + json.dumps(reference, sort_keys=True))
    if "host_seconds" in info:
        print("# host seconds " + json.dumps(info["host_seconds"], sort_keys=True))
    if failures:
        print("# failed checks " + json.dumps(failures), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }))
    return 0


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
