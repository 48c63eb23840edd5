#!/usr/bin/env python3
"""Write the sweep outputs that a change must leave byte-identical.

    python3 scripts/gate_outputs.py OUT_DIR [--coretype NAME] [--tiny]

Runs ``scenarios/smoke.json``, ``scenarios/three_queue_smoke.json`` (the
three-queue instance file), ``three_queue_check`` (the three-queue scenario
with the assumption check on, 20 perturbed slack LPs at r = 3) and
perfbench's ``delay_table`` and ``assumption_sweep`` documents
(``Workload.document(7)`` with ``"trace": true``) through
``olacsim.cli.run_scenario`` at workers 1 and 2, into
``OUT_DIR/<name>_w<k>``. The olacsim that runs is the one under this
checkout's ``src/``.

Write each side into its own directory and compare the two directory by
directory: ``scripts/compare_outputs.py`` compares every CSV cell by cell
and ``manifest.json`` apart from the ``out_dir`` it records, and ``cmp``
compares the CSVs byte for byte:

    (cd parent && python3 scripts/gate_outputs.py ../gate/parent)
    (cd change && python3 scripts/gate_outputs.py ../gate/change)
    python3 change/scripts/compare_outputs.py gate/parent/smoke_w1 gate/change/smoke_w1 --rtol 0 --atol 0
    cmp gate/parent/smoke_w1/summary.csv gate/change/smoke_w1/summary.csv

The outputs depend on the OpenBLAS kernel as well as the code. With
``--coretype NAME`` the script runs again in a child process whose
environment alone has ``OPENBLAS_CORETYPE=NAME``, so that OpenBLAS loads
that kernel there; run each side under each kernel the gate covers:

    (cd parent && python3 scripts/gate_outputs.py ../gate/parent_haswell --coretype Haswell)

A child that fails is reported with its exit code. ``--tiny`` runs
perfbench's documents at their tiny size: a check of the script itself,
not a gate.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SCENARIOS = {name: os.path.join(ROOT, "scenarios", f"{name}.json") for name in ("smoke", "three_queue_smoke")}
SEED = 7
WORKERS = (1, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir")
    parser.add_argument("--coretype", metavar="NAME", help="run in a child process with OPENBLAS_CORETYPE=NAME")
    parser.add_argument("--tiny", action="store_true", help="perfbench's documents at their tiny size")
    args = parser.parse_args(argv)
    out_root = args.out_dir
    if args.coretype is not None:
        child = [sys.executable, os.path.abspath(__file__), out_root] + (["--tiny"] if args.tiny else [])
        code = subprocess.run(child, env={**os.environ, "OPENBLAS_CORETYPE": args.coretype}).returncode
        if code:
            print(f"gate under OPENBLAS_CORETYPE={args.coretype} failed: exit code {code}", file=sys.stderr)
        return 1 if code else 0
    sys.path.insert(0, PERFBENCH)
    try:
        import run as bench
    finally:
        sys.path.remove(PERFBENCH)
    cli = bench.Olacsim().cli  # imports olacsim from this checkout's src/, or fails
    scenarios = {name: cli.Scenario.from_file(path) for name, path in SCENARIOS.items()}
    # loaded again, so that it starts on an instance without derived results
    scenarios["three_queue_check"] = dataclasses.replace(
        cli.Scenario.from_file(SCENARIOS["three_queue_smoke"]), assumption_check=True, perturbation_count=20
    )
    for name, workload in bench.WORKLOADS.items():
        scenarios[name] = cli.Scenario.from_dict({**workload.document(SEED, tiny=args.tiny), "trace": True})
    failed = 0
    for name, scenario in scenarios.items():
        for k in WORKERS:
            out_dir = os.path.join(out_root, f"{name}_w{k}")
            manifest = cli.run_scenario(scenario, out_dir=out_dir, workers=k)
            failed += manifest["failed"]
            print(f"{out_dir}: {manifest['failed']} failed runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
