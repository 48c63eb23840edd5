#!/usr/bin/env python3
"""Fast self-test of the benchmark (about half a minute).

    python3 perfbench/selftest.py

Runs every workload at a tiny size with ``--trace 0`` and ``--trace 1`` and
checks that the result line names every metric of BENCHMARK.json with its
unit, that a deliberately broken oracle is counted as failed, and that the
benchmark exits non-zero without a result when the checkout has no ``src/``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import run as bench
from tracing import patched

SELFTEST_OUT = os.path.join(bench.OUT_ROOT, "selftest")


def tiny_result(workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(argv, tiny=True, out_root=SELFTEST_OUT)
    if code != 0:
        raise AssertionError(f"{workload} trace={trace}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metric_names() -> None:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = tiny_result(workload["name"], trace)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                raise AssertionError(f"{workload['name']} trace={trace}: metrics differ: "
                                     f"missing {sorted(set(expected) - set(got))}, "
                                     f"extra {sorted(set(got) - set(expected))}, or units differ")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                raise AssertionError(f"{workload['name']} trace={trace}: not correct: {result}")
            print(f"ok {workload['name']} trace={trace}: {len(got)} metrics, {result['attempted']} attempted")


def check_failure_is_counted() -> None:
    """An oracle whose g_star is off by one breaks the duality checks."""
    olac = bench.Olacsim()
    real = olac.dual.compute_analysis

    def broken(*args, **kwargs):
        ana = real(*args, **kwargs)
        return dataclasses.replace(ana, g_star=ana.g_star + 1.0)

    with patched([(olac.dual, "compute_analysis", broken)]):
        result = tiny_result("delay_table", 0)
    if result["correct"] or result["failed"] < 1 or result["metrics"]["ok_ratio"]["value"] >= 1.0:
        raise AssertionError(f"a failing duality check was not counted: {result}")
    print(f"ok broken oracle counted: {result['failed']} of {result['attempted']} failed")


def check_bare_directory_fails() -> None:
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    bare = os.path.join(SELFTEST_OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    here = os.path.dirname(os.path.abspath(__file__))
    for name in os.listdir(here):
        if name.endswith(".py"):
            shutil.copy(os.path.join(here, name), os.path.join(bare, "perfbench"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "delay_table", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok bare directory: exit {proc.returncode}: {proc.stderr.strip()}")


def main() -> int:
    check_metric_names()
    check_failure_is_counted()
    check_bare_directory_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
