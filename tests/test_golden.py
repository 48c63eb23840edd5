"""Golden outputs: the smoke scenario's CSVs must not move by a single byte.

The hashes below are of the CSVs that `olacsim run scenarios/smoke.json`
writes, recorded with numpy 2.4 on x86-64, whose bundled OpenBLAS 0.3.31
ran its SkylakeX kernel. They pin that BLAS kernel as well as the code: with
`OPENBLAS_CORETYPE=Haswell` or `Prescott` the same code writes another
oracle.csv (rho_hat, D_p, eta and, under Prescott, gamma_star_2 move in
their last digits) and six other traces (dist_gamma, dist_beta and, in one
OLAC2 trace, q_2), while summary.csv holds. A refactor that claims
byte-identical results keeps them; a change that moves results on purpose
says so and records new hashes. On a mismatch, first rerun on the recording
kernel; if that passes, the host's kernel differs, not the code:

    OPENBLAS_CORETYPE=SkylakeX python3 -m pytest tests/test_golden.py

Otherwise compare a sweep of the parent commit with one of the change, run
on one kernel, cell by cell:

    python3 scripts/compare_outputs.py OUT_PARENT OUT_CHANGE
"""
import hashlib
import json
import os

from olacsim.cli import Scenario, run_scenario

SMOKE = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "smoke.json")

GOLDEN = {
    "oracle.csv": "d316395960e6ca686b02834e78227e519a5dce325fdfaa1569d2768d26ef78ab",
    "summary.csv": "1ea5ef28e47cf02c2f13d5228b7c0872ffa2bd0e312448f12d67a456924e0d0a",
    "trace_Backpressure_V50_seed0.csv": "cebbf42bec085b6d2a997e39b79088dd0c330b4575584103eafae9232c2c15ed",
    "trace_Backpressure_V50_seed1.csv": "b6db4088a4f63e53312aa12bbac2bd9f34b991c49255ee07051ec7311b98c752",
    "trace_OLAC2_V50_seed0.csv": "81d7c8bb1d3a3e72ec9ff0cfbf3a1196c2f588155f3a9ab26b55f2b81f68ba5a",
    "trace_OLAC2_V50_seed1.csv": "456b9b0c4ea457a8e8dc08e4c933f325161bfa46cdda73d41e73786352d8bc16",
    "trace_OLAC_V50_seed0.csv": "20c9b27410e4e9f0cd7260705d7d0b09e86fe28aa0aec894d595afadb726c4b9",
    "trace_OLAC_V50_seed1.csv": "0fb8164df803e855fb580c07dcc5e95a8339db54541e50205bd21a9ea09f0bfe",
}


# smoke.json with an absolute zeta of 10: OLAC and OLAC2 cross it at slots
# 15, 47 and 134 and OLAC2 stays within for SUSTAIN_WINDOW slots from 134, so
# the convergence-time columns are exercised; only summary.csv differs
GOLDEN_ZETA_10 = {
    **GOLDEN,
    "summary.csv": "e27b5c7b7591622e7e8df827fa43d2e78526c0e402a2fd61c29dcd76e649172b",
}


def run_smoke(out_dir, zeta=None):
    with open(SMOKE, encoding="utf-8") as fh:
        doc = json.load(fh)
    if zeta is not None:
        doc["zeta"] = zeta
    run_scenario(Scenario.from_dict(doc), out_dir=str(out_dir))
    return out_dir


def assert_written_as_recorded(out_dir, golden):
    written = sorted(name for name in os.listdir(out_dir) if name.endswith(".csv"))
    assert written == sorted(golden)
    for name, expected in golden.items():
        with open(out_dir / name, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == expected, (
            f"{name} differs from its golden hash; run scenarios/smoke.json at the parent commit and "
            f"here, then `python3 scripts/compare_outputs.py OUT_PARENT OUT_CHANGE` shows the cells that moved"
        )


def test_smoke_csvs_written_as_recorded(tmp_path):
    assert_written_as_recorded(run_smoke(tmp_path), GOLDEN)


def test_smoke_zeta_10_csvs_written_as_recorded(tmp_path):
    assert_written_as_recorded(run_smoke(tmp_path, {"policy": "absolute", "value": 10}), GOLDEN_ZETA_10)
