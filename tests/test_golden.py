"""Golden outputs: the smoke scenario's CSVs must not move by a single byte.

The hashes below are of the CSVs that `olacsim run scenarios/smoke.json`
writes, recorded with numpy 2.4 on x86-64, whose bundled OpenBLAS 0.3.31
ran its SkylakeX kernel. They pin that BLAS kernel as well as the code: with
`OPENBLAS_CORETYPE=Haswell`, `Zen` or `Prescott` the same code writes another
oracle.csv and six other traces (dist_gamma, dist_beta and, in one OLAC2
trace, q_2), while summary.csv holds. In oracle.csv, under Haswell and Zen
gamma_star_1 moves in its last digit, and with it the rho probe's centre, so
rho_hat, D_p and eta move by 1.3e-12 relative; under Prescott only f_av_star
moves, since the probe scores its samples without BLAS. A refactor that claims byte-identical results keeps them; a change
that moves results on purpose says so and records new hashes. On a mismatch, first rerun on the recording
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
    "oracle.csv": "dcfdd53971907498b5e7e78aab7ea557601abe8b92a3d4938329740d6be6985a",
    "summary.csv": "1ea5ef28e47cf02c2f13d5228b7c0872ffa2bd0e312448f12d67a456924e0d0a",
    "trace_Backpressure_V50_seed0.csv": "0d1d16947cd52827bdb6420a55b4bfad6f55a78a2e074707848939db022bfb56",
    "trace_Backpressure_V50_seed1.csv": "ca1e33c3aa3dcb3e1f092f3b6b5e07bfa8bff057755ff4f93986790adcef7ea1",
    "trace_OLAC2_V50_seed0.csv": "3690ff713faca3d114c4fb305c45437b9d78a7f7327fc5cd2770b5d48899f207",
    "trace_OLAC2_V50_seed1.csv": "6b4a32b01f2c884807ab0fe72ea287fa137f6bbeeab640016db56371f185f618",
    "trace_OLAC_V50_seed0.csv": "5dde7642df446bd0ecf1fac0f475f25d453b5e0ee9ebd96c58f99fc5ede8d651",
    "trace_OLAC_V50_seed1.csv": "c88b1f55831aaa793bceb482f328785b39867b52da84f92a2d87eff2fc90d31d",
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
