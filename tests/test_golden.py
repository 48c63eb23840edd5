"""Golden outputs: the smoke scenario's CSVs must not move by a single byte.

The hashes below are of the CSVs that `olacsim run scenarios/smoke.json`
writes, recorded with numpy 2.4 on x86-64. A refactor that claims
byte-identical results keeps them; a change that moves results on purpose
says so and records new hashes. On a mismatch, compare a sweep of the parent
commit with one of the change cell by cell:

    python3 scripts/compare_outputs.py OUT_PARENT OUT_CHANGE
"""
import hashlib
import json
import os

from olacsim.cli import Scenario, run_scenario

SMOKE = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "smoke.json")

GOLDEN = {
    "oracle.csv": "92caf14302d732ca294c1edcd2bf3e43155cc90c1ba0a3f04591513ddea5261d",
    "summary.csv": "aff2e961289d30b1107f7f0eb9c16ef0c4b4cfdf10a65a690d64c5fbf3ac6de7",
    "trace_Backpressure_V50_seed0.csv": "1f6825d222ae6ec65b99c4a9fda068d5d2b84ff678a530cbf04355b4fa7607b3",
    "trace_Backpressure_V50_seed1.csv": "07101eb2fb0ac615d3ad71049119fb2a7ce79d069d91e7c5c7771f889f8b575b",
    "trace_OLAC2_V50_seed0.csv": "416f907c611261ca8e6c38a3a691c302ed3397b9d2ccfd0549e1ec4c829e6a1e",
    "trace_OLAC2_V50_seed1.csv": "b98eb844bdf6cdd22470656afa005418a9b75476dda75da0519dd90c288efdf6",
    "trace_OLAC_V50_seed0.csv": "4e8910386cba9533059812786d62a0768bcb23342917e52df6057a9fb9bbab42",
    "trace_OLAC_V50_seed1.csv": "880b1382aded219546d5fffd2a65fee1d2f6aa7501da6808f2b078afae3e1548",
}


# smoke.json with an absolute zeta of 10: OLAC and OLAC2 cross it at slots
# 15, 47 and 116 and OLAC2 stays within for SUSTAIN_WINDOW slots from 126, so
# the convergence-time columns are exercised; only summary.csv differs
GOLDEN_ZETA_10 = {
    **GOLDEN,
    "summary.csv": "c29382a0e19a8fc3cb995c2ff28932c1d40941042b2d9982d4f7b311d1dcf912",
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
