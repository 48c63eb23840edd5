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
    "summary.csv": "ffcae9f1afd7d490aaddcb9d3c86f4c292cf5e191304eb0102a37fe5883324d6",
    "trace_Backpressure_V50_seed0.csv": "1f6825d222ae6ec65b99c4a9fda068d5d2b84ff678a530cbf04355b4fa7607b3",
    "trace_Backpressure_V50_seed1.csv": "07101eb2fb0ac615d3ad71049119fb2a7ce79d069d91e7c5c7771f889f8b575b",
    "trace_OLAC2_V50_seed0.csv": "416f907c611261ca8e6c38a3a691c302ed3397b9d2ccfd0549e1ec4c829e6a1e",
    "trace_OLAC2_V50_seed1.csv": "b98eb844bdf6cdd22470656afa005418a9b75476dda75da0519dd90c288efdf6",
    "trace_OLAC_V50_seed0.csv": "8395d4d2a1bc80f06011ffa0e8d51541a3a8ee44d1e3db1b6972249c2c3f97a6",
    "trace_OLAC_V50_seed1.csv": "aefe6bef8a9c5ef372c0f519c16410f2ab852d786c070444dcda446fdf8e80af",
}


# smoke.json with an absolute zeta of 10: OLAC and OLAC2 cross it at slots
# 27, 73 and 116 and stay within for SUSTAIN_WINDOW slots from 73 and 126, so
# the convergence-time columns are exercised; only summary.csv differs
GOLDEN_ZETA_10 = {
    **GOLDEN,
    "summary.csv": "47a3bc3d45bd9543199fd922bc8b53495de56921c444a60a7fd88b9f12122366",
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
