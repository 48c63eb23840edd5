"""Golden outputs: the smoke scenarios' CSVs must not move by a single byte.

The hashes below are of the CSVs that `olacsim run scenarios/smoke.json`
and `olacsim run scenarios/three_queue_smoke.json` write, recorded with
numpy 2.4 on x86-64, whose bundled OpenBLAS 0.3.31
ran its SkylakeX kernel. They pin that BLAS kernel as well as the code: with
`OPENBLAS_CORETYPE=Haswell`, `Zen` or `Prescott` the same code writes another
oracle.csv and six other traces (dist_gamma, dist_beta and, in one OLAC2
trace, q_2), while summary.csv holds. In oracle.csv, under Haswell and Zen
gamma_star_1 moves in its last digit and under Prescott f_av_star does;
rho_hat, D_p and eta keep their bits under both Haswell and Prescott, since
the exact decay rate reads gamma_star only through its tie test and makes
no BLAS call. The three-queue hashes were recorded on the same kernel and
carry the same caveat; there summary.csv moves too, in OLAC2's row. A
refactor that claims byte-identical results keeps them; a change that moves
results on purpose says so and records new hashes. On a mismatch, first
rerun on the recording kernel; if that passes, the host's kernel differs,
not the code:

    OPENBLAS_CORETYPE=SkylakeX python3 -m pytest tests/test_golden.py

Otherwise compare a sweep of the parent commit with one of the change, run
on one kernel, cell by cell:

    python3 scripts/compare_outputs.py OUT_PARENT OUT_CHANGE
"""
import ctypes
import glob
import hashlib
import json
import os

import numpy

from olacsim.cli import Scenario, main, run_scenario

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SMOKE = os.path.join(SCENARIOS, "smoke.json")
THREE_QUEUE_SMOKE = os.path.join(SCENARIOS, "three_queue_smoke.json")

GOLDEN = {
    "oracle.csv": "819a9d2ab43d434b643fd38e821bedaa9fc124530b41d99a5d487d450f07c081",
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


# three_queue_smoke.json: smoke.json's sweep on the three-queue instance file
GOLDEN_THREE_QUEUE = {
    "oracle.csv": "877e3e9240c9e6641030d57901fae769f23f375e3459ccfe07f229e529e6bc90",
    "summary.csv": "56511366267d62c6e9164263188d059ec106fd3ebdd855741c1e735659c52f8c",
    "trace_Backpressure_V50_seed0.csv": "227457d4fd92336c905b6008f115631a3b1092212b89b0b65074c0f992b22749",
    "trace_Backpressure_V50_seed1.csv": "c2be5a2782f021055428f0aeb32d4e9cfa0d5a9714ca986b634f16f05faa8538",
    "trace_OLAC2_V50_seed0.csv": "b07e1c6b1bef45d4d7a1ba81594ca8b4a063e7769c15a4f745c8518e6e7b02e3",
    "trace_OLAC2_V50_seed1.csv": "9bd50e2cbd59473ace68cd22e153adf4eb162ccb077a869d2847f258421dbd0b",
    "trace_OLAC_V50_seed0.csv": "935c5ed90c0e190ef92c7981169831399802293e87040f29355394b9b96c9bac",
    "trace_OLAC_V50_seed1.csv": "c111c00822e206fc8976bb58052c00b5ac39065104f0fb401a4de597e6744ae4",
}


# the OpenBLAS kernel the hashes were recorded on
RECORDING_CORE = "SkylakeX"


def openblas_core() -> str:
    """The OpenBLAS kernel numpy's bundled library runs here, or "unknown"."""
    try:
        libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
        (path,) = glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        return corename().decode()
    except (OSError, ValueError, AttributeError):
        return "unknown"


def run_smoke(out_dir, zeta=None, path=SMOKE):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if zeta is not None:
        doc["zeta"] = zeta
    manifest = run_scenario(Scenario.from_dict(doc, base_dir=os.path.dirname(path)), out_dir=str(out_dir))
    assert manifest["failed"] == 0
    return out_dir


def assert_written_as_recorded(out_dir, golden):
    written = sorted(name for name in os.listdir(out_dir) if name.endswith(".csv"))
    assert written == sorted(golden)
    for name, expected in golden.items():
        with open(out_dir / name, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == expected, (
            f"{name} differs from its golden hash (OpenBLAS core running: {openblas_core()}, recorded on "
            f"{RECORDING_CORE}); run the scenario at the parent commit and here, then "
            f"`python3 scripts/compare_outputs.py OUT_PARENT OUT_CHANGE` shows the cells that moved"
        )


def test_smoke_csvs_written_as_recorded(tmp_path):
    assert_written_as_recorded(run_smoke(tmp_path), GOLDEN)


def test_smoke_zeta_10_csvs_written_as_recorded(tmp_path):
    assert_written_as_recorded(run_smoke(tmp_path, {"policy": "absolute", "value": 10}), GOLDEN_ZETA_10)


def test_three_queue_smoke_csvs_written_as_recorded(tmp_path):
    assert_written_as_recorded(run_smoke(tmp_path, path=THREE_QUEUE_SMOKE), GOLDEN_THREE_QUEUE)


def test_three_queue_oracle_has_slack_and_decay(capsys):
    assert main(["oracle", os.path.join(SCENARIOS, "instances", "three_queue.json"), "--V", "50"]) == 0
    printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert float(printed["eta_0"]) > 0
    assert float(printed["rho_hat"]) > 0
    assert len({printed[f"gamma_star_{j}"] for j in (1, 2, 3)}) == 3  # the queues' gains differ
