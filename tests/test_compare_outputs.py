import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "compare_outputs.py")
spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)

SUMMARY = "controller,V,seed,avg_backlog,T_l\nOLAC,100.0,0,{backlog},\nOLAC2,100.0,0,12.5,{t_l}\n"
ORACLE = "V,g_star\n100.0,{g_star}\n"


def write(tmp_path, name, backlog="31.25", t_l="22", g_star="40.123456789012344"):
    d = tmp_path / name
    d.mkdir()
    (d / "summary.csv").write_text(SUMMARY.format(backlog=backlog, t_l=t_l))
    (d / "oracle.csv").write_text(ORACLE.format(g_star=g_star))
    return str(d)


@pytest.mark.parametrize("cells, expected", [
    (("1.5", "1.5"), "identical"),
    (("40.123456789012344", "40.12345678901235"), "within"),
    (("1.0", "1.1"), "different"),
    (("22", "23"), "different"),  # integers get no tolerance
    (("", "1.0"), "different"),
    (("nan", "nan"), "identical"),
    (("nan", "1.0"), "different"),
])
def test_cell_classes(cells, expected):
    assert compare_outputs.compare_cell(*cells, rtol=1e-12)[0] == expected


def test_identical_directories(tmp_path, capsys):
    a, b = write(tmp_path, "a"), write(tmp_path, "b")
    assert compare_outputs.main([a, b]) == 0
    assert "summary.csv: 2 rows, 10 cells, 10 identical" in capsys.readouterr().out


def test_float_within_rtol_reported_per_column(tmp_path, capsys):
    a, b = write(tmp_path, "a"), write(tmp_path, "b", g_star="40.12345678901235")
    assert compare_outputs.main([a, b]) == 1  # no tolerance by default
    assert compare_outputs.main([a, b, "--rtol", "1e-12"]) == 0
    out = capsys.readouterr().out
    assert "g_star: 0 identical, 1 within tolerance, 0 different" in out


@pytest.mark.parametrize("cells, rtol, atol, expected", [
    (("1e-15", "2e-15"), 1e-12, 0.0, "different"),  # relative difference 0.5
    (("1e-15", "2e-15"), 0.0, 1e-14, "within"),
    (("1e-15", "2e-15"), 0.0, 1e-16, "different"),
    (("0.0", "-0.0"), 0.0, 0.0, "within"),
    (("100.0", "100.5"), 0.0, 1e-14, "different"),
    (("22", "23"), 0.0, 10.0, "different"),  # integers get no tolerance
])
def test_absolute_tolerance(cells, rtol, atol, expected):
    assert compare_outputs.compare_cell(*cells, rtol=rtol, atol=atol)[0] == expected


def test_atol_option_reported_with_absolute_difference(tmp_path, capsys):
    a, b = write(tmp_path, "a"), write(tmp_path, "b")
    write_trace(a, q="1e-15")
    write_trace(b, q="3.5e-15")
    assert compare_outputs.main([a, b, "--rtol", "1e-12"]) == 1
    assert compare_outputs.main([a, b, "--rtol", "1e-12", "--atol", "1e-14"]) == 0
    out = capsys.readouterr().out
    assert "q_1: 0 identical, 1 within tolerance, 0 different, max relative difference 0.714, " in out
    assert "max absolute difference 2.5e-15" in out


def test_differences_exit_non_zero(tmp_path, capsys):
    a = write(tmp_path, "a")
    assert compare_outputs.main([a, write(tmp_path, "b", backlog="31.5"), "--rtol", "1e-12"]) == 1
    assert "OLAC avg_backlog: 0 identical, 0 within tolerance, 1 different" in capsys.readouterr().out
    assert compare_outputs.main([a, write(tmp_path, "c", t_l="23"), "--rtol", "0.5"]) == 1


def test_row_count_mismatch(tmp_path, capsys):
    a, b = write(tmp_path, "a"), write(tmp_path, "b")
    with open(os.path.join(b, "summary.csv"), "a") as fh:
        fh.write("Backpressure,100.0,0,3.0,\n")
    assert compare_outputs.main([a, b]) == 1
    assert "2 rows against 3" in capsys.readouterr().out


@pytest.mark.parametrize("row_a, row_b", [("1,2", "1,2,3"), ("1,2,3", "1,2"), ("1,2,3", "1,2,3"), ("1", "1")])
def test_row_length_mismatch(tmp_path, capsys, row_a, row_b):
    # zip stops at the shorter of header and row: the extra or missing cell must still count
    a, b = tmp_path / "a", tmp_path / "b"
    for d, row in ((a, row_a), (b, row_b)):
        d.mkdir()
        (d / "summary.csv").write_text(f"x,y\n1,2\n{row}\n")
        (d / "oracle.csv").write_text(ORACLE.format(g_star="1.0"))
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert f"summary.csv: row 2 has {row_a.count(',') + 1} cells against {row_b.count(',') + 1}, header 2 " in out


def write_trace(d, name="trace_OLAC_V100_seed0.csv", q="0.0"):
    with open(os.path.join(d, name), "w") as fh:
        fh.write(f"slot,q_1\n0,{q}\n")


def test_trace_files_compared(tmp_path, capsys):
    a, b = write(tmp_path, "a"), write(tmp_path, "b")
    write_trace(a)
    write_trace(b)
    assert compare_outputs.main([a, b]) == 0
    assert "trace_OLAC_V100_seed0.csv: 1 rows, 2 cells, 2 identical" in capsys.readouterr().out
    write_trace(b, q="0.5")
    assert compare_outputs.main([a, b]) == 1
    write_trace(b)
    write_trace(a, name="trace_OLAC2_V100_seed0.csv")  # on one side only
    assert compare_outputs.main([a, b]) == 1
    assert f"trace_OLAC2_V100_seed0.csv: missing in {b}" in capsys.readouterr().out


def write_manifest(d, runs=({"V": 100.0, "status": "ok"},), failed=0):
    with open(os.path.join(d, "manifest.json"), "w") as fh:
        json.dump({"failed": failed, "out_dir": os.path.abspath(d), "runs": list(runs)}, fh)


def test_manifests_compared_apart_from_out_dir(tmp_path, capsys):
    a, b = write(tmp_path, "a"), write(tmp_path, "b")
    write_manifest(a)
    write_manifest(b)  # another out_dir
    assert compare_outputs.main([a, b]) == 0
    assert "manifest.json: identical apart from out_dir" in capsys.readouterr().out
    write_manifest(b, runs=[{"V": 100, "status": "ok"}])  # 100 is not 100.0 on disk
    assert compare_outputs.main([a, b]) == 1
    assert "manifest.json: differs in runs" in capsys.readouterr().out
    write_manifest(b, runs=[{"V": 100.0, "status": "error"}], failed=1)
    assert compare_outputs.main([a, b]) == 1
    assert "manifest.json: differs in failed, runs" in capsys.readouterr().out
    os.remove(os.path.join(b, "manifest.json"))  # on one side only
    assert compare_outputs.main([a, b]) == 1
    assert f"manifest.json: missing in {b}" in capsys.readouterr().out
