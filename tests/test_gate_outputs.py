import csv
import importlib.util
import os
import subprocess

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "gate_outputs.py")
spec = importlib.util.spec_from_file_location("gate_outputs", SCRIPT)
gate_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate_outputs)


def test_writes_every_document_at_each_worker_count(tmp_path):
    assert gate_outputs.main([str(tmp_path), "--tiny"]) == 0
    names = ["smoke", "three_queue_smoke", "three_queue_check", "delay_table", "assumption_sweep"]
    assert sorted(os.listdir(tmp_path)) == sorted(f"{n}_w{k}" for n in names for k in (1, 2))
    for name in names:
        files = [sorted(os.listdir(tmp_path / f"{name}_w{k}")) for k in (1, 2)]
        assert files[0] == files[1]
        assert {"summary.csv", "oracle.csv", "manifest.json"} <= set(files[0])
        assert any(f.startswith("trace_") for f in files[0])
    # the assumption check fills min_perturbed_slack; the shipped three-queue scenario leaves it blank
    for name, filled in (("three_queue_smoke", False), ("three_queue_check", True)):
        with open(tmp_path / f"{name}_w1" / "oracle.csv", encoding="utf-8") as fh:
            row = list(csv.DictReader(fh))[0]
        assert (row["min_perturbed_slack"] != "") == filled


def test_coretype_runs_a_child_with_that_kernel(tmp_path):
    # the tiny documents in a child process on the Prescott kernel: the same files as in this process
    assert gate_outputs.main([str(tmp_path / "child"), "--coretype", "Prescott", "--tiny"]) == 0
    assert gate_outputs.main([str(tmp_path / "here"), "--tiny"]) == 0
    for name in sorted(os.listdir(tmp_path / "here")):
        assert sorted(os.listdir(tmp_path / "child" / name)) == sorted(os.listdir(tmp_path / "here" / name))


def test_coretype_sets_the_child_environment_only_and_reports_its_exit_code(tmp_path, monkeypatch, capsys):
    calls = []

    def child(cmd, env):
        calls.append((cmd, env))
        return subprocess.CompletedProcess(cmd, 3)

    monkeypatch.setattr(gate_outputs.subprocess, "run", child)
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    assert gate_outputs.main([str(tmp_path), "--coretype", "Haswell", "--tiny"]) == 1
    ((cmd, env),) = calls
    assert cmd[1:] == [os.path.abspath(SCRIPT), str(tmp_path), "--tiny"]
    assert env["OPENBLAS_CORETYPE"] == "Haswell" and "OPENBLAS_CORETYPE" not in os.environ
    assert "OPENBLAS_CORETYPE=Haswell failed: exit code 3" in capsys.readouterr().err
