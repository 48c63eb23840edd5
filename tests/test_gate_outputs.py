import csv
import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "gate_outputs.py")
spec = importlib.util.spec_from_file_location("gate_outputs", SCRIPT)
gate_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate_outputs)


def test_writes_every_document_at_each_worker_count(tmp_path):
    assert gate_outputs.main([str(tmp_path)], tiny=True) == 0
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

