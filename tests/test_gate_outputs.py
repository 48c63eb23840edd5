import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "gate_outputs.py")
spec = importlib.util.spec_from_file_location("gate_outputs", SCRIPT)
gate_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate_outputs)


def test_writes_every_document_at_each_worker_count(tmp_path):
    assert gate_outputs.main([str(tmp_path)], tiny=True) == 0
    names = ["smoke", "three_queue_smoke", "delay_table", "assumption_sweep"]
    assert sorted(os.listdir(tmp_path)) == sorted(f"{n}_w{k}" for n in names for k in (1, 2))
    for name in names:
        files = [sorted(os.listdir(tmp_path / f"{name}_w{k}")) for k in (1, 2)]
        assert files[0] == files[1]
        assert {"summary.csv", "oracle.csv", "manifest.json"} <= set(files[0])
        assert any(f.startswith("trace_") for f in files[0])

