"""scripts/criterion5_offsets.py, the diagnostic behind criterion 5's figures, runs end to end."""
import importlib.util
import os
import re

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "criterion5_offsets.py")
spec = importlib.util.spec_from_file_location("criterion5_offsets", SCRIPT)
criterion5_offsets = importlib.util.module_from_spec(spec)
spec.loader.exec_module(criterion5_offsets)

ROW = re.compile(
    r"^  V=(\S+) theta=(\S+): offset ([+-]\d+\.\d) +empty_q1 (\d+\.\d\d)% +empty_q2 (\d+\.\d\d)% +beta_err (\d+\.\d\d)$"
)


def test_main_prints_one_row_per_v(capsys):
    criterion5_offsets.main(["--horizon", "2000", "--seeds", "0", "--workers", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "second half of 2000 slots, seeds [0], queues start empty:"
    rows = [ROW.match(line) for line in lines[1:]]
    assert len(rows) == 3 and all(rows)
    for row, v in zip(rows, ("100", "400", "1600")):
        assert row.group(1) == v
        assert float(row.group(2)) == round(criterion5_offsets.theta_for(float(v), "default"), 1)
        assert 0.0 <= float(row.group(4)) <= 100.0 and 0.0 <= float(row.group(5)) <= 100.0
