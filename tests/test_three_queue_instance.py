"""scripts/three_queue_instance.py writes the shipped three-queue instance byte for byte."""
import importlib.util
import os

from olacsim.model import load_instance_file

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "three_queue_instance.py")
spec = importlib.util.spec_from_file_location("three_queue_instance", SCRIPT)
three_queue_instance = importlib.util.module_from_spec(spec)
spec.loader.exec_module(three_queue_instance)


def test_regenerates_the_shipped_file(tmp_path):
    path = tmp_path / "three_queue.json"
    assert three_queue_instance.main([str(path)]) == 0
    with open(three_queue_instance.DEFAULT_PATH, "rb") as fh:
        assert path.read_bytes() == fh.read()
    instance = load_instance_file(path)
    assert (instance.r, instance.M, instance.costs.shape[1]) == (3, 64, 9)
    assert instance == three_queue_instance.build_three_queue()
