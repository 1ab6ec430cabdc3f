"""The functions the benchmark's traced run wraps must exist under their names."""
import importlib
import json
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.json"


def test_every_traced_function_resolves():
    layers = json.loads(LAYERS.read_text(encoding="utf-8"))["layers"]
    assert layers
    for layer in layers:
        home = importlib.import_module(layer["module"])
        for name in layer["functions"]:
            assert callable(getattr(home, name, None)), "%s.%s" % (layer["module"], name)
