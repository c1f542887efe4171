"""The benchmark's traced passes wrap every function named in
``perfbench/layers.json``; each name must resolve in its earlab module, or
the traced passes crash."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.json"


def test_every_traced_layer_function_exists():
    layers = json.loads(LAYERS.read_text(encoding="utf-8"))["layers"]
    names = [fn for layer in layers for fn in layer["functions"]]
    assert names
    for name in names:
        module, func = name.split(".")
        assert callable(getattr(importlib.import_module(f"earlab.{module}"), func, None)), name
