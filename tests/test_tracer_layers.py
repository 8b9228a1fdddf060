"""The benchmark tracer's layers still name callables of the package.

``perfbench/tracer.py`` wraps each (module, attribute path) of its
``LAYERS`` by name, so renaming or deleting a traced callable would break
``perfbench/run.py --trace 1``; this test catches that in the main suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


LAYERS = _load_layers()


@pytest.mark.parametrize("name, module, path, extra", LAYERS,
                         ids=[layer[0] for layer in LAYERS])
def test_layer_resolves_to_a_callable(name, module, path, extra):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj), name
