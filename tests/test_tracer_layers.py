"""The benchmark tracer's layers still name callables of the package.

``perfbench/tracer.py`` wraps each (module, attribute path) of its
``LAYERS`` by name, so renaming or deleting a traced callable would break
``perfbench/run.py --trace 1``; this test catches that in the main suite.
Each layer is resolved as ``Tracer.install`` resolves it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from sinegordon.stochastic import _dipole_trajectory

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
    if "." in path:
        # a method is patched on the class that defines it, not inherited
        cls_name, attr = path.split(".")
        owner = getattr(obj, cls_name)
        assert attr in owner.__dict__, name
        obj = owner.__dict__[attr]
    else:
        obj = getattr(obj, path)
    assert callable(obj), name


def test_collect_is_the_fifth_parameter_of_the_dipole_trajectory():
    # the tracer wraps args[4] of _dipole_trajectory as the collect callback
    assert list(inspect.signature(_dipole_trajectory).parameters)[4] == \
        "collect"
