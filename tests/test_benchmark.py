"""The layers that BENCHMARK.json names exist in the package.

A traced benchmark run records spans only for the public functions of
``symentropy``'s modules and the ``GaussianMixture`` kernel methods, and it
fails when a listed layer records nothing it knows.  So every ``per_layer``
metric outside ``trace.*`` must name one of these.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from symentropy.mixtures import GaussianMixture

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
KERNEL_METHODS = ("log_density", "score", "sample")


def _layers():
    spec = json.loads(BENCHMARK.read_text())
    names = (m["name"] for m in spec["per_layer"])
    return sorted({n.rpartition(".")[0] for n in names if not n.startswith("trace.")})


def _is_layer(name):
    module_name, _, attr = name.partition(".")
    if module_name == "mixtures" and attr in KERNEL_METHODS:
        return inspect.isfunction(vars(GaussianMixture).get(attr))
    module = importlib.import_module(f"symentropy.{module_name}")
    fn = getattr(module, attr, None)
    return (
        not attr.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == module.__name__
    )


@pytest.mark.parametrize("layer", _layers())
def test_per_layer_metric_names_a_public_function(layer):
    assert _is_layer(layer), f"{layer} is neither a public function nor a kernel method"
