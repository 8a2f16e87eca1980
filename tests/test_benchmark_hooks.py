"""The names of the program that the benchmark's tracer hooks must keep existing.

``perfbench/spans.py`` wraps program functions by name; a traced metric whose
hooked name is gone is dropped from the benchmark's result. Renaming or
deleting such a name has to fail here first.
"""

import importlib.util
from pathlib import Path

import acgf.energy
import acgf.meshes

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_metric_finds_the_names_it_hooks():
    spans = load_spans()
    assert spans.absent_metrics({h.span for _, h in spans.hook_targets()}) == []


def test_energy_reaches_the_cell_gradients_through_its_own_module_attribute():
    assert vars(acgf.energy)["bulk_gradient"] is acgf.meshes.bulk_gradient
