"""The benchmark's tracer wraps functions by name: every name it looks up
must exist, or `bench/run.py --trace 1` fails before it measures anything."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("layer, module, attr, owner", _traced())
def test_traced_name_resolves(layer, module, attr, owner):
    mod = importlib.import_module(module)
    holder = mod if owner is None else getattr(mod, owner)
    assert callable(getattr(holder, attr))


def test_counted_element_exists():
    from qlfd.fields import PrimeField

    assert callable(PrimeField.element)
