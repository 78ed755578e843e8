"""Every name the package exports, and every name the benchmark's span
recorder wraps, must resolve: the recorder looks them up by name on the
module namespaces listed in ``perfbench/spans.py``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import observkit

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _call_sites() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, name) for module, names in spans.CALL_SITES.items()
            for name in names]


@pytest.mark.parametrize("module, name", _call_sites())
def test_span_call_site_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("name", observkit.__all__)
def test_exported_name_resolves(name):
    assert hasattr(observkit, name)
