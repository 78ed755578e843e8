"""Every name the package exports, and every name the benchmark's span
recorder wraps, must resolve: the recorder looks them up by name on the
module namespaces listed in ``perfbench/spans.py``.  The report attributes
that recorder reads must be there too, and so must those the benchmark's
certificate check (``perfbench/workloads.py``) reads on every certify op."""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

import observkit
from observkit.cardio import CardioParams, build_cardio_model, certify_cardio
from observkit.lti import make_model
from observkit.observability import analyze

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _call_sites() -> list[tuple[str, str]]:
    return [(module, name) for module, names in _spans().CALL_SITES.items()
            for name in names]


@pytest.mark.parametrize("module, name", _call_sites())
def test_span_call_site_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("name", observkit.__all__)
def test_exported_name_resolves(name):
    assert hasattr(observkit, name)


def test_span_attributes_read_the_report():
    # every traced analyze span reads the report's RK4 cross-check
    table = build_cardio_model(CardioParams(1.0, 0.5, 2.0))
    consistent, discrepancy = _spans()._report_attrs((), {}, analyze(table, 1.0)).values()
    assert consistent is True and math.isfinite(discrepancy) and discrepancy < 1e-9


def test_benchmark_certificate_check_passes_every_certify_case(monkeypatch):
    # the certify workload's own check, on ten cycles of its cases, in-process.
    # That check lets an inconsistent report pass as indeterminate, so the
    # construction is asserted here too: a case built unobservable (a
    # zero-stiffness table, a model hidden from r) fails both tests, and a
    # grid table passes both
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inputs, workloads = (importlib.import_module(name) for name in ("inputs", "workloads"))
    for case in (case for seed in range(1, 11) for case in inputs.certify_mix(seed)):
        if case.cardio is not None:
            report = certify_cardio(CardioParams(*case.cardio), inputs.HORIZON)
        else:
            report = analyze(make_model(case.a, case.b, case.c), inputs.HORIZON)
        out = workloads.check_certificate(case, report, workloads.Outcome(0.0))
        assert out.problem is None or out.known, out.problem
        if not case.expect_observable or case.cardio is not None:
            verdicts = (report.kalman_observable, report.gramian_observable)
            assert verdicts == (case.expect_observable,) * 2, case.label
