"""The traced run: per-layer metrics on a workload's inputs.

It alternates each op untraced and traced (spans recorded, see
``spans.py``), so ``trace.overhead_ratio`` compares the two on the same
ops and the same host conditions.  Commands of the full CLI pipeline that
the workload's own ops do not run are then run once, traced, on the
workload's CLI inputs, so every layer is measured on every workload.
Linalg kernels are timed directly on the workload's matrices.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

import inputs
from common import cold_starts, in_child_seconds, p90
from hostspeed import calibrate
from spans import Recorder
from workloads import run_commands

COLD_REPS = 7
CAL_SAMPLES = 25
KERNEL_REPS = 30
IMPORT_NUMPY = ("import time; t = time.perf_counter(); import numpy; "
                "print(time.perf_counter() - t)")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ms(rec: Recorder, name: str) -> float:
    return _median(rec.durations(name)) * 1e3


def _kernel_us(fn, *args) -> float:
    times = []
    for _ in range(KERNEL_REPS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6


def traced_run(workload, seconds: float, spans_path: Path):
    """Returns (outcomes, per-layer metrics, detail); the spans, kept in
    memory until then, are written to ``spans_path`` at the end."""
    rec = Recorder()
    slices = [calibrate() for _ in range(CAL_SAMPLES)]
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for op in workload.ops():
            plain.append(op(None))
            traced.append(op(rec))
    loop_spans = len(rec.spans)
    done = {s["attrs"].get("label") for s in rec.named("cli.main")}
    sweep = [c for c in workload.commands if c.label not in done]
    if sweep:
        traced.append(run_commands(sweep, workload.workdir, rec))
    outcomes = plain + traced

    slices += [calibrate() for _ in range(CAL_SAMPLES)]
    # per-layer times are wall times; this gives the host speed they were taken at
    m = {"host.calibration_us": _median(slices) * 1e6}
    m.update(_cold_start_metrics())
    labels = dict.fromkeys(c.label for c in workload.commands)
    cli, coverage = _cli_metrics(rec, labels)
    m.update(cli)
    m.update(_fileio_lti_metrics(rec))
    m.update(_observability_metrics(rec, loop_spans, outcomes))
    m.update(_cardio_metrics(rec, workload))
    m.update(_linalg_metrics(workload))
    plain_lat = [o.elapsed for o in plain]
    m["trace.overhead_ratio"] = (sum(o.elapsed for o in traced[:len(plain)])
                                 / sum(plain_lat))
    m["latency_p90_ms"] = p90(plain_lat) * 1e3
    m["latency_samples"] = len(plain_lat)
    m["failed_ratio"] = sum(o.problem is not None for o in outcomes) / len(outcomes)
    spans_path.parent.mkdir(exist_ok=True)
    rec.dump(spans_path)
    return outcomes, m, {"cli.trace_coverage_by_command": coverage,
                         "spans": str(spans_path)}


def _cold_start_metrics() -> dict:
    return {
        "cli.startup_ms": _median(
            cold_starts("import observkit.cli", COLD_REPS)) * 1e3,
        "cli.startup_blas_default_ms": _median(
            cold_starts("import observkit.cli", COLD_REPS, pinned=False)) * 1e3,
        "cli.import_numpy_ms": _median(in_child_seconds(IMPORT_NUMPY, COLD_REPS)) * 1e3,
    }


def _cli_metrics(rec: Recorder, labels) -> tuple[dict, dict]:
    m = {}
    coverage = {}
    roots = [i for i, s in enumerate(rec.spans) if s["name"] == "cli.main"]
    for label in labels:
        mine = [i for i in roots if rec.spans[i]["attrs"].get("label") == label]
        m[f"cli.main_{label}_ms"] = _median(
            rec.spans[i]["end"] - rec.spans[i]["start"] for i in mine) * 1e3
        coverage[label] = _median(rec.coverage(i) for i in mine)
    # the ROADMAP asks for >= 0.9 on every subcommand, so report the worst
    m["cli.trace_coverage"] = min(coverage.values())
    return m, coverage


def _fileio_lti_metrics(rec: Recorder) -> dict:
    files = rec.named("fileio.load_trace") + rec.named("fileio.save_trace")
    sims = rec.named("lti.simulate_free") + rec.named("lti.simulate_forced")
    return {
        "fileio.load_trace_ms": _ms(rec, "fileio.load_trace"),
        "fileio.save_trace_ms": _ms(rec, "fileio.save_trace"),
        "fileio.trace_bytes": _median(s["attrs"]["bytes"] for s in files),
        "fileio.load_model_ms": _ms(rec, "fileio.load_model"),
        "fileio.dump_report_ms": _ms(rec, "fileio.dump_report"),
        "lti.simulate_free_ms": _ms(rec, "lti.simulate_free"),
        "lti.simulate_forced_ms": _ms(rec, "lti.simulate_forced"),
        "lti.zoh_discretize_ms": _ms(rec, "lti.zoh_discretize"),
        "lti.grid_steps": _median(s["attrs"]["steps"] for s in sims),
        "lti.flops_computed": _median(s["attrs"]["flops"] for s in sims),
    }


def _observability_metrics(rec: Recorder, loop_spans: int, outcomes) -> dict:
    analyses = [i for i, s in enumerate(rec.spans)
                if s["name"] == "observability.analyze"]
    # certificates of the workload's own ops, if it makes any
    verdicts = [i for i in analyses if i < loop_spans] or analyses
    rank_route = []
    for i in analyses:
        parts = [s for s in rec.children(i) if s["name"] in
                 ("observability.observability_matrix", "linalg.rank")]
        rank_route.append(sum(s["end"] - s["start"] for s in parts))
    errs = [e for o in outcomes for e in o.x0_rel_errs]
    return {
        "observability.analyze_ms": _ms(rec, "observability.analyze"),
        "observability.gramian_ode_ms": _ms(rec, "observability.gramian_ode"),
        "observability.gramian_quadrature_ms":
            _ms(rec, "observability.gramian_quadrature"),
        "observability.rank_test_ms": _median(rank_route) * 1e3,
        "observability.reconstruction_normal_equations_ms":
            _ms(rec, "observability.reconstruction_normal_equations"),
        "observability.reconstruct_initial_state_ms":
            _ms(rec, "observability.reconstruct_initial_state"),
        "observability.indeterminate_ratio": (
            sum(not rec.spans[i]["attrs"]["consistent"] for i in verdicts)
            / len(verdicts) if verdicts else 0.0),
        "observability.route_discrepancy_max": max(
            (rec.spans[i]["attrs"]["route_discrepancy"] for i in analyses),
            default=0.0),
        "observability.x0_rel_err_max": max(errs, default=0.0),
    }


def _cardio_metrics(rec: Recorder, workload) -> dict:
    """certify_cardio is a library call the CLI never makes; workloads
    without it in their ops time it on their own table parameters."""
    if not rec.named("cardio.certify_cardio"):
        from observkit import CardioParams, certify_cardio

        params = CardioParams(*workload.cli_inputs.cardio)
        with rec.installed():
            traced = rec.wrap(certify_cardio)
            for _ in range(5):
                traced(params, inputs.HORIZON)
    return {"cardio.certify_cardio_ms": _ms(rec, "cardio.certify_cardio")}


def _linalg_metrics(workload) -> dict:
    from observkit import expm, gramian_quadrature, is_positive_definite, make_model
    from observkit import rank, solve
    from observkit.observability import observability_matrix

    table = make_model(*inputs.cardio_matrices(*workload.cli_inputs.cardio))
    models = [table] + [make_model(c.a, c.b, c.c) for c in workload.probe_cases]
    big = next(m for m in models if m.n == 24)
    rank_us, pd_us, solve_us = [], [], []
    for m in models:
        rank_us.append(_kernel_us(rank, observability_matrix(m)))
        g = gramian_quadrature(m, inputs.HORIZON)
        pd_us.append(_kernel_us(is_positive_definite, g.gramian))
        if g.positive_definite:
            solve_us.append(_kernel_us(solve, g.gramian,
                                       g.gramian @ np.ones(m.n)))
    return {
        "linalg.expm_n2_us": _kernel_us(expm, table.a, inputs.HORIZON),
        "linalg.expm_n24_us": _kernel_us(expm, big.a, inputs.HORIZON),
        "linalg.rank_us": _median(rank_us),
        "linalg.solve_us": _median(solve_us),
        "linalg.is_positive_definite_us": _median(pd_us),
    }
