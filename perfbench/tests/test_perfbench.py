"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run every workload briefly through the command line, inject
failures, check that normalized times scale with the program's work, and
check that inputs are a function of the seed.  The smoke
runs take about two minutes, most of it the 1e5-sample pipeline.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.pin_blas()
sys.path.insert(0, str(common.SRC))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        assert result["metrics"]["cli.trace_coverage"]["value"] >= 0.9


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "certify", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""



def test_child_past_its_timeout_is_killed(monkeypatch):
    monkeypatch.setattr(common, "CHILD_TIMEOUT_S", 0.5)
    with pytest.raises(subprocess.TimeoutExpired):
        common.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                         ROOT, common.child_env())

def test_wrong_expected_x0_counts_as_failed_and_run_goes_on(monkeypatch):
    real = workloads.check_x0
    monkeypatch.setattr(workloads, "check_x0",
                        lambda stdout, x0, tol: real(stdout, (9.0, 9.0), tol))
    result = run.run("cli-short", 5, 0.0, trace=False)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert result["correct"] is False
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_corrupted_trace_row_counts_as_failed(tmp_path):
    workload = workloads.CliShort(5, tmp_path)
    workload.setup()
    drive = tmp_path / "drive.csv"
    lines = drive.read_text().splitlines()
    lines[10] = "0.009,not-a-number"
    drive.write_text("\n".join(lines) + "\n")
    outcomes = workloads.run_loop(workload, 0.0)
    assert len(outcomes) == 1
    assert outcomes[0].problem.startswith("simulate_forced: exit 1")
    assert not outcomes[0].known


def test_contradicted_construction_counts_as_unknown_failure(tmp_path):
    workload = workloads.Certify(5, tmp_path)
    i = next(k for k, c in enumerate(workload.cases) if c.cardio is not None
             and c.expect_observable)
    case = workload.cases[i]
    workload.cases[i] = type(case)(case.label, case.n, False, cardio=case.cardio)
    outcomes = workloads.run_loop(workload, 0.0)
    assert len(outcomes) == len(workload.cases)
    assert outcomes[i].problem and not outcomes[i].known


def _input_bytes(seed: int) -> bytes:
    return (b"".join(c.to_bytes() for c in inputs.certify_mix(seed))
            + inputs.trace_long_inputs(seed).to_bytes()
            + inputs.cli_short_inputs(seed).to_bytes()
            + inputs.probe_model(seed, 24).to_bytes())


def test_inputs_depend_only_on_the_seed(tmp_path):
    assert _input_bytes(11) == _input_bytes(11)
    assert _input_bytes(11) != _input_bytes(12)
    for seed, sub in ((11, "a"), (11, "b")):
        (tmp_path / sub).mkdir()
        inputs.trace_long_inputs(seed).write(tmp_path / sub)
    for name in ("model.json", "drive.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_certify_mix_has_the_specified_cases():
    cases = inputs.certify_mix(1)
    cardio = [c for c in cases if c.cardio is not None]
    assert len(cardio) == 36
    assert sum(not c.expect_observable for c in cardio) == 9
    random = [c for c in cases if c.cardio is None]
    for n in inputs.RANDOM_SIZES:
        sized = [c for c in random if c.n == n]
        assert sum(c.expect_observable for c in sized) == inputs.RANDOM_PER_KIND
        assert sum(not c.expect_observable for c in sized) == inputs.RANDOM_PER_KIND
        for c in sized:
            assert c.c.shape == (1, n)
            if c.hidden_from is not None:
                assert not c.a[:c.hidden_from, c.hidden_from:].any()
                assert not c.c[:, c.hidden_from:].any()


@pytest.fixture
def one_cpu():
    cpus = os.sched_getaffinity(0)
    common.pin_cpu()
    yield
    os.sched_setaffinity(0, cpus)


def _ratios(base, doubled, rounds: int) -> tuple[float, float]:
    """Median over adjacent pairs of doubled over base op time, normalized
    and raw.  Pairs run back to back meet nearly the same host speed, so
    their raw ratio is the ratio of the work done."""
    normalized, raw = [], []
    for _ in range(rounds):
        for op, op2 in zip(base, doubled):
            a, b = op(None), op2(None)
            assert all(o.known for o in (a, b) if o.problem), (a.problem, b.problem)
            normalized.append(b.elapsed / a.elapsed)
            raw.append(b.raw / a.raw)
    return statistics.median(normalized), statistics.median(raw)


def test_normalized_certify_time_scales_with_the_programs_work(tmp_path, one_cpu):
    """Normalization must not absorb work added to the program: with every
    analyze run twice, normalized time doubles as raw time does, although
    the calibration slices run in the program's process after its work."""
    base = workloads.Certify(5, tmp_path)
    doubled = workloads.Certify(5, tmp_path)
    doubled.calls = [(lambda *args, fn=fn: (fn(*args), fn(*args))[1], args)
                     for fn, args in doubled.calls]
    normalized, raw = _ratios(base.ops(), doubled.ops(), rounds=1)
    assert normalized == pytest.approx(raw, rel=0.05)
    assert normalized == pytest.approx(2.0, rel=0.08)


def test_normalized_cli_time_scales_with_the_programs_work(tmp_path, one_cpu):
    """The same for CLI commands, whose sampling thread shares the CPU
    with the child it times: each command is run once, then twice."""
    workload = workloads.CliShort(5, tmp_path)
    workload.setup()
    base = [lambda rec, c=c: workloads.run_commands([c], tmp_path, rec)
            for c in workload.cycle]
    doubled = [lambda rec, c=c: workloads.run_commands([c, c], tmp_path, rec)
               for c in workload.cycle]
    normalized, raw = _ratios(base, doubled, rounds=3)
    assert normalized == pytest.approx(raw, rel=0.05)
    assert normalized == pytest.approx(2.0, rel=0.08)
