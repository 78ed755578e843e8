"""The benchmark's workloads, their ops and the checks on every op.

Each workload is a closed loop with one client: the next op starts when
the previous one has finished and been checked.  A run covers whole
cycles of the workload's op list, so every run has the same mix.

* ``certify``     in-process; one op is one ``analyze(model, 1.0)`` call,
                  or ``certify_cardio`` for the cardio table.
* ``trace-long``  CLI subprocesses on 1e5 samples; one op is the cycle
                  simulate, reconstruct, simulate --input, reconstruct --input.
* ``cli-short``   CLI subprocesses on 1e3 samples; one op is the cycle
                  cardio --out, analyze, cardio --stiffness 0 (exit 2
                  expected), then the four commands of ``trace-long``.

An op fails when the program raises, exits with an unexpected code, or
produces output that fails its check; a failure is recorded and the run
goes on.  Checks compare against independent references with tolerances,
never against the bytes of floats.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
from common import BENCH_DIR, child_env, run_child
from hostspeed import Stopwatch

X0_TOL = {"reconstruct": 1e-6, "reconstruct_forced": 1e-5}
TRACE_TOL = 1e-8          # sampled outputs against the exact solution


@dataclass
class Outcome:
    """One op: its time at the reference host speed (``elapsed``, see
    ``hostspeed.py``) and in wall seconds (``raw``), and what went wrong
    if it failed.  ``known`` marks a failure that is a documented defect
    of the program."""

    elapsed: float
    raw: float = 0.0
    problem: str | None = None
    known: bool = False
    indeterminate: bool = False
    x0_rel_errs: list[float] = field(default_factory=list)


class CheckFailed(Exception):
    pass


# -- certify -------------------------------------------------------------

class Certify:
    name = "certify"
    in_process = True

    def __init__(self, seed: int, workdir: Path):
        from observkit import CardioParams, analyze, certify_cardio, make_model

        self.cases = inputs.certify_mix(seed)
        self.calls = []
        for case in self.cases:
            if case.cardio is not None:
                self.calls.append((certify_cardio,
                                   (CardioParams(*case.cardio), inputs.HORIZON)))
            else:
                self.calls.append((analyze, (make_model(case.a, case.b, case.c),
                                             inputs.HORIZON)))
        self.workdir = workdir
        # The CLI layers, which certify ops never reach, are measured in
        # the traced run on the cli-short inputs of the same seed.
        self.cli_inputs = inputs.cli_short_inputs(seed)
        self.probe_cases = [c for c in self.cases if c.cardio is None]

    @functools.cached_property
    def commands(self) -> list[Command]:
        # Built on first use, in the traced run only: their references
        # load scipy, which would count in the untraced run's peak RSS.
        return cli_commands(self.cli_inputs, self.workdir)

    def setup(self) -> None:
        self.cli_inputs.write(self.workdir)

    def ops(self) -> list[Callable]:
        return [lambda rec, i=i: self._op(i, rec) for i in range(len(self.cases))]

    def _op(self, i: int, rec) -> Outcome:
        case = self.cases[i]
        fn, args = self.calls[i]
        if rec is not None:
            rec.install()
            fn = rec.wrap(fn)
        report = error = None
        with Stopwatch() as watch:
            try:
                report = fn(*args)
            except Exception as exc:    # the op failed; the run goes on
                error = exc
        if rec is not None:
            rec.restore()
        out = Outcome(watch.normalized, watch.raw)
        if error is not None:
            out.problem = f"{case.label}: {error!r}"
            return out
        return check_certificate(case, report, out)


def check_certificate(case: inputs.CertifyCase, report, out: Outcome) -> Outcome:
    verdict = report.kalman_observable and report.gramian_observable
    out.indeterminate = not report.consistent
    if case.hidden_from is not None and report.kalman_rank > case.hidden_from:
        out.problem = (f"{case.label}: Kalman rank {report.kalman_rank} exceeds "
                       f"the {case.hidden_from} visible states")
    elif report.consistent and verdict != case.expect_observable:
        out.problem = (f"{case.label}: consistent verdict observable={verdict} "
                       f"contradicts the construction")
        out.known = (case.cardio is None and case.expect_observable
                     and case.n >= inputs.KNOWN_DEFECT_MIN_N)
    return out


# -- CLI workloads -------------------------------------------------------

@dataclass
class Command:
    """One CLI invocation; ``label`` names it in the per-layer metrics."""

    label: str
    args: list[str]
    expect_code: int
    check: Callable[[str], float | None]
    outputs: tuple[str, ...] = ()


def _num(x: float) -> str:
    return repr(float(x))


def cli_commands(inp: inputs.CliInputs, workdir: Path) -> list[Command]:
    """The seven commands of a full CLI pipeline on ``inp``."""
    mass, damping, stiffness = (_num(v) for v in inp.cardio)
    # "--x0=..." form: a value starting with "-" would read as an option
    x0 = "--x0=" + ",".join(_num(v) for v in inp.x0)
    ref_free = reference_outputs(inp, forced=False)
    ref_forced = reference_outputs(inp, forced=True)

    def report(observable: bool, rank: int):
        def check(stdout: str):
            doc = json.loads(stdout)
            if doc["observable"] is not observable or doc["kalman_rank"] != rank:
                raise CheckFailed(f"report says observable={doc['observable']} "
                                  f"rank={doc['kalman_rank']}, expected "
                                  f"{observable} and {rank}")
        return check

    def trace(name: str, ref: dict):
        return lambda stdout: check_trace(workdir / name, inp, ref)

    def recovered(label: str):
        return lambda stdout: check_x0(stdout, inp.x0, X0_TOL[label])

    grid = ["--dt", _num(inp.dt), "--steps", str(inp.samples - 1)]
    return [
        Command("cardio", ["cardio", "--mass", mass, "--damping", damping,
                           "--stiffness", stiffness, "--out", "model.json"],
                0, report(True, 2), ("model.json",)),
        Command("analyze", ["analyze", "--model", "model.json"], 0,
                report(True, 2)),
        Command("cardio", ["cardio", "--mass", mass, "--damping", damping,
                           "--stiffness", "0"], 2, report(False, 1)),
        Command("simulate", ["simulate", "--model", "model.json", x0,
                             *grid, "--out", "free"], 0,
                trace("free_y.csv", ref_free), ("free_x.csv", "free_y.csv")),
        Command("reconstruct", ["reconstruct", "free_y.csv", "--model",
                                "model.json"], 0, recovered("reconstruct")),
        Command("simulate_forced", ["simulate", "--model", "model.json", x0,
                                    "--input", "drive.csv", "--out",
                                    "forced"], 0,
                trace("forced_y.csv", ref_forced),
                ("forced_x.csv", "forced_y.csv")),
        Command("reconstruct_forced", ["reconstruct", "forced_y.csv", "--model",
                                       "model.json", "--input", "drive.csv"],
                0, recovered("reconstruct_forced")),
    ]


def reference_outputs(inp: inputs.CliInputs, forced: bool) -> dict[int, float]:
    """Exact velocity output at every hold boundary and the last sample.

    The drive is constant over each block of ``hold`` samples, so one
    exponential of the augmented matrix [[A, B], [0, 0]] per block length
    propagates the exact continuous-time solution between boundaries.
    """
    from scipy.linalg import expm   # reference only; the program is numpy-only

    a, b, c = (np.array(m) for m in inputs.cardio_matrices(*inp.cardio))
    aug = np.zeros((3, 3))
    aug[:2, :2] = a
    aug[:2, 2:] = b

    def step(k: int):
        big = expm(aug * (k * inp.dt))
        return big[:2, :2], big[:2, 2]

    levels = inp.levels if forced else np.zeros_like(inp.levels)
    block = step(inp.hold)
    x = np.array(inp.x0)
    out = {}
    last = inp.samples - 1
    for j, level in enumerate(levels):
        k = j * inp.hold
        out[k] = float((c @ x)[0])
        if k + inp.hold > last:
            ad, bd = step(last - k)
            out[last] = float((c @ (ad @ x + bd * level))[0])
            break
        x = block[0] @ x + block[1] * level
    return out


def check_trace(path: Path, inp: inputs.CliInputs, ref: dict[int, float]) -> None:
    lines = path.read_text().splitlines()
    if lines[0] != "t,v1" or len(lines) != inp.samples + 1:
        raise CheckFailed(f"{path.name}: header {lines[0]!r}, {len(lines) - 1} rows")
    scale = 1.0 + max(abs(v) for v in ref.values())
    for k, want in ref.items():
        t, y = (float(f) for f in lines[k + 1].split(","))
        if abs(t - k * inp.dt) > 1e-9 * max(1.0, k) * inp.dt:
            raise CheckFailed(f"{path.name}: row {k} at t={t!r}")
        if abs(y - want) > TRACE_TOL * scale:
            raise CheckFailed(f"{path.name}: row {k} is {y!r}, exact {want!r}")


def check_x0(stdout: str, x0: tuple, tol: float) -> float:
    got = np.array(json.loads(stdout)["x0"], dtype=float)
    want = np.array(x0)
    if got.shape != want.shape:
        raise CheckFailed(f"x0 has shape {got.shape}")
    err = float(np.linalg.norm(got - want) / np.linalg.norm(want))
    if not err <= tol:
        raise CheckFailed(f"x0 relative error {err:.3e} exceeds {tol:g}")
    return err


def run_commands(commands: list[Command], workdir: Path, rec) -> Outcome:
    """Run ``commands`` in order as one op, each in a fresh interpreter;
    with a recorder, through the tracing launcher, merging its spans."""
    for cmd in commands:
        for name in cmd.outputs:
            (workdir / name).unlink(missing_ok=True)
    out = Outcome(0.0)
    for cmd in commands:
        if rec is None:
            argv = [sys.executable, "-m", "observkit", *cmd.args]
        else:
            spans_path = workdir / f"spans-{len(rec.spans)}.json"
            argv = [sys.executable, str(BENCH_DIR / "tracecli.py"),
                    str(spans_path), "--", *cmd.args]
        proc = None
        with Stopwatch(sampling=True) as watch:
            try:
                proc = run_child(argv, workdir, child_env())
            except subprocess.TimeoutExpired:
                pass
        out.elapsed += watch.normalized
        out.raw += watch.raw
        if proc is None:
            out.problem = f"{cmd.label}: timed out"
            return out
        if rec is not None and spans_path.exists():
            first = len(rec.spans)
            rec.merge(json.loads(spans_path.read_text()))
            rec.spans[first]["attrs"]["label"] = cmd.label
            spans_path.unlink()
        if proc.returncode != cmd.expect_code:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            out.problem = (f"{cmd.label}: exit {proc.returncode}, expected "
                           f"{cmd.expect_code}: {tail[0]}")
            return out
        try:
            err = cmd.check(proc.stdout)
        except (CheckFailed, ValueError, KeyError, IndexError, OSError) as exc:
            out.problem = f"{cmd.label}: {exc}"
            return out
        if err is not None:
            out.x0_rel_errs.append(err)
    return out


class CliWorkload:
    in_process = False
    labels: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.cli_inputs = self.make_inputs(seed)
        self.commands = cli_commands(self.cli_inputs, workdir)
        self.cycle = [c for c in self.commands if c.label in self.labels]
        self.probe_cases = [inputs.probe_model(seed, 24)]

    def setup(self) -> None:
        self.cli_inputs.write(self.workdir)

    def ops(self) -> list[Callable]:
        return [lambda rec: run_commands(self.cycle, self.workdir, rec)]


class TraceLong(CliWorkload):
    name = "trace-long"
    labels = ("simulate", "reconstruct", "simulate_forced", "reconstruct_forced")
    make_inputs = staticmethod(inputs.trace_long_inputs)


class CliShort(CliWorkload):
    name = "cli-short"
    labels = ("cardio", "analyze", "simulate", "reconstruct", "simulate_forced",
              "reconstruct_forced")
    make_inputs = staticmethod(inputs.cli_short_inputs)


WORKLOADS = {w.name: w for w in (Certify, TraceLong, CliShort)}


def run_loop(workload, seconds: float) -> list[Outcome]:
    """Untraced closed loop: whole cycles until ``seconds`` have passed."""
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        for op in workload.ops():
            outcomes.append(op(None))
    return outcomes
