"""Plumbing shared by the benchmark modules: checkout layout, pinned BLAS
threads, child-process environments, cold-start probes, statistics and
the run-environment record.

This module imports only the standard library, so ``run.py`` can pin the
BLAS thread pools before anything imports numpy.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_spans"      # spans of the latest traced run per workload and seed

# One BLAS thread everywhere: OpenBLAS's default pool adds 40-80 ms to a
# cold import on a 2-CPU host and makes every timing depend on the
# thread scheduler.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

CHILD_TIMEOUT_S = 120
ALL_CPUS = os.sched_getaffinity(0)


def pin_blas() -> None:
    """Pin this process's BLAS pools; call before numpy is imported."""
    os.environ.update(BLAS_PIN)


def pin_cpu() -> int:
    """Keep this process and its children on one CPU.

    The vCPUs of a shared VM change speed independently, up to 2x apart;
    on one CPU the calibration slices of ``hostspeed.py`` run where the
    timed work runs.  The program is single-threaded (BLAS pinned), so
    one CPU is all an op uses.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def have_program() -> bool:
    """Whether the checkout holds the package source the benchmark drives."""
    return (SRC / "observkit" / "__init__.py").is_file()


def child_env(pinned: bool = True) -> dict:
    """Environment for a child interpreter that imports the checkout's
    package; ``pinned=False`` leaves the BLAS pools at their defaults."""
    env = dict(os.environ)
    for key in BLAS_PIN:
        env.pop(key, None)
    if pinned:
        env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(SRC)
    env["OBSERVKIT_NO_COLOR"] = "1"
    return env


def run_child(argv: list[str], cwd: Path, env: dict,
              capture: bool = True) -> subprocess.CompletedProcess:
    """Run a child to its end and return its exit code and, with
    ``capture``, its stdout and stderr as text.

    ``subprocess.run(timeout=...)`` waits by polling the child with a
    back-off that reaches 50 ms, which would round every timed child up to
    its next poll.  Here the wait blocks until the child exits, and a
    timer kills a child still running after ``CHILD_TIMEOUT_S``, which
    raises ``subprocess.TimeoutExpired``.
    """
    fired = threading.Event()
    with subprocess.Popen(argv, cwd=cwd, env=env, text=True,
                          stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                          stderr=subprocess.PIPE if capture else None) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S,
                                lambda: (fired.set(), proc.kill()))
        timer.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            timer.cancel()
            timer.join()
    if fired.is_set():
        raise subprocess.TimeoutExpired(argv, CHILD_TIMEOUT_S, stdout, stderr)
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def cold_start(code: str, pinned: bool = True) -> float:
    """Wall seconds of a fresh interpreter running ``code``."""
    start = time.perf_counter()
    proc = run_child([sys.executable, "-c", code], ROOT, child_env(pinned),
                     capture=False)
    elapsed = time.perf_counter() - start
    proc.check_returncode()
    return elapsed


def cold_starts(code: str, reps: int, pinned: bool = True) -> list[float]:
    """Wall seconds of ``reps`` fresh interpreters each running ``code``,
    after one discarded start that fills the bytecode cache.

    ``pinned=False`` starts them with the BLAS pools sized as they would
    be by default: no thread variables, and every CPU the benchmark was
    given (OpenBLAS sizes its pool from the CPU affinity).
    """
    cpus = os.sched_getaffinity(0)
    if not pinned:
        os.sched_setaffinity(0, ALL_CPUS)
    try:
        return [cold_start(code, pinned) for _ in range(reps + 1)][1:]
    finally:
        os.sched_setaffinity(0, cpus)


def in_child_seconds(code: str, reps: int) -> list[float]:
    """Seconds that ``code`` reports on stdout, from ``reps`` fresh
    interpreters (after one discarded start)."""
    values = []
    for _ in range(reps + 1):
        proc = run_child([sys.executable, "-c", code], ROOT, child_env())
        proc.check_returncode()
        values.append(float(proc.stdout))
    return values[1:]


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def environment() -> dict:
    """What a result depends on besides the code: interpreter, numpy and
    its BLAS build, CPUs, load average."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }
