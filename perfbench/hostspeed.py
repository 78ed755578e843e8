"""Host-speed normalization of measured times.

On a small shared VM the effective CPU speed swings by up to 2x within
seconds, and CPU time swings with it, so raw wall times of the same code
spread by 20-35% from run to run.  The swings slow the program and any
other code alike, so each time is rescaled by the time of fixed
benchmark-owned work of the same kind, run on the same CPU at the same
moment, to a reference host on which that work takes a fixed time:

* an op is bracketed by calibration slices (small-matrix numpy steps and
  float text round trips):
  ``normalized = raw * CAL_REF_S / mean(slices before, during and after)``;
* a cold start of the program is paired with the cold start, just
  before it, of an interpreter that imports only numpy:
  ``normalized = raw * COLD_REF_S / reference``.

The program never runs the reference work, so a change to the program
moves the normalized time by the same factor as the raw one
(``tests/test_perfbench.py`` checks this by doubling an op's work).
Raw times are reported next to the normalized ones.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

from common import cold_start

# Time of one calibration slice on the reference host, a 2-vCPU
# Firecracker guest on an Intel Xeon at 2.1 GHz, in its faster state.
CAL_REF_S = 0.9e-3
# Cold start of an interpreter that only imports numpy, on the same host.
COLD_REF_S = 0.1
COLD_REF_CODE = "import numpy"
# about 2% of a waiting interval goes to slices
SAMPLE_PERIOD_S = 0.05

_A = np.array([[0.3, -0.7], [0.9, -0.2]])
_FLOATS = [float(x) for x in np.random.default_rng(0).standard_normal(64)]


def calibrate() -> float:
    """Seconds taken by the fixed calibration slice, now."""
    start = time.perf_counter()
    w = np.zeros((2, 2))
    for _ in range(100):
        w = w + 1e-3 * (_A.T @ w + w @ _A + _A)
    for _ in range(4):
        text = ",".join(format(x, ".17g") for x in _FLOATS)
        sum(float(f) for f in text.split(","))
    return time.perf_counter() - start


class Stopwatch:
    """Times a ``with`` block; ``raw`` is wall seconds and ``normalized``
    the same interval at the reference host speed.

    With ``sampling=True`` a thread also runs a slice every
    ``SAMPLE_PERIOD_S`` while the block waits on a child process, so an
    interval of seconds is rescaled by the host speed during it rather
    than at its ends.  Only for blocks that wait: the thread would contend
    for the interpreter lock with in-process work.
    """

    raw = normalized = 0.0

    def __init__(self, sampling: bool = False):
        self._sampling = sampling

    def __enter__(self):
        self._slices = [calibrate()]
        if self._sampling:
            self._stop = threading.Event()
            self._thread = threading.Thread(target=self._sample, daemon=True)
            self._thread.start()
        self._start = time.perf_counter()
        return self

    def _sample(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self._slices.append(calibrate())

    def __exit__(self, *exc_info):
        self.raw = time.perf_counter() - self._start
        if self._sampling:
            self._stop.set()
            self._thread.join()
        self._slices.append(calibrate())
        self.normalized = self.raw * CAL_REF_S / statistics.fmean(self._slices)
        return False


def normalized_cold_starts(code: str, reps: int) -> list[tuple[float, float]]:
    """(normalized, raw) seconds of ``reps`` cold starts of ``code``, each
    right after a reference cold start, after one discarded pair that
    fills the bytecode cache."""
    pairs = []
    for _ in range(reps + 1):
        reference = cold_start(COLD_REF_CODE)
        raw = cold_start(code)
        pairs.append((raw * COLD_REF_S / reference, raw))
    return pairs[1:]
