"""Seeded input generators.  The same seed gives byte-identical inputs;
the program under test sees only what these functions produce.

Nothing here imports observkit: models are plain arrays and files are
written by the benchmark's own writers, so input generation does not
exercise (or depend on) the layers being measured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The acceptance grid of the cardio table (tests/test_acceptance.py).
MASS_GRID = (0.5, 1.0, 10.0)
DAMPING_GRID = (0.0, 0.5, 5.0)
STIFFNESS_GRID = (0.1, 1.0, 100.0)
RANDOM_SIZES = (2, 4, 8, 12, 16, 24)
RANDOM_PER_KIND = 2           # observable and unobservable models per size
HORIZON = 1.0
# Random single-output models this large are observable in exact
# arithmetic but come out "not observable" at double precision (ROADMAP
# aim 3): a wrong verdict there is a known defect of the program.
KNOWN_DEFECT_MIN_N = 20


@dataclass(frozen=True)
class CertifyCase:
    """One certify op: the cardio table at ``cardio`` = (mass, damping,
    stiffness), or the random model (a, b, c)."""

    label: str
    n: int
    expect_observable: bool
    cardio: tuple | None = None
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    c: np.ndarray | None = None
    hidden_from: int | None = None   # states >= this are invisible (Kalman rank <= it)

    def to_bytes(self) -> bytes:
        head = repr((self.label, self.n, self.expect_observable, self.cardio,
                     self.hidden_from)).encode()
        arrays = b"".join(m.tobytes() for m in (self.a, self.b, self.c)
                          if m is not None)
        return head + arrays


def cardio_matrices(mass: float, damping: float, stiffness: float):
    """(A, B, C) of the table with velocity output, as in the package docs."""
    a = [[0.0, 1.0], [-stiffness / mass, -damping / mass]]
    return a, [[0.0], [1.0]], [[0.0, 1.0]]


def _random_observable(rng, n: int) -> CertifyCase:
    """Dense random dynamics and output row: observable with probability 1."""
    a = rng.uniform(-2.0, 2.0, (n, n))
    b = rng.standard_normal((n, 1))
    c = rng.uniform(-2.0, 2.0, (1, n))
    return CertifyCase(f"random n={n} observable", n, True, a=a, b=b, c=c)


def _random_unobservable(rng, n: int) -> CertifyCase:
    """Exact zero blocks hide states r..n-1: the top-right block of A is
    zero, so they span an invariant subspace, and C ignores them."""
    r = int(rng.integers(1, n))
    a = rng.uniform(-2.0, 2.0, (n, n))
    a[:r, r:] = 0.0
    b = rng.standard_normal((n, 1))
    c = np.hstack([rng.uniform(-2.0, 2.0, (1, r)), np.zeros((1, n - r))])
    return CertifyCase(f"random n={n} hidden from {r}", n, False, a=a, b=b,
                       c=c, hidden_from=r)


def certify_mix(seed: int) -> list[CertifyCase]:
    """One cycle of the certify workload, in a seeded order: the 27-point
    acceptance grid, the 9 zero-stiffness points, and random single-output
    models, half observable and half unobservable by construction."""
    rng = np.random.default_rng([seed, 1])
    cases = [CertifyCase(f"cardio m={m:g} d={d:g} k={k:g}", 2, True,
                         cardio=(m, d, k))
             for m in MASS_GRID for d in DAMPING_GRID for k in STIFFNESS_GRID]
    cases += [CertifyCase(f"cardio m={m:g} d={d:g} k=0", 2, False,
                          cardio=(m, d, 0.0))
              for m in MASS_GRID for d in DAMPING_GRID]
    for n in RANDOM_SIZES:
        for _ in range(RANDOM_PER_KIND):
            cases.append(_random_observable(rng, n))
            cases.append(_random_unobservable(rng, n))
    return [cases[i] for i in rng.permutation(len(cases))]


def probe_model(seed: int, n: int) -> CertifyCase:
    """A seeded observable model of size ``n`` for the linalg probes of
    workloads whose own inputs have no model that large."""
    return _random_observable(np.random.default_rng([seed, 2, n]), n)


@dataclass(frozen=True)
class CliInputs:
    """Inputs of one CLI pipeline: the cardio table, a free-response start
    x0 on a grid of ``samples`` points spaced ``dt``, and a seeded
    zero-order-hold drive whose level changes every ``hold`` samples."""

    cardio: tuple
    x0: tuple
    dt: float
    samples: int
    hold: int
    levels: np.ndarray

    @property
    def drive(self) -> np.ndarray:
        return np.repeat(self.levels, self.hold)[:self.samples]

    def model_doc(self) -> str:
        a, b, c = cardio_matrices(*self.cardio)
        return json.dumps({"name": "cardio-table", "a": a, "b": b, "c": c}) + "\n"

    def drive_csv(self) -> str:
        rows = [f"{format(k * self.dt, '.17g')},{format(float(u), '.17g')}"
                for k, u in enumerate(self.drive)]
        return "t,v1\n" + "\n".join(rows) + "\n"

    def write(self, workdir: Path) -> None:
        (workdir / "model.json").write_text(self.model_doc())
        (workdir / "drive.csv").write_text(self.drive_csv())

    def to_bytes(self) -> bytes:
        return (repr((self.cardio, self.x0, self.dt, self.samples, self.hold))
                .encode() + self.model_doc().encode() + self.drive_csv().encode())


def _levels(rng, samples: int, hold: int) -> np.ndarray:
    return rng.standard_normal(-(-samples // hold))


def trace_long_inputs(seed: int) -> CliInputs:
    """The cardio table (1, 0.5, 2) from x0 = (1, -0.5) on 1e5 samples,
    dt = 1e-5; only the drive depends on the seed."""
    rng = np.random.default_rng([seed, 3])
    samples, hold = 100_000, 5_000
    return CliInputs((1.0, 0.5, 2.0), (1.0, -0.5), 1e-5, samples, hold,
                     _levels(rng, samples, hold))


def cli_short_inputs(seed: int) -> CliInputs:
    """A seeded acceptance-grid point, x0 and drive on 1e3 samples."""
    rng = np.random.default_rng([seed, 4])
    cardio = (float(rng.choice(MASS_GRID)), float(rng.choice(DAMPING_GRID)),
              float(rng.choice(STIFFNESS_GRID)))
    x0 = rng.uniform(0.3, 1.0, 2) * rng.choice([-1.0, 1.0], 2)
    samples, hold = 1_000, 50
    return CliInputs(cardio, tuple(float(v) for v in x0), 1e-3, samples, hold,
                     _levels(rng, samples, hold))
