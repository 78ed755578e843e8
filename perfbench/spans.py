"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files: :meth:`Recorder.install`
replaces the package's public functions in the module namespaces that
call them with timing wrappers, and :meth:`Recorder.restore` puts the
originals back.  Each call through a wrapper records one span (name,
start, end, parent) and, where useful, a few attributes computed after
the span has ended, so they cost the span nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager

import numpy as np

# Module namespace -> the layer functions called through it.  The CLI
# entries are the parser ``main`` builds and what each ``_cmd_*`` calls;
# the rest are the calls the layers make into one another.
CALL_SITES = {
    "observkit.cli": ("build_parser", "load_model", "load_trace", "save_model",
                      "save_trace", "dump_report", "dump_vector_doc", "analyze",
                      "simulate_free", "simulate_forced",
                      "reconstruct_initial_state",
                      "reconstruction_normal_equations", "build_cardio_model"),
    "observkit.cardio": ("analyze", "build_cardio_model"),
    "observkit.observability": ("observability_matrix", "rank",
                                "gramian_quadrature", "gramian_ode",
                                "is_positive_definite", "expm", "solve",
                                "simulate_forced",
                                "reconstruction_normal_equations"),
    "observkit.lti": ("expm", "zoh_discretize", "simulate_free"),
}


def _report_attrs(args, kwargs, report):
    quad = report.gramian.gramian
    ode = report.gramian_ode.gramian
    denom = float(np.linalg.norm(quad, "fro"))
    diff = float(np.linalg.norm(quad - ode, "fro"))
    return {"consistent": bool(report.consistent),
            "route_discrepancy": diff / denom if denom else diff}


def _simulate_attrs(forced: bool):
    def attrs(args, kwargs, out):
        m = args[0]
        steps = out[0].samples.shape[0] - 1
        # multiply-adds of one step, from the array sizes
        per_step = 2 * m.n * m.n + 2 * m.q * m.n
        if forced:
            per_step += 2 * m.n * m.p + m.n
        return {"steps": steps, "flops": steps * per_step}
    return attrs


def _file_attrs(path_arg: int):
    def attrs(args, kwargs, out):
        return {"bytes": os.path.getsize(args[path_arg])}
    return attrs


ANNOTATE = {
    "observability.analyze": _report_attrs,
    "lti.simulate_free": _simulate_attrs(False),
    "lti.simulate_forced": _simulate_attrs(True),
    "fileio.save_trace": _file_attrs(1),
    "fileio.load_trace": _file_attrs(0),
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Recorder:
    """Spans as dicts {name, start, end, parent, attrs}; ``parent`` is the
    index of the enclosing span in :attr:`spans`, or None."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None,
               "attrs": attrs}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn):
        name = span_name(fn)
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if annotate:
                rec["attrs"].update(annotate(args, kwargs, out))
            return out
        return traced

    def install(self) -> None:
        for module_name, names in CALL_SITES.items():
            module = importlib.import_module(module_name)
            for attr in names:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def merge(self, spans: list[dict]) -> None:
        """Append spans recorded by another process, re-basing parents."""
        base = len(self.spans)
        for s in spans:
            parent = s["parent"]
            self.spans.append(dict(s, parent=None if parent is None
                                   else parent + base))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    # -- queries -------------------------------------------------------

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.named(name)]

    def children(self, index: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == index]

    def coverage(self, index: int) -> float:
        """Share of span ``index`` covered by its direct children."""
        root = self.spans[index]
        covered = sum(s["end"] - s["start"] for s in self.children(index))
        return covered / (root["end"] - root["start"])
