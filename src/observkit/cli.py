"""Command-line interface.

Subcommands:
    analyze      observability certificate for a model file
    simulate     free or forced trajectory, written as CSV traces
    reconstruct  initial state from an output trace
    cardio       build and certify the mass-spring table model

Machine-readable documents go to stdout (or --out); status and verdict
lines go to stderr.  Exit codes: 0 success/observable, 2 negative
domain verdict (not observable, singular Gramian), 1 usage or I/O
error.  Set OBSERVKIT_NO_COLOR to disable styled stderr output.
"""

from __future__ import annotations

import argparse
import os
import sys

from observkit.cardio import CardioParams, build_cardio_model
from observkit.fileio import (
    dump_report,
    dump_vector_doc,
    load_model,
    load_trace,
    save_model,
    save_trace,
)
from observkit.linalg import DEFAULT_PD_TOL
from observkit.lti import StateSpaceModel, simulate_forced, simulate_free
# perfbench/spans.py wraps reconstruct_initial_state and
# reconstruction_normal_equations on this module, so both stay imported
from observkit.observability import (  # noqa: F401
    SingularGramianError,
    analyze,
    reconstruct_initial_state,
    reconstruct_with_condition,
    reconstruction_normal_equations,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; this CLI reserves 2 for
    domain verdicts, so usage problems are rerouted to exit 1."""

    def error(self, message):
        raise ValueError(message)


def _style(text: str, color: str) -> str:
    if os.environ.get("OBSERVKIT_NO_COLOR") or not sys.stderr.isatty():
        return text
    codes = {"green": "32", "red": "31", "yellow": "33"}
    return f"\x1b[{codes[color]}m{text}\x1b[0m"


def _status(text: str) -> None:
    print(text, file=sys.stderr)


def _emit_doc(doc_text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(doc_text)
    else:
        sys.stdout.write(doc_text)


def _certify(args, model: StateSpaceModel, out_path: str | None) -> int:
    """Analyze ``model`` with the tolerance flags, emit the report, print the
    human verdict to stderr; return the exit code."""
    report = analyze(model, args.horizon, rank_tol=args.rank_tol, pd_tol=args.pd_tol)
    _emit_doc(dump_report(report), out_path)
    horizon = report.gramian.horizon
    if not report.consistent:
        _status(_style(
            "warning: Kalman rank and Gramian verdicts disagree; "
            "re-run with tighter tolerances or a longer horizon", "yellow"))
    label = model.name or "model"
    if report.observable:
        _status(_style(
            f"{label}: completely observable over [0, {horizon:g}] "
            f"(rank {report.kalman_rank}/{report.rank_required}, "
            f"min Gramian eigenvalue {report.gramian.min_pivot_or_eig:.3e})", "green"))
        return 0
    _status(_style(
        f"{label}: NOT completely observable over [0, {horizon:g}] "
        f"(rank {report.kalman_rank}/{report.rank_required})", "red"))
    return 2


def _cmd_analyze(args) -> int:
    return _certify(args, load_model(args.model), args.out)


def _cmd_simulate(args) -> int:
    model = load_model(args.model)
    x0 = args.x0.split(",")  # converted and checked by the library, as any caller's x0
    u = None if args.input is None else load_trace(args.input)
    if u is not None:
        if args.dt is not None or args.steps is not None or args.t0 is not None:
            raise ValueError("--dt/--steps/--t0 conflict with --input; "
                             "the input trace fixes the grid")
        xs, ys = simulate_forced(model, x0, u)
    else:
        if args.dt is None or args.steps is None:
            raise ValueError("--dt and --steps are required without --input")
        t0 = 0.0 if args.t0 is None else args.t0
        xs, ys = simulate_free(model, x0, t0=t0, dt=args.dt, steps=args.steps)
    for suffix, trace in (("x", xs), ("y", ys)):
        path = f"{args.out}_{suffix}.csv"
        save_trace(trace, path)
        _status(f"wrote {path} ({trace.samples.shape[0]} samples, width {trace.width})")
    return 0


def _cmd_reconstruct(args) -> int:
    model = load_model(args.model)
    y = load_trace(args.trace)
    u = None if args.input is None else load_trace(args.input)
    x0, condition = reconstruct_with_condition(model, y, u, horizon=args.horizon)
    _emit_doc(dump_vector_doc("x0", x0, {"horizon": y.duration, "gramian_condition": condition}),
              args.out)
    _status(_style(
        f"reconstructed x0 over [0, {y.duration:g}] "
        f"(Gramian condition {condition:.3e})", "green"))
    return 0


def _cmd_cardio(args) -> int:
    model = build_cardio_model(CardioParams(mass=args.mass, damping=args.damping,
                                            stiffness=args.stiffness))
    if args.out:
        save_model(model, args.out)
        _status(f"wrote {args.out}")
    return _certify(args, model, None)


def _add_certificate_flags(sub) -> None:
    sub.add_argument("--horizon", type=float, default=1.0,
                     help="Gramian window length T (default 1)")
    sub.add_argument("--rank-tol", type=float, default=None,
                     help="relative rank tolerance (default: eps * max dimension)")
    sub.add_argument("--pd-tol", type=float, default=DEFAULT_PD_TOL,
                     help="relative eigenvalue threshold for positive definiteness")


def build_parser() -> _Parser:
    parser = _Parser(prog="observkit",
                     description="Observability certificates, simulation, and "
                                 "initial-state reconstruction for LTI models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="certify observability of a model file")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    _add_certificate_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="simulate a trajectory to CSV traces")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--x0", required=True, help="initial state, comma-separated")
    p.add_argument("--input", default=None,
                   help="input trace CSV (zero-order hold); fixes the time grid")
    p.add_argument("--t0", type=float, default=None, help="start time (default 0)")
    p.add_argument("--dt", type=float, default=None, help="time step")
    p.add_argument("--steps", type=int, default=None, help="number of steps")
    p.add_argument("--out", required=True,
                   help="output prefix; writes PREFIX_x.csv and PREFIX_y.csv")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct",
                       help="recover the initial state from an output trace")
    p.add_argument("trace", help="output trace CSV")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--input", default=None,
                   help="input trace CSV if the response was forced")
    p.add_argument("--horizon", type=float, default=None,
                   help="expected window length, checked against the trace")
    p.add_argument("--out", default=None, help="write the result here instead of stdout")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("cardio",
                       help="build and certify the mass-spring table model")
    p.add_argument("--mass", type=float, required=True, help="combined mass M, kg")
    p.add_argument("--damping", type=float, default=0.0, help="damping beta, N s/m")
    p.add_argument("--stiffness", type=float, required=True, help="stiffness gamma, N/m")
    p.add_argument("--out", default=None, help="also write the model JSON here")
    _add_certificate_flags(p)
    p.set_defaults(func=_cmd_cardio)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SingularGramianError as exc:
        print(_style("system unobservable from these samples", "red"), file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # usage, parse and numeric errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
