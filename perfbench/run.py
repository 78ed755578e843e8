"""observkit benchmark.

    python3 perfbench/run.py --workload {certify,trace-long,cli-short} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Inputs are generated from the seed; the
run measures whole cycles of the workload for at least S seconds, checks
every op, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing; with ``--trace 1`` they are the per-layer ones of the traced run.
``correct`` is false when an op failed in any way other than the known
defect of ROADMAP aim 3 (a wrong "not observable" verdict on a random
observable model with >= 20 states), which still counts in ``failed``.
Details and the run environment go to stderr, as one JSON object on its
last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402  (stdlib only: BLAS is pinned before numpy loads)

common.pin_blas()

SETUP_REPS = 15

# Metric names and units: BENCHMARK.json is the one list of them.
SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def measure(workload, seconds: float):
    """Untraced run: returns (outcomes, end-to-end metrics, extra detail)."""
    from hostspeed import normalized_cold_starts
    from workloads import run_loop

    setup = normalized_cold_starts("import observkit", SETUP_REPS)
    outcomes = run_loop(workload, seconds)
    latencies = [o.elapsed for o in outcomes]
    raw = [o.raw for o in outcomes]
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": statistics.median(norm for norm, _ in setup),
        # time inside ops only: the benchmark's own checking is excluded
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    detail = {
        "raw_setup_s": statistics.median(raw for _, raw in setup),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "latency_p90_ms": common.p90(latencies) * 1e3,
        "latency_samples": len(latencies),
        "indeterminate_ratio": (sum(o.indeterminate for o in outcomes)
                                / len(outcomes)),
    }
    return outcomes, metrics, detail


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    workdir = common.WORK_ROOT / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env_start = common.environment()
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        workload.setup()
        if trace:
            import traced

            outcomes, metrics, detail = traced.traced_run(
                workload, seconds, common.SPANS_DIR / f"{name}-seed{seed}.json")
            wanted = units("per_layer")
        else:
            outcomes, metrics, detail = measure(workload, seconds)
            wanted = units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            common.WORK_ROOT.rmdir()    # only once no other run uses it
        except OSError:
            pass

    failures = [o for o in outcomes if o.problem]
    detail.update({
        "workload": name, "seed": seed, "trace": int(trace),
        "failed_ratio": len(failures) / len(outcomes),
        "known_defects": sum(o.known for o in failures),
        "failures": dict(Counter(o.problem for o in failures).most_common(5)),
        "environment_start": env_start,
        "loadavg_end": list(os.getloadavg()),
    })
    print(json.dumps(detail), file=sys.stderr)     # last line of stderr
    return {
        "correct": all(o.known for o in failures),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "trace-long", "cli-short"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not common.have_program():
        print(f"perfbench: no observkit package under {common.SRC}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    common.pin_cpu()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
