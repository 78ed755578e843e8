"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--seeds 1-10] [--out FILE]

Runs ``run.py --trace 0`` once per seed on every workload of
BENCHMARK.json, at its ``run_seconds``, one run at a time, and reports
for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  The spread of
each metric should stay below a third of its bound in BENCHMARK.json.
The raw (not normalized) times each run prints on stderr are summarized
the same way, under ``raw``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# raw times in each run's stderr record, next to the normalized metrics
RAW = ("raw_setup_s", "raw_ops_per_s", "raw_latency_p50_ms")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    record = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, details = [], []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append(result)
            details.append(json.loads(proc.stderr.splitlines()[-1]))
            print(workload, seed, json.dumps(
                {k: round(v["value"], 5) for k, v in result["metrics"].items()}),
                f"failed={result['failed']}/{result['attempted']}",
                flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        raw = {name: summarize([d[name] for d in details]) for name in RAW}
        record["workloads"][workload] = {
            "metrics": metrics,
            "raw": raw,
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "correct": all(r["correct"] for r in runs),
        }
        for name, s in metrics.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {workload:10s} {name:15s} median {s['median']:.5g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        for name, s in raw.items():
            print(f"  {workload:10s} {name:19s} median {s['median']:.5g} "
                  f"spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
