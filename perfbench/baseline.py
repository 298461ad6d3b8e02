"""Record a baseline: two sets of seeded runs per workload, summarized.

Usage (from the repository root)::

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each set runs ``run.py --trace 0`` once per seed in ``SEEDS`` on every
workload, each run as its own process and ``run_seconds`` of
``BENCHMARK.json`` long, then one ``--trace 1`` run on the first seed for the
per-layer table.  For every end-to-end metric a set records the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median.  The second set
starts when the first has ended on every workload; ``agreement`` gives, per
workload and metric, how far its median moved from the first set, as a
share of the first, next to the metric's bound.  Each run's result line and
provenance are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

SEEDS = tuple(range(1, 11))
SETS = 2

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = BENCHMARK["run_seconds"]
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def one_run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    provenance = next(x for x in lines if x.startswith("provenance "))
    return {
        "result": json.loads(lines[-1]),
        "provenance": json.loads(provenance[len("provenance "):]),
    }


def summary(values: list[float]) -> dict:
    q1, middle, q3 = statistics.quantiles(values, n=4)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / middle,
        "samples": len(values),
        "values": values,
    }


def one_set(workload: str) -> dict:
    runs = []
    for seed in SEEDS:
        runs.append(one_run(workload, seed, 0))
        metrics = runs[-1]["result"]["metrics"]
        print(workload, seed, runs[-1]["result"]["correct"],
              {k: round(v["value"], 4) for k, v in metrics.items()}, flush=True)
    traced = one_run(workload, SEEDS[0], 1)
    end_to_end = {
        name: summary([r["result"]["metrics"][name]["value"] for r in runs])
        for name in runs[0]["result"]["metrics"]
    }
    for name, s in end_to_end.items():
        print(f"{workload} {name}: median {s['median']:.4f} spread {s['spread']:.4f}",
              flush=True)
    return {
        "end_to_end": end_to_end,
        "all_correct": all(r["result"]["correct"] for r in runs + [traced]),
        "error_rate": sum(r["result"]["failed"] for r in runs)
        / sum(r["result"]["attempted"] for r in runs),
        "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
        "runs": runs,
        "traced_run": traced,
    }


def agreement(sets: list[dict]) -> dict:
    first, last = sets[0]["workloads"], sets[-1]["workloads"]
    doc = {}
    for workload, data in last.items():
        doc[workload] = {}
        for name, s in data["end_to_end"].items():
            before = first[workload]["end_to_end"][name]["median"]
            change = (s["median"] - before) / before
            doc[workload][name] = {
                "medians": [before, s["median"]],
                "change": change,
                "bound": BOUNDS[name],
                "within": change <= BOUNDS[name],
            }
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    doc = {"seeds": list(SEEDS), "seconds": SECONDS, "sets": []}
    for _ in range(SETS):
        doc["sets"].append({"workloads": {}})
        for workload in run.WORKLOADS:
            doc["sets"][-1]["workloads"][workload] = one_set(workload)
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    doc["agreement"] = agreement(doc["sets"])
    for workload, metrics in doc["agreement"].items():
        for name, a in metrics.items():
            print(f"{workload} {name}: change {a['change']:+.4f} bound {a['bound']}",
                  flush=True)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
