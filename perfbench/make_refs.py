"""Regenerate the reference outputs in ``refs/``.

Usage (from the repository root): python3 perfbench/make_refs.py [WORKLOAD ...]

Runs one untraced pass per input variant and stores its outputs.  The
references are meant to be made once, at the commit that introduced the
benchmark, so later commits are checked against the behaviour they started
from; regenerating them on a later commit hides any change in results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run

#: Which ``dense`` tables are checked value by value.  The two 4^8 tables get
#: greedy lower estimates of their interaction suprema, so only their
#: invariants are checked.
DENSE_CHECK_VALUES = (True, True, True, True, False, False)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    args = parser.parse_args()
    env = run.child_env()
    (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.ROOT / ".perfbench_work"))
    try:
        for workload in args.workloads:
            task = argparse.Namespace(workload=workload, inject_bug=False)
            variants = {}
            (work / workload).mkdir()
            for variant in range(run.VARIANTS):
                p = run.run_pass(
                    task, variant, variant, False, work / workload, env,
                    time.monotonic() + run.RUN_LIMIT_S,
                )
                if p.outputs is None:
                    print(f"{workload} variant {variant} failed", file=sys.stderr)
                    return 1
                if workload == "dense":
                    for table, checked in zip(p.outputs["tables"], DENSE_CHECK_VALUES):
                        table["check_values"] = checked
                variants[str(variant)] = p.outputs
                print(f"{workload} variant {variant}: {p.wall:.2f} s", flush=True)
            path = run.BENCH_DIR / "refs" / f"{workload}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({"variants": variants}, sort_keys=True) + "\n",
                            encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
