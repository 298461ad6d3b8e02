"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/child.py TASK.json

``run.py`` starts this script once per pass with the package on
``PYTHONPATH``.  TASK.json names the workload, the input variant, the pass
id, the work directory, whether to trace, and where to write the result.
The result holds the monotonic clock reading when the inputs were ready,
the peak resident set size, the outputs of the pass, and for a traced pass
the counts taken outside the spans.  With ``--probe`` the script instead
prints the versions and the BLAS thread count it sees.
"""

from __future__ import annotations

import ctypes
import json
import platform
import resource
import sys
import time
from pathlib import Path


def run_task(task_path: str) -> None:
    task = json.loads(Path(task_path).read_text(encoding="utf-8"))
    work = Path(task["work"])
    import workloads

    inputs = workloads.PREPARE[task["workload"]](task["variant"], work, task["inject_bug"])
    ready = time.monotonic()
    tracer = None
    if task["trace"]:
        from tracer import Tracer

        tracer = Tracer(task["pass_id"])
        tracer.install()
    outputs = workloads.RUN[task["workload"]](inputs)
    result = {
        "ready": ready,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": outputs,
    }
    if tracer is not None:
        result["counts"] = tracer.finish(work / "spans.jsonl")
    Path(task["result"]).write_text(json.dumps(result), encoding="utf-8")


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None if none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def probe() -> None:
    """Print versions; importing everything also writes the bytecode caches."""
    import numpy
    import scipy
    import tracer  # noqa: F401
    import workloads  # noqa: F401

    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }))


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        probe()
    else:
        run_task(sys.argv[1])
