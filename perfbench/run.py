"""The repository benchmark: one command, three workloads, checked outputs.

Usage (from the repository root, no install step)::

    python3 perfbench/run.py --workload suite|dense|apps --seed N \\
        --seconds S --trace 0|1 [--inject-bug]

Load model: one closed-loop client.  Each pass runs in a fresh interpreter
(``child.py``, with ``PYTHONPATH=src``) so the package's caches start cold,
as they do for every CLI invocation; passes run one after another until
``--seconds`` is used up.  The seed picks one of ``VARIANTS`` input variants,
each with stored reference outputs (``refs/``), and every pass is checked
against its reference (``check.py``).

``--trace 0`` reports the end-to-end metrics, each the median over the
passes of the run: ``wall_s`` (process start to exit), ``setup_s`` (process
start to inputs ready: interpreter, imports, input generation) and
``peak_rss_mb`` (``ru_maxrss``).  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of ``tracer.py``, medians
over the traced passes, plus ``trace.overhead_s``.  The error rate is
``failed / attempted`` in the last line; an operation is one suite
check-instance, one ``dense`` table or one ``apps`` output row.
``--inject-bug`` runs ``verify`` with ``params.inject_bug`` to show that
failures are counted.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import check
from tracer import PER_LAYER, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("suite", "dense", "apps")

#: Workload seeds map onto this many input variants (seed mod VARIANTS).
VARIANTS = 16

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Fewest passes of each kind in one run, whatever ``--seconds`` says, as
#: long as they are expected to end within ``RUN_LIMIT_S``.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

#: A pass still running this long after the run started is killed and
#: counted as failed, and no pass starts after it, so that a run ends within
#: three minutes.  ``--seconds`` beyond it counts as this limit.
RUN_LIMIT_S = 165.0

NAN = float("nan")


@dataclass
class Pass:
    """One finished child process: timings, memory and outputs (None if it failed)."""

    traced: bool
    wall: float
    setup: float
    rss_mb: float
    outputs: dict | None
    counts: dict | None
    spans: Path | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def probe(env: dict[str, str]) -> dict:
    """Versions and BLAS threads as a child sees them; also warms bytecode caches."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), "--probe"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_pass(args, variant: int, pass_id: int, traced: bool, work: Path,
             env: dict[str, str], limit: float) -> Pass:
    """Run one pass in a child process; kill it at monotonic time ``limit``."""
    pass_dir = work / f"pass{pass_id}"
    pass_dir.mkdir()
    task = pass_dir / "task.json"
    result = pass_dir / "result.json"
    task.write_text(json.dumps({
        "workload": args.workload,
        "variant": variant,
        "pass_id": pass_id,
        "work": str(pass_dir),
        "trace": traced,
        "inject_bug": args.inject_bug,
        "result": str(result),
    }), encoding="utf-8")
    with open(pass_dir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(task)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            rc = proc.wait(timeout=max(limit - start, 1.0))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.monotonic() - start
    if rc != 0 or not result.exists():
        tail = (pass_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"pass {pass_id} failed with exit code {rc}:\n{tail}", file=sys.stderr)
        return Pass(traced, NAN, NAN, NAN, None, None, None)
    doc = json.loads(result.read_text(encoding="utf-8"))
    return Pass(
        traced, wall, doc["ready"] - start, doc["maxrss_kb"] / 1024.0,
        doc["outputs"], doc.get("counts"), pass_dir / "spans.jsonl" if traced else None,
    )


def run_passes(args, variant: int, work: Path, env: dict[str, str]) -> list[Pass]:
    """Closed loop: start the next pass only when the previous one has ended."""
    kinds = (False, True) if args.trace else (False,)
    least = {False: MIN_PASSES, True: MIN_TRACED_PASSES}
    if args.trace:
        least[False] = MIN_TRACED_PASSES
    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    deadline = start + min(args.seconds, RUN_LIMIT_S)
    passes: list[Pass] = []
    while True:
        traced = kinds[len(passes) % len(kinds)]
        passes.append(run_pass(args, variant, len(passes), traced, work, env, limit))
        nxt = kinds[len(passes) % len(kinds)]
        typical = median([p.wall for p in passes if p.traced == nxt])
        expected_end = time.monotonic() + (0.0 if math.isnan(typical) else typical)
        # A pass expected to outlast the limit would be killed and counted as
        # failed, so it does not start, even below the least number of passes.
        if expected_end >= limit:
            return passes
        done = {k: sum(p.traced == k for p in passes) for k in kinds}
        if all(done[k] >= least[k] for k in kinds) and expected_end > deadline:
            return passes


def source_digest() -> str:
    """SHA-256 over the package sources, so a checkout without git is identified."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def median(values: list[float]) -> float:
    """Median of the values that were measured (failed passes give NaN)."""
    finite = [v for v in values if not math.isnan(v)]
    return statistics.median(finite) if finite else NAN


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-bug", action="store_true",
                        help="run verify with params.inject_bug (suite only)")
    args = parser.parse_args(argv)
    if args.inject_bug and args.workload != "suite":
        parser.error("--inject-bug applies to the suite workload only")
    if not (SRC / "interaction_bounds" / "__init__.py").is_file():
        print(f"no package sources under {SRC}", file=sys.stderr)
        return 2
    variant = args.seed % VARIANTS
    reference = check.load_reference(BENCH_DIR / "refs", args.workload, variant)

    env = child_env()
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        provenance = probe(env)
        passes = run_passes(args, variant, work, env)
        attempted, failed, problems = check_passes(args.workload, passes, reference)
        plain = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        if args.trace:
            values, units = layer_metrics(plain, traced)
        else:
            values = {
                "wall_s": median([p.wall for p in plain]),
                "setup_s": median([p.setup for p in plain]),
                "peak_rss_mb": median([p.rss_mb for p in plain]),
            }
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    provenance.update({
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "samples_per_median": len(traced) if args.trace else len(plain),
    })
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    error_rate = failed / attempted if attempted else 1.0
    print(f"{'error_rate':48s} {error_rate:.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": None if math.isnan(value) else value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


def check_passes(workload: str, passes: list[Pass], reference: dict):
    """Operations attempted and failed over all passes, and what went wrong.

    Every pass of a run has the same inputs, so traced and untraced passes
    must also produce identical outputs.
    """
    attempted = failed = 0
    problems: list[str] = []
    for i, p in enumerate(passes):
        n, bad, why = check.check(workload, p.outputs, reference)
        attempted += n
        failed += bad
        problems += [f"pass {i}: {w}" for w in why]
    if any(p.outputs != passes[0].outputs for p in passes):
        problems.append("passes of one seed produced different outputs")
    return attempted, failed, problems


def layer_metrics(plain: list[Pass], traced: list[Pass]):
    """Per-layer metrics: medians over the traced passes, plus the overhead."""
    samples = [
        summarize(p.spans, p.counts, _ustat_csv(p.outputs))
        for p in traced if p.spans is not None
    ]
    values = {
        name: median([s[name] for s in samples])
        for name, _, _ in PER_LAYER if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = (
        median([p.wall for p in traced]) - median([p.wall for p in plain])
    )
    return values, {name: unit for name, unit, _ in PER_LAYER}


def _ustat_csv(outputs: dict | None) -> str | None:
    if not outputs or "ustat" not in outputs:
        return None
    return outputs["ustat"]["csv"]


if __name__ == "__main__":
    sys.exit(main())
