"""Correctness of one pass: its outputs against the stored reference.

The references in ``refs/<workload>.json`` were produced by ``make_refs.py``
at the commit that introduced the benchmark.  ``check`` returns
``(attempted, failed, problems)`` for one pass, counting operations as
``run.py`` describes.  Tolerances:

* exact quantities match to ``RTOL`` relative (plus ``ATOL``), so a change in
  summation order passes and a wrong value does not;
* seeded Monte Carlo numbers match exactly;
* a suite check's ``max_violation`` matches to within that check's own
  tolerance, since it is rounding noise of the order of that tolerance;
* finite-difference estimates in the rls derivative check match to
  ``FD_RTOL`` and their pass flags exactly;
* a ``ustat`` cell fails if its path got worse (exact, then mc, then
  skipped) and is only range-checked if its path got better.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
FD_RTOL = 1e-6
FD_ATOL = 1e-6
INVARIANT_SLACK = 1e-10

PATH_RANK = {"exact": 0, "mc": 1, "skipped": 2}


def load_reference(refs: Path, workload: str, variant: int) -> dict:
    doc = json.loads((refs / f"{workload}.json").read_text(encoding="utf-8"))
    return doc["variants"][str(variant)]


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


def close(a, b, rtol: float = RTOL, atol: float = ATOL) -> bool:
    """Numbers within tolerance; non-numeric cells must be equal strings."""
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= rtol * max(abs(x), abs(y)) + atol


def at_most(a: float, b: float) -> bool:
    return a <= b + INVARIANT_SLACK * max(1.0, abs(b))


def check(workload: str, outputs: dict | None, ref: dict) -> tuple[int, int, list[str]]:
    return CHECKS[workload](outputs, ref)


# --- suite -------------------------------------------------------------------


def check_suite(out: dict | None, ref: dict) -> tuple[int, int, list[str]]:
    ref_rows = parse_csv(ref["csv"])
    attempted = sum(int(r["instances"]) for r in ref_rows)
    if out is None:
        return attempted, attempted, ["no output"]
    got = {r["check"]: r for r in parse_csv(out["csv"])}
    failed, problems = 0, []
    for r in ref_rows:
        g = got.get(r["check"])
        same = g is not None and all(
            g[k] == r[k] for k in ("instances", "tolerance", "witness_seed")
        )
        if not (
            same
            and g["passed"] == "true"
            and close(g["max_violation"], r["max_violation"], 0.0, float(r["tolerance"]))
        ):
            failed += int(r["instances"])
            problems.append(f"check {r['check']}: {g}")
    if out["rc"] != ref["rc"] and not failed:
        failed = attempted
        problems.append(f"exit code {out['rc']}, expected {ref['rc']}")
    return attempted, failed, problems


# --- dense -------------------------------------------------------------------

DENSE_VALUES = ("E_scv", "sup_scv", "sigma2", "b", "j", "j_mu", "crude",
                "bd_term", "bias", "gap", "envelope")


def dense_invariants(t: dict) -> list[str]:
    bad = []
    if not (at_most(t["j_mu"], t["j"]) and at_most(t["j"], t["crude"])):
        bad.append("j_mu <= j <= crude")
    if not at_most(t["sigma2"], t["E_scv"]):
        bad.append("E_scv >= sigma2")
    if not (at_most(t["gap"], t["bias"]) and at_most(t["bias"], t["j"] ** 2 / 4.0)):
        bad.append("gap <= bias <= j^2/4")
    for tt, tail, *bounds in t["tails"]:
        if not all(at_most(tail, bound) for bound in bounds):
            bad.append(f"exact tail <= bounds at t={tt}")
    return bad


def dense_matches(t: dict, r: dict) -> list[str]:
    bad = [k for k in DENSE_VALUES if not close(t[k], r[k])]
    if len(t["tails"]) != len(r["tails"]) or not all(
        close(a, b) for row, ref_row in zip(t["tails"], r["tails"]) for a, b in zip(row, ref_row)
    ):
        bad.append("tail curve")
    return [f"{k} differs from the reference" for k in bad]


def check_dense(out: dict | None, ref: dict) -> tuple[int, int, list[str]]:
    ref_tables = ref["tables"]
    attempted = len(ref_tables)
    if out is None or len(out["tables"]) != attempted:
        return attempted, attempted, ["missing tables"]
    failed, problems = 0, []
    for i, (t, r) in enumerate(zip(out["tables"], ref_tables)):
        bad = [] if t["shape"] == r["shape"] else ["shape"]
        bad += dense_invariants(t)
        if r["check_values"]:
            bad += dense_matches(t, r)
        if bad:
            failed += 1
            problems.append(f"table {i} {r['shape']}: {'; '.join(bad)}")
    return attempted, failed, problems


# --- apps --------------------------------------------------------------------


def ustat_row_ok(g: dict, r: dict) -> bool:
    for k in ("sigma1sq", "ustat_bound", "arcones_bound", "crossover_t", "crossover_product"):
        if not close(g[k], r[k]):
            return False
    rank, ref_rank = PATH_RANK.get(g["tail_kind"], 99), PATH_RANK[r["tail_kind"]]
    if rank > ref_rank:
        return False
    if rank < ref_rank:
        return 0.0 <= float(g["tail"]) <= 1.0
    if g["note"] != r["note"]:
        return False
    if r["tail_kind"] == "mc":
        return g["tail"] == r["tail"] and g["tail_stderr"] == r["tail_stderr"]
    return close(g["tail"], r["tail"]) and close(g["tail_stderr"], r["tail_stderr"])


def rls_row_ok(g: dict, r: dict) -> bool:
    section, key = r["section"], r["key"]
    if (g["section"], g["key"]) != (section, key) or not close(g["lam"], r["lam"]):
        return False
    if not close(g["t"], r["t"]):
        return False
    if key == "solve_residual":
        return float(g["value"]) <= 1e-8
    if section == "derivative_check":
        if key.startswith("max_"):
            return close(g["value"], r["value"], FD_RTOL, FD_ATOL)
        return close(g["value"], r["value"])
    if (section, key) in (("scv", "empirical_scv"), ("bound_curve", "tail")):
        exact = ("value", "stderr")
        return all(g[k] == r[k] for k in exact) and all(
            close(g[k], r[k]) for k in ("bound_c", "bound_measured")
        )
    return all(close(g[k], r[k]) for k in ("value", "stderr", "bound_c", "bound_measured"))


def rows_ok(command: str, g: dict, r: dict) -> bool:
    if command == "ustat":
        return ustat_row_ok(g, r)
    if command == "rls":
        return rls_row_ok(g, r)
    return all(close(g[k], r[k]) for k in r)


def check_apps(out: dict | None, ref: dict) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for command, ref_out in ref.items():
        ref_rows = parse_csv(ref_out["csv"])
        attempted += len(ref_rows)
        got = None if out is None else out.get(command)
        if got is None or got["rc"] != ref_out["rc"]:
            failed += len(ref_rows)
            problems.append(f"{command}: no output or exit code differs")
            continue
        rows = parse_csv(got["csv"])
        if command == "ustat":
            by_key = {(g["m"], g["n"], g["t"]): g for g in rows}
            pairs = [(by_key.get((r["m"], r["n"], r["t"])), r) for r in ref_rows]
        else:
            pairs = [(rows[i] if i < len(rows) else None, r) for i, r in enumerate(ref_rows)]
        for g, r in pairs:
            if g is None or not rows_ok(command, g, r):
                failed += 1
                problems.append(f"{command} row {r}: got {g}")
    return attempted, failed, problems


CHECKS = {"suite": check_suite, "dense": check_dense, "apps": check_apps}
