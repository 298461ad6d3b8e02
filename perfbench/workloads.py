"""The benchmark workloads: inputs from a variant number, and one pass each.

``prepare`` builds what a user would hand the package (CLI config files, a
population file, seeded tables); its cost counts as set-up.  ``run`` makes
the calls of one pass and returns the outputs as plain JSON data, which
``check.py`` compares with the stored references.  Every package call goes
through a module attribute looked up at call time, so the wrappers that
``tracer.py`` installs see it.

This module imports the package, so only ``child.py`` imports it.  The CLI
module, and scipy with it (through ``rls``), is imported only by the
workloads that use it, as part of their set-up.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import random
from pathlib import Path

import numpy as np

from interaction_bounds import bounds, harness, space

#: The ``dense`` shape ladder as (axes, points per axis).  2^14 and 4^7 have
#: the same 16,384 configurations with opposite pair structure; the two 4^8
#: tables lie above the functionals' work cap, so their interaction suprema
#: come from the greedy fallback.
DENSE_LADDER = ((6, 4), (8, 3), (14, 2), (7, 4), (8, 4), (8, 4))
DENSE_EPSILON = 0.05
TAIL_POINTS = 20

#: The ``apps`` regularized-least-squares problem: three atoms in the plane.
RLS_ATOMS = 3
RLS_N = 7
RLS_LAMBDA = 0.5
RLS_SWEEP = (0.25, 0.5, 0.75)

APPS_COMMANDS = ("ustat", "normal-limit-demo", "rls")


def _cli(argv: list[str]) -> int:
    """``interaction-bounds ARGV`` in this process, with stdout discarded."""
    cli = importlib.import_module("interaction_bounds.cli")
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        return cli.main(argv)


def _write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# --- suite -------------------------------------------------------------------


def prepare_suite(variant: int, work: Path, inject_bug: bool) -> dict:
    importlib.import_module("interaction_bounds.cli")
    params = {"inject_bug": True} if inject_bug else {}
    config = _write_config(
        work / "verify.json", {"command": "verify", "seed": variant, "params": params}
    )
    return {"config": config, "out": str(work / "verify.csv")}


def run_config(inputs: dict) -> dict:
    """One CLI invocation from a config file; its exit code and output file."""
    rc = _cli(["--config", inputs["config"], "--out", inputs["out"]])
    return {"rc": rc, "csv": Path(inputs["out"]).read_text(encoding="utf-8")}


# --- dense -------------------------------------------------------------------


def prepare_dense(variant: int, work: Path, inject_bug: bool) -> list:
    tables = []
    for i, (axes, points) in enumerate(DENSE_LADDER):
        spec = harness.RandomInstanceSpec(
            n_axes=(axes, axes),
            axis_size=(points, points),
            values=("uniform", "sum_plus_perturbation")[i % 2],
            weights=("uniform", "dirichlet")[i % 2],
            epsilon=DENSE_EPSILON,
            seed=1000 * variant + i,
        )
        tables.append(harness.generate_instance(spec)[1])
    return tables


def run_dense(tables: list) -> dict:
    out = []
    for f in tables:
        ing = bounds.bound_ingredients(f)
        bias = bounds.bias_second_difference_bound(f)
        gap, envelope = bounds.efron_stein_gap(f, ing["j"])
        b = ing["b"]
        tmax = f.max() - space.expectation(f)
        curve = []
        for t in np.linspace(0.0, tmax, TAIL_POINTS + 1)[1:]:
            t = float(t)
            curve.append([
                t,
                harness.exact_tail(f, t),
                bounds.sup_bernstein_bound(f, b, t).value,
                bounds.main_bound(ing["E_scv"], b, ing["j_mu"], t).value,
                bounds.variance_corollary_bound(
                    ing["sigma2"], ing["j"], ing["j_mu"], b, t
                ).value,
            ])
        out.append({
            "shape": list(f.space.shape),
            **ing,
            "bias": bias,
            "gap": gap,
            "envelope": envelope,
            "tails": curve,
        })
    return {"tables": out}


# --- apps --------------------------------------------------------------------


def rls_population(variant: int) -> dict:
    """A seeded three-atom population in the unit disc, as an rls problem file."""
    rnd = random.Random(variant)
    raw = [rnd.uniform(0.2, 1.0) for _ in range(RLS_ATOMS)]
    total = sum(raw)
    atoms = []
    for weight in raw:
        angle = rnd.uniform(0.0, 2.0 * np.pi)
        radius = rnd.uniform(0.3, 1.0)
        atoms.append({
            "x": [radius * float(np.cos(angle)), radius * float(np.sin(angle))],
            "y": rnd.uniform(-1.0, 1.0),
            "p": weight / total,
        })
    return {"dim": 2, "lambda": RLS_LAMBDA, "n": RLS_N, "population": atoms}


def prepare_apps(variant: int, work: Path, inject_bug: bool) -> dict:
    importlib.import_module("interaction_bounds.cli")
    population = _write_config(work / "population.json", rls_population(variant))
    docs = {
        "ustat": {"command": "ustat", "seed": variant},
        "normal-limit-demo": {"command": "normal-limit-demo", "seed": variant},
        "rls": {
            "command": "rls",
            "seed": variant,
            "params": {"path": population, "lambda_sweep": list(RLS_SWEEP)},
        },
    }
    return {
        name: {
            "config": _write_config(work / f"{name}.json", doc),
            "out": str(work / f"{name}.csv"),
        }
        for name, doc in docs.items()
    }


def run_apps(inputs: dict) -> dict:
    return {name: run_config(inputs[name]) for name in APPS_COMMANDS}


PREPARE = {"suite": prepare_suite, "dense": prepare_dense, "apps": prepare_apps}
RUN = {"suite": run_config, "dense": run_dense, "apps": run_apps}
