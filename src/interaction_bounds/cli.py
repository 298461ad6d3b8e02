"""Command-line interface.

Subcommands::

    verify             run the inequality suite on seeded random instances
    ustat              tail-bound comparison table for U-statistics
    rls                regularized-least-squares stability experiment
    bounds-table       side-by-side variance terms and tail bounds
    normal-limit-demo  rescaled bound against the normal tail (no assertion)

Common flags: ``--config <json>``, ``--seed <u64>``, ``--out <path>``,
``--format csv|json``, ``--count <int>``, ``--cap <int>``.  A config file
mirrors the flags plus a per-command ``params`` block; unknown fields are
rejected.  Flags override the config file.

Output is deterministic for a fixed config and seed: CSV carries a
``#schema=1`` comment line and every float is printed with 17 significant
digits (round-trip exact).  Exit codes: 0 success, 1 inequality violation or
solver failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import bounds as bnd
from . import rls as rlsmod
from . import ustat as usmod
from .exchangeable import multiset_probabilities, multisets
from .functionals import weighted_interaction
from .harness import (
    RandomInstanceSpec,
    generate_instance,
    run_property_suite,
    tail_curve,
)
from .operators import scv
from .rng import derive_seed, substream
from .space import DEFAULT_CAP, CapacityError, FiniteAxis, expectation, fsum


class ConfigError(Exception):
    """Invalid command-line or config-file input."""


_COMMANDS = ("verify", "ustat", "rls", "bounds-table", "normal-limit-demo")

_TOP_FIELDS = {"command", "seed", "out", "format", "count", "cap", "params"}

_PARAM_FIELDS: dict[str, set[str]] = {
    "verify": {
        "entropy_count",
        "tail_points",
        "scalar_count",
        "inject_bug",
        "n_axes",
        "axis_size",
        "values",
        "weights",
        "epsilon",
    },
    "ustat": {
        "kernel",
        "kernel_path",
        "m_values",
        "n_values",
        "t_values",
        "base_points",
        "base_weights",
        "mc_samples",
    },
    "rls": {
        "path",
        "c",
        "t_points",
        "mc_samples",
        "replications",
        "grid",
        "h",
        "lambda_sweep",
    },
    "bounds-table": {
        "t_points",
        "n_axes",
        "axis_size",
        "values",
        "weights",
        "epsilon",
    },
    "normal-limit-demo": {
        "kernel",
        "m",
        "n_values",
        "t",
        "base_points",
        "base_weights",
    },
}

_DEFAULT_COUNT = {
    "verify": 200,
    "ustat": 0,
    "rls": 0,
    "bounds-table": 20,
    "normal-limit-demo": 0,
}


@dataclass
class RunConfig:
    command: str
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    count: int | None = None
    cap: int = DEFAULT_CAP
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if not isinstance(self.params, dict):
            raise ConfigError("'params' must be an object")
        unknown = set(self.params) - _PARAM_FIELDS[self.command]
        if unknown:
            raise ConfigError(
                f"unknown params field(s) for {self.command}: {sorted(unknown)}"
            )
        if self.count is None:
            self.count = _DEFAULT_COUNT[self.command]
        try:
            self.seed, self.cap, self.count = int(self.seed), int(self.cap), int(self.count)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"seed, cap and count must be integers: {exc}") from exc
        if self.count < 0:
            raise ConfigError(f"count must be nonnegative, got {self.count}")

    def param(self, name: str, default: Any) -> Any:
        return self.params.get(name, default)


@contextlib.contextmanager
def _reading_params(command: str):
    """Turn a ``TypeError``/``ValueError`` from converting params into a ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {command} params: {exc}") from exc


def _read_json(path: str, what: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _load_config_file(path: str) -> dict:
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config file must contain a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    return doc


def _build_config(args: argparse.Namespace) -> RunConfig:
    doc: dict[str, Any] = {}
    if args.config:
        doc = _load_config_file(args.config)
    command = args.command or doc.get("command")
    if command is None:
        raise ConfigError("no command given (flag or config 'command')")
    merged = RunConfig(
        command=command,
        seed=args.seed if args.seed is not None else doc.get("seed", 0),
        out=args.out if args.out is not None else doc.get("out"),
        format=args.format if args.format is not None else doc.get("format", "csv"),
        count=args.count if args.count is not None else doc.get("count"),
        cap=args.cap if args.cap is not None else doc.get("cap", DEFAULT_CAP),
        params=doc.get("params", {}) or {},
    )
    return merged


# ---------------------------------------------------------------------------
# Output formatting
# ---------------------------------------------------------------------------


def _fmt_cell(v: Any) -> Any:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return v


def _render_csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    buf = io.StringIO()
    buf.write("#schema=1\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_cell(v) for v in row])
    return buf.getvalue()


def _render_json(payload: dict) -> str:
    return json.dumps({"schema": 1, **payload}, indent=2) + "\n"


def _emit(config: RunConfig, text: str) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table_payload(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> dict:
    return {"rows": [dict(zip(header, row)) for row in rows]}


def _emit_table(config: RunConfig, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    if config.format == "csv":
        _emit(config, _render_csv(header, rows))
    else:
        _emit(config, _render_json(_table_payload(header, rows)))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _instance_spec(config: RunConfig) -> RandomInstanceSpec:
    p = config.params
    try:
        return RandomInstanceSpec(
            n_axes=tuple(p.get("n_axes", (2, 4))),
            axis_size=tuple(p.get("axis_size", (2, 4))),
            values=p.get("values", "uniform"),
            weights=p.get("weights", "uniform"),
            epsilon=float(p.get("epsilon", 0.1)),
            seed=config.seed,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def cmd_verify(config: RunConfig) -> int:
    with _reading_params("verify"):
        entropy_count = config.param("entropy_count", None)
        entropy_count = None if entropy_count is None else int(entropy_count)
        tail_points = int(config.param("tail_points", 20))
        scalar_count = int(config.param("scalar_count", 100))
    report = run_property_suite(
        _instance_spec(config),
        count=int(config.count or 0),
        entropy_count=entropy_count,
        tail_points=tail_points,
        scalar_count=scalar_count,
        inject_bug=bool(config.param("inject_bug", False)),
    )
    print(report.format_table(), file=sys.stderr)
    if config.format == "csv":
        header = ["check", "instances", "max_violation", "tolerance", "passed", "witness_seed"]
        rows = [
            [c.name, c.instances, c.max_violation, c.tolerance, c.passed,
             "" if c.witness_seed is None else c.witness_seed]
            for c in report.checks
        ]
        text = _render_csv(header, rows)
    else:
        text = _render_json(report.to_json())
    _emit(config, text)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# ustat
# ---------------------------------------------------------------------------


def _base_axis(config: RunConfig) -> tuple[FiniteAxis, tuple[float, ...]]:
    points = tuple(float(x) for x in config.param("base_points", (-1.0, 1.0)))
    weights = config.param("base_weights", None)
    if weights is None:
        axis = FiniteAxis.uniform(len(points))
    else:
        axis = FiniteAxis(weights=tuple(float(w) for w in weights))
    return axis, points


def _make_kernel(config: RunConfig, m: int) -> usmod.Kernel:
    name = config.param("kernel", "product")
    path = config.param("kernel_path", None)
    if path:
        try:
            return usmod.kernel_from_json(_read_json(path, "kernel"))
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"bad kernel document {path}: {exc}") from exc
    makers = {
        "product": usmod.product_kernel,
        "mean": usmod.mean_kernel,
        "sign-agreement": usmod.sign_agreement_kernel,
    }
    if name not in makers:
        raise ConfigError(f"unknown kernel {name!r}")
    return makers[name](m)


def cmd_ustat(config: RunConfig) -> int:
    with _reading_params("ustat"):
        axis, points = _base_axis(config)
        m_values = [int(m) for m in config.param("m_values", (2, 3, 4))]
        n_values = [int(n) for n in config.param("n_values", (10, 50, 200))]
        t_values = [float(t) for t in config.param("t_values", (0.05, 0.1, 0.2, 0.5, 1.0))]
        mc_samples = int(config.param("mc_samples", 2000))
    header = [
        "m", "n", "t", "sigma1sq", "ustat_bound", "arcones_bound",
        "tail_kind", "tail", "tail_stderr", "crossover_t", "crossover_product",
        "note",
    ]
    rows: list[list[Any]] = []
    for m in m_values:
        kernel = _make_kernel(config, m)
        if kernel.m != m:
            raise ConfigError(f"kernel order {kernel.m} does not match m={m}")
        for n in n_values:
            if n <= m:
                continue
            problem = usmod.UStatProblem(
                kernel=kernel, n=n, base_axis=axis, base_points=points
            )
            s1 = usmod.sigma1_squared(problem)
            cross = usmod.crossover(m, s1, n)
            tails, kind, note = _ustat_tails(
                problem, t_values, config.cap, mc_samples, config.seed
            )
            for t in t_values:
                tail, stderr = tails.get(t, ("", ""))
                rows.append([
                    m, n, t, s1,
                    usmod.ustat_bound(n, m, s1, t),
                    usmod.arcones_bound(n, m, s1, t),
                    kind, tail, stderr,
                    cross.t if cross.found else "",
                    cross.product if cross.found else "",
                    note,
                ])
    _emit_table(config, header, rows)
    return 0


def _ustat_tails(problem, t_values, cap, mc_samples, seed):
    """Exact two-sided tails when the sample multisets fit the cap, Monte Carlo otherwise."""
    try:
        counts = multisets(problem.n, problem.base_axis.size, cap)
        values = usmod.u_at_counts(problem, counts)
        probs = multiset_probabilities(counts, problem.base_axis.weights)
        center = usmod.exact_u_mean(problem)
        tails = {t: (fsum(probs[np.abs(values - center) > t]), 0.0) for t in t_values}
        return tails, "exact", ""
    except (CapacityError, OverflowError):
        pass
    try:
        values = usmod.sample_u_values(problem, mc_samples, seed=seed)
        center = usmod.exact_u_mean(problem)
        tails = {}
        for t in t_values:
            p = float(np.mean(np.abs(values - center) > t))
            tails[t] = (p, math.sqrt(p * (1.0 - p) / len(values)))
        return tails, "mc", "exact tails over cap; fell back to Monte Carlo"
    except CapacityError:
        return {}, "skipped", "tail skipped; Monte Carlo budget exceeded"


# ---------------------------------------------------------------------------
# rls
# ---------------------------------------------------------------------------

_DEMO_RLS = {
    "dim": 1,
    "lambda": 0.5,
    "n": 8,
    "population": [
        {"x": [0.9], "y": 0.8, "p": 0.5},
        {"x": [-0.7], "y": -0.6, "p": 0.5},
    ],
}


def cmd_rls(config: RunConfig) -> int:
    path = config.param("path", None)
    doc = _read_json(path, "rls problem") if path else _DEMO_RLS
    try:
        population, n, lam = rlsmod.rls_config_from_json(doc)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad rls problem document: {exc}") from exc
    with _reading_params("rls"):
        c = float(config.param("c", 1.0))
        t_points = int(config.param("t_points", 10))
        mc_samples = int(config.param("mc_samples", 100_000))
        replications = int(config.param("replications", 200))
        grid = int(config.param("grid", 3))
        h = float(config.param("h", 1e-4))
        sweep = [float(x) for x in config.param("lambda_sweep", np.arange(1, 10) / 10.0)]

    header = [
        "section", "key", "lam", "t", "value", "stderr", "bound_c", "bound_measured",
    ]
    rows: list[list[Any]] = []

    problem = rlsmod.population_sampler(population, n, lam)(substream(config.seed, 0xA1))
    solution = rlsmod.solve(problem)
    emp = rlsmod.empirical_risk(solution, problem)
    true = rlsmod.true_risk(solution, population)
    rows.append(["summary", "norm_w", lam, "", float(np.linalg.norm(solution.w)), "", "", ""])
    rows.append(["summary", "norm_limit", lam, "", lam ** -0.5, "", "", ""])
    rows.append(["summary", "solve_residual", lam, "", solution.residual, "", "", ""])
    rows.append(["summary", "empirical_risk", lam, "", emp, "", "", ""])
    rows.append(["summary", "true_risk", lam, "", true, "", "", ""])

    atoms = [(population.xs[i], float(population.ys[i])) for i in range(population.size)]
    za, zb = atoms[0], atoms[min(1, population.size - 1)]
    deriv = rlsmod.derivative_bound_check(problem, 0, 1, za, zb, za, zb, grid=grid, h=h)
    for key, value in deriv.to_json().items():
        rows.append(["derivative_check", key, lam, "", value, "", "", ""])
    if not (deriv.first_ok and deriv.mixed_ok and deriv.rate_ok and deriv.gram_mixed_ok):
        _emit_table(config, header, rows)
        return 1

    scv_mean, scv_err = rlsmod.empirical_scv(
        rlsmod.population_sampler(population, n, lam),
        population,
        replications,
        seed=derive_seed(config.seed, 0xA2),
    )
    rows.append(["scv", "empirical_scv", lam, "", scv_mean, scv_err, "", ""])
    measured = rlsmod.measured_ingredients(population, n, lam)
    for key in ("e_scv", "b", "crude_j"):
        rows.append(["scv", key, lam, "", measured[key], "", "", ""])

    mean_gap = rlsmod.exact_gap_mean(population, n, lam)
    values = rlsmod.mc_gap_values(population, n, lam, mc_samples, derive_seed(config.seed, 0xA3))
    tmax = float(rlsmod.GapTable(population, n, lam).gaps.max()) - mean_gap
    if tmax > 0.0:
        for t in np.linspace(0.0, tmax, t_points + 1)[1:]:
            p = float(np.mean(values - mean_gap > t))
            stderr = math.sqrt(p * (1.0 - p) / mc_samples)
            bound_c = rlsmod.gap_tail_bound(scv_mean, n, lam, c, float(t))
            bound_measured = bnd.main_bound(
                measured["e_scv"], measured["b"], measured["crude_j"], float(t)
            ).value
            rows.append(["bound_curve", "tail", lam, float(t), p, stderr, bound_c, bound_measured])

    for lam_s in sweep:
        m_s = rlsmod.measured_ingredients(population, n, lam_s)
        rows.append(["lambda_sweep", "crude_j", lam_s, "", m_s["crude_j"], "", "", ""])
        rows.append(["lambda_sweep", "b", lam_s, "", m_s["b"], "", "", ""])
        rows.append(["lambda_sweep", "e_scv", lam_s, "", m_s["e_scv"], "", "", ""])

    _emit_table(config, header, rows)
    return 0


# ---------------------------------------------------------------------------
# bounds-table
# ---------------------------------------------------------------------------


def cmd_bounds_table(config: RunConfig) -> int:
    spec = _instance_spec(config)
    with _reading_params("bounds-table"):
        t_points = int(config.param("t_points", 20))
    header = [
        "instance", "seed", "t", "bd_term", "sup_scv", "e_scv",
        "sigma2_plus_quarter_j2", "sup_bernstein", "main", "variance_corollary",
        "exact_tail",
    ]
    rows: list[list[Any]] = []
    for i in range(int(config.count or 0)):
        inst_seed = derive_seed(config.seed, 0xB0, i)
        _, f = generate_instance(dataclasses.replace(spec, seed=inst_seed))
        ing = bnd.bound_ingredients(f)
        for t, tail, sup_bernstein, main, corollary in tail_curve(f, ing, t_points):
            rows.append([
                i, inst_seed, t,
                ing["bd_term"], ing["sup_scv"], ing["E_scv"],
                ing["sigma2"] + 0.25 * ing["j"] ** 2,
                sup_bernstein, main, corollary, tail,
            ])
    _emit_table(config, header, rows)
    return 0


# ---------------------------------------------------------------------------
# normal-limit-demo
# ---------------------------------------------------------------------------


def cmd_normal_limit_demo(config: RunConfig) -> int:
    with _reading_params("normal-limit-demo"):
        axis, points = _base_axis(config)
        m = int(config.param("m", 2))
        n_values = [int(n) for n in config.param("n_values", tuple(range(m + 2, 13)))]
        t = float(config.param("t", 1.0))
    kernel = _make_kernel(config, m)
    header = [
        "n", "sigma2_n", "b", "j_mu", "linear_term", "bound", "normal_tail",
    ]
    rows: list[list[Any]] = []
    for n in n_values:
        problem = usmod.UStatProblem(kernel=kernel, n=n, base_axis=axis, base_points=points)
        u = usmod.tabulate_u(problem, cap=config.cap)
        f_n = u * float(n)
        e_scv = expectation(scv(f_n))
        sigma2_n = e_scv / n
        b = bnd.per_coordinate_range_bound(f_n)
        j_mu = weighted_interaction(f_n)
        linear = (2.0 * b / 3.0 + j_mu) / math.sqrt(n)
        denom = 2.0 * sigma2_n + linear * t
        bound = math.exp(-t * t / denom) if denom > 0.0 else 0.0
        normal = math.exp(-t * t / (2.0 * sigma2_n)) if sigma2_n > 0.0 else 0.0
        rows.append([n, sigma2_n, b, j_mu, linear, bound, normal])
    _emit_table(config, header, rows)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interaction-bounds",
        description="Concentration-bound verification toolkit",
    )
    parser.add_argument("command", nargs="?", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON config file mirroring RunConfig")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--cap", type=int, default=None)
    return parser


_DISPATCH = {
    "verify": cmd_verify,
    "ustat": cmd_ustat,
    "rls": cmd_rls,
    "bounds-table": cmd_bounds_table,
    "normal-limit-demo": cmd_normal_limit_demo,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _build_config(args)
        return _DISPATCH[config.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except rlsmod.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
