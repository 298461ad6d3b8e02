"""Command-line interface.

Subcommands::

    verify             run the inequality suite on seeded random instances
    ustat              tail-bound comparison table for U-statistics
    rls                regularized-least-squares stability experiment
    bounds-table       side-by-side variance terms and tail bounds
    normal-limit-demo  rescaled bound against the normal tail (no assertion)

Common flags: ``--config <json>``, ``--seed <u64>``, ``--out <path>``,
``--format csv|json``, ``--count <int>``, ``--cap <int>``.  A config file
mirrors the flags plus a per-command ``params`` block; flags override it.
``verify`` and ``bounds-table`` read ``--count`` and not ``--cap``; the other
three read ``--cap`` and not ``--count``.
``_SCHEMA`` declares each params field once (converter, default, allowed
range), and ``RunConfig`` checks a config against it before dispatch.

Output is deterministic for a fixed config and seed: CSV carries a
``#schema=1`` comment line and every float is printed with 17 significant
digits (round-trip exact).  Exit codes: 0 success, 1 inequality violation,
solver failure or a ``verify`` worker that ended without a result (for
example killed by a signal), 2 configuration error, including a ``--count``
or ``--cap`` that the command does not read, an enumeration over ``--cap``,
a run that exhausts memory within ``--cap`` and an ``--out`` path that
cannot be written; each error is one line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from . import bounds as bnd
from . import rls as rlsmod
from . import ustat as usmod
from .exchangeable import MultisetTable, mc_tails, multiset_count, rank
from .harness import (
    _INEQ_TOL,
    RandomInstanceSpec,
    WorkerError,
    generate_instance,
    run_property_suite,
    tail_curve,
    tail_excess,
)
from .rng import derive_seed, substream
from .space import DEFAULT_CAP, CapacityError, FiniteAxis, _integer, tail_probabilities


class ConfigError(Exception):
    """Invalid command-line or config-file input."""


@dataclass
class RunConfig:
    command: str
    seed: int = 0
    out: str | None = None
    format: str = "csv"
    count: int | None = None
    cap: int | None = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.command, str) or self.command not in _SCHEMA:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.out is not None and not (isinstance(self.out, str) and self.out):
            raise ConfigError(f"'out' must be a path string, got {self.out!r}")
        if not isinstance(self.params, dict):
            raise ConfigError("'params' must be an object")
        schema = _SCHEMA[self.command]
        given = [name for name in ("count", "cap") if getattr(self, name) is not None]
        self.count = schema.count if self.count is None else self.count
        self.cap = DEFAULT_CAP if self.cap is None else self.cap
        try:
            self.seed, self.cap, self.count = map(_integer, (self.seed, self.cap, self.count))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"seed, cap and count must be integers: {exc}") from exc
        if self.count < 0:
            raise ConfigError(f"count must be nonnegative, got {self.count}")
        if self.cap < 1:
            raise ConfigError(f"cap must be at least 1, got {self.cap}")
        if ignored := [name for name in given if name not in schema.reads]:
            raise ConfigError(f"--{ignored[0]} is not read by {self.command}")
        self.params = _read_params(self.command, self.params, self.seed)


def _read_json(path: str, what: str, parse: Callable[[Any], Any] = lambda doc: doc) -> Any:
    """The JSON document at ``path``, through ``parse``; a config error if either fails."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return parse(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad {what} document {path}: {exc}") from exc


def _config_document(doc: Any) -> dict:
    if not isinstance(doc, dict):
        raise ValueError("config file must contain a JSON object")
    unknown = set(doc) - {f.name for f in dataclasses.fields(RunConfig)}
    if unknown:
        raise ValueError(f"unknown config field(s): {sorted(unknown)}")
    return doc


def _build_config(args: argparse.Namespace) -> RunConfig:
    doc = _read_json(args.config, "config", _config_document) if args.config else {}
    command = args.command or doc.get("command")
    if command is None:
        raise ConfigError("no command given (flag or config 'command')")
    return RunConfig(
        command=command,
        seed=args.seed if args.seed is not None else doc.get("seed", 0),
        out=args.out if args.out is not None else doc.get("out"),
        format=args.format if args.format is not None else doc.get("format", "csv"),
        count=args.count if args.count is not None else doc.get("count"),
        cap=args.cap if args.cap is not None else doc.get("cap"),
        params={} if doc.get("params") is None else doc["params"],
    )


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
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {config.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_table(config: RunConfig, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    if config.format == "csv":
        _emit(config, _render_csv(header, rows))
    else:
        _emit(config, _render_json({"rows": [dict(zip(header, row)) for row in rows]}))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_verify(config: RunConfig) -> int:
    p = config.params
    report = run_property_suite(
        p["spec"],
        count=config.count,
        entropy_count=p["entropy_count"],
        tail_points=p["tail_points"],
        scalar_count=p["scalar_count"],
        inject_bug=p["inject_bug"],
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


def cmd_ustat(config: RunConfig) -> int:
    p = config.params
    t_values = p["t_values"]
    header = [
        "m", "n", "t", "sigma1sq", "ustat_bound", "arcones_bound",
        "tail_kind", "tail", "tail_stderr", "crossover_t", "crossover_product",
        "note",
    ]
    # The rows of each m, in n order.  Sample sizes go outside, so that one
    # multiset table at a time is live, enumerated on first use and shared by every m.
    by_m: list[list[list[Any]]] = [[] for _ in p["m_values"]]
    for n in p["n_values"]:
        table = MultisetTable(p["axis"].weights, n, config.cap)
        for rows, m in zip(by_m, p["m_values"]):
            if n <= m:
                continue
            problem = p["problems"][m]
            s1 = problem.sigma1sq
            cross = usmod.crossover(m, s1, n)
            tails, kind, note = _ustat_tails(problem, table, t_values, p["mc_samples"], config.seed)
            for t, (tail, stderr) in zip(t_values, tails):
                rows.append([
                    m, n, t, s1,
                    usmod.ustat_bound(n, m, s1, t),
                    usmod.arcones_bound(n, m, s1, t),
                    kind, tail, stderr,
                    cross.t if cross.found else "",
                    cross.product if cross.found else "",
                    note,
                ])
    _emit_table(config, header, [row for rows in by_m for row in rows])
    return 0


def _ustat_tails(problem, table, t_values, mc_samples, seed):
    """Two-sided ``(tail, stderr)`` per ``t``, kind and note: exact within the caps, else Monte Carlo.

    ``table`` is the ``MultisetTable`` of the sample size.  The note of a
    Monte Carlo cell names the limit that refused the exact tails; a cell over
    both the multiset cap and the kernel-term budget names the cap, and either
    refuses before the sample multisets are enumerated.
    """
    center = problem.u_mean
    try:
        if (rows := multiset_count(table.n, len(table.weights))) <= table.cap:
            usmod.check_kernel_terms(problem, rows)
        deviations = np.abs(usmod.u_at_counts(problem, table.counts) - center)
        return [(p, 0.0) for p in tail_probabilities(deviations, table.probs, t_values)], "exact", ""
    except CapacityError as exc:
        note = f"exact tails: {exc}; fell back to Monte Carlo"
    try:  # the whole sample counts against the budget, before the first draw
        usmod.check_kernel_terms(problem, mc_samples)
    except CapacityError:
        return [("", "")] * len(t_values), "skipped", "tail skipped; Monte Carlo budget exceeded"
    tails = mc_tails(
        substream(seed, 0x0E), table.weights, table.n, mc_samples,
        lambda counts: np.abs(usmod.u_at_counts(problem, counts) - center), t_values,
    )
    return tails, "mc", note


#: The ``MultisetTable.ingredients`` key of each ingredient ``rls`` prints, by printed name.
_RLS_INGREDIENTS = {"e_scv": "E_scv", "b": "b", "crude_j": "crude"}


def cmd_rls(config: RunConfig) -> int:
    p = config.params
    population, n, lam = p["problem"]
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
    deriv = rlsmod.derivative_bound_check(problem, 0, 1, za, zb, za, zb, grid=p["grid"], h=p["h"])
    for key, value in deriv.to_json().items():
        rows.append(["derivative_check", key, lam, "", value, "", "", ""])
    if not (deriv.first_ok and deriv.mixed_ok and deriv.rate_ok and deriv.gram_mixed_ok):
        _emit_table(config, header, rows)
        return 1

    scv_mean, scv_err = rlsmod.empirical_scv(
        population, n, lam, p["replications"], seed=derive_seed(config.seed, 0xA2)
    )
    rows.append(["scv", "empirical_scv", lam, "", scv_mean, scv_err, "", ""])
    # One multiset table, and one gap table and its ingredients per distinct
    # lambda, shared by every section below.
    multiset_table = MultisetTable(population.probs, n, config.cap)
    gap_table = functools.cache(functools.partial(rlsmod.GapTable, population, multiset_table))
    measured_at = functools.cache(lambda at: multiset_table.ingredients(gap_table(at).gaps))
    table, measured = gap_table(lam), measured_at(lam)
    for key, name in _RLS_INGREDIENTS.items():
        rows.append(["scv", key, lam, "", measured[name], "", "", ""])

    mean_gap = multiset_table.mean(table.gaps)
    tmax = float(table.gaps.max()) - mean_gap
    if tmax > 0.0:
        t_values = np.linspace(0.0, tmax, p["t_points"] + 1)[1:].tolist()
        tails = mc_tails(
            substream(derive_seed(config.seed, 0xA3), 0xF0), population.probs, n,
            p["mc_samples"], lambda counts: table.gaps[rank(counts)] - mean_gap, t_values,
        )
        for t, (tail, stderr) in zip(t_values, tails):
            bound_c = rlsmod.gap_tail_bound(scv_mean, n, lam, p["c"], t)
            bound_measured = bnd.main_bound(
                measured["E_scv"], measured["b"], measured["crude"], t
            ).value
            rows.append(["bound_curve", "tail", lam, t, tail, stderr, bound_c, bound_measured])

    for lam_s in p["lambda_sweep"]:
        m_s = measured_at(lam_s)
        for key, name in reversed(_RLS_INGREDIENTS.items()):
            rows.append(["lambda_sweep", key, lam_s, "", m_s[name], "", "", ""])

    _emit_table(config, header, rows)
    return 0


def cmd_bounds_table(config: RunConfig) -> int:
    spec, t_points = config.params["spec"], config.params["t_points"]
    header = [
        "instance", "seed", "t", "bd_term", "sup_scv", "e_scv",
        "sigma2_plus_quarter_j2", "sup_bernstein", "main", "variance_corollary",
        "exact_tail",
    ]
    rows: list[list[Any]] = []
    violations = []
    for i in range(config.count):
        inst_seed = derive_seed(config.seed, 0xB0, i)
        _, f = generate_instance(dataclasses.replace(spec, seed=inst_seed))
        ing = bnd.bound_ingredients(f)
        curve = tail_curve(f, ing, t_points)
        for t, tail, sup_bernstein, main, corollary in curve:
            rows.append([
                i, inst_seed, t,
                ing["bd_term"], ing["sup_scv"], ing["E_scv"],
                ing["sigma2"] + 0.25 * ing["j"] ** 2,
                sup_bernstein, main, corollary, tail,
            ])
        for column, (excess, row) in zip(header[7:10], tail_excess(curve)):
            if excess > _INEQ_TOL:
                violations.append(
                    f"bound violated: instance {i} (seed {inst_seed}), t "
                    f"{_fmt_cell(curve[row][0])}: {column} is below the exact tail "
                    f"by {excess:.3e}"
                )
    _emit_table(config, header, rows)
    for line in violations:
        print(line, file=sys.stderr)
    return 1 if violations else 0


def cmd_normal_limit_demo(config: RunConfig) -> int:
    p = config.params
    t, problem = p["t"], p["problems"][p["m"]]
    header = [
        "n", "sigma2_n", "b", "j_mu", "linear_term", "bound", "normal_tail",
    ]
    rows: list[list[Any]] = []
    for n in p["n_values"]:
        table = MultisetTable(p["axis"].weights, n, config.cap)
        ing = table.ingredients(usmod.u_at_counts(problem, table.counts) * n)
        sigma2_n = ing["E_scv"] / n
        b, j_mu = ing["b"], ing["j_mu"]
        linear = (2.0 * b / 3.0 + j_mu) / math.sqrt(n)
        denom = 2.0 * sigma2_n + linear * t
        bound = math.exp(-t * t / denom) if denom > 0.0 else 0.0
        normal = math.exp(-t * t / (2.0 * sigma2_n)) if sigma2_n > 0.0 else 0.0
        rows.append([n, sigma2_n, b, j_mu, linear, bound, normal])
    _emit_table(config, header, rows)
    return 0


# ---------------------------------------------------------------------------
# Params schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Field:
    """One params field: converter, default, and allowed range of each entry.

    ``default`` is a value, or a function of the fields declared before it.  A
    field whose default is null may be null.
    """

    convert: Callable[[Any], Any]
    default: Any
    ok: Callable[[Any], bool] = lambda v: True
    rule: str = ""

    def read(self, name: str, value: Any) -> Any:
        if value is None and self.default is None:
            return None
        try:
            value = self.convert(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None
        is_list = isinstance(value, tuple)
        for v in value if is_list else (value,):
            if not self.ok(v):
                raise ValueError(f"{name}{' entries' * is_list} must be {self.rule}, got {v!r}")
        return value


def _real(value: Any) -> float:
    """``value`` as a finite float; NaN and the infinities are errors."""
    real = float(value)
    if not math.isfinite(real):
        raise ValueError(f"expected a finite number, got {value!r}")
    return real


def _list_of(
    convert: Callable[[Any], Any], lo: int = 0, hi: float = math.inf
) -> Callable[[Any], tuple]:
    """A list of ``lo`` to ``hi`` entries, each through ``convert``."""

    def read(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        if not lo <= len(value) <= hi:
            size = lo if lo == hi else f"at least {lo}"
            raise ValueError(f"got {len(value)} entries, expected {size}")
        return tuple(convert(v) for v in value)

    return read


def _at_least(lo: int) -> tuple[Callable[[Any], bool], str]:
    return (lambda v: v >= lo), f">= {lo}"


def _between(lo: float, hi: float) -> tuple[Callable[[Any], bool], str]:
    return (lambda v: lo < v < hi), f"in ({lo}, {hi})"


#: Kernel names to ``ustat`` factory names, looked up when a config is built.
_KERNELS = {
    "product": "product_kernel",
    "mean": "mean_kernel",
    "sign-agreement": "sign_agreement_kernel",
}

_DEMO_RLS = {
    "dim": 1, "lambda": 0.5, "n": 8,
    "population": [{"x": [0.9], "y": 0.8, "p": 0.5}, {"x": [-0.7], "y": -0.6, "p": 0.5}],
}

# Shared by verify and bounds-table; ``RandomInstanceSpec`` checks them.
_INSTANCE_FIELDS = {
    "n_axes": _Field(_list_of(_integer, 2, 2), (2, 4)),
    "axis_size": _Field(_list_of(_integer, 2, 2), (2, 4)),
    "values": _Field(str, "uniform"),
    "weights": _Field(str, "uniform"),
    "epsilon": _Field(_real, 0.1),
}

# Shared by ustat and normal-limit-demo; ``FiniteAxis`` checks the weights.
_KERNEL_FIELDS = {
    "kernel": _Field(str, "product", _KERNELS.__contains__, f"one of {sorted(_KERNELS)}"),
    "base_points": _Field(_list_of(_real, 1), (-1.0, 1.0)),
    "base_weights": _Field(_list_of(_real, 1), None),
}


def _instance_spec(p: dict, seed: int) -> None:
    p["spec"] = RandomInstanceSpec(**{k: p.pop(k) for k in _INSTANCE_FIELDS}, seed=seed)


def _kernel_and_base(p: dict, orders: Sequence[int]) -> None:
    """Replace the kernel fields by ``p["axis"]`` and ``p["problems"]`` (order to problem).

    The problems built here, one per order, are the ones the command reuses,
    with their kernel tables and means.
    """
    factory = getattr(usmod, _KERNELS[p.pop("kernel")])
    if path := p.pop("kernel_path", None):
        kernel = _read_json(path, "kernel", usmod.kernel_from_json)
        if any(m != kernel.m for m in orders):
            raise ValueError(f"kernel order {kernel.m} does not match m_values {orders}")
        factory = lambda m: kernel
    points, weights = p.pop("base_points"), p.pop("base_weights")
    p["axis"] = FiniteAxis.uniform(len(points)) if weights is None else FiniteAxis(weights=weights)
    # Evaluate the kernel at the base points, and its mean, which the problem
    # holds for every cell, now, so that a value outside [-1, 1] or a table
    # without a base point is a config error.
    p["problems"] = {}
    for m in dict.fromkeys(orders):
        p["problems"][m] = problem = usmod.UStatProblem(factory(m), p["axis"], points)
        problem.u_mean


def _normal_limit_params(p: dict, seed: int) -> None:
    _kernel_and_base(p, (p["m"],))
    if any(n <= p["m"] for n in p["n_values"]):
        raise ValueError(f"n_values {p['n_values']} must all exceed m = {p['m']}")


def _rls_params(p: dict, seed: int) -> None:
    path, parse = p.pop("path"), rlsmod.rls_config_from_json
    p["problem"] = _read_json(path, "rls problem", parse) if path else parse(_DEMO_RLS)
    # Refuse, before any solve or draw and against the budget of ustat's
    # Monte Carlo fallback, the sample points of the tail curve's samples of
    # n points, of the derivative lattice (14 perturbed samples of n points
    # per lattice point) and of empirical_scv's replaced samples (two per
    # point of each replication).
    n, budget = p["problem"][1], usmod.DEFAULT_EVAL_CAP
    for name, points in (
        ("mc_samples", p["mc_samples"] * n),
        ("grid", 14 * p["grid"] ** 2 * n),
        ("replications", 2 * p["replications"] * n * n),
    ):
        if points > budget:
            raise ValueError(
                f"{name} {p[name]} at n {n} is {points} sample points, "
                f"over the budget of {budget}"
            )


@dataclass(frozen=True)
class _Command:
    """A command: its runner, params fields, build step, default ``--count`` and flags read.

    ``build(params, seed)`` checks across fields and replaces fields by the
    objects the library checks itself (instance spec, base axis, documents).
    ``reads`` names which of ``--count`` and ``--cap`` the command reads; the
    other one, given as a flag or a config field, is a config error.
    """

    run: Callable[[RunConfig], int]
    fields: dict[str, _Field]
    build: Callable[[dict, int], None]
    count: int = 0
    reads: tuple[str, ...] = ()


_SCHEMA = {
    "verify": _Command(cmd_verify, {
        "entropy_count": _Field(_integer, None, *_at_least(0)),
        "tail_points": _Field(_integer, 20, *_at_least(1)),
        "scalar_count": _Field(_integer, 100, *_at_least(0)),
        "inject_bug": _Field(lambda v: v, False, lambda v: isinstance(v, bool), "true or false"),
        **_INSTANCE_FIELDS,
    }, _instance_spec, count=200, reads=("count",)),
    "ustat": _Command(cmd_ustat, {
        **_KERNEL_FIELDS,
        "kernel_path": _Field(str, None),
        "m_values": _Field(_list_of(_integer), (2, 3, 4), *_at_least(2)),
        "n_values": _Field(_list_of(_integer), (10, 50, 200)),
        "t_values": _Field(_list_of(_real), (0.05, 0.1, 0.2, 0.5, 1.0), *_between(0, math.inf)),
        "mc_samples": _Field(_integer, 2000, *_at_least(1)),
    }, lambda p, seed: _kernel_and_base(p, p["m_values"]), reads=("cap",)),
    "rls": _Command(cmd_rls, {
        "path": _Field(str, None),
        "c": _Field(_real, 1.0, *_between(0, math.inf)),
        "t_points": _Field(_integer, 10, *_at_least(1)),
        "mc_samples": _Field(_integer, 100_000, *_at_least(1)),
        "replications": _Field(_integer, 200, *_at_least(2)),
        "grid": _Field(_integer, 3, *_at_least(1)),
        "h": _Field(_real, 1e-4, *_between(0, 0.25)),
        "lambda_sweep": _Field(_list_of(_real), tuple(np.arange(1, 10) / 10.0), *_between(0, 1)),
    }, _rls_params, reads=("cap",)),
    "bounds-table": _Command(cmd_bounds_table, {
        "t_points": _Field(_integer, 20, *_at_least(1)),
        **_INSTANCE_FIELDS,
    }, _instance_spec, count=20, reads=("count",)),
    "normal-limit-demo": _Command(cmd_normal_limit_demo, {
        **_KERNEL_FIELDS,
        "m": _Field(_integer, 2, *_at_least(2)),
        "n_values": _Field(_list_of(_integer), lambda p: tuple(range(p["m"] + 2, 13))),
        "t": _Field(_real, 1.0, *_between(0, math.inf)),
    }, _normal_limit_params, reads=("cap",)),
}


def _read_params(command: str, given: dict, seed: int) -> dict[str, Any]:
    """The params of ``command``: ``given`` checked, converted and defaulted."""
    schema = _SCHEMA[command]
    unknown = set(given) - set(schema.fields)
    if unknown:
        raise ConfigError(f"unknown params field(s) for {command}: {sorted(unknown)}")
    params: dict[str, Any] = {}
    try:
        for name, fld in schema.fields.items():
            value = given.get(name, fld.default)
            params[name] = fld.read(name, value(params) if callable(value) else value)
        schema.build(params, seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {command} params: {exc}") from exc
    return params


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interaction-bounds",
        description="Concentration-bound verification toolkit",
    )
    parser.add_argument("command", nargs="?", choices=_SCHEMA)
    parser.add_argument("--config", help="JSON config file mirroring RunConfig")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--cap", type=int, default=None)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _build_config(args)
        return _SCHEMA[config.command].run(config)
    except (ConfigError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = " ".join(str(exc).split()) or "no detail"
        print(f"config error: out of memory ({detail}); lower --cap", file=sys.stderr)
        return 2
    except rlsmod.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except WorkerError as exc:
        print(f"worker failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
