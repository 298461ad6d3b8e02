"""Seeded instance generation, exact tails, and the inequality suite.

Everything here is a pure function of its seed: instances come from Philox
substreams keyed ``(seed, purpose, index)`` (see ``rng``), so any failing
check can be replayed from the witness seed recorded in the report.

``run_property_suite`` drives every inequality the package implements over
randomized instances and reports, per check, the number of instances, the
worst observed violation, the tolerance it was judged against, and the
witness seed of the first failure.  Failures are data, not exceptions.

Every check of the suite runs in a job of one map, ``_fork_map(job,
count)``, which returns ``[job(p) for p in range(count)]`` on every CPU in
the process's affinity mask.  A job is one exact instance with its pure-sum
instance, one entropy instance, or, last, the scalar lemmas, and returns the
``(check, violation, seed)`` events of its checks.  One forked worker per CPU
takes the next job position off a shared pipe whenever it is free and sends
its results back, pickled over a pipe of its own.  The parent computes no
check: it replays every job's events into the accumulators in job order, so
the report is the serial loop's byte for byte, with the same first witness
seed and the same error if a job raises.  Where ``os.fork`` or
``os.sched_getaffinity`` is missing, or one CPU is available, the map is the
serial loop in-process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
import pickle
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from . import bounds as bnd
from .functionals import (
    conditional_entropy,
    gibbs,
    gibbs_expectation,
    herbst_log_mgf,
    interaction,
    log_mgf,
    weighted_interaction,
)
from .operators import (
    cond_expectation,
    cond_variance,
    cond_variance_pairs,
    scv,
    self_bounding_operator,
    substitute,
)
from .rng import derive_seed, substream
from .space import (
    FiniteAxis,
    FiniteProductSpace,
    TabulatedFunction,
    expectation,
    fsum,
    memo_scalar,
    tail_probabilities,
    variance,
)

#: Inverse temperatures used by every entropy-side check.
BETA_GRID = (0.25, 0.5, 1.0, 2.0)

#: Scalar-lemma grid for the psi-ratio inequality.
A_GRID = (0.0, 0.1, 1.0, 10.0)

VALUE_DISTRIBUTIONS = ("uniform", "sparse", "sum_plus_perturbation")
WEIGHT_DISTRIBUTIONS = ("uniform", "dirichlet")


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Recipe for one random space-plus-function instance.

    ``n_axes`` and ``axis_size`` are inclusive ranges.  ``values`` selects the
    table distribution: ``uniform`` on [-1, 1], ``sparse`` (seven in ten
    entries zeroed), or ``sum_plus_perturbation`` which builds a sum of
    per-axis profiles plus ``epsilon`` times a uniform table, so the
    interaction functional scales with ``epsilon`` and vanishes at zero.
    ``epsilon`` lies in ``[0, 1]``, so every table lies in ``[-2, 2]``: the
    suite's tolerances are absolute and set for values of order one.
    Generation is a pure function of ``seed``.
    """

    n_axes: tuple[int, int] = (2, 4)
    axis_size: tuple[int, int] = (2, 4)
    values: str = "uniform"
    weights: str = "uniform"
    seed: int = 0
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("n_axes", self.n_axes), ("axis_size", self.axis_size)):
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} range {lo}..{hi} is empty or invalid")
        if self.values not in VALUE_DISTRIBUTIONS:
            raise ValueError(f"unknown value distribution {self.values!r}")
        if self.weights not in WEIGHT_DISTRIBUTIONS:
            raise ValueError(f"unknown weight distribution {self.weights!r}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon!r}")


def generate_instance(
    spec: RandomInstanceSpec,
) -> tuple[FiniteProductSpace, TabulatedFunction]:
    """Deterministically generate the instance described by ``spec``.

    Raises CapacityError before drawing the table when the space has more
    configurations than ``DEFAULT_CAP`` (``FiniteProductSpace`` refuses it).
    """
    rng = substream(spec.seed, 0x01)
    n = int(rng.integers(spec.n_axes[0], spec.n_axes[1] + 1))
    sizes = [int(rng.integers(spec.axis_size[0], spec.axis_size[1] + 1)) for _ in range(n)]
    axes = []
    for size in sizes:
        if spec.weights == "uniform":
            axes.append(FiniteAxis.uniform(size))
        else:
            raw = rng.dirichlet(np.ones(size))
            w = raw / math.fsum(raw.tolist())
            axes.append(FiniteAxis(weights=tuple(float(x) for x in w)))
    space = FiniteProductSpace(axes=tuple(axes))
    count = space.size
    if spec.values == "uniform":
        table = rng.uniform(-1.0, 1.0, size=count)
    elif spec.values == "sparse":
        table = rng.uniform(-1.0, 1.0, size=count) * (rng.random(count) < 0.3)
    else:
        table = np.zeros(space.shape)
        for k, size in enumerate(sizes):
            profile = rng.uniform(-1.0, 1.0, size=size) / n
            shape = [1] * n
            shape[k] = size
            table = table + profile.reshape(shape)
        table = table.ravel() + spec.epsilon * rng.uniform(-1.0, 1.0, size=count)
    return space, TabulatedFunction(space, table)


# ---------------------------------------------------------------------------
# Tails
# ---------------------------------------------------------------------------


def exact_tail(f: TabulatedFunction, t: float) -> float:
    """``Pr{f - Ef > t}`` by exact enumeration (strict inequality)."""
    centered = f.values - memo_scalar(f, "mean", lambda: expectation(f))
    return tail_probabilities(centered, f.space.weight_table(), [t])[0]


def tail_curve(f: TabulatedFunction, ing: dict[str, float], points: int) -> list[tuple]:
    """``(t, exact tail, sup-Bernstein, main, variance corollary)`` rows.

    One row per deviation ``t`` of an even ``points``-grid on ``(0, max f - Ef]``,
    with ``ing`` keyed as ``bounds.bound_ingredients``; no rows when ``b`` or
    the largest deviation is at most 1e-12, where the bounds say nothing.
    """
    e_scv, sigma2, b, j, j_mu = (ing[k] for k in ("E_scv", "sigma2", "b", "j", "j_mu"))
    centered = f.values - expectation(f)
    tmax = float(centered.max())
    if b <= 1e-12 or tmax <= 1e-12:
        return []
    t_values = np.linspace(0.0, tmax, points + 1)[1:].tolist()
    rows = []
    for t, tail in zip(t_values, tail_probabilities(centered, f.space.weight_table(), t_values)):
        rows.append((
            t,
            tail,
            bnd.sup_bernstein_bound(f, b, t).value,
            bnd.main_bound(e_scv, b, j_mu, t).value,
            bnd.variance_corollary_bound(sigma2, j, j_mu, b, t).value,
        ))
    return rows


def tail_excess(curve: list[tuple]) -> list[tuple[float, int]]:
    """The worst ``tail - bound`` of each bound column of ``tail_curve`` rows, and its row.

    One ``(excess, row index)`` pair per bound column, in column order
    (sup-Bernstein, main, variance corollary), and none for a curve without
    rows; the row is the first where the excess is largest.  A bound that
    holds has a nonpositive excess.
    """
    if not curve:
        return []
    return [
        max(((row[1] - row[column], i) for i, row in enumerate(curve)), key=lambda e: e[0])
        for column in (2, 3, 4)
    ]


# ---------------------------------------------------------------------------
# The inequality suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    instances: int
    max_violation: float
    witness_seed: int | None
    passed: bool

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple[CheckResult, ...]
    count: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "seed": self.seed,
            "count": self.count,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }

    def format_table(self) -> str:
        width = max([len(c.name) for c in self.checks], default=4)
        lines = [
            f"{'check':<{width}}  {'n':>5}  {'max violation':>13}  "
            f"{'tolerance':>9}  status  witness"
        ]
        for c in self.checks:
            witness = "-" if c.witness_seed is None else str(c.witness_seed)
            lines.append(
                f"{c.name:<{width}}  {c.instances:>5}  {c.max_violation:>13.3e}  "
                f"{c.tolerance:>9.0e}  {'pass' if c.passed else 'FAIL':<6}  {witness}"
            )
        return "\n".join(lines)


class _Accumulator:
    def __init__(self, name: str, tolerance: float) -> None:
        self.name = name
        self.tolerance = tolerance
        self.instances = 0
        self.max_violation = 0.0
        self.witness: int | None = None

    def add(self, violation: float, seed: int) -> None:
        self.instances += 1
        if violation > self.max_violation:
            self.max_violation = violation
        if violation > self.tolerance and self.witness is None:
            self.witness = seed

    def result(self) -> CheckResult:
        return CheckResult(
            name=self.name,
            tolerance=self.tolerance,
            instances=self.instances,
            max_violation=self.max_violation,
            witness_seed=self.witness,
            passed=self.max_violation <= self.tolerance,
        )


_IDENTITY_TOL = 1e-10
_STRICT_TOL = 1e-12
_INEQ_TOL = 1e-10
_QUAD_TOL = 1e-6
_REDUCTION_TOL = 1e-12

#: Registry order of every check the suite runs, with tolerances.
CHECKS: tuple[tuple[str, float], ...] = (
    ("efron_stein", _STRICT_TOL),
    ("efron_stein_sum_equality", _IDENTITY_TOL),
    ("variance_scaling", _IDENTITY_TOL),
    ("relabeling_invariance", _STRICT_TOL),
    ("cond_variance_two_forms", _IDENTITY_TOL),
    ("operator_commutation", _STRICT_TOL),
    ("efron_stein_gap_envelope", _INEQ_TOL),
    ("bias_bound_sandwich", _INEQ_TOL),
    ("chatterjee_identity", _IDENTITY_TOL),
    ("conditional_mean_variance", _STRICT_TOL),
    ("interaction_chain", _INEQ_TOL),
    ("interaction_homogeneity", _IDENTITY_TOL),
    ("self_bounding_scv", _INEQ_TOL),
    ("variance_term_ordering", _STRICT_TOL),
    ("tail_sup_bernstein", _INEQ_TOL),
    ("tail_main", _INEQ_TOL),
    ("tail_variance_corollary", _INEQ_TOL),
    ("bernstein_reduction", _REDUCTION_TOL),
    ("entropy_subadditivity", _INEQ_TOL),
    ("bennett_entropy", _INEQ_TOL),
    ("entropy_upper_self_bound", _INEQ_TOL),
    ("decoupling", _INEQ_TOL),
    ("herbst_identity", _QUAD_TOL),
    ("psi_ratio_grid", 0.0),
    ("chernoff_infimum", _INEQ_TOL),
)


def run_property_suite(
    spec: RandomInstanceSpec,
    count: int,
    entropy_count: int | None = None,
    tail_points: int = 20,
    scalar_count: int = 100,
    inject_bug: bool = False,
) -> SuiteReport:
    """Run every registered inequality check on ``count`` seeded instances.

    The exact (non-entropy) checks run on ``count`` instances drawn from
    ``spec`` plus ``count`` auxiliary pure-sum instances for the equality
    cases; the entropy checks run on ``entropy_count`` instances (default
    ``max(1, count // 4)``) over ``BETA_GRID``; the scalar lemmas run once on
    their grids plus ``scalar_count`` random triples.  ``count == 0``
    produces an empty report.  ``inject_bug`` negates the Efron-Stein check,
    as a self-test that failures surface with a witness seed.

    The instance pairs, the entropy instances and then the scalar lemmas run
    as jobs of ``_fork_map``, one forked worker per CPU and at most one per
    job (see the module docstring); the parent replays their events in job
    order, so the report, and an error raised by a job, do not depend on the
    number of CPUs or on which worker ran what.  A worker that ends without
    a result, for example killed by a signal, raises ``WorkerError`` once
    every worker is reaped.  Each worker holds its own copy of what its
    instances build.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return SuiteReport(checks=(), count=0, seed=spec.seed)
    if entropy_count is None:
        entropy_count = max(1, count // 4)
    jobs = [(1, i) for i in range(count)] + [(3, i) for i in range(entropy_count)]
    jobs.append((_SCALAR_STREAM, scalar_count))
    acc = {name: _Accumulator(name, tol) for name, tol in CHECKS}
    job = functools.partial(_suite_job, spec, jobs, tail_points, inject_bug)
    for events in _fork_map(job, len(jobs)):
        for name, violation, seed in events:
            acc[name].add(violation, seed)

    return SuiteReport(
        checks=tuple(acc[name].result() for name, _ in CHECKS),
        count=count,
        seed=spec.seed,
    )


# ---------------------------------------------------------------------------
# Jobs and workers
# ---------------------------------------------------------------------------


#: One event of a job: check name, violation, instance seed.
_Event = tuple[str, float, int]

#: Substream of the scalar lemmas' random triples, and the tag of their job.
_SCALAR_STREAM = 0x0C


class WorkerError(RuntimeError):
    """A suite worker ended without sending its results back."""


def _cpu_count() -> int:
    """CPUs in this process's affinity mask; 1 where no worker can be forked."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _fork_map(job: Callable[[int], Any], count: int) -> list:
    """``[job(p) for p in range(count)]``, with the positions shared by workers.

    One forked worker per CPU, at most one per job, takes the next position
    from a pipe whenever it is free, so a worker slowed by other load takes
    fewer; where one CPU is available (``_cpu_count``) the jobs run
    in-process, and with no jobs nothing is forked.  A job must depend only
    on its position, so where it runs does not change its result.  Positions
    are taken in order, so every job before the earliest that raised has
    run, and that error is raised, as the serial loop raises it; a job lost
    with a worker that ended without a result raises ``WorkerError``, as
    does that worker if no job was lost.

    A worker never prints: it runs its jobs up to the first that raises,
    pickles their results, or that error, into a pipe of its own and leaves
    by ``os._exit``, so no atexit handler or buffered output runs twice.
    Every worker is reaped before this returns or raises; an exception here,
    ``KeyboardInterrupt`` too, kills the workers still running first.
    """
    workers = min(_cpu_count(), count)
    if workers <= 1:
        return [job(p) for p in range(count)]
    import signal  # here, not at the top: its enums cost every command ~0.1 MB

    sys.stdout.flush()
    sys.stderr.flush()
    queue_read, queue_write = os.pipe()
    queue_in, queue_out = open(queue_read, "rb", 0), open(queue_write, "wb", 0)
    pending: dict[int, int] = {}  # pid -> read end of its result pipe
    outcomes: dict[int, tuple[bool, Any]] = {}  # position -> (ok, result or error)
    lost = None
    try:
        for _ in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    queue_out.close()
                    for inherited in (read, *pending.values()):
                        os.close(inherited)
                    # The parent writes each position in one 4-byte write, which
                    # a pipe keeps whole, so each 4-byte read takes one position.
                    for record in iter(lambda: queue_in.read(4), b""):
                        position = int.from_bytes(record, "little")
                        try:
                            outcomes[position] = True, job(position)
                        except Exception as exc:
                            outcomes[position] = False, exc
                            break
                    with open(write, "wb") as pipe:
                        pickle.dump(outcomes, pipe, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            pending[pid] = read
        queue_in.close()
        with contextlib.suppress(BrokenPipeError):  # every worker has ended
            for position in range(count):
                queue_out.write(position.to_bytes(4, "little"))
        queue_out.close()
        for pid, read in list(pending.items()):
            with open(read, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del pending[pid]
            os.close(read)
            if code == 0:
                outcomes.update(pickle.loads(data))
            else:
                how = signal.Signals(-code).name if code < 0 else f"exit status {code}"
                lost = WorkerError(f"a suite worker ended by {how} without a result")
    finally:
        queue_in.close()
        queue_out.close()
        for pid, read in pending.items():
            with contextlib.suppress(OSError):
                os.close(read)
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results = []
    for position in range(count):
        ok, result = outcomes.get(position, (False, lost))
        if not ok:
            raise result
        results.append(result)
    if lost is not None:
        raise lost
    return results


def _suite_job(
    spec: RandomInstanceSpec,
    jobs: list[tuple[int, int]],
    tail_points: int,
    inject_bug: bool,
    position: int,
) -> list[_Event]:
    """The events of ``jobs[position]``.

    That is instance pair ``(1, i)``, entropy instance ``(3, i)``, or the
    scalar lemmas with ``scalar_count`` random triples, ``(_SCALAR_STREAM,
    scalar_count)``, whose events carry the suite's seed.
    """
    stream, i = jobs[position]
    if stream == 1:
        return _pair_job(spec, i, tail_points, inject_bug)
    if stream == 3:
        return _entropy_job(spec, i)
    rng = substream(spec.seed, _SCALAR_STREAM)
    return [(name, violation, spec.seed) for name, violation in _scalar_checks(rng, i)]


def _pair_job(
    spec: RandomInstanceSpec, i: int, tail_points: int, inject_bug: bool
) -> list[_Event]:
    """Exact checks on instance ``i`` and sum checks on pure-sum instance ``i``."""
    inst_seed = derive_seed(spec.seed, 1, i)
    _, f = generate_instance(dataclasses.replace(spec, seed=inst_seed))
    rng = substream(inst_seed, 0x05)
    events = [
        (name, violation, inst_seed)
        for name, violation in _exact_checks(f, rng, tail_points, inject_bug)
    ]

    sum_seed = derive_seed(spec.seed, 2, i)
    sum_spec = dataclasses.replace(
        spec, values="sum_plus_perturbation", epsilon=0.0, seed=sum_seed
    )
    _, f_sum = generate_instance(sum_spec)
    events += [
        (name, violation, sum_seed)
        for name, violation in _sum_checks(f_sum, tail_points)
    ]
    return events


def _entropy_job(spec: RandomInstanceSpec, i: int) -> list[_Event]:
    """Entropy checks on entropy instance ``i`` and its auxiliary table."""
    ent_seed = derive_seed(spec.seed, 3, i)
    _, f = generate_instance(dataclasses.replace(spec, seed=ent_seed))
    g_rng = substream(ent_seed, 0x06)
    g = TabulatedFunction(f.space, g_rng.uniform(-1.0, 1.0, size=f.space.size))
    return [(name, violation, ent_seed) for name, violation in _entropy_checks(f, g)]


def _exact_checks(
    f: TabulatedFunction,
    rng: np.random.Generator,
    tail_points: int,
    inject_bug: bool,
) -> Iterator[tuple[str, float]]:
    space = f.space
    scv_table = bnd.scv_table(f)
    ing = bnd.bound_ingredients(f)
    e_scv, sup_scv, sigma2 = ing["E_scv"], ing["sup_scv"], ing["sigma2"]
    j, j_mu, crude = ing["j"], ing["j_mu"], ing["crude"]

    if inject_bug:
        yield "efron_stein", e_scv - sigma2
    else:
        yield "efron_stein", sigma2 - e_scv

    a_scale = float(rng.uniform(0.25, 2.0))
    shift = float(rng.uniform(-1.0, 1.0))
    scaled = f * a_scale + shift
    yield "variance_scaling", abs(variance(scaled) - a_scale * a_scale * sigma2)

    # Relabel a random axis: permute points consistently in weights and values.
    k_perm = int(rng.integers(0, space.n))
    perm = rng.permutation(space.axes[k_perm].size)
    relabeled_axes = list(space.axes)
    relabeled_axes[k_perm] = FiniteAxis(
        weights=tuple(space.axes[k_perm].weights[i] for i in perm)
    )
    relabeled_space = FiniteProductSpace(axes=tuple(relabeled_axes))
    relabeled = TabulatedFunction(
        relabeled_space, np.take(f.values, perm, axis=k_perm)
    )
    yield "relabeling_invariance", max(
        abs(expectation(relabeled) - expectation(f)),
        abs(variance(relabeled) - sigma2),
    )

    two_forms = 0.0
    for k in range(space.n):
        delta = np.abs(cond_variance(f, k).values - cond_variance_pairs(f, k).values)
        two_forms = max(two_forms, float(delta.max()))
    yield "cond_variance_two_forms", two_forms

    if space.n >= 2:
        ks = rng.permutation(space.n)[:2]
        k1, k2 = int(ks[0]), int(ks[1])
        y = int(rng.integers(0, space.axes[k1].size))
        z = int(rng.integers(0, space.axes[k2].size))
        # Each pair computes one quantity in two operator orders, left then right.
        pairs = (
            (lambda: substitute(substitute(f, k1, y), k2, z),
             lambda: substitute(substitute(f, k2, z), k1, y)),
            (lambda: cond_expectation(substitute(f, k1, y), k2),
             lambda: substitute(cond_expectation(f, k2), k1, y)),
            (lambda: substitute(cond_variance(f, k2), k1, y),
             lambda: cond_variance(substitute(f, k1, y), k2)),
            (lambda: cond_expectation(cond_expectation(f, k1), k2),
             lambda: cond_expectation(cond_expectation(f, k2), k1)),
        )
        worst = max(float(np.abs(a().values - b().values).max()) for a, b in pairs)
        yield "operator_commutation", worst

    gap, envelope = bnd.efron_stein_gap(f, j=j)
    yield "efron_stein_gap_envelope", max(-gap, gap - envelope)

    bias = bnd.bias_second_difference_bound(f)
    yield "bias_bound_sandwich", max(gap - bias, bias - envelope)

    yield "chatterjee_identity", abs(bnd.chatterjee_variance(f) - sigma2)

    yield "conditional_mean_variance", bnd.conditional_mean_variance_sum(f) - sigma2

    yield "interaction_chain", max(j_mu - j, j - crude)

    hom_scale = float(rng.uniform(0.25, 4.0))
    scaled_f = f * hom_scale
    hom_violation = 0.0
    for value, reference in (
        (interaction(scaled_f), hom_scale * j),
        (weighted_interaction(scaled_f), hom_scale * j_mu),
    ):
        denom = max(abs(reference), 1e-12)
        hom_violation = max(hom_violation, abs(value - reference) / denom)
    yield "interaction_homogeneity", hom_violation

    d_scv = self_bounding_operator(scv_table)
    yield "self_bounding_scv", float((d_scv.values - j_mu * j_mu * scv_table.values).max())

    yield "variance_term_ordering", max(e_scv - sup_scv, sup_scv - ing["bd_term"])

    names = ("tail_sup_bernstein", "tail_main", "tail_variance_corollary")
    for name, (excess, _) in zip(names, tail_excess(tail_curve(f, ing, tail_points))):
        yield name, max(0.0, excess)


def _sum_profile_variances(f: TabulatedFunction) -> float:
    """Independent route to ``sum_k var(profile_k)`` for pure-sum tables."""
    space = f.space
    total = []
    for k in range(space.n):
        idx: list[object] = [0] * space.n
        idx[k] = slice(None)
        profile = f.values[tuple(idx)]
        w = space.axes[k].weight_array()
        mean = fsum(w * profile)
        d = profile - mean
        total.append(fsum(w * d * d))
    return fsum(total)


def _sum_checks(f: TabulatedFunction, tail_points: int) -> Iterator[tuple[str, float]]:
    e_scv = expectation(scv(f))
    sigma2 = variance(f)
    yield "efron_stein_sum_equality", abs(e_scv - sigma2)

    b = bnd.per_coordinate_range_bound(f)
    if b <= 1e-12:
        return
    j_mu = weighted_interaction(f)
    sum_sigma = _sum_profile_variances(f)
    tmax = f.max() - expectation(f)
    if tmax <= 1e-12:
        return
    worst = 0.0
    for t in np.linspace(0.0, tmax, tail_points + 1)[1:]:
        value = bnd.main_bound(e_scv, b, j_mu, float(t)).value
        bernstein = math.exp(-(t * t) / (2.0 * sum_sigma + 2.0 * b * t / 3.0))
        worst = max(worst, abs(value - bernstein) / bernstein)
    yield "bernstein_reduction", worst


def _entropy_checks(
    f: TabulatedFunction, g: TabulatedFunction
) -> Iterator[tuple[str, float]]:
    space = f.space
    scale = bnd.per_coordinate_range_bound(f)
    rescaled = f * (1.0 / scale) if scale > 1e-12 else None
    scv_rescaled = scv(rescaled) if rescaled is not None else None
    d_f = self_bounding_operator(f)
    log_e_g = log_mgf(g, 1.0) + expectation(g)
    for beta in BETA_GRID:
        state = gibbs(f, beta)
        s_f = beta * gibbs_expectation(state, f) - state.log_z

        cond_sum = TabulatedFunction(
            space,
            sum(conditional_entropy(f, k, beta).values for k in range(space.n)),
        )
        yield "entropy_subadditivity", s_f - gibbs_expectation(state, cond_sum)

        if rescaled is not None:
            tilted = gibbs(rescaled, beta)
            s_r = beta * gibbs_expectation(tilted, rescaled) - tilted.log_z
            yield "bennett_entropy", (
                s_r - bnd.psi(beta) * gibbs_expectation(tilted, scv_rescaled)
            )

        yield "entropy_upper_self_bound", s_f - 0.5 * beta * beta * gibbs_expectation(state, d_f)

        yield "decoupling", gibbs_expectation(state, g) - (s_f + log_e_g)

        yield "herbst_identity", abs(herbst_log_mgf(f, beta) - log_mgf(f, beta))


def _scalar_checks(rng: np.random.Generator, scalar_count: int) -> Iterator[tuple[str, float]]:
    for a in A_GRID:
        limit = 1.0 / (1.0 / 3.0 + a / 2.0)
        for gamma in np.linspace(0.0, limit, 101)[1:-1]:
            ok = bnd.psi_ratio_inequality(a, float(gamma))
            yield "psi_ratio_grid", 0.0 if ok else 1.0
    for _ in range(scalar_count):
        c = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        b = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        t = float(np.exp(rng.uniform(math.log(0.05), math.log(3.0))))
        numeric, closed = bnd.chernoff_infimum(c, b, t)
        yield "chernoff_infimum", numeric - closed
