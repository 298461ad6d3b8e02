"""Brute-force reference implementations for the test suite.

Everything here is deliberately dumb: plain Python loops over explicitly
materialized configurations, no shared code with the library paths being
tested.  Expected values frozen into tests were computed with these.  Two
exceptions to the loops are vectorized but still literal: the full
mixed-second-difference stencil, which materializes every ``(y, y', z, z')``
tuple to check the library's per-pair sweeps at shapes the loops are too slow
for, and the shadow-variable variance formula over the space crossed with a
full independent copy.  The U-statistic and regularized-least-squares
references enumerate every sample configuration, where the library works on
sample multisets.  The per-problem RLS paths at the end (one ``cho_factor``
solve per sample, per replaced point and per lattice offset) are the loops
that the library's stacked solves must reproduce bit for bit.
``sample_u_values`` and ``mc_gap_values`` draw a whole Monte Carlo sample in
one ``rng.choice`` call, and ``mc_tails_of`` counts its tails with one
``np.mean`` per ``t``: the one-shot form that the blocked
``exchangeable.mc_tails`` must reproduce bit for bit.  ``neighbours`` calls
the library's ``rank`` once on a ``(rows, s, s)`` gather of every
one-more-draw row, the form that the per-point ``exchangeable.neighbours``
must reproduce bit for bit; ``occupancy_by_point`` and ``rank_fresh_table``
are the per-point counting and the per-call binomial table that
``exchangeable.occupancy`` and ``rank`` must reproduce exactly.
``scv_envelope_terms`` is the other exception to independence: it composes
library paths, to check an inequality of the paper rather than a path.  So do
the whole-table helpers that only tests read (``enumerate_configurations``,
``measure_of``, ``difference``, ``second_difference``,
``crude_interaction_bound`` and ``tilted_variance``), built on the library's
``_constant_along``, ``_interaction_tables`` and ``gibbs``.  The
``*_table_formula`` references form every term of a mean or variance as one
table and sum it with ``math.fsum``, the form the blocked library sums must
reproduce bit for bit.  ``row_fsums`` and ``rls_gap_stack_rows`` sum each row
or risk with ``math.fsum`` over a Python list, the per-row form that
``space.fsum_rows`` and ``rls._gap_stack`` must reproduce bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from scipy.linalg import cho_factor, cho_solve

from interaction_bounds.exchangeable import MultisetTable, occupancy, rank
from interaction_bounds.functionals import _interaction_tables, gibbs, gibbs_expectation
from interaction_bounds.operators import _center, _constant_along
from interaction_bounds.rls import (
    DerivativeCheckReport,
    RlsProblem,
    RlsSolution,
    empirical_risk,
    solve_stack,
    true_risk,
)
from interaction_bounds.rng import substream
from interaction_bounds.space import (
    DEFAULT_CAP,
    CapacityError,
    FiniteProductSpace,
    TabulatedFunction,
    fsum,
)
from interaction_bounds.ustat import u_at_counts


def configs(space):
    return itertools.product(*[range(a.size) for a in space.axes])


def weight(space, config):
    return math.prod(space.axes[k].weights[i] for k, i in enumerate(config))


def value(f, config):
    return float(f.values[tuple(config)])


def expectation(f):
    return math.fsum(weight(f.space, c) * value(f, c) for c in configs(f.space))


def variance(f):
    mu = expectation(f)
    return math.fsum(
        weight(f.space, c) * (value(f, c) - mu) ** 2 for c in configs(f.space)
    )


def expectation_table_formula(f):
    """``space.expectation`` as one table of terms: ``fsum(w * f)``, by ``math.fsum``."""
    w = f.space.weight_table()
    return math.fsum((w * f.values).ravel().tolist())


def variance_table_formula(f):
    """``space.variance`` as one table of terms: ``fsum(w * d * d)``, ``d = f - E f``."""
    w = f.space.weight_table()
    d = f.values - expectation_table_formula(f)
    return math.fsum((w * d * d).ravel().tolist())


def substituted(f, k, y, config):
    c = list(config)
    c[k] = y
    return value(f, c)


def cond_expectation_at(f, k, config):
    axis = f.space.axes[k]
    return math.fsum(
        axis.weights[y] * substituted(f, k, y, config) for y in range(axis.size)
    )


def cond_variance_at(f, k, config):
    m = cond_expectation_at(f, k, config)
    axis = f.space.axes[k]
    return math.fsum(
        axis.weights[y] * (substituted(f, k, y, config) - m) ** 2
        for y in range(axis.size)
    )


def second_difference_at(f, k, l, y, y2, z, z2, config):
    c = list(config)
    c[k], c[l] = y, z
    a = value(f, c)
    c[k], c[l] = y2, z
    b = value(f, c)
    c[k], c[l] = y, z2
    d = value(f, c)
    c[k], c[l] = y2, z2
    e = value(f, c)
    return a - b - d + e


def interaction(f):
    space = f.space
    best = 0.0
    for config in configs(space):
        total = 0.0
        for k in range(space.n):
            for l in range(space.n):
                if k == l:
                    continue
                worst = 0.0
                for y, y2, z, z2 in itertools.product(
                    range(space.axes[k].size),
                    range(space.axes[k].size),
                    range(space.axes[l].size),
                    range(space.axes[l].size),
                ):
                    worst = max(
                        worst, second_difference_at(f, k, l, y, y2, z, z2, config) ** 2
                    )
                total += worst
        best = max(best, total)
    return math.sqrt(best)


def weighted_interaction(f):
    space = f.space
    best = 0.0
    for config in configs(space):
        total = 0.0
        for l in range(space.n):
            inner_best = 0.0
            for z in range(space.axes[l].size):
                acc = 0.0
                for k in range(space.n):
                    if k == l:
                        continue
                    axis = f.space.axes[k]
                    # conditional variance over k of f - (f with l frozen at z)
                    vals = []
                    for y in range(axis.size):
                        c = list(config)
                        c[k] = y
                        base = value(f, c)
                        c[l] = z
                        vals.append(base - value(f, c))
                    m = math.fsum(w * v for w, v in zip(axis.weights, vals))
                    acc += math.fsum(
                        w * (v - m) ** 2 for w, v in zip(axis.weights, vals)
                    )
                inner_best = max(inner_best, acc)
            total += inner_best
        best = max(best, total)
    return 2.0 * math.sqrt(best)


# --- whole-table helpers read only by tests -----------------------------------


def enumerate_configurations(space, cap=DEFAULT_CAP):
    """All configurations in row-major order (last axis fastest), at most ``cap``."""
    if space.size > cap:
        raise CapacityError(f"{space.size} configurations exceed the cap of {cap}")
    yield from np.ndindex(space.shape)


def measure_of(space, config):
    """Product-measure probability of a single configuration."""
    config = tuple(config)
    if len(config) != space.n:
        raise ValueError(f"configuration of length {len(config)} on {space.n} axes")
    for k, c in enumerate(config):
        space.check_point(k, c)
    return math.prod(space.axes[k].weights[c] for k, c in enumerate(config))


def difference(f, k, y, y2):
    """First difference along coordinate ``k``: value at ``y`` minus at ``y2``.

    Antisymmetric in ``(y, y2)``, zero when ``y == y2`` or when ``f`` does not
    depend on coordinate ``k``.
    """
    space = f.space
    space.check_point(k, y)
    space.check_point(k, y2)
    reduced = np.take(f.values, y, axis=k) - np.take(f.values, y2, axis=k)
    return _constant_along(space, reduced, k)


def second_difference(f, k, l, y, y2, z, z2):
    """Mixed second difference: difference along ``l`` of the difference along ``k``.

    Requires ``k != l``.  The result is independent of both coordinates and is
    symmetric under swapping the roles ``(k, y, y2)`` and ``(l, z, z2)``; it
    vanishes whenever ``f`` splits as a sum of functions of single coordinates.
    """
    if k == l:
        raise ValueError("second difference needs two distinct axes")
    return difference(difference(f, k, y, y2), l, z, z2)


def crude_interaction_bound(f, cap=DEFAULT_CAP):
    """``n`` times the largest absolute mixed second difference of ``f``, within ``cap``."""
    if f.space.size > cap:
        raise CapacityError(f"{f.space.size} configurations exceed the cap of {cap}")
    return f.space.n * _interaction_tables(f)[1]


def tilted_variance(f, beta):
    """Variance of ``f`` under the tilted state at ``beta``."""
    state = gibbs(f, beta)
    m = gibbs_expectation(state, f)
    d = f.values - m
    return fsum(state.tilted * d * d)


# --- the full mixed-second-difference stencil ----------------------------------


def pair_second_differences(values, k, l):
    """All mixed second differences for the axis pair ``(k, l)`` at once.

    Returns a tensor with axes ``(y, y2, z, z2, *rest)`` where ``rest`` are
    the remaining coordinates in their original relative order; entry
    ``[y, y2, z, z2]`` is the second difference with points ``(y, y2)`` on
    axis ``k`` and ``(z, z2)`` on axis ``l``.
    """
    fkl = np.moveaxis(values, (k, l), (0, 1))
    return (
        fkl[:, None, :, None] - fkl[None, :, :, None]
        - fkl[:, None, None, :] + fkl[None, :, None, :]
    )


def _ordered_pairs(n):
    return [(k, l) for k in range(n) for l in range(n) if k != l]


def stencil_interaction(f):
    """``(j, crude)`` from the squared stencil of every ordered axis pair."""
    space = f.space
    total = np.zeros(space.shape)
    max_abs = 0.0
    for k, l in _ordered_pairs(space.n):
        sq = pair_second_differences(f.values, k, l) ** 2
        max_abs = max(max_abs, math.sqrt(float(sq.max())))
        total = total + np.expand_dims(sq.max(axis=(0, 1, 2, 3)), sorted((k, l)))
    return math.sqrt(float(total.max())), space.n * max_abs


def stencil_bias_bound(f):
    """Bias bound: a quarter of the weighted mean square of every pair's stencil."""
    weights = [np.asarray(a.weights) for a in f.space.axes]
    total = []
    for k, l in _ordered_pairs(f.space.n):
        wk, wl = weights[k], weights[l]
        pair_w = np.einsum("a,b,c,d->abcd", wk, wk, wl, wl)
        tens = pair_second_differences(f.values, k, l)
        reduced = np.tensordot(tens * tens, pair_w, axes=([0, 1, 2, 3], [0, 1, 2, 3]))
        rest = np.ones(())
        for j, w in enumerate(weights):
            if j not in (k, l):
                rest = np.multiply.outer(rest, w)
        total.append(math.fsum((reduced * rest).ravel().tolist()))
    return 0.25 * math.fsum(total)


def bias_bound_tensordot(f):
    """``bounds.bias_second_difference_bound`` with three table-sized arrays per pair.

    The form before the one contiguous buffer: ``g = _center(_center(f, k), l)``,
    its square ``g * g``, and the copy with ``k, l`` last that ``np.tensordot``
    makes.  The buffer form runs the same subtractions, products and BLAS
    call on the same layout, so the two agree bit for bit.
    """
    space = f.space
    weights = [axis.weight_array() for axis in space.axes]
    terms = []
    for k in range(space.n):
        centered = _center(f.values, weights[k], k)
        for l in range(k + 1, space.n):
            g = _center(centered, weights[l], l)
            pair_w = np.multiply.outer(weights[k], weights[l])
            reduced = np.tensordot(g * g, pair_w, axes=([k, l], [0, 1]))
            rest = [w for j, w in enumerate(weights) if j not in (k, l)]
            terms.append(fsum(reduced * functools.reduce(np.multiply.outer, rest, np.ones(()))))
    return 2.0 * fsum(terms)


def interaction_tables_triu(f):
    """``functionals._interaction_tables`` with each pair reduced on a strided view.

    The pair sweep before the contiguous per-pair copy: all ``y < y'`` at
    once through ``np.triu_indices``, and the range over ``z`` by ``max`` and
    ``min`` along a strided axis.  Maxima, minima and the one subtraction per
    range are exact, so the two must agree bit for bit.
    """
    space = f.space
    total = np.zeros(space.shape)
    max_abs = 0.0
    for k in range(space.n):
        for l in range(k + 1, space.n):
            if space.shape[k] == 1 or space.shape[l] == 1:
                continue
            others = [a for a in range(space.n) if a not in (k, l)]
            fkl = f.values.transpose(k, l, *others)
            y, y2 = np.triu_indices(space.shape[k], 1)
            d = fkl[y] - fkl[y2]
            spread = (d.max(axis=1) - d.min(axis=1)).max(axis=0)
            max_abs = max(max_abs, float(spread.max()))
            total += 2.0 * (spread * spread).reshape(
                tuple(1 if a in (k, l) else s for a, s in enumerate(space.shape))
            )
    return total, max_abs


def weighted_objective_tables_per_z(f):
    """``functionals._weighted_objective_tables`` through ``np.tensordot``.

    Centres every axis once, then for each ``(l, z, k)`` contracts
    ``(c_k - c_k@z)^2`` with ``np.tensordot``, which hands BLAS the same
    matrix as the library's per-table product.  The sums run in the same
    order, so the two must agree bit for bit.
    """
    space = f.space
    weights = [axis.weight_array() for axis in space.axes]
    centered = [
        f.values - np.expand_dims(np.tensordot(f.values, w, axes=([k], [0])), k)
        for k, w in enumerate(weights)
    ]
    total = np.zeros(space.shape)
    for l in range(space.n):
        best = np.zeros(space.shape)
        for z in range(space.shape[l]):
            inner = np.zeros(space.shape)
            for k, c in enumerate(centered):
                if k == l:
                    continue
                diff = c - np.take(c, [z], axis=l)
                cv = np.tensordot(diff * diff, weights[k], axes=([k], [0]))
                inner += np.expand_dims(cv, k)
            np.maximum(best, inner, out=best)
        total += best
    return total


def substituted_weighted_interaction(f):
    """``j_mu`` from conditional variances of ``f - f@z``, one ``(l, z)`` at a time."""
    space = f.space
    total = np.zeros(space.shape)
    for l in range(space.n):
        best = np.zeros(space.shape)
        for z in range(space.shape[l]):
            g = f.values - np.take(f.values, [z], axis=l)
            inner = np.zeros(space.shape)
            for k in range(space.n):
                if k == l:
                    continue
                shape = [1] * space.n
                shape[k] = -1
                w = np.asarray(space.axes[k].weights).reshape(shape)
                mean = (w * g).sum(axis=k, keepdims=True)
                inner = inner + (w * (g - mean) ** 2).sum(axis=k, keepdims=True)
            best = np.maximum(best, inner)
        total = total + best
    return 2.0 * math.sqrt(float(total.max()))


def exact_tail(f, t, two_sided=False):
    """``Pr{f - Ef > t}``, or ``Pr{|f - Ef| > t}``, one configuration at a time."""
    mu = expectation(f)
    return math.fsum(
        weight(f.space, c)
        for c in configs(f.space)
        if (abs(value(f, c) - mu) if two_sided else value(f, c) - mu) > t
    )


def log_mgf(f, beta):
    mu = expectation(f)
    return math.log(
        math.fsum(
            weight(f.space, c) * math.exp(beta * (value(f, c) - mu))
            for c in configs(f.space)
        )
    )


def bias_second_difference_rhs(f):
    """Literal shadow enumeration: for each ordered pair (k, i), average the
    squared double replacement difference over the space crossed with one
    independent copy of coordinates i and k."""
    space = f.space
    total = 0.0
    for k in range(space.n):
        for i in range(space.n):
            if i == k:
                continue
            acc = 0.0
            for config in configs(space):
                w = weight(space, config)
                for xi in range(space.axes[i].size):
                    wi = space.axes[i].weights[xi]
                    for xk in range(space.axes[k].size):
                        wk = space.axes[k].weights[xk]
                        c = list(config)
                        f0 = value(f, c)
                        ci = list(c)
                        ci[i] = xi
                        fi = value(f, ci)
                        ck = list(c)
                        ck[k] = xk
                        fk = value(f, ck)
                        cki = list(c)
                        cki[k], cki[i] = xk, xi
                        fki = value(f, cki)
                        acc += w * wi * wk * (f0 - fi - fk + fki) ** 2
            total += acc
    return 0.25 * total


def chatterjee_shadow(f):
    """Literal telescoping formula over the space and a full independent copy."""
    space = f.space
    n = space.n
    total = 0.0
    for x in configs(space):
        wx = weight(space, x)
        for xp in configs(space):
            wxp = weight(space, xp)
            acc = 0.0
            for k in range(n):
                xk = list(x)
                xk[k] = xp[k]
                prefix_before = [xp[j] if j < k else x[j] for j in range(n)]
                prefix_after = [xp[j] if j <= k else x[j] for j in range(n)]
                acc += (value(f, x) - value(f, xk)) * (
                    value(f, prefix_before) - value(f, prefix_after)
                )
            total += wx * wxp * acc
    return 0.5 * total


def chatterjee_variance_shadow(f, cap=DEFAULT_CAP):
    """Literal shadow-variable form of the telescoping variance formula.

    ``(1/2) sum_k E[(f(X) - f(X~k)) (f(X[k-1]) - f(X[k]))]`` where ``X~k``
    replaces coordinate ``k`` by its independent copy and ``X[k]`` replaces
    the first ``k`` coordinates.  Enumerates the space crossed with one full
    independent copy, so it needs ``size^2`` within the cap.
    """
    space = f.space
    if space.size * space.size > cap:
        raise CapacityError(
            f"{space.size}^2 shadow configurations exceed the cap of {cap}"
        )
    configs = np.array(list(np.ndindex(space.shape)), dtype=np.intp)
    weights = np.array([weight(space, c) for c in configs])
    flat = f.values.ravel()
    strides = np.array(
        [math.prod(space.shape[i + 1 :]) for i in range(space.n)], dtype=np.intp
    )

    def lookup(idx):
        return flat[idx @ strides]

    terms = []
    for j, shadow in enumerate(configs):
        prefix = configs.copy()
        acc = np.zeros(len(configs))
        for k in range(space.n):
            replaced_k = configs.copy()
            replaced_k[:, k] = shadow[k]
            # prefix currently equals X[k-1]; swap in coordinate k to get X[k].
            after = prefix.copy()
            after[:, k] = shadow[k]
            acc += (lookup(configs) - lookup(replaced_k)) * (
                lookup(prefix) - lookup(after)
            )
            prefix = after
        terms.append(weights[j] * math.fsum((weights * acc).tolist()))
    return 0.5 * math.fsum(terms)


def conditional_mean_variance_sum(f):
    space = f.space
    total = 0.0
    for k in range(space.n):
        axis = space.axes[k]
        profile = []
        for y in range(axis.size):
            acc = 0.0
            for config in configs(space):
                if config[k] != y:
                    continue
                w = math.prod(
                    space.axes[j].weights[config[j]] for j in range(space.n) if j != k
                )
                acc += w * value(f, config)
            profile.append(acc)
        m = math.fsum(w * v for w, v in zip(axis.weights, profile))
        total += math.fsum(w * (v - m) ** 2 for w, v in zip(axis.weights, profile))
    return total


def first_asymmetric_kernel_entry(table):
    """``ustat.tabulated_kernel``'s symmetry check as a loop over permutations.

    The first index tuple of ``table`` in row-major order that some
    permutation of it maps to an entry more than 1e-12 away, or ``None``:
    ``m!`` lookups per entry, where the library compares orbit extremes.
    """
    for idx in np.ndindex(table.shape):
        v = table[idx]
        for perm in itertools.permutations(idx):
            if abs(table[perm] - v) > 1e-12:
                return idx
    return None


def u_value(kernel_fn, m, sample):
    combos = list(itertools.combinations(sample, m))
    return math.fsum(kernel_fn(c) for c in combos) / len(combos)


def tabulate_u(problem, n):
    """The U-statistic of ``n`` draws on every configuration of the ``n``-fold base space.

    One exactly rounded kernel sum over the ``m``-subsets of sample positions
    per configuration, divided by ``C(n, m)``; returns the dense table.
    """
    m = problem.m
    combos = list(itertools.combinations(range(n), m))
    pts = problem.base_points
    fn = problem.kernel.fn
    values = np.empty((len(pts),) * n)
    for config in np.ndindex(values.shape):
        sample = tuple(pts[i] for i in config)
        values[config] = math.fsum(
            fn(tuple(sample[j] for j in combo)) for combo in combos
        ) / math.comb(n, m)
    return TabulatedFunction(FiniteProductSpace(axes=(problem.base_axis,) * n), values)


def intersecting_pairs(n, m):
    subsets = list(itertools.combinations(range(n), m))
    return sum(
        1 for a in subsets for b in subsets if set(a) & set(b)
    )


def scv_envelope_terms(problem, n):
    """Exact expected variance sum of ``u`` of ``n`` draws against two closed-form envelopes.

    Returns ``lhs = sum_k E[conditional variance of u over k]`` (exact, on
    sample multisets, from the library paths) together with::

        tight_envelope = (m^2/n) sigma1^2 + m^2 (m-1)^2 / (2 n (n-m))
        safe_envelope  = (m^2/n) sigma1^2 + m^2 (m-1)^2 / (n (n-m))

    The tight form bounds each intersecting-pair covariance term by one, but
    those terms can reach two (a degenerate product kernel attains it, see
    the tests), so only the safe form with the doubled second term is an
    actual upper bound; ``lhs <= safe_envelope`` always holds.
    """
    m = problem.m
    table = MultisetTable(problem.base_axis.weights, n)
    lhs = table.ingredients(u_at_counts(problem, table.counts))["E_scv"]
    base = (m * m / n) * problem.sigma1sq
    half_term = m * m * (m - 1) ** 2 / (2.0 * n * (n - m))
    return {
        "lhs": lhs,
        "tight_envelope": base + half_term,
        "safe_envelope": base + 2.0 * half_term,
    }


def neighbours(counts):
    """``exchangeable.neighbours`` as one ``rank`` call on a ``(rows, s, s)`` gather."""
    return rank(counts[:, None, :] + np.eye(counts.shape[-1], dtype=np.intp))


def occupancy_by_point(samples, s):
    """``exchangeable.occupancy`` as one compare-and-count pass per point."""
    samples = np.asarray(samples)
    counts = np.empty((*samples.shape[:-1], s), dtype=np.intp)
    for i in range(s):
        counts[..., i] = np.count_nonzero(samples == i, axis=-1)
    return counts


def rank_fresh_table(counts):
    """``exchangeable.rank`` with its binomial table built anew on every call."""
    counts = np.asarray(counts, dtype=np.intp)
    s = counts.shape[-1]
    after = np.cumsum(counts[..., ::-1], axis=-1)[..., ::-1][..., 1:]
    top = int(after.max(initial=0))
    table = [[math.comb(d + q - 1, q) if d else 0 for q in range(s)] for d in range(top + 1)]
    return np.array(table, dtype=np.intp)[after, np.arange(s - 1, 0, -1)].sum(axis=-1)


def rls_gap_1d(xs, ys, lam, pop_xs, pop_ys, pop_ps):
    """Scalar closed-form generalization gap for one-dimensional problems."""
    n = len(xs)
    w = math.fsum(x * y for x, y in zip(xs, ys)) / (
        math.fsum(x * x for x in xs) + n * lam
    )
    emp = math.fsum((w * x - y) ** 2 for x, y in zip(xs, ys)) / n
    true = math.fsum(p * (w * x - y) ** 2 for x, y, p in zip(pop_xs, pop_ys, pop_ps))
    return true - emp


def rls_measured_ingredients(population, n, lam):
    """``e_scv``, ``b`` and ``crude_j`` of the gap by loops over sample configurations.

    Every sample, rest-sample and replacement is enumerated; gaps are cached by
    the sorted atom indices of the sample, whose order the gap is computed in.
    """
    probs = population.probs
    size = population.size
    cache = {}

    def gap(config):
        key = tuple(sorted(config))
        if key not in cache:
            sample = RlsProblem(
                xs=population.xs[list(key)], ys=population.ys[list(key)], lam=lam
            )
            cache[key] = rls_gap(sample, population)
        return cache[key]

    b = -math.inf
    for config in itertools.product(range(size), repeat=n):
        cond_mean = math.fsum(probs[y] * gap((y, *config[1:])) for y in range(size))
        b = max(b, gap(config) - cond_mean)
    crude = 0.0
    for rest in itertools.product(range(size), repeat=n - 2):
        for y, y2, z, z2 in itertools.product(range(size), repeat=4):
            # the arithmetic of second_difference above
            second = (gap((y, z, *rest)) - gap((y2, z, *rest))) - (
                gap((y, z2, *rest)) - gap((y2, z2, *rest))
            )
            crude = max(crude, abs(second))
    terms = []
    for rest in itertools.product(range(size), repeat=n - 1):
        vals = [gap((y, *rest)) for y in range(size)]
        acc = 0.0
        for y in range(size):
            for y2 in range(size):
                d = vals[y] - vals[y2]
                acc += probs[y] * probs[y2] * d * d
        terms.append(math.prod(probs[i] for i in rest) * 0.5 * acc)
    return {"e_scv": n * math.fsum(terms), "b": b, "crude_j": n * crude}


# ---------------------------------------------------------------------------
# Regularized least squares, one problem at a time
# ---------------------------------------------------------------------------


def replace_point(problem, k, x, y):
    """``problem`` with sample point ``k`` replaced by ``(x, y)``."""
    if not (0 <= k < problem.n):
        raise IndexError(f"sample index {k} out of range")
    xs = problem.xs.copy()
    ys = problem.ys.copy()
    xs[k] = np.asarray(x, dtype=np.float64)
    ys[k] = y
    return RlsProblem(xs=xs, ys=ys, lam=problem.lam)


def rls_solve(problem):
    """``(G + lam I) w = g`` by ``cho_factor``/``cho_solve`` on one sample."""
    n, d = problem.xs.shape
    gram = problem.xs.T @ problem.xs / n
    moment = problem.xs.T @ problem.ys / n
    system = gram + problem.lam * np.eye(d)
    w = cho_solve(cho_factor(system, lower=True), moment)
    scale = float(np.linalg.norm(moment))
    residual = float(np.linalg.norm(system @ w - moment)) / scale if scale > 0.0 else 0.0
    return RlsSolution(w=w, gram=gram, moment=moment, residual=residual)


def rls_gap(problem, population):
    """``true risk - empirical risk`` of the ``rls_solve`` solution."""
    solution = rls_solve(problem)
    return true_risk(solution, population) - empirical_risk(solution, problem)


def rls_gap_table_rows(population, n, lam):
    """The gap of every ``n``-multiset, one sample per row in atom-index order."""
    gaps = []
    for combo in itertools.combinations_with_replacement(range(population.size), n):
        idx = list(combo)
        gaps.append(
            rls_gap(RlsProblem(xs=population.xs[idx], ys=population.ys[idx], lam=lam), population)
        )
    return np.array(gaps)


def row_fsums(rows):
    """``math.fsum`` of each row of a 2-d array, one list of Python floats per row."""
    return np.array([math.fsum(row) for row in np.asarray(rows).tolist()], dtype=np.float64)


def rls_gap_stack_rows(population, samples, lam):
    """The gap of each sample of atom indices, one ``math.fsum`` per risk and sample."""
    xs, ys = population.xs[samples], population.ys[samples]
    w = solve_stack(xs, ys, lam).w[..., None]
    r_true = (population.xs @ w)[..., 0] - population.ys
    r_emp = (xs @ w)[..., 0] - ys
    true_terms = (population.probs * r_true * r_true).tolist()
    emp_terms = (r_emp * r_emp).tolist()
    n = xs.shape[1]
    return np.array([math.fsum(t) - math.fsum(e) / n for t, e in zip(true_terms, emp_terms)])


def rls_empirical_scv(draw_problem, population, replications, seed, pairs_per_coordinate=1):
    """Monte Carlo variance sum with one draw and one solve per replaced point.

    Replacements are drawn one ``choice`` call at a time; gaps are cached by
    the bytes of the sample.
    """
    cache = {}

    def gap_of(problem):
        key = (problem.xs.tobytes(), problem.ys.tobytes())
        if key not in cache:
            cache[key] = rls_gap(problem, population)
        return cache[key]

    values = []
    for r in range(replications):
        rng = substream(seed, 0xE5, r)
        problem = draw_problem(rng)
        total = 0.0
        for k in range(problem.n):
            acc = 0.0
            for _ in range(pairs_per_coordinate):
                ya = int(rng.choice(population.size, p=population.probs))
                yb = int(rng.choice(population.size, p=population.probs))
                fa = gap_of(replace_point(problem, k, population.xs[ya], population.ys[ya]))
                fb = gap_of(replace_point(problem, k, population.xs[yb], population.ys[yb]))
                acc += 0.5 * (fa - fb) ** 2
            total += acc / pairs_per_coordinate
        values.append(total)
    mean = math.fsum(values) / replications
    if replications == 1:
        return mean, math.inf
    var = math.fsum((v - mean) ** 2 for v in values) / (replications - 1)
    return mean, math.sqrt(var / replications)


def rls_derivative_bound_check(
    problem, k, l, zk_a, zk_b, zl_a, zl_b, grid=3, h=1e-4, rel_tol=1e-3
):
    """The derivative certification with one sample and one solve per lattice offset."""
    zk_a, zk_b, zl_a, zl_b = (
        (np.asarray(z[0], dtype=np.float64), float(z[1])) for z in (zk_a, zk_b, zl_a, zl_b)
    )
    n, lam = problem.n, problem.lam

    def interpolate(a, b, t):
        return a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])

    def solved(s, t):
        xk, yk = interpolate(zk_a, zk_b, t)
        xl, yl = interpolate(zl_a, zl_b, s)
        return rls_solve(replace_point(replace_point(problem, k, xk, yk), l, xl, yl))

    def first_norm(s, t, step):
        dw = solved(s, t + step).w - solved(s, t - step).w
        return float(np.linalg.norm(dw / (2.0 * step)))

    def mixed_norm(s, t, step):
        num = (
            solved(s + step, t + step).w
            - solved(s + step, t - step).w
            - solved(s - step, t + step).w
            + solved(s - step, t - step).w
        )
        return float(np.linalg.norm(num / (4.0 * step * step)))

    lattice = np.linspace(h, 1.0 - h, grid)
    bound_first = 8.0 * lam**-1.5 / n
    bound_mixed = 32.0 * lam**-2.5 / n**2
    rate_bound = 4.0 / n
    max_first = max_mixed = 0.0
    max_gram_rate = max_moment_rate = max_gram_mixed = 0.0
    step_warning = False
    for s in lattice:
        for t in lattice:
            f_h = first_norm(s, t, h)
            f_h2 = first_norm(s, t, h / 2.0)
            m_h = mixed_norm(s, t, h)
            m_h2 = mixed_norm(s, t, h / 2.0)
            for a, b in ((f_h, f_h2), (m_h, m_h2)):
                if max(a, b) > 1e-12 and abs(a - b) > 0.1 * max(a, b):
                    step_warning = True
            max_first = max(max_first, f_h2)
            max_mixed = max(max_mixed, m_h2)
            for (sp, tp), (sm, tm) in (((s, t + h), (s, t - h)), ((s + h, t), (s - h, t))):
                plus, minus = solved(sp, tp), solved(sm, tm)
                max_gram_rate = max(
                    max_gram_rate, float(np.linalg.norm((plus.gram - minus.gram) / (2 * h), 2))
                )
                max_moment_rate = max(
                    max_moment_rate, float(np.linalg.norm((plus.moment - minus.moment) / (2 * h)))
                )
            g_pp = solved(s + h, t + h).gram
            g_pm = solved(s + h, t - h).gram
            g_mp = solved(s - h, t + h).gram
            g_mm = solved(s - h, t - h).gram
            max_gram_mixed = max(
                max_gram_mixed,
                float(np.linalg.norm((g_pp - g_pm - g_mp + g_mm) / (4 * h * h), 2)),
            )

    return DerivativeCheckReport(
        h=h,
        grid=grid,
        max_first=max_first,
        bound_first=bound_first,
        first_ok=max_first <= bound_first * (1.0 + rel_tol) + 1e-8,
        max_mixed=max_mixed,
        bound_mixed=bound_mixed,
        mixed_ok=max_mixed <= bound_mixed * (1.0 + rel_tol) + 1e-8,
        max_gram_rate=max_gram_rate,
        max_moment_rate=max_moment_rate,
        rate_bound=rate_bound,
        rate_ok=max(max_gram_rate, max_moment_rate) <= rate_bound * (1.0 + rel_tol) + 1e-8,
        max_gram_mixed=max_gram_mixed,
        gram_mixed_ok=max_gram_mixed <= 1e-6,
        step_warning=step_warning,
    )


def sample_u_values(problem, n, n_samples, seed=0):
    """Seeded i.i.d. draws of the U-statistic of ``n`` draws, all in one ``rng.choice`` call."""
    rng = substream(seed, 0x0E)
    w = np.asarray(problem.base_axis.weights)
    idx = rng.choice(len(w), size=(n_samples, n), p=w)
    return u_at_counts(problem, occupancy(idx, len(w)))


def mc_gap_values(table, n_samples, seed):
    """Seeded i.i.d. gap values, all drawn in one ``rng.choice`` call, looked up by multiset."""
    population = table.population
    rng = substream(seed, 0xF0)
    idx = rng.choice(population.size, size=(n_samples, table.table.n), p=population.probs)
    return table.value(idx)


def mc_tails_of(deviations, t_values):
    """``Pr{deviation > t}`` of the sample and its standard error, one ``np.mean`` per ``t``."""
    tails = [float(np.mean(deviations > t)) for t in t_values]
    return [(p, math.sqrt(p * (1.0 - p) / len(deviations))) for p in tails]
