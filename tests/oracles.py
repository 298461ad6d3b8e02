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
sample multisets.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from interaction_bounds.rls import RlsProblem, generalization_gap
from interaction_bounds.space import DEFAULT_CAP, CapacityError


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


def scv_at(f, config):
    return math.fsum(cond_variance_at(f, k, config) for k in range(f.space.n))


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


def exact_tail(f, t):
    mu = expectation(f)
    return math.fsum(
        weight(f.space, c)
        for c in configs(f.space)
        if value(f, c) - mu > t
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


def u_value(kernel_fn, m, sample):
    combos = list(itertools.combinations(sample, m))
    return math.fsum(kernel_fn(c) for c in combos) / len(combos)


def tabulate_u(problem):
    """The U-statistic on every configuration of the ``n``-fold base space.

    One exactly rounded kernel sum over the ``m``-subsets of sample positions
    per configuration, divided by ``C(n, m)``; returns the dense value array.
    """
    n, m = problem.n, problem.m
    combos = list(itertools.combinations(range(n), m))
    pts = problem.base_points
    fn = problem.kernel.fn
    values = np.empty((len(pts),) * n)
    for config in np.ndindex(values.shape):
        sample = tuple(pts[i] for i in config)
        values[config] = math.fsum(
            fn(tuple(sample[j] for j in combo)) for combo in combos
        ) / math.comb(n, m)
    return values


def intersecting_pairs(n, m):
    subsets = list(itertools.combinations(range(n), m))
    return sum(
        1 for a in subsets for b in subsets if set(a) & set(b)
    )


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
            cache[key] = generalization_gap(sample, population)
        return cache[key]

    b = -math.inf
    for config in itertools.product(range(size), repeat=n):
        cond_mean = math.fsum(probs[y] * gap((y, *config[1:])) for y in range(size))
        b = max(b, gap(config) - cond_mean)
    crude = 0.0
    for rest in itertools.product(range(size), repeat=n - 2):
        for y, y2, z, z2 in itertools.product(range(size), repeat=4):
            second = (
                gap((y, z, *rest))
                - gap((y2, z, *rest))
                - gap((y, z2, *rest))
                + gap((y2, z2, *rest))
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
