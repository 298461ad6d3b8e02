"""Brute-force reference implementations for the test suite.

Everything here is deliberately dumb: plain Python loops over explicitly
materialized configurations, no shared code with the library paths being
tested.  Expected values frozen into tests were computed with these.  The
one exception to the loops is the section on the full mixed-second-difference
stencil: vectorized, but it materializes every ``(y, y', z, z')`` tuple, so it
checks the library's per-pair sweeps at shapes the loops are too slow for.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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
