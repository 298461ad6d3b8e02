"""Symmetric functions of i.i.d. samples, evaluated on occupancy counts.

A symmetric function of ``n`` i.i.d. draws from ``s`` base points (a
U-statistic, the generalization gap of a learner) depends only on how often
each point occurs: ``C(n + s - 1, s - 1)`` sample multisets in place of
``s^n`` configurations.  A value computed once per multiset is looked up by
``rank`` for any sample, configuration, or sample with one more draw.

``MultisetTable`` holds the ``n``-multisets of one sample law with their
probabilities, and the ``(n-1)``- and ``(n-2)``-levels with their neighbour
ranks, each enumerated on first use and once for every symmetric function of
that law (a U-statistic at each sample size, the gap at each regularization).
Its ``ingredients`` gives the exact inputs of the main tail bound from the
values on the multisets alone: every coordinate carries the same law, so a
term of one coordinate depends only on the multiset of the other ``n - 1``
draws, and a term of a coordinate pair on that of the other ``n - 2``.  ``mc_tails``
estimates tails from seeded samples, one block at a time, where the
multisets exceed the cap.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from typing import Callable, Iterator, Sequence

import numpy as np

from .functionals import _largest_second_differences
from .space import DEFAULT_CAP, CapacityError, fsum

#: Samples drawn, evaluated and counted at a time by ``mc_tails``.
MC_BLOCK = 8192


def multiset_count(n: int, s: int) -> int:
    """The number of count vectors of ``n`` draws from ``s`` points, ``C(n + s - 1, s - 1)``."""
    return math.comb(n + s - 1, s - 1)


def multisets(n: int, s: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Every count vector of ``n`` draws from ``s`` points, one per row.

    Row ``r`` counts the points of the ``r``-th tuple of
    ``itertools.combinations_with_replacement(range(s), n)``.  Raises
    CapacityError when the rows would exceed ``cap``.
    """
    total = multiset_count(n, s)
    if total > cap:
        raise CapacityError(f"{total} sample multisets exceed the cap of {cap}")
    # Stars and bars: the positions of s - 1 bars among n + s - 1 slots, in
    # reverse lexicographic order, give the counts in the order above.
    bars = np.array(list(itertools.combinations(range(n + s - 1), s - 1)), dtype=np.intp)
    edges = np.pad(bars[::-1], ((0, 0), (1, 1)), constant_values=((0, 0), (-1, n + s - 1)))
    return np.diff(edges, axis=1) - 1


def multiset_probabilities(counts: np.ndarray, probs: Sequence[float]) -> np.ndarray:
    """Probability of each count row under i.i.d. draws from ``probs``.

    The integer multinomial coefficient times ``prod(p_i^c_i)`` over the
    occupied points, in that order of operations.  A row where that
    arithmetic overflows or ends below the normal range (large samples) is
    recomputed from mantissa-exponent pairs, in which nothing overflows or
    underflows before the final ``ldexp``.
    """
    p = [float(x) for x in probs]
    rows = np.asarray(counts).tolist()
    out = np.empty(len(rows))
    for r, (row, weight) in enumerate(zip(rows, _multinomials(rows))):
        try:
            value = weight * math.prod(p[i] ** c for i, c in enumerate(row) if c)
        except OverflowError:
            value = 0.0
        if not value >= sys.float_info.min:
            value = _scaled_probability(weight, row, p)
        out[r] = value
    return out


def _multinomials(rows: list[list[int]]) -> Iterator[int]:
    """``n! / prod(c_i!)`` of each row, exactly.

    A row with the total of the one before is reached from its coefficient
    by the factorial ratios of the counts that changed; along ``multisets``
    order most rows move one draw between two points.
    """
    prev: list[int] = []
    weight = 1
    for row in rows:
        if sum(row) != sum(prev) or not prev:
            weight = math.factorial(sum(row))
            for c in row:
                weight //= math.factorial(c)
        else:
            num = den = 1
            for a, b in zip(prev, row):
                if b < a:
                    num *= math.prod(range(b + 1, a + 1))
                elif b > a:
                    den *= math.prod(range(a + 1, b + 1))
            weight = weight * num // den
        prev = row
        yield weight


def _scaled_probability(weight: int, row: Sequence[int], p: Sequence[float]) -> float:
    """``weight * prod(p_i^c_i)`` carried as a mantissa in [0.5, 1) and an exponent."""
    shift = max(weight.bit_length() - 64, 0)
    m, e = math.frexp(float(weight >> shift))
    e += shift
    for pi, c in zip(p, row):
        base, base_e = math.frexp(pi)
        while c:  # binary powering, renormalised after every product
            if c & 1:
                m, x = math.frexp(m * base)
                e += x + base_e
            c >>= 1
            if c:
                base, x = math.frexp(base * base)
                base_e = 2 * base_e + x
    return math.ldexp(m, e)


def occupancy(samples: np.ndarray, s: int) -> np.ndarray:
    """Count vectors of samples given as point indices in ``[0, s)`` along the last axis.

    One ``np.bincount`` over ``sample * s + point`` counts every sample in
    one pass.  Raises ValueError on an index outside ``[0, s)``.
    """
    samples = np.asarray(samples)
    if samples.size and (samples.min() < 0 or samples.max() >= s):
        raise ValueError(f"point indices must lie in [0, {s})")
    rows = math.prod(samples.shape[:-1])
    keys = np.arange(rows)[:, None] * s + samples.reshape(rows, samples.shape[-1])
    return np.bincount(keys.ravel(), minlength=rows * s).reshape(*samples.shape[:-1], s)


def mc_tails(
    rng: np.random.Generator, probs: Sequence[float], n: int, samples: int,
    deviation: Callable[[np.ndarray], np.ndarray], t_values: Sequence[float],
) -> list[tuple[float, float]]:
    """Monte Carlo ``Pr{deviation > t}`` and its standard error, for each ``t``.

    ``rng.choice`` draws ``samples`` samples of ``n`` points of ``probs``,
    ``MC_BLOCK`` rows at a time, and ``deviation`` maps a block's
    ``occupancy`` rows to one finite value each.  Memory is one block, time
    linear in ``samples``; the draws are those of one ``rng.choice`` call and
    each tail is the exact hit count over ``samples``, so the result is bit
    for bit ``np.mean(d > t)`` over the whole sample.
    """
    s, t = len(probs), np.asarray(t_values, dtype=np.float64)
    hits = np.zeros(len(t), dtype=np.int64)
    for start in range(0, samples, MC_BLOCK):
        rows = min(MC_BLOCK, samples - start)
        d = np.sort(deviation(occupancy(rng.choice(s, size=(rows, n), p=probs), s)))
        hits += rows - np.searchsorted(d, t, side="right")
    tails = [h / samples for h in hits.tolist()]
    return [(p, math.sqrt(p * (1.0 - p) / samples)) for p in tails]


def rank(counts: np.ndarray) -> np.ndarray:
    """Row of each count vector (last axis) in ``multisets`` of its own total.

    Rows descend lexicographically, so the rank sums over points ``i < s - 1``
    the ``C(d + q - 1, q)`` vectors that agree with ``c`` before ``i`` and put
    more draws on it (``q = s - 1 - i``, ``d = c_{i+1} + ... + c_{s-1}``).
    """
    counts = np.asarray(counts, dtype=np.intp)
    s = counts.shape[-1]
    after = np.cumsum(counts[..., ::-1], axis=-1)[..., ::-1][..., 1:]
    return _comb_table(int(after.max(initial=0)), s)[after, np.arange(s - 1, 0, -1)].sum(axis=-1)


@functools.cache
def _comb_table(top: int, s: int) -> np.ndarray:
    """``[d, q] = C(d + q - 1, q)`` for ``d`` in ``1..top`` and 0 at ``d = 0``, read-only."""
    table = [[math.comb(d + q - 1, q) if d else 0 for q in range(s)] for d in range(top + 1)]
    array = np.array(table, dtype=np.intp)
    array.flags.writeable = False
    return array


def neighbours(counts: np.ndarray) -> np.ndarray:
    """``[r, i]``: rank of count row ``r`` with one more draw of point ``i``.

    Ranked one point at a time, so the working memory is a few ``rows x s``
    arrays.
    """
    return np.stack([rank(counts + e) for e in np.eye(counts.shape[-1], dtype=np.intp)], axis=1)


class MultisetTable:
    """The ``n``-multisets of ``s`` points and what the bound ingredients read of them.

    ``counts`` holds the count rows in ``multisets`` order, at most ``cap`` of
    them, and ``probs`` their probabilities under i.i.d. draws from the point
    probabilities ``weights``.  ``rest_level`` and ``pair_level`` hold what
    the bound ingredients read of the samples with one and two draws fewer.
    Each part is enumerated once, on first use, and kept, so every symmetric
    function of one sample law shares them; making a table enumerates nothing.
    """

    def __init__(self, probs: Sequence[float], n: int, cap: int = DEFAULT_CAP) -> None:
        self.weights, self.n, self.cap = np.asarray(probs, dtype=np.float64), n, cap

    @functools.cached_property
    def counts(self) -> np.ndarray:
        return multisets(self.n, len(self.weights), self.cap)

    @functools.cached_property
    def probs(self) -> np.ndarray:
        return multiset_probabilities(self.counts, self.weights)

    def mean(self, values: np.ndarray) -> float:
        """Exact mean of a symmetric function with ``values[r]`` on count row ``r``."""
        return fsum(self.probs * values)

    def samples(self) -> np.ndarray:
        """The point indices of each count row's sample in base order, one row each."""
        counts = self.counts
        points = np.tile(np.arange(counts.shape[1]), len(counts))
        return np.repeat(points, counts.ravel()).reshape(len(counts), self.n)

    @functools.cached_property
    def rest_level(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rest_probs, up)`` of the ``(n-1)``-multisets ``rest``.

        Their probabilities, and their neighbour ranks ``up = neighbours(rest)``.
        """
        rest = multisets(self.n - 1, len(self.weights), self.cap)
        return multiset_probabilities(rest, self.weights), neighbours(rest)

    @functools.cached_property
    def pair_level(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(low, pair_rows, top)`` of the ``(n-2)``-multisets ``low``.

        Their neighbour ranks ``pair_rows = neighbours(low)``, and
        ``top[q, a, b]``, the row of ``q`` plus ``a`` and ``b`` among the
        ``n``-multisets.
        """
        low = multisets(self.n - 2, len(self.weights), self.cap)
        pair_rows = neighbours(low)
        return low, pair_rows, self.rest_level[1][pair_rows]

    def ingredients(self, values: np.ndarray) -> dict[str, float]:
        """Exact ``E_scv``, ``b``, ``crude`` and ``j_mu`` of a symmetric function.

        ``values[r]`` is the function of ``n >= 2`` i.i.d. draws on row ``r``
        of ``counts``; the keys mean what they mean in
        ``bounds.bound_ingredients`` on the dense table over the ``s^n``
        configurations.  ``E_scv`` and ``b`` vary one draw ``y`` over every
        ``(n-1)``-multiset of the rest; ``crude`` varies two draws over every
        ``(n-2)``-multiset, through the dense tables'
        ``functionals._largest_second_differences``.  For ``j_mu``, the
        coordinates holding point ``a`` in a sample ``c`` contribute alike, so
        its objective is ``sum_a c_a max_z sum_b (c_b - [a = b]) T(c - a - b,
        a, z)`` with ``T(q, a, z) = Var_y[f(q + a + y) - f(q + z + y)]``.
        """
        p, n, s, counts = self.weights, self.n, len(self.weights), self.counts
        if n < 2 or len(values) != len(counts):
            raise ValueError(f"need one value per {n}-multiset of {s} points, n >= 2")
        (rest_probs, up), (low, pair_rows, top) = self.rest_level, self.pair_level
        # vals[r, y]: f at (n-1)-multiset r plus point y.
        vals = np.asarray(values, dtype=np.float64)[up]
        acc = np.zeros(len(vals))
        for y in range(s):
            for y2 in range(s):
                d = vals[:, y] - vals[:, y2]
                acc += p[y] * p[y2] * d * d
        e_scv = n * fsum(rest_probs * 0.5 * acc)
        cond_mean = np.array([math.fsum(row) for row in (p * vals).tolist()])
        centred = vals - cond_mean[:, None]

        # [y, z, q]: f at (n-2)-multiset q plus points y and z, C-contiguous.
        crude = float(_largest_second_differences(np.take(vals.T, pair_rows.T, axis=1)).max())

        cpair = centred[pair_rows]
        objective = np.zeros(len(values))
        for a in range(s):
            diff = cpair[:, a, None, :] - cpair
            t_az = (diff * diff) @ p
            by_z = np.zeros((len(values), s))
            for b in range(s):
                by_z[top[:, a, b]] += (low[:, b, None] + 1) * t_az
            objective += counts[:, a] * by_z.max(axis=1)
        return {
            "E_scv": e_scv,
            "b": float(centred.max()),
            "crude": n * crude,
            "j_mu": 2.0 * math.sqrt(max(float(objective.max()), 0.0)),
        }
