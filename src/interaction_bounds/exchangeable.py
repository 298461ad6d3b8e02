"""Symmetric functions of i.i.d. samples, evaluated on occupancy counts.

A symmetric function of ``n`` i.i.d. draws from ``s`` base points (a
U-statistic, the generalization gap of a learner) depends only on how often
each point occurs: ``C(n + s - 1, s - 1)`` sample multisets in place of
``s^n`` configurations.  A value computed once per multiset is looked up by
``rank`` for any sample, configuration, or sample with one more draw.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .space import DEFAULT_CAP, CapacityError


def multisets(n: int, s: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Every count vector of ``n`` draws from ``s`` points, one per row.

    Row ``r`` counts the points of the ``r``-th tuple of
    ``itertools.combinations_with_replacement(range(s), n)``.  Raises
    CapacityError when the rows would exceed ``cap``.
    """
    total = math.comb(n + s - 1, s - 1)
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
    occupied points, in that order of operations.
    """
    p = [float(x) for x in probs]
    out = np.empty(len(counts))
    for r, row in enumerate(np.asarray(counts).tolist()):
        weight = math.factorial(sum(row))
        for c in row:
            weight //= math.factorial(c)
        out[r] = weight * math.prod(p[i] ** c for i, c in enumerate(row) if c)
    return out


def occupancy(samples: np.ndarray, s: int) -> np.ndarray:
    """Count vectors of samples given as point indices along the last axis."""
    return np.count_nonzero(np.asarray(samples)[..., None] == np.arange(s), axis=-2)


def rank(counts: np.ndarray) -> np.ndarray:
    """Row of each count vector (last axis) in ``multisets`` of its own total.

    Rows descend lexicographically, so the rank sums over points ``i < s - 1``
    the ``C(d + q - 1, q)`` vectors that agree with ``c`` before ``i`` and put
    more draws on it (``q = s - 1 - i``, ``d = c_{i+1} + ... + c_{s-1}``).
    """
    counts = np.asarray(counts, dtype=np.intp)
    s = counts.shape[-1]
    after = np.cumsum(counts[..., ::-1], axis=-1)[..., ::-1][..., 1:]
    top = int(after.max(initial=0))
    table = [[math.comb(d + q - 1, q) if d else 0 for q in range(s)] for d in range(top + 1)]
    return np.array(table, dtype=np.intp)[after, np.arange(s - 1, 0, -1)].sum(axis=-1)


def neighbours(counts: np.ndarray) -> np.ndarray:
    """``[r, i]``: rank of count row ``r`` with one more draw of point ``i``."""
    return rank(counts[:, None, :] + np.eye(counts.shape[-1], dtype=np.intp))
