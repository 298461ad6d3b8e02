"""Coordinate operators on tabulated functions.

The calculus needed for jackknife-style variance analysis: substitution of a
coordinate by a fixed point, conditional expectation and conditional variance
over a coordinate, the sum of conditional variances (the Efron-Stein
surrogate for the variance), and the self-bounding operator
``Dg = sum_k (g - inf over axis k of g)^2``.

Every operator returns a fresh dense table; there is no in-place mutation and
no lazy composition.  Outputs that are mathematically independent of a
coordinate come from ``_constant_along``, which copies one reduced array
along that axis, so they are exactly constant along the fiber by
construction.
"""

from __future__ import annotations

import numpy as np

from .space import FiniteProductSpace, TabulatedFunction

def _contract(values: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """``np.tensordot(values, w, axes=([k], [0]))``, bit for bit.

    The same transpose, reshape and BLAS matrix-vector product that
    ``tensordot`` runs, without its per-call axis bookkeeping.
    """
    last = values.ndim - 1
    if k != last:
        values = values.transpose(*range(k), *range(k + 1, last + 1), k)
    return np.dot(values.reshape(-1, w.shape[0]), w).reshape(values.shape[:-1])


def _keep_axis(reduced: np.ndarray, shape: tuple[int, ...], k: int) -> np.ndarray:
    """``reduced`` (axis ``k`` of ``shape`` contracted) with a length-1 axis ``k``."""
    return reduced.reshape(shape[:k] + (1,) + shape[k + 1 :])


def _constant_along(space: FiniteProductSpace, reduced: np.ndarray, k: int) -> TabulatedFunction:
    """The table on ``space`` that repeats ``reduced`` along axis ``k``."""
    out = np.empty(space.shape)
    out[...] = _keep_axis(np.asarray(reduced), space.shape, k)
    return TabulatedFunction(space, out)


def _center(values: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """``values`` minus their ``w``-weighted mean along axis ``k``."""
    return values - _keep_axis(_contract(values, w, k), values.shape, k)


def substitute(f: TabulatedFunction, k: int, y: int) -> TabulatedFunction:
    """Freeze coordinate ``k`` at point ``y``.

    The result is independent of coordinate ``k`` and the operation is a
    homomorphism: ``substitute(f * g) == substitute(f) * substitute(g)``.
    Substituting into a function already independent of ``k`` is the identity.
    """
    space = f.space
    space.check_point(k, y)
    return _constant_along(space, np.take(f.values, y, axis=k), k)


def cond_expectation(f: TabulatedFunction, k: int) -> TabulatedFunction:
    """Average out coordinate ``k`` under its axis weights.

    Idempotent, commutes with conditional expectation over other axes and
    with substitution on other axes.
    """
    space = f.space
    space.check_axis(k)
    w = space.axes[k].weight_array()
    return _constant_along(space, _contract(f.values, w, k), k)


def cond_variance(f: TabulatedFunction, k: int) -> TabulatedFunction:
    """Variance of ``f`` over coordinate ``k`` with the others held fixed.

    Computed as the conditional second moment of the centered fiber, which is
    nonnegative term by term.  ``cond_variance_pairs`` evaluates the same
    quantity through weighted squared first differences; the two must agree
    to 1e-10 and the test suite asserts exactly that.
    """
    space = f.space
    space.check_axis(k)
    w = space.axes[k].weight_array()
    centered = _center(f.values, w, k)
    return _constant_along(space, _contract(centered * centered, w, k), k)


def cond_variance_pairs(f: TabulatedFunction, k: int) -> TabulatedFunction:
    """Conditional variance via ``(1/2) E_{(y,y')}[ (f_y - f_{y'})^2 ]``."""
    space = f.space
    space.check_axis(k)
    w = space.axes[k].weight_array()
    fk = np.moveaxis(f.values, k, 0)
    diff = fk[:, None, ...] - fk[None, :, ...]
    pair_w = np.multiply.outer(w, w)
    reduced = 0.5 * np.tensordot(pair_w, diff * diff, axes=([0, 1], [0, 1]))
    # tensordot put the remaining axes in moveaxis order; restore axis k.
    return _constant_along(space, reduced, k)


def scv(f: TabulatedFunction) -> TabulatedFunction:
    """Sum of conditional variances over all coordinates.

    Its expectation is the Efron-Stein upper bound on ``variance(f)``; it is
    a constant table when ``f`` is a sum of per-coordinate functions.
    """
    total = np.zeros(f.space.shape)
    for k in range(f.space.n):
        total += cond_variance(f, k).values
    return TabulatedFunction(f.space, total)


def self_bounding_operator(g: TabulatedFunction) -> TabulatedFunction:
    """``Dg = sum_k (g - inf over axis k of g)^2``.

    The inner infimum is an exact minimum over the finite axis (ties resolve
    identically regardless of index because only the minimum value enters).
    ``Dg`` is nonnegative and vanishes exactly on constants.
    """
    total = np.zeros(g.space.shape)
    for k in range(g.space.n):
        drop = g.values - g.values.min(axis=k, keepdims=True)
        total += drop * drop
    return TabulatedFunction(g.space, total)

