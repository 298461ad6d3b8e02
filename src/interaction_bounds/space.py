"""Finite product probability spaces and dense tabulated functions.

A space is a product of finitely many weighted axes.  Real-valued functions
on the space are stored as dense tables in row-major enumeration order (last
axis fastest), which gives every operator random access by configuration.

Everything here is exact: expectations and variances are finite sums, and the
global reductions go through exactly rounded summation (``fsum``) so that
inequality checks downstream can run at 1e-10 tolerances without budgeting
for accumulation error.  ``fsum`` returns ``math.fsum``'s bits on every
input.  A float64 array of 1024 terms or more is summed in numpy, as exact
integers per binary exponent rounded once, in chunks of 2^16 terms; a
shorter or non-float64 input, or one with a non-finite term or a risk of
overflow, goes to ``math.fsum`` as a list of Python floats.  ``expectation``
and ``variance`` form their terms one such chunk at a time, with the same
bits as ``fsum`` of the whole table of terms.  ``fsum_rows`` gives
``math.fsum`` of every row of an array at once, for the many short sums of
the per-sample paths.

All types are immutable after construction and all operations are pure, so
evaluation over disjoint configuration ranges may run in parallel as long as
the final reduction keeps a fixed order.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, Sequence

import numpy as np

#: Cap on the configurations of a product space, checked when the space is
#: built (so no dense table exceeds it), and the default cap of ``multisets``.
DEFAULT_CAP = 10_000_000

#: Axis weights must sum to one within this tolerance.
WEIGHT_SUM_TOL = 1e-12

Configuration = tuple[int, ...]


class CapacityError(Exception):
    """An exact enumeration would exceed the configured configuration cap."""


#: Below this many terms ``math.fsum`` on a list is as fast as the kernel.
_FSUM_KERNEL_MIN = 1024

#: Terms per ``np.bincount`` pass of the kernel.  A half mantissa is an
#: integer below 2^27, so every partial sum of one pass stays below 2^43 and
#: is exact in float64; the int64 bin totals over all passes stay exact up
#: to 2^36 terms.
_FSUM_CHUNK = 1 << 16

#: The low half of a mantissa has this many bits; the high half has 27.
_FSUM_LOW_BITS = 26

#: ``np.frexp`` gives finite nonzero doubles exponents -1073..1024; adding
#: the offset makes them bin indices 0..2097.
_FSUM_EXP_OFFSET = 1073
_FSUM_BINS = 2098

#: The kernel runs only while ``size * max|term|`` is below this.  Then no
#: running sum of ``math.fsum`` can overflow (its partials and their sums
#: stay below twice the sum of the absolute values, 2^1001), so both paths
#: return the rounded exact sum and neither raises.
_FSUM_SAFE = 2.0**1000


def fsum(values: Iterable[float] | np.ndarray) -> float:
    """Exactly rounded sum of the given terms: ``math.fsum``'s bits on every input.

    A float64 array of at least ``_FSUM_KERNEL_MIN`` finite terms with
    ``size * max|term| < 2^1000`` goes to the kernel, ``_exact_blocks`` over
    its blocks of ``_FSUM_CHUNK`` terms (``_fsum_blocks``), which holds
    ``O(_FSUM_CHUNK)`` numpy temporaries.  Anything else, including every
    input on which ``math.fsum`` returns ``nan`` or ``inf`` or raises
    ``OverflowError`` or ``ValueError``, and every exact zero, goes to
    ``math.fsum`` itself (on a list of Python floats for an array, about 32
    bytes per term).  Both paths round the exact sum once, to nearest with
    ties to even, so they give the same bits.
    """
    if isinstance(values, (np.ndarray, np.generic)):
        flat = np.asarray(values).ravel()
        if flat.dtype == np.float64:
            return _fsum_blocks(flat.size, lambda start, stop: flat[start:stop])
        return math.fsum(flat.tolist())
    return math.fsum(values)


def _fsum_blocks(size: int, terms: Callable[[int, int], np.ndarray]) -> float:
    """``fsum`` of ``size`` float64 terms, of which ``terms(start, stop)`` forms a block.

    The kernel asks for its blocks of ``_FSUM_CHUNK`` terms one at a time,
    so a caller that computes its terms there holds one block of them, not
    the whole array; ``fsum`` hands it slices of an array.  The bounds on
    the terms are checked block by block, and where they fail, or there are
    fewer than ``_FSUM_KERNEL_MIN`` terms, or the sum is exactly 0, this asks
    for all the terms at once and goes to ``math.fsum``.
    """
    if size >= _FSUM_KERNEL_MIN:
        blocks = (terms(i, min(i + _FSUM_CHUNK, size)) for i in range(0, size, _FSUM_CHUNK))
        total = _exact_blocks(blocks, _FSUM_SAFE / size)
        if total is not None:
            return total
    return math.fsum(terms(0, size).tolist())


def _exact_blocks(blocks: Iterable[np.ndarray], limit: float) -> float | None:
    """The sum of the terms in ``blocks``, rounded once, or ``None``.

    ``None`` comes back as soon as a block holds a term that is not finite
    or not below ``limit`` in absolute value, and when the sum is exactly 0,
    so that the sign of the zero is the one ``math.fsum`` gives.  Each term
    is ``M * 2^(e - 53)`` with ``M`` an integer below 2^53 (``np.frexp``),
    cut as ``M = hi * 2^26 + lo``.  ``np.bincount`` adds the halves per
    exponent in float64, exactly for blocks of at most ``_FSUM_CHUNK``
    terms, and the bin sums of all blocks add up in int64.  The bins then
    combine into one Python int ``S`` with the exact sum ``S * 2^p``, and
    ``float(S << p)`` or ``S / 2^-p`` rounds it once, to nearest with ties to
    even (Python's int to float conversion and int true division both round
    correctly).
    """
    bins = np.zeros(_FSUM_BINS + _FSUM_LOW_BITS, dtype=np.int64)
    for block in blocks:
        # False for a nan or an infinite term as well.
        if not (-limit < block.min() and block.max() < limit):
            return None
        mantissa, exponent = np.frexp(block)
        exponent += _FSUM_EXP_OFFSET
        mantissa *= 2.0 ** (53 - _FSUM_LOW_BITS)
        hi = np.trunc(mantissa)
        mantissa -= hi
        mantissa *= 2.0**_FSUM_LOW_BITS
        bins[_FSUM_LOW_BITS:] += np.bincount(exponent, hi, _FSUM_BINS).astype(np.int64)
        bins[:_FSUM_BINS] += np.bincount(exponent, mantissa, _FSUM_BINS).astype(np.int64)
    used = np.flatnonzero(bins)
    if used.size == 0:
        return None
    low = int(used[0])
    total = 0
    for k, v in zip(used.tolist(), bins[used].tolist()):
        total += v << (k - low)
    if total == 0:
        return None
    power = low - _FSUM_EXP_OFFSET - 53
    return float(total << power) if power >= 0 else total / (1 << -power)


def fsum_rows(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-d float64 array, bit for bit.

    Rump, Ogita and Oishi's error-free extraction ("Accurate floating-point
    summation", 2008) splits each term of a row as ``p = q + p'``, with
    ``q = (sigma + p) - sigma`` for a power of two ``sigma >= (width + 2)
    max|p|``: the ``q`` are multiples of ``sigma * 2^-53`` whose sum is exact
    in float64, and ``|p'| <= sigma * 2^-53``.  Two extractions leave the
    row's exact sum as ``tau1 + tau2 + sum p''``.  TwoSum (Knuth) rounds
    ``tau1 + tau2`` once to ``r``, with exact remainder ``t``.  If every
    ``p''`` is 0, ``r`` is the correct rounding, ties to even included.
    Otherwise ``fl(sum p'')`` is off by at most ``delta = width * 2^-52 *
    fl(sum |p''|)`` in any order of summation, so the exact sum lies within
    ``|t + fl(sum p'')|`` (plus its rounding error) plus ``delta`` of ``r``,
    and ``r`` is the correct rounding when that stays, with a factor of two
    to spare, inside half the gap from ``r`` to its neighbour towards zero.
    A row that fails this, sums to 0 (whose sign is ``math.fsum``'s), holds a
    term that is not finite, or has ``width * max|p| >= 2^1000`` (so nothing
    overflows) or ``max|p| <= 2^-900`` goes to ``math.fsum`` on its own.  A
    row of no terms sums to 0.0.
    """
    rows = np.asarray(rows, dtype=np.float64)
    count, width = rows.shape
    if width == 0 or count == 0:
        return np.zeros(count)
    # One column per row, so that every reduction runs across rows.
    rest = np.array(rows.T, order="C")
    # Rows that overflow or hold a nan or an infinity go to math.fsum below.
    with np.errstate(all="ignore"):
        top = np.abs(rest).max(axis=0)
        tau = [_extract(rest, top), _extract(rest, np.abs(rest).max(axis=0))]
        c = rest.sum(axis=0)
        mag = np.abs(rest, out=rest).sum(axis=0)
        delta = mag * (width * 2.0**-52) + np.where(mag > 0.0, 2.0**-1074, 0.0)
        r = tau[0] + tau[1]
        back = r - tau[0]
        d = ((tau[0] - (r - back)) + (tau[1] - back)) + c
        size, d = np.abs(r), np.abs(d)
        room = (size - np.nextafter(size, 0.0)) / 2.0 - d
        sure = (
            (2.0**-900 < top) & (top < _FSUM_SAFE / width) & (r != 0.0)
            & ((mag == 0.0) | (2.0 * (delta + d * 2.0**-52) < room))
        )
    for i in np.flatnonzero(~sure).tolist():
        r[i] = math.fsum(rows[i].tolist())
    return r


def _extract(cols: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Rump's extraction along axis 0: the exact sums of the ``q``, leaving the ``p'`` in ``cols``.

    ``scale`` bounds ``|p|`` in each column; ``sigma`` is the power of two
    ``2^bit_length(width + 1) >= width + 2`` times the one at or above it.
    """
    sigma = np.ldexp(1.0, np.frexp(scale)[1] + (len(cols) + 1).bit_length())
    q = cols + sigma
    q -= sigma
    cols -= q
    return q.sum(axis=0)


@dataclass(frozen=True)
class FiniteAxis:
    """One coordinate of a product space: a finite set of weighted points.

    Points are addressed by index ``0..size-1``; ``weights[i]`` is the
    probability of point ``i``.  Weights must be nonnegative and sum to one
    within ``WEIGHT_SUM_TOL``.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.weights) < 1:
            raise ValueError("axis needs at least one point")
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if any(not math.isfinite(x) for x in w):
            raise ValueError("axis weights must be finite")
        if any(x < 0.0 for x in w):
            raise ValueError("axis weights must be nonnegative")
        total = math.fsum(w)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"axis weights sum to {total!r}, expected 1")

    @property
    def size(self) -> int:
        return len(self.weights)

    @classmethod
    def uniform(cls, size: int) -> "FiniteAxis":
        if size < 1:
            raise ValueError("size must be >= 1")
        return cls(weights=(1.0 / size,) * size)

    def weight_array(self) -> np.ndarray:
        """The weights as a read-only float64 array, built once per axis."""
        return self._weight_array

    @cached_property
    def _weight_array(self) -> np.ndarray:
        arr = np.asarray(self.weights, dtype=np.float64)
        arr.flags.writeable = False
        return arr


@dataclass(frozen=True)
class FiniteProductSpace:
    """A product of finite weighted axes carrying the product measure.

    A space of more than ``DEFAULT_CAP`` configurations raises
    ``CapacityError`` when it is built, so every dense table over a space,
    and every exact enumeration of one, stays within the cap.

    ``n``, ``shape``, ``size``, the hash and the weight table are computed
    once per instance: operators on small tables read them many times per
    call.  They live in the instance ``__dict__``, outside the fields, so
    equality still compares the axes alone, and the weight table dies with
    its space.
    """

    axes: tuple[FiniteAxis, ...]

    def __post_init__(self) -> None:
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        if len(axes) < 1:
            raise ValueError("space needs at least one axis")
        if not all(isinstance(a, FiniteAxis) for a in axes):
            raise TypeError("axes must be FiniteAxis instances")
        if self.size > DEFAULT_CAP:
            raise CapacityError(f"{self.size} configurations exceed the cap of {DEFAULT_CAP}")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.axes,))

    @cached_property
    def n(self) -> int:
        """Number of coordinates."""
        return len(self.axes)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    @cached_property
    def size(self) -> int:
        """Total number of configurations."""
        return math.prod(self.shape)

    @classmethod
    def uniform(cls, sizes: Sequence[int]) -> "FiniteProductSpace":
        return cls(axes=tuple(FiniteAxis.uniform(s) for s in sizes))

    def check_axis(self, k: int) -> int:
        if not (0 <= k < self.n):
            raise IndexError(f"axis {k} out of range for {self.n} axes")
        return k

    def check_point(self, k: int, y: int) -> int:
        self.check_axis(k)
        if not (0 <= y < self.axes[k].size):
            raise IndexError(f"point {y} out of range for axis {k}")
        return y

    def weight_table(self) -> np.ndarray:
        """Dense table of the product measure, one weight per configuration, read-only.

        Built on the first call and held by the space, as ``shape`` and
        ``size`` are, so it lives as long as the space and no longer.
        """
        return _weight_table(self)

    @cached_property
    def _weights(self) -> np.ndarray:
        table = reduce(np.multiply.outer, (a.weight_array() for a in self.axes))
        table = np.asarray(table, dtype=np.float64).reshape(self.shape)
        table.flags.writeable = False
        return table


class _HeldWeightTables:
    """Reads the weight table a space holds, and counts the reads.

    ``cache_info()`` reports them in the fields of ``functools.lru_cache``'s:
    ``hits`` found the table built, ``misses`` built it.
    """

    hits = misses = 0

    def __call__(self, space: FiniteProductSpace) -> np.ndarray:
        if "_weights" in vars(space):
            self.hits += 1
        else:
            self.misses += 1
        return space._weights

    def cache_info(self) -> "_HeldWeightTables":
        return self


_weight_table = _HeldWeightTables()


@dataclass(frozen=True, eq=False)
class TabulatedFunction:
    """A bounded function on a product space, stored as a dense value table.

    ``values`` has one real per configuration in enumeration order; it is
    held as a read-only ndarray with shape ``space.shape`` so that axis ``k``
    of the array is coordinate ``k`` of the space.
    """

    space: FiniteProductSpace
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim == 1:
            if arr.size != self.space.size:
                raise ValueError(
                    f"flat table has {arr.size} values, space has "
                    f"{self.space.size} configurations"
                )
            arr = arr.reshape(self.space.shape)
        elif arr.shape != self.space.shape:
            raise ValueError(
                f"table shape {arr.shape} does not match space shape "
                f"{self.space.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError("table values must be finite")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def constant(cls, space: FiniteProductSpace, value: float) -> "TabulatedFunction":
        return cls(space, np.full(space.shape, float(value)))

    def __call__(self, config: Configuration) -> float:
        return float(self.values[tuple(config)])

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def _coerce(self, other: "TabulatedFunction | float") -> np.ndarray:
        if isinstance(other, TabulatedFunction):
            if other.space != self.space:
                raise ValueError("operands live on different spaces")
            return other.values
        return np.float64(other)

    def __add__(self, other: "TabulatedFunction | float") -> "TabulatedFunction":
        return TabulatedFunction(self.space, self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other: "TabulatedFunction | float") -> "TabulatedFunction":
        return TabulatedFunction(self.space, self.values - self._coerce(other))

    def __rsub__(self, other: float) -> "TabulatedFunction":
        return TabulatedFunction(self.space, np.float64(other) - self.values)

    def __mul__(self, other: "TabulatedFunction | float") -> "TabulatedFunction":
        return TabulatedFunction(self.space, self.values * self._coerce(other))

    __rmul__ = __mul__

    def __neg__(self) -> "TabulatedFunction":
        return TabulatedFunction(self.space, -self.values)


#: Scalars derived from a function, per function instance.  Functions are
#: immutable and hashed by identity, so an entry lives as long as its function.
_SCALARS: weakref.WeakKeyDictionary[TabulatedFunction, dict[str, float]]
_SCALARS = weakref.WeakKeyDictionary()


def memo_scalar(f: TabulatedFunction, key: str, compute: Callable[[], float]) -> float:
    """``compute()`` on the first call for ``(f, key)``; its stored value after.

    For scalars that callers sweeping a deviation grid would otherwise
    re-derive at every point.  ``compute`` must depend on ``f`` alone; checks
    that depend on other arguments stay with the caller and run on every call.
    """
    scalars = _SCALARS.setdefault(f, {})
    if key not in scalars:
        scalars[key] = compute()
    return scalars[key]


def expectation(f: TabulatedFunction) -> float:
    """Exact mean of ``f`` under the product measure: ``fsum(w * f)``, bit for bit.

    The products are formed one ``fsum`` block at a time (``_fsum_blocks``).
    """
    w, v = f.space.weight_table().ravel(), f.values.ravel()
    return _fsum_blocks(v.size, lambda start, stop: w[start:stop] * v[start:stop])


def variance(f: TabulatedFunction) -> float:
    """Exact variance of ``f``; zero iff ``f`` is a.s. constant.

    ``fsum(w * d * d)`` with ``d = f - E f``, bit for bit, with the terms
    formed one ``fsum`` block at a time (``_fsum_blocks``).
    """
    w, v = f.space.weight_table().ravel(), f.values.ravel()
    mu = _fsum_blocks(v.size, lambda start, stop: w[start:stop] * v[start:stop])

    def terms(start: int, stop: int) -> np.ndarray:
        d = v[start:stop] - mu
        wd = w[start:stop] * d
        wd *= d
        return wd

    return _fsum_blocks(v.size, terms)


def tail_probabilities(
    deviations: np.ndarray, weights: np.ndarray, t_values: Iterable[float]
) -> list[float]:
    """``Pr{deviation > t}`` per ``t``: the fsum of the weights of the larger deviations."""
    return [fsum(weights[deviations > t]) for t in t_values]


def _integer(value) -> int:
    """``value`` as an int if it is integral; a bool or a fraction is an error."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)
