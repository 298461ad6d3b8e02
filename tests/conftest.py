from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from interaction_bounds.space import (
    FiniteAxis,
    FiniteProductSpace,
    TabulatedFunction,
)

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


def uniform_space(*sizes: int) -> FiniteProductSpace:
    return FiniteProductSpace.uniform(sizes)


def table(space: FiniteProductSpace, fn) -> TabulatedFunction:
    """The function ``fn(configuration)`` tabulated over ``space``, in row-major order."""
    flat = np.fromiter((fn(c) for c in np.ndindex(space.shape)), dtype=np.float64, count=space.size)
    return TabulatedFunction(space, flat)


def coordinate_sum(space: FiniteProductSpace) -> TabulatedFunction:
    return table(space, lambda c: float(sum(c)))


def coordinate_product(space: FiniteProductSpace) -> TabulatedFunction:
    return table(space, lambda c: float(np.prod(c)))


# --- hypothesis strategies ---------------------------------------------------


@st.composite
def axes_strategy(draw, max_axes: int = 3, max_size: int = 4):
    n = draw(st.integers(1, max_axes))
    axes = []
    for _ in range(n):
        size = draw(st.integers(1, max_size))
        kind = draw(st.sampled_from(["uniform", "weighted"]))
        if kind == "uniform":
            axes.append(FiniteAxis.uniform(size))
        else:
            raw = draw(
                st.lists(st.integers(1, 9), min_size=size, max_size=size)
            )
            total = sum(raw)
            axes.append(FiniteAxis(weights=tuple(r / total for r in raw)))
    return FiniteProductSpace(axes=tuple(axes))


@st.composite
def tabulated_strategy(draw, max_axes: int = 3, max_size: int = 4):
    space = draw(axes_strategy(max_axes=max_axes, max_size=max_size))
    values = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False, width=32),
            min_size=space.size,
            max_size=space.size,
        )
    )
    return TabulatedFunction(space, np.asarray(values))


@st.composite
def seeded_tables(draw, max_axes: int = 4, max_size: int = 4):
    """Uniform or Dirichlet axis weights and a full-precision seeded value table."""
    shape = draw(st.lists(st.integers(1, max_size), min_size=1, max_size=max_axes))
    return seeded_table(shape, draw(st.booleans()), draw(st.integers(0, 2**32 - 1)))


def seeded_table(shape, dirichlet: bool, seed: int) -> TabulatedFunction:
    rng = np.random.default_rng(seed)
    axes = []
    for size in shape:
        if dirichlet:
            raw = rng.dirichlet(np.ones(size))
            w = raw / math.fsum(raw.tolist())
            axes.append(FiniteAxis(weights=tuple(float(x) for x in w)))
        else:
            axes.append(FiniteAxis.uniform(size))
    space = FiniteProductSpace(axes=tuple(axes))
    return TabulatedFunction(space, rng.uniform(-1.0, 1.0, space.size))
