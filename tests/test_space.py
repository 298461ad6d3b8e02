from __future__ import annotations

import gc
import inspect
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from interaction_bounds import bounds, functionals, harness, operators, ustat
from interaction_bounds import space as space_module
from conftest import (
    coordinate_product,
    coordinate_sum,
    seeded_table,
    table,
    tabulated_strategy,
    uniform_space,
)
from interaction_bounds.space import (
    CapacityError,
    FiniteAxis,
    FiniteProductSpace,
    TabulatedFunction,
    expectation,
    fsum,
    fsum_rows,
    memo_scalar,
    tail_probabilities,
    variance,
)


class TestFiniteAxis:
    def test_uniform(self):
        axis = FiniteAxis.uniform(4)
        assert axis.size == 4
        assert math.fsum(axis.weights) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            FiniteAxis(weights=(1.2, -0.2))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            FiniteAxis(weights=(0.5, 0.4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FiniteAxis(weights=())

    def test_singleton_axis(self):
        axis = FiniteAxis(weights=(1.0,))
        assert axis.size == 1


class TestCachedGeometry:
    def test_equal_and_hash_equal_after_cached_reads(self):
        a = FiniteProductSpace.uniform([2, 3])
        b = FiniteProductSpace.uniform([2, 3])
        a.shape, a.size, a.n, hash(a), a.axes[0].weight_array()
        assert a == b and hash(a) == hash(b)
        b.shape, b.size, b.n
        assert a == b and hash(a) == hash(b)
        assert a != FiniteProductSpace.uniform([3, 2])
        assert len({a, b}) == 1

    def test_weight_table_dies_with_its_space(self):
        space = FiniteProductSpace.uniform([3, 4])
        table = space.weight_table()
        assert space.weight_table() is table
        ref = weakref.ref(table)
        del space, table
        gc.collect()
        assert ref() is None

    def test_weight_table_reads_are_counted(self):
        # hits read a held table, misses build one, in lru_cache's fields
        info = space_module._weight_table.cache_info()
        hits, misses = info.hits, info.misses
        space = FiniteProductSpace.uniform([2, 5])
        space.weight_table(), space.weight_table(), space.weight_table()
        FiniteProductSpace.uniform([2, 5]).weight_table()
        info = space_module._weight_table.cache_info()
        assert (info.hits - hits, info.misses - misses) == (2, 2)

    def test_weight_array_is_read_only(self):
        axis = FiniteAxis(weights=(0.25, 0.75))
        w = axis.weight_array()
        assert w.tolist() == [0.25, 0.75]
        with pytest.raises(ValueError):
            w[0] = 1.0
        assert axis.weight_array() is w

    @given(tabulated_strategy(max_axes=4))
    def test_geometry_matches_axes(self, f):
        space = f.space
        assert space.n == len(space.axes)
        assert space.shape == tuple(len(a.weights) for a in space.axes)
        assert space.size == math.prod(space.shape) == f.values.size


class TestCapacity:
    def test_space_over_the_cap_is_refused_when_built(self, monkeypatch):
        monkeypatch.setattr(space_module, "DEFAULT_CAP", 63)
        assert FiniteProductSpace.uniform([3, 3, 7]).size == 63
        with pytest.raises(CapacityError, match="^64 configurations exceed the cap of 63$"):
            FiniteProductSpace.uniform([4, 4, 4])

    @pytest.mark.parametrize(
        "module", [space_module, operators, functionals, bounds, harness, ustat],
        ids=lambda module: module.__name__.rsplit(".", 1)[1],
    )
    def test_no_public_callable_takes_a_cap(self, module):
        # The space holds the one dense cap, and the kernel-term budget is a constant.
        public = [
            obj for name, obj in vars(module).items()
            if not name.startswith("_") and getattr(obj, "__module__", None) == module.__name__
            and callable(obj) and not (inspect.isclass(obj) and issubclass(obj, Exception))
        ]
        methods = [
            meth for cls in public if inspect.isclass(cls)
            for name, meth in vars(cls).items() if not name.startswith("_") and inspect.isfunction(meth)
        ]
        assert public
        for fn in public + methods:
            assert not {"cap", "eval_cap"} & set(inspect.signature(fn).parameters), fn


class TestEnumeration:
    def test_two_by_two(self):
        space = uniform_space(2, 2)
        got = list(oracles.enumerate_configurations(space))
        assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_single_axis(self):
        assert list(oracles.enumerate_configurations(uniform_space(3))) == [(0,), (1,), (2,)]

    def test_row_major_order(self):
        got = list(oracles.enumerate_configurations(uniform_space(2, 3, 2)))
        assert len(got) == 12
        assert got[0] == (0, 0, 0)
        assert got[-1] == (1, 2, 1)
        assert len(set(got)) == 12

    def test_capacity_error(self):
        space = uniform_space(4, 4, 4)
        with pytest.raises(CapacityError):
            list(oracles.enumerate_configurations(space, cap=63))


class TestMeasure:
    def test_uniform(self):
        space = uniform_space(2, 2)
        for c in oracles.enumerate_configurations(space):
            assert oracles.measure_of(space, c) == pytest.approx(0.25)

    def test_product_weights(self):
        space = FiniteProductSpace(
            axes=(FiniteAxis(weights=(0.3, 0.7)), FiniteAxis(weights=(0.5, 0.5)))
        )
        assert oracles.measure_of(space, (1, 0)) == pytest.approx(0.35)

    def test_single_point(self):
        space = FiniteProductSpace(axes=(FiniteAxis(weights=(1.0,)),))
        assert oracles.measure_of(space, (0,)) == 1.0

    def test_out_of_range(self):
        space = uniform_space(2, 2)
        with pytest.raises(IndexError):
            oracles.measure_of(space, (0, 2))
        with pytest.raises(ValueError):
            oracles.measure_of(space, (0,))

    @given(tabulated_strategy())
    def test_weights_sum_to_one(self, f):
        total = fsum(f.space.weight_table())
        assert abs(total - 1.0) <= 1e-12

    @given(tabulated_strategy())
    def test_measure_matches_weight_table(self, f):
        space = f.space
        table = space.weight_table()
        for c in oracles.enumerate_configurations(space):
            assert oracles.measure_of(space, c) == pytest.approx(float(table[c]), abs=1e-15)


class TestExpectationVariance:
    def test_sum_function(self):
        f = coordinate_sum(uniform_space(2, 2))
        assert expectation(f) == pytest.approx(1.0, abs=1e-15)
        assert variance(f) == pytest.approx(0.5, abs=1e-12)

    def test_constant(self):
        f = TabulatedFunction.constant(uniform_space(3, 2), 5.0)
        assert expectation(f) == pytest.approx(5.0)
        assert variance(f) == 0.0

    def test_product_function(self):
        f = coordinate_product(uniform_space(2, 2))
        # oracle: sum over 4 configurations of w * x1 * x2
        assert oracles.expectation(f) == pytest.approx(0.25)
        assert expectation(f) == pytest.approx(0.25, abs=1e-15)
        # oracle: E[f^2] - (Ef)^2 = 1/4 - 1/16
        assert variance(f) == pytest.approx(3.0 / 16.0, abs=1e-15)

    @given(tabulated_strategy())
    def test_matches_oracle(self, f):
        assert expectation(f) == pytest.approx(oracles.expectation(f), abs=1e-12)
        assert variance(f) == pytest.approx(oracles.variance(f), abs=1e-12)

    @given(tabulated_strategy())
    def test_variance_affine_scaling(self, f):
        a, b = 1.7, -0.3
        scaled = f * a + b
        assert variance(scaled) == pytest.approx(
            a * a * variance(f), abs=1e-10
        )

    def test_relabeling_invariance(self):
        space = FiniteProductSpace(
            axes=(FiniteAxis(weights=(0.2, 0.3, 0.5)), FiniteAxis(weights=(0.6, 0.4)))
        )
        rng = np.random.default_rng(5)
        f = TabulatedFunction(space, rng.uniform(-1, 1, space.size))
        perm = [2, 0, 1]
        relabeled_space = FiniteProductSpace(
            axes=(
                FiniteAxis(weights=tuple(space.axes[0].weights[i] for i in perm)),
                space.axes[1],
            )
        )
        g = TabulatedFunction(relabeled_space, f.values[perm, :])
        assert expectation(g) == expectation(f)
        assert variance(g) == variance(f)


class TestBlockedMoments:
    """``expectation`` and ``variance`` form their terms one ``fsum`` block at a time."""

    @pytest.mark.parametrize(
        "shape", [(4,) * 6, (3,) * 8, (2,) * 14, (4,) * 7, (4,) * 8, (4,) * 9], ids=str
    )
    @pytest.mark.parametrize("dirichlet", [False, True], ids=["uniform", "dirichlet"])
    def test_dense_ladder_bit_for_bit(self, shape, dirichlet):
        f = seeded_table(shape, dirichlet, seed=len(shape))
        assert expectation(f).hex() == oracles.expectation_table_formula(f).hex()
        assert variance(f).hex() == oracles.variance_table_formula(f).hex()

    @pytest.mark.parametrize(
        "case", ["short", "zero_mean", "constant", "huge", "huge_in_last_block"]
    )
    def test_math_fsum_fallbacks_bit_for_bit(self, case):
        rng = np.random.default_rng(7)
        shape = (4,) * 9 if case == "huge_in_last_block" else (4,) * 5
        values = rng.uniform(-1.0, 1.0, shape)
        if case == "short":
            values = values[:2, :2, :2, :2, :2]  # 32 terms, below the kernel's 1024
        elif case == "zero_mean":
            values[2:] = -values[:2]  # uniform weights: the mean is exactly 0
        elif case == "constant":
            values[...] = 0.3  # the variance is exactly 0
        elif case == "huge":
            values *= 1e305  # terms above 2^1000 / size; the squares overflow
        else:
            values.flat[-1] = 1e305  # only the last of four blocks is out of bounds
        f = TabulatedFunction(uniform_space(*values.shape), values)
        with np.errstate(over="ignore"):
            assert expectation(f).hex() == oracles.expectation_table_formula(f).hex()
            assert variance(f).hex() == oracles.variance_table_formula(f).hex()


def _fsum_input(kind: str, size: int, seed: int) -> np.ndarray:
    """``size`` float64 terms of one kind, in an order drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    special = {
        "ties": [1.0, 2.0**-53],
        "ties_three": [1.0, 2.0**-53, 2.0**-106],
        "ties_below": [1.0, 2.0**-53, -(2.0**-106)],
        "inf": [math.inf, 1.0],
        "inf_minus_inf": [math.inf, -math.inf],
        "nan": [math.nan, 1.0],
        "overflow": [1e308, 1e308, -1e308],
        "near_overflow": [1.7e308, -1.7e308, 1e-300],
    }
    if kind in special:
        head = np.array(special[kind])
        if seed % 2:
            head = -head
        tail = np.zeros(size - head.size)
        if kind.startswith("ties"):
            # Padding that cancels exactly keeps the tie in place.
            half = rng.uniform(-1.0, 1.0, tail.size // 2)
            tail[: 2 * half.size] = np.concatenate([half, -half])
        return np.concatenate([head, tail])
    if kind == "cancel":
        half = rng.standard_normal(size // 2) * np.exp2(rng.integers(-60, 60, size // 2))
        terms = np.concatenate([half, -half, np.zeros(size % 2)])
        return rng.permutation(terms)
    if kind == "subnormal":
        return rng.integers(-(1 << 40), 1 << 40, size) * 5e-324
    if kind == "negative_zero":
        return np.full(size, -0.0)
    if kind == "spread":
        return rng.uniform(-1.0, 1.0, size) * np.exp2(rng.integers(-1000, 1000, size))
    if kind == "spread_safe":
        # Below 2^1000 / size, so the numpy kernel takes it.
        return rng.uniform(-1.0, 1.0, size) * np.exp2(rng.integers(-1074, 980, size))
    return rng.uniform(0.0, 1.0, size) * rng.uniform(0.0, 1.0, size)


_FSUM_KINDS = (
    "ties", "ties_three", "ties_below", "inf", "inf_minus_inf", "nan", "overflow",
    "near_overflow", "cancel", "subnormal", "negative_zero", "spread", "spread_safe",
    "products",
)


class TestFsum:
    @given(
        st.sampled_from(_FSUM_KINDS),
        st.sampled_from([1023, 1024, 65_535, 65_536, 65_537, 2 * 65_536 + 1]),
        st.integers(0, 2**32 - 1),
    )
    @example("ties", 65_537, 0)
    @example("cancel", 65_537, 1)
    @example("subnormal", 2 * 65_536 + 1, 2)
    @example("spread_safe", 65_536, 3)
    @example("overflow", 1024, 4)
    def test_equals_math_fsum_bit_for_bit(self, kind, size, seed):
        terms = _fsum_input(kind, size, seed)
        try:
            want = math.fsum(terms.tolist())
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                fsum(terms)
            return
        # hex() tells the two zeros apart and prints every nan alike.
        assert fsum(terms).hex() == want.hex()
        if math.isfinite(want) and want != 0.0 and kind != "spread":
            # the kernel itself, not the math.fsum fallback, gives these bits
            chunk = space_module._FSUM_CHUNK
            blocks = (terms[i : i + chunk] for i in range(0, terms.size, chunk))
            assert space_module._exact_blocks(blocks, math.inf).hex() == want.hex()

    @pytest.mark.parametrize("kind", ["products", "spread_safe", "subnormal", "ties"])
    def test_any_shape_and_layout(self, kind):
        terms = _fsum_input(kind, 6 * 4096, 3)
        want = math.fsum(terms.tolist())
        grid = terms.reshape(6, 4096)
        for view in (grid, grid.T, np.asfortranarray(grid), grid[:, ::-1]):
            assert fsum(view).hex() == math.fsum(view.ravel().tolist()).hex()
        assert fsum(grid).hex() == want.hex()


#: Terms that single out a path of ``math.fsum``: signed zeros, the
#: non-finite values, subnormals, the normal range's ends, and halves of
#: an ulp of 1 (round-half-even ties against 1.0 and 1 + 2^-52).
_ROW_SPECIALS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022),
    1e308, -1e308, 1.0, -1.0, 1.0 + 2.0**-52, 2.0**-53, -(2.0**-53), 2.0**-54, 2.0**-106, 3.0,
]


@st.composite
def _row_blocks(draw):
    """A ``(count, width)`` float64 array; some blocks end in their own negated rows."""
    width, count = draw(st.integers(0, 9)), draw(st.integers(0, 5))
    term = st.one_of(
        st.floats(),
        st.floats(-1e3, 1e3),
        st.floats(-(2.0**-1020), 2.0**-1020),
        st.sampled_from(_ROW_SPECIALS),
    )
    rows = draw(st.lists(st.lists(term, min_size=width, max_size=width),
                         min_size=count, max_size=count))
    rows = np.array(rows, dtype=np.float64).reshape(count, width)
    cancel = draw(st.sampled_from(["none", "exact", "near"]))
    if cancel == "exact":  # every row sums to 0
        rows = np.concatenate([rows, -rows[:, ::-1]], axis=1)
    elif cancel == "near":  # only the rounding errors of the scaling survive
        with np.errstate(over="ignore"):
            rows = np.concatenate([rows, rows * -(1.0 + 2.0**-50), rows * 2.0**-50], axis=1)
    return rows


def _assert_row_sums(rows):
    for row in rows.tolist():
        try:
            math.fsum(row)
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                fsum_rows(rows)
            return
    got = fsum_rows(rows)
    assert got.shape == (len(rows),)
    # hex() tells the two zeros apart and prints every nan alike.
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in oracles.row_fsums(rows).tolist()]


class TestFsumRows:
    @given(_row_blocks())
    @example(np.array([[1.0, 2.0**-53, 0.0], [1.0 + 2.0**-52, 2.0**-53, 0.0],
                       [1.0, -(2.0**-54), 0.0], [2.0**-53, 1.0, 2.0**-106]]))
    @example(np.array([[-0.0, -0.0], [0.0, -0.0], [5e-324, -5e-324], [5e-324, 5e-324]]))
    @example(np.array([[math.inf, 1.0], [math.nan, 1.0], [1e308, 1e308], [1e308, -1e308]]))
    @example(np.zeros((3, 0)))
    @example(np.zeros((0, 4)))
    def test_equals_math_fsum_row_by_row(self, rows):
        _assert_row_sums(rows)

    @pytest.mark.parametrize("kind", ["normal", "spread", "cancel", "squares"])
    def test_certified_rows_skip_math_fsum(self, kind, monkeypatch):
        # 2,000 seeded rows of 30 terms: nearly every row is certified in numpy
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((2000, 30))
        if kind == "spread":
            rows *= 2.0 ** rng.integers(-60, 60, rows.shape)
        elif kind == "cancel":
            rows = np.concatenate([rows, -rows[:, :-1]], axis=1)
        elif kind == "squares":
            rows = rows * rows
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def fsum(self, terms):
                calls.append(1)
                return math.fsum(terms)

        monkeypatch.setattr(space_module, "math", CountingMath())
        _assert_row_sums(rows)
        assert len(calls) <= 20, len(calls)

    def test_any_layout(self):
        rows = np.random.default_rng(2).standard_normal((40, 7))
        want = [x.hex() for x in oracles.row_fsums(rows).tolist()]
        for view in (rows, np.asfortranarray(rows), rows.T.copy().T, rows[:, ::-1][:, ::-1]):
            assert [x.hex() for x in fsum_rows(view).tolist()] == want


class TestTailProbabilities:
    @given(tabulated_strategy())
    def test_dense_table_matches_oracle(self, f):
        deviations = f.values - oracles.expectation(f)
        t_values = [float(deviations.min()) - 1.0, *np.unique(deviations).tolist()]
        got = tail_probabilities(deviations, f.space.weight_table(), t_values)
        assert got == [oracles.exact_tail(f, t) for t in t_values]

    def test_at_or_above_the_largest_deviation_is_zero(self):
        deviations = np.array([-0.5, 0.25, 1.0])
        weights = np.array([0.2, 0.3, 0.5])
        assert tail_probabilities(deviations, weights, [1.0, 1.5, 1e300]) == [0.0, 0.0, 0.0]

    def test_below_the_smallest_deviation_is_the_full_mass(self):
        deviations = np.array([-0.5, 0.25, 1.0])
        weights = np.array([0.1, 0.2, 0.3])
        full = math.fsum([0.1, 0.2, 0.3])
        assert tail_probabilities(deviations, weights, [-0.5000001, -7.0]) == [full, full]
        assert tail_probabilities(deviations, weights, [-0.5]) == [math.fsum([0.2, 0.3])]

    def test_constant_table(self):
        f = TabulatedFunction.constant(uniform_space(3, 2), 5.0)
        deviations = f.values - expectation(f)
        w = f.space.weight_table()
        assert tail_probabilities(deviations, w, [-1e-12, 0.0, 1e-12]) == [fsum(w), 0.0, 0.0]

    def test_one_tail_per_t_in_order(self):
        deviations = np.array([[0.0, 1.0], [2.0, 3.0]])
        weights = np.full((2, 2), 0.25)
        assert tail_probabilities(deviations, weights, [2.5, 0.5, 2.5]) == [0.25, 0.75, 0.25]
        assert tail_probabilities(deviations, weights, []) == []


class TestTabulatedFunction:
    def test_flat_values_reshape(self):
        space = uniform_space(2, 3)
        f = TabulatedFunction(space, np.arange(6.0))
        assert f.values.shape == (2, 3)
        assert f((1, 2)) == 5.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            TabulatedFunction(uniform_space(2, 2), np.arange(5.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TabulatedFunction(uniform_space(2), np.array([1.0, np.inf]))

    def test_values_read_only(self):
        f = TabulatedFunction(uniform_space(2, 2), np.zeros(4))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_arithmetic(self):
        space = uniform_space(2, 2)
        f = coordinate_sum(space)
        g = coordinate_product(space)
        assert np.allclose((f + g).values, f.values + g.values)
        assert np.allclose((f - 1.0).values, f.values - 1.0)
        assert np.allclose((2.0 * f).values, 2.0 * f.values)
        assert np.allclose((f * g).values, f.values * g.values)
        assert np.allclose((-f).values, -f.values)

    def test_space_mismatch(self):
        f = coordinate_sum(uniform_space(2, 2))
        g = coordinate_sum(uniform_space(2, 3))
        with pytest.raises(ValueError):
            _ = f + g


class TestMemoScalar:
    def test_computes_once_per_function_and_key(self):
        calls = []

        def compute():
            calls.append(1)
            return 2.5

        f = coordinate_sum(uniform_space(2, 2))
        g = coordinate_sum(uniform_space(2, 2))
        assert memo_scalar(f, "x", compute) == memo_scalar(f, "x", compute) == 2.5
        memo_scalar(f, "y", compute)
        memo_scalar(g, "x", compute)
        assert len(calls) == 3

    def test_entry_dies_with_function(self):
        f = coordinate_sum(uniform_space(2, 2))
        memo_scalar(f, "x", lambda: 1.0)
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None
