from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from interaction_bounds import bounds, exchangeable
from interaction_bounds.exchangeable import (
    MultisetTable,
    block_rows,
    mc_tails,
    multiset_count,
    multiset_probabilities,
    multisets,
    neighbours,
    occupancy,
    rank,
)
from interaction_bounds.rls import GapTable, Population
from interaction_bounds.rng import substream
from interaction_bounds.space import (
    CapacityError,
    FiniteAxis,
    FiniteProductSpace,
    TabulatedFunction,
    tail_probabilities,
)
from interaction_bounds.ustat import (
    UStatProblem,
    mean_kernel,
    product_kernel,
    sign_agreement_kernel,
    u_at_counts,
)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_rows_follow_combinations_with_replacement(n, s):
    want = [
        [combo.count(i) for i in range(s)]
        for combo in itertools.combinations_with_replacement(range(s), n)
    ]
    counts = multisets(n, s)
    assert counts.tolist() == want
    assert rank(counts).tolist() == list(range(len(want)))
    more = multisets(n + 1, s)
    assert np.array_equal(more[neighbours(counts)], counts[:, None, :] + np.eye(s, dtype=int))


@given(st.integers(0, 12), st.integers(1, 6))
def test_samples_and_count_of_a_table(n, s):
    table = MultisetTable([1.0 / s] * s, n)
    samples = table.samples()
    assert samples.shape == (len(table.counts), n)
    for got, row in zip(samples.tolist(), table.counts.tolist()):
        assert got == [i for i, c in enumerate(row) for _ in range(c)]
    assert multiset_count(n, s) == len(multisets(n, s))


@given(
    st.integers(1, 6).flatmap(
        lambda s: st.lists(st.lists(st.integers(0, 9), min_size=s, max_size=s), max_size=30).map(
            lambda rows: np.array(rows, dtype=np.intp).reshape(-1, s)
        )
    )
)
def test_neighbours_are_the_gathered_ranks(counts):
    # rows of any totals, in any order: the ranks are exact integers
    got, want = neighbours(counts), oracles.neighbours(counts)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@given(
    st.integers(1, 6).flatmap(
        lambda s: st.tuples(
            st.just(s),
            st.lists(st.integers(0, 4), max_size=3).flatmap(
                lambda lead: st.integers(0, 20).flatmap(
                    lambda n: st.lists(
                        st.integers(0, s - 1),
                        min_size=math.prod(lead) * n,
                        max_size=math.prod(lead) * n,
                    ).map(lambda flat: np.array(flat, dtype=np.intp).reshape(*lead, n))
                )
            ),
        )
    )
)
def test_occupancy_and_rank_are_the_per_point_forms(case):
    # exact integers: the one-pass counts and the cached binomial table
    s, samples = case
    counts = occupancy(samples, s)
    want = oracles.occupancy_by_point(samples, s)
    assert counts.shape == want.shape and counts.dtype == want.dtype
    assert np.array_equal(counts, want)
    got, want = rank(counts), oracles.rank_fresh_table(counts)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_occupancy_refuses_points_outside_the_base():
    for samples in ([0, 3], [[-1, 0]]):
        with pytest.raises(ValueError, match=r"point indices must lie in \[0, 3\)"):
            occupancy(np.array(samples), 3)


def test_making_a_table_enumerates_nothing(monkeypatch):
    sizes = []
    real = exchangeable.multisets

    def counting(n, s, *cap):
        sizes.append(n)
        return real(n, s, *cap)

    monkeypatch.setattr(exchangeable, "multisets", counting)
    table = MultisetTable((0.2, 0.3, 0.5), 5, cap=20)
    assert sizes == []
    assert table.rest_level[1].shape == (15, 3) and sizes == [4]
    with pytest.raises(CapacityError):
        table.counts


def test_occupancy_of_samples():
    samples = np.array([[[0, 2, 0, 1], [2, 2, 2, 2]]])
    assert occupancy(samples, 3).tolist() == [[[2, 1, 1], [0, 0, 4]]]
    samples = np.random.default_rng(3).integers(0, 4, size=(5, 6, 7))
    want = [[[list(row).count(i) for i in range(4)] for row in block] for block in samples]
    assert occupancy(samples, 4).tolist() == want
    assert occupancy(samples[0, 0], 4).tolist() == want[0][0]


@pytest.mark.parametrize("samples", [100, 2 * block_rows(7), 2 * block_rows(7) + 1])
def test_monte_carlo_blocks_draw_the_one_shot_samples(samples):
    probs, rows = (0.2, 0.5, 0.3), block_rows(7)
    blocks = []

    def record(counts):
        blocks.append(counts.copy())
        return np.zeros(len(counts))

    assert mc_tails(substream(5, 0xF0), probs, 7, samples, record, [-1.0, 0.0]) == [
        (1.0, 0.0),
        (0.0, 0.0),
    ]
    assert [len(b) for b in blocks] == [rows] * (samples // rows) + (
        [samples % rows] if samples % rows else []
    )
    draws = substream(5, 0xF0).choice(3, size=(samples, 7), p=probs)
    assert np.array_equal(np.concatenate(blocks), occupancy(draws, 3))


def test_probabilities_aggregate_configuration_weights():
    axis = FiniteAxis(weights=(0.2, 0.5, 0.3))
    space = FiniteProductSpace(axes=(axis,) * 4)
    counts = multisets(4, 3)
    by_row: dict[int, list[float]] = {}
    for config in oracles.configs(space):
        row = int(rank(occupancy(np.array(config), 3)))
        by_row.setdefault(row, []).append(oracles.weight(space, config))
    want = [math.fsum(by_row[r]) for r in range(len(counts))]
    got = multiset_probabilities(counts, axis.weights)
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)
    assert math.fsum(got) == pytest.approx(1.0, abs=1e-15)


def direct_probability(row, probs):
    """The multinomial formed from factorials, times the powers, as one expression."""
    weight = math.factorial(sum(row))
    for c in row:
        weight //= math.factorial(c)
    return weight * math.prod(p**c for p, c in zip(probs, row) if c)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 20, 41, 60])
def test_running_multinomial_matches_factorials(n, s):
    probs = np.random.default_rng(100 * n + s).dirichlet(np.ones(s))
    counts = multisets(n, s)
    want = [direct_probability(row, probs.tolist()) for row in counts.tolist()]
    assert multiset_probabilities(counts, probs).tolist() == want
    # Rows in any order, and of different totals, start afresh where needed.
    mixed = np.concatenate([counts[::-1], multisets(max(n - 1, 0), s)])
    want = [direct_probability(row, probs.tolist()) for row in mixed.tolist()]
    assert multiset_probabilities(mixed, probs).tolist() == want


@pytest.mark.parametrize("n", [1030, 1200])
@pytest.mark.parametrize("probs", [(0.5, 0.5), (0.2, 0.8), (0.9, 0.1)])
def test_probabilities_of_large_samples(n, probs):
    counts = multisets(n, len(probs))
    got = multiset_probabilities(counts, probs)
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
    assert math.fsum(got.tolist()) == pytest.approx(1.0, abs=1e-12)
    # Rows whose direct arithmetic stays finite and normal keep it bit for bit.
    for row, value in zip(counts.tolist(), got.tolist()):
        weight = math.factorial(n)
        for c in row:
            weight //= math.factorial(c)
        try:
            direct = weight * math.prod(p**c for p, c in zip(probs, row) if c)
        except OverflowError:
            continue
        if direct >= 2.2250738585072014e-308:
            assert value == direct


def test_probabilities_hold_one_block_of_rows():
    # 42,504 rows of 20 counts, five blocks: one Python list per row, all at
    # once, peaked at 9.4 MB above the input, one block at a time at 2.1 MB.
    counts = multisets(5, 20)
    probs = np.random.default_rng(5).dirichlet(np.ones(20))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        multiset_probabilities(counts, probs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 4 * 2**20


def test_count_above_cap_names_the_cap():
    assert len(multisets(5, 3, cap=21)) == 21
    with pytest.raises(CapacityError, match="cap of 20"):
        multisets(5, 3, cap=20)


def spread(values, n, weights):
    """The dense table over ``s^n`` configurations of values given per ``n``-multiset."""
    s = len(weights)
    configs = np.indices((s,) * n).reshape(n, -1).T
    space = FiniteProductSpace(axes=(FiniteAxis(weights=weights),) * n)
    return TabulatedFunction(space, np.asarray(values)[rank(occupancy(configs, s))])


@given(
    st.integers(1, 4),
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-3, 1.0, 50.0]),
)
def test_bound_ingredients_match_the_dense_table(s, n, seed, scale):
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(s))
    weights = tuple(float(w) for w in raw / math.fsum(raw.tolist()))
    values = scale * rng.uniform(-1.0, 1.0, math.comb(n + s - 1, s - 1))
    dense = bounds.bound_ingredients(spread(values, n, weights))
    got = MultisetTable(weights, n).ingredients(values)
    assert set(got) == {"E_scv", "b", "crude", "j_mu"}
    # crude: the one second-difference stencil on the same floats
    assert got.pop("crude") == dense["crude"]
    floor = 1e-12 * float(np.abs(values).max())
    for key, value in got.items():
        assert value == pytest.approx(dense[key], rel=1e-12, abs=floor), key


def test_bound_ingredients_check_their_input():
    with pytest.raises(ValueError, match="one value per 3-multiset"):
        MultisetTable((0.5, 0.5), 3).ingredients(np.zeros(3))
    with pytest.raises(ValueError, match="n >= 2"):
        MultisetTable((0.5, 0.5), 1).ingredients(np.zeros(2))
    # the table's cap bounds its 21 multisets of n = 5 draws from 3 points, and
    # with them the 15 and 10 of the other n - 1 and n - 2 draws
    values = np.zeros(21)
    assert MultisetTable((0.2, 0.3, 0.5), 5, cap=21).ingredients(values)["j_mu"] == 0.0
    with pytest.raises(CapacityError, match="21 sample multisets exceed the cap of 20"):
        MultisetTable((0.2, 0.3, 0.5), 5, cap=20).counts


def test_table_levels_are_enumerated_once_on_first_use(monkeypatch):
    calls = []
    real = exchangeable.multiset_probabilities

    def counting(counts, probs):
        calls.append(int(np.asarray(counts).sum(axis=1).max()))
        return real(counts, probs)

    monkeypatch.setattr(exchangeable, "multiset_probabilities", counting)
    weights = (0.2, 0.3, 0.5)
    table = MultisetTable(weights, 5)
    assert calls == []
    for scale in (1.0, -2.0):
        values = scale * np.arange(21.0)
        want = MultisetTable(weights, 5).ingredients(values)
        assert table.ingredients(values) == want
    # the (n-1)-level probabilities of table and of each fresh table, once each
    assert calls == [4, 4, 4]
    assert table.probs is table.probs and calls == [4, 4, 4, 5]
    assert table.probs.tolist() == real(multisets(5, 3), weights).tolist()


#: Point weights in sixteenths: every configuration weight and every multiset
#: probability is then exact, so both routes sum the same exact terms.
SIXTEENTHS = st.lists(st.integers(1, 15), unique=True, max_size=2).map(
    lambda cuts: tuple(float(d) / 16.0 for d in np.diff([0, *sorted(cuts), 16]))
)


def deviation_grid(deviations):
    """Every deviation (where the strict inequality flips) and one below them all."""
    return [float(deviations.min()) - 1.0, *np.unique(deviations).tolist()]


@given(
    SIXTEENTHS,
    st.sampled_from([product_kernel(2), mean_kernel(2), mean_kernel(3), sign_agreement_kernel(2)]),
    st.integers(3, 5),
    st.integers(0, 2**32 - 1),
)
def test_tail_probabilities_of_u_statistics_match_the_configurations(weights, kernel, n, seed):
    n = max(n, kernel.m + 1)
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, len(weights))
    problem = UStatProblem(kernel=kernel, base_axis=FiniteAxis(weights=weights), base_points=points)
    counts = multisets(n, len(weights))
    values = u_at_counts(problem, counts)
    dense = spread(values, n, weights)
    deviations = np.abs(values - oracles.expectation(dense))
    t_values = deviation_grid(deviations)
    got = tail_probabilities(deviations, multiset_probabilities(counts, weights), t_values)
    assert got == [oracles.exact_tail(dense, t, two_sided=True) for t in t_values]


@given(SIXTEENTHS, st.integers(2, 4), st.sampled_from([0.3, 0.5]), st.integers(0, 2**32 - 1))
def test_tail_probabilities_of_the_gap_match_the_configurations(weights, n, lam, seed):
    rng = np.random.default_rng(seed)
    s = len(weights)
    population = Population(
        xs=rng.uniform(-0.7, 0.7, (s, 2)), ys=rng.uniform(-1.0, 1.0, s), probs=weights
    )
    table = GapTable(population, MultisetTable(weights, n), lam)
    dense = spread(table.gaps, n, weights)
    deviations = table.gaps - oracles.expectation(dense)
    t_values = deviation_grid(deviations)
    got = tail_probabilities(deviations, table.table.probs, t_values)
    assert got == [oracles.exact_tail(dense, t) for t in t_values]
