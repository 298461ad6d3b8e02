from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import oracles
from interaction_bounds.exchangeable import (
    multiset_probabilities,
    multisets,
    neighbours,
    occupancy,
    rank,
)
from interaction_bounds.space import CapacityError, FiniteAxis, FiniteProductSpace


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


def test_occupancy_of_samples():
    samples = np.array([[[0, 2, 0, 1], [2, 2, 2, 2]]])
    assert occupancy(samples, 3).tolist() == [[[2, 1, 1], [0, 0, 4]]]


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


def test_count_above_cap_names_the_cap():
    assert len(multisets(5, 3, cap=21)) == 21
    with pytest.raises(CapacityError, match="cap of 20"):
        multisets(5, 3, cap=20)
