"""Regression metrics and parameter counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemfm import ModelParams, count_params, mae, rmse


def test_rmse_hand_cases():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert rmse([3.0], [0.0]) == 3.0
    # errors 1 and -1: sqrt((1 + 1) / 2) = 1
    assert rmse([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))


def test_mae_hand_cases():
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([1.0, -1.0], [0.0, 0.0]) == 1.0
    assert mae([0.0, 0.0], [3.0, -4.0]) == 3.5


@given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                min_size=1, max_size=40))
@settings(max_examples=150)
def test_mae_never_exceeds_rmse(pairs):
    p = [a for a, _ in pairs]
    y = [b for _, b in pairs]
    assert mae(p, y) <= rmse(p, y) + 1e-9


def test_metrics_are_permutation_invariant():
    rng = np.random.default_rng(0)
    p = rng.normal(size=30)
    y = rng.normal(size=30)
    order = rng.permutation(30)
    assert rmse(p[order], y[order]) == pytest.approx(rmse(p, y), rel=1e-15)
    assert mae(p[order], y[order]) == pytest.approx(mae(p, y), rel=1e-15)


def test_metrics_reject_bad_shapes():
    with pytest.raises(ValueError, match="aligned"):
        rmse([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="empty"):
        mae([], [])
    with pytest.raises(ValueError, match="1-d"):
        rmse(np.zeros((2, 2)), np.zeros((2, 2)))


def test_count_params_derived_cases():
    # m=2, d=2: 1 bias + 2 linear + 4 table
    flat = ModelParams.initialize(2, 2, num_layers=0)
    assert count_params(flat) == 7
    # one convolution layer reuses the table as its weight: same count
    one = ModelParams.initialize(2, 2, num_layers=1)
    assert count_params(one) == 7
    # each deeper layer adds d*d
    two = ModelParams.initialize(2, 2, num_layers=2)
    assert count_params(two) == 11
    assert count_params(ModelParams.initialize(5, 3, num_layers=3)) == \
        1 + 5 + 15 + 9 + 9

