import math
import warnings

import numpy as np
import pytest

from forestnets.errors import InvalidParams, ShapeMismatch, UnnormalizedMeasure
from forestnets.norms import (
    condition_measure,
    holder_conjugate,
    lp_norm,
    mu_inner,
    tv_distance,
)


MU = np.array([1 / 3, 2 / 3])
F = np.array([3.0, -1.5])


def test_lp_norm_values():
    assert lp_norm(F, MU, 1) == pytest.approx(3 * (1 / 3) + 1.5 * (2 / 3))
    assert lp_norm(F, MU, 2) == pytest.approx(math.sqrt(9 / 3 + 2.25 * 2 / 3))
    assert lp_norm(F, MU, math.inf) == 3.0


def test_lp_norm_inf_ignores_nullset():
    mu = np.array([0.0, 1.0])
    assert lp_norm(np.array([100.0, 2.0]), mu, math.inf) == 2.0


def test_lp_norm_rejects_small_p():
    with pytest.raises(InvalidParams):
        lp_norm(F, MU, 0.5)


def test_lp_norm_shape():
    with pytest.raises(ShapeMismatch):
        lp_norm([1.0], MU, 2)


def test_mu_inner():
    assert mu_inner(F, F, MU) == pytest.approx(9 / 3 + 2.25 * 2 / 3)
    assert mu_inner([1, 0], [0, 1], MU) == 0.0


def test_tv_distance():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.75, 0.25], [0.25, 0.75]) == pytest.approx(0.5)


def test_tv_distance_rejects_unnormalized():
    with pytest.raises(UnnormalizedMeasure):
        tv_distance([0.5, 0.6], [0.5, 0.5])


def test_tv_distance_names_the_sum_as_a_plain_float():
    with pytest.raises(UnnormalizedMeasure, match=r"^nu sums to 0\.9, expected 1$"):
        tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.4]))


def test_condition_measure():
    mu = np.array([0.25, 0.5, 0.25])
    np.testing.assert_allclose(condition_measure(mu, [1, 2]), [2 / 3, 1 / 3])
    with pytest.raises(InvalidParams):
        condition_measure(mu, [])


def test_holder_conjugate():
    assert holder_conjugate(1) == math.inf
    assert holder_conjugate(math.inf) == 1.0
    assert holder_conjugate(2) == 2.0
    assert holder_conjugate(4) == pytest.approx(4 / 3)


@pytest.mark.parametrize("p", [1000.0, 1e5, 1e308, float(2**64)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 7.0, 1e200])
def test_lp_norm_at_large_p_neither_overflows_nor_underflows(p, scale):
    # |f|^p leaves the float range; the norm, between the largest |f| times
    # mu of its vertex to the 1/p and the largest |f|, does not
    f = scale * np.array([0.5, -1.0, 0.25])
    mu = np.array([0.2, 0.3, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        got = lp_norm(f, mu, p)
    assert scale * 0.3 ** (1 / p) <= got <= scale
    assert got == pytest.approx(scale, rel=2e-3)


def test_lp_norm_in_range_is_the_plain_sum():
    # guard: the rescaled sum is taken only outside the normal range
    f = np.array([0.3, -1.7, 2.9, 0.0])
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    for p in (1.0, 2.0, 3.5, 50.0):
        assert lp_norm(f, mu, p) == float((np.abs(f) ** p @ mu) ** (1.0 / p))
    assert lp_norm(np.zeros(4), mu, 1000.0) == 0.0
