import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlat.errors import NonIntegralCoefficient, OrderMismatch, ZeroConstantTerm
from coxlat.exact import (
    PowerSeries,
    poly_to_string,
    poly_trim,
    series_equal,
    series_from_rational,
)

from oracles import (conv, poly_deg, poly_eval, series_by_dense_recurrence, series_from_poly,
                     series_mul_poly)


def rand_poly(rng, max_deg=8, bound=9):
    return poly_trim([rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg + 1))])


class TestPolyMul:
    """The test-side convolution that the series tests multiply with."""

    def test_difference_of_squares(self):
        assert conv([1, 1], [1, -1]) == [1, 0, -1]

    def test_zero_annihilates(self):
        assert conv([], [3, 1, 4]) == []
        assert conv([3, 1, 4], []) == []

    def test_hand_expansion(self):
        # (t+1)(t^2+t+1) = t^3 + 2t^2 + 2t + 1
        assert conv([1, 1], [1, 1, 1]) == [1, 2, 2, 1]

    def test_commutative_associative(self):
        rng = random.Random(101)
        for _ in range(50):
            p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
            assert conv(p, q) == conv(q, p)
            assert conv(conv(p, q), r) == conv(p, conv(q, r))

    def test_evaluation_homomorphism(self):
        rng = random.Random(202)
        for _ in range(20):
            p, q = rand_poly(rng), rand_poly(rng)
            x = rng.randint(-50, 50)
            assert poly_eval(conv(p, q), x) == poly_eval(p, x) * poly_eval(q, x)

    def test_degree_adds(self):
        rng = random.Random(303)
        for _ in range(30):
            p, q = rand_poly(rng), rand_poly(rng)
            if p and q:
                assert poly_deg(conv(p, q)) == poly_deg(p) + poly_deg(q)


class TestSeriesFromRational:
    def test_odd_numbers(self):
        # (1+t)/(1-t)^2 = 1 + 3t + 5t^2 + ...
        s = series_from_rational([1, 1], [1, -2, 1], 5)
        assert s.coeffs == (1, 3, 5, 7, 9, 11)

    def test_constant(self):
        assert series_from_rational([1], [1], 3).coeffs == (1, 0, 0, 0)

    def test_fibonacci(self):
        s = series_from_rational([1], [1, -1, -1], 5)
        assert s.coeffs == (1, 1, 2, 3, 5, 8)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroConstantTerm):
            series_from_rational([1], [0, 1], 4)

    def test_fractional_coefficient_rejected(self):
        with pytest.raises(NonIntegralCoefficient):
            series_from_rational([1], [2], 4)

    def test_common_factor_invariance(self):
        rng = random.Random(404)
        num, den = [1, 1], [1, -2, 1]
        base = series_from_rational(num, den, 20)
        for _ in range(20):
            g = rand_poly(rng, max_deg=4)
            if not g or g[0] == 0:
                continue
            scaled = series_from_rational(conv(num, g), conv(den, g), 20)
            assert scaled.coeffs == base.coeffs

    def test_round_trip(self):
        rng = random.Random(505)
        for _ in range(30):
            num = rand_poly(rng, max_deg=5)
            den = rand_poly(rng, max_deg=4)
            if not den:
                continue
            den[0] = 1  # guarantee integral expansion
            s = series_from_rational(num, den, 15)
            assert series_mul_poly(s.coeffs, den) == series_from_poly(num, 15)


# coefficients that are zero half of the time, so a polynomial has interior zeros
SPARSE_COEFF = st.integers(-4, 4) | st.just(0)


@settings(max_examples=300, deadline=None)
@given(num=st.lists(SPARSE_COEFF, max_size=14),
       den=st.tuples(st.sampled_from([1, -1, 2, -3]), st.lists(SPARSE_COEFF, max_size=14)),
       order=st.integers(0, 40))
def test_sparse_recurrence_matches_dense(num, den, order):
    """The recurrence over den's nonzero terms gives the dense recurrence's
    coefficients, and fails with NonIntegralCoefficient at the same k."""
    den = [den[0], *den[1]]
    expected, bad = series_by_dense_recurrence(num, den, order)
    if bad is None:
        assert series_from_rational(num, den, order).coeffs == tuple(expected)
    else:
        with pytest.raises(NonIntegralCoefficient, match=rf"^coefficient of t\^{bad} is "):
            series_from_rational(num, den, order)


@given(num=st.lists(SPARSE_COEFF, max_size=6), den=st.lists(SPARSE_COEFF, max_size=6))
def test_zero_constant_term_rejected_at_any_degree(num, den):
    with pytest.raises(ZeroConstantTerm):
        series_from_rational(num, [0, *den], 5)


class TestSeriesEqual:
    def test_equal(self):
        a = PowerSeries((1, 3, 5))
        assert series_equal(a, PowerSeries((1, 3, 5))) == (True, None)

    def test_first_mismatch(self):
        assert series_equal(PowerSeries((1, 3, 5)), PowerSeries((1, 3, 6))) == (False, 2)

    def test_zero_tail(self):
        assert series_equal(PowerSeries((1, 0, 0)), PowerSeries((1, 0, 0))) == (True, None)

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            series_equal(PowerSeries((1, 2)), PowerSeries((1, 2, 3)))


class TestFormatting:
    def test_monic_string(self):
        assert poly_to_string([1, 1, 0, -1, -1, -1, 0, 1, 1]) == (
            "t^8 + t^7 - t^5 - t^4 - t^3 + t + 1"
        )

    def test_constants_and_signs(self):
        assert poly_to_string([]) == "0"
        assert poly_to_string([-3]) == "-3"
        assert poly_to_string([1, -2, 1]) == "t^2 - 2*t + 1"
