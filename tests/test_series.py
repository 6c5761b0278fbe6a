from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxlat.errors import NegativeDimension, NeitherKind, NotARoot
from coxlat.exact import series_equal, series_from_rational
from coxlat.lattice import Lattice, char_poly, coxeter_matrix
from coxlat.series import (
    RootedLattice,
    divisor_degree,
    hilbert_P,
    hilbert_Q,
    poincare_direct,
)
from coxlat.star import (
    OrbitInvariants,
    SingularityKind,
    build,
    classify_alphas,
    fuchsian_invariants,
    kleinian_invariants,
    validate,
)

from oracles import hypersurface_dims

E8 = kleinian_invariants((2, 3, 5))
E12 = fuchsian_invariants((2, 3, 7))
A2 = Lattice(("e1", "e2"), ((-2, 1), (1, -2)))


def rooted_at_center(lats):
    v = [0] * lats.zero.rank
    v[lats.center] = 1
    return RootedLattice(lats.zero, tuple(v))


class TestDivisorDegree:
    def test_kleinian_235(self):
        k = SingularityKind.KLEINIAN
        assert divisor_degree(E8, k, 0) == 0
        assert divisor_degree(E8, k, 6) == -6 + 3 + 2 + 1
        assert divisor_degree(E8, k, 30) == -30 + 15 + 10 + 6

    def test_fuchsian_237(self):
        f = SingularityKind.FUCHSIAN
        assert divisor_degree(E12, f, 1) == -2
        assert divisor_degree(E12, f, 42) == -84 + 21 + 28 + 36


class TestPoincareDirect:
    def test_235(self):
        s = poincare_direct(E8, SingularityKind.KLEINIAN, 12)
        assert s.coeffs == (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1)

    def test_237(self):
        s = poincare_direct(E12, SingularityKind.FUCHSIAN, 14)
        assert s.coeffs == (1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1)

    def test_armless(self):
        inv = kleinian_invariants(())
        s = poincare_direct(inv, SingularityKind.KLEINIAN, 3)
        assert s.coeffs == (1, 3, 5, 7)

    def test_nonnegative_with_unit_constant(self):
        for inv in (E8, E12, kleinian_invariants((2, 2, 9)), fuchsian_invariants((3, 4, 5, 6))):
            s = poincare_direct(inv, validate(inv), 60)
            assert s.coeffs[0] == 1
            assert all(c >= 0 for c in s.coeffs)

    def test_negative_dimension_guard(self):
        # four branch points in the Kleinian formula push 1 + deg below zero
        fake = OrbitInvariants(0, 2, ((2, 1), (2, 1), (2, 1), (2, 1)))
        with pytest.raises(NegativeDimension):
            poincare_direct(fake, SingularityKind.KLEINIAN, 4)

    def test_against_monomial_count(self):
        # graded ring of x^5 + y^3 + z^2 : weights (6,10,15), relation degree 30
        dims = hypersurface_dims((6, 10, 15), 30, 60)
        s = poincare_direct(E8, SingularityKind.KLEINIAN, 60)
        assert list(s.coeffs) == dims
        dims = hypersurface_dims((6, 14, 21), 42, 60)
        s = poincare_direct(E12, SingularityKind.FUCHSIAN, 60)
        assert list(s.coeffs) == dims


@st.composite
def stars_with_repeated_alphas(draw):
    """Valid invariants whose alphas take at most three values, each on up
    to six arms."""
    values = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3, unique=True))
    alphas = sorted(a for a in values for _ in range(draw(st.integers(1, 6))))
    try:
        kind = classify_alphas(alphas)
    except NeitherKind:
        assume(False)
    return (kleinian_invariants if kind is SingularityKind.KLEINIAN else fuchsian_invariants)(alphas)


def first_negative_dimension(inv, kind, order):
    """The k that the divisor count flags, one k at a time: the first with
    1 + deg D^(k) < 0, skipping the Fuchsian k = 1."""
    return next((k for k in range(order + 1)
                 if not (kind is SingularityKind.FUCHSIAN and k == 1)
                 and 1 + divisor_degree(inv, kind, k) < 0), None)


class TestDirectColumns:
    """poincare_direct sums one column per distinct alpha; divisor_degree
    evaluates the formula one k at a time."""

    @settings(max_examples=80, deadline=None)
    @given(stars_with_repeated_alphas(), st.integers(0, 90))
    def test_matches_divisor_degree(self, inv, order):
        kind = validate(inv)
        expected = [1 + divisor_degree(inv, kind, k) for k in range(order + 1)]
        if kind is SingularityKind.FUCHSIAN and order >= 1:
            expected[1] = 0
        assert poincare_direct(inv, kind, order).coeffs == tuple(expected)

    @pytest.mark.parametrize("pairs, kind, k", [
        (((2, 1),) * 4, SingularityKind.KLEINIAN, 1),    # the fake of test_negative_dimension_guard
        (((2, 1),) * 3 + ((3, 1),), SingularityKind.KLEINIAN, 1),
        (((2, 1),) * 3, SingularityKind.FUCHSIAN, 3),    # k = 1 is skipped, k = 2 gives 0
        (((3, 1), (3, 1)), SingularityKind.FUCHSIAN, 2),
    ])
    def test_negative_dimension_names_first_k(self, pairs, kind, k):
        fake = OrbitInvariants(0, 2, pairs)
        assert first_negative_dimension(fake, kind, 10) == k
        with pytest.raises(NegativeDimension, match=rf"^1 \+ deg D\^\({k}\) = -"):
            poincare_direct(fake, kind, 10)


class TestHilbertSeries:
    def test_armless_P(self):
        lats = build(kleinian_invariants(()))
        p = hilbert_P(rooted_at_center(lats), 6)
        assert p.coeffs == (1, -1, -3, -5, -7, -9, -11)

    def test_armless_Q(self):
        lats = build(kleinian_invariants(()))
        q = hilbert_Q(rooted_at_center(lats), 6)
        assert q.coeffs == (1, 3, 5, 7, 9, 11, 13)

    def test_constant_coefficient_is_one(self):
        for inv in (E8, E12, kleinian_invariants((3, 3))):
            rl = rooted_at_center(build(inv))
            assert hilbert_P(rl, 0).coeffs == (1,)
            assert hilbert_Q(rl, 0).coeffs == (1,)

    def test_a2_periodic(self):
        # orbit e1 -> e2 -> -e1-e2 -> e1 gives period-3 pairing sequences
        rl = RootedLattice.at_basis_index(A2, 0)
        assert hilbert_P(rl, 8).coeffs == (1, -1, 0, 1, -1, 0, 1, -1, 0)
        assert hilbert_Q(rl, 8).coeffs == (1, 0, -1, 1, 0, -1, 1, 0, -1)

    def test_e8_Q_is_poincare_series(self):
        lats = build(E8)
        q = hilbert_Q(rooted_at_center(lats), 30)
        direct = poincare_direct(E8, SingularityKind.KLEINIAN, 30)
        assert q.coeffs == direct.coeffs

    def test_root_shift_by_radical_is_invisible(self):
        # replacing E by E-u changes nothing: u is in the radical
        for inv in (E8, E12):
            lats = build(inv)
            at_e = rooted_at_center(lats)
            v = [0] * lats.zero.rank
            v[lats.f_index] = 1
            at_f = RootedLattice(lats.zero, tuple(v))
            assert hilbert_P(at_e, 40).coeffs == hilbert_P(at_f, 40).coeffs
            assert hilbert_Q(at_e, 40).coeffs == hilbert_Q(at_f, 40).coeffs

    def test_non_root_rejected(self):
        lats = build(E8)
        u = list(lats.u_zero)  # isotropic, not a root
        with pytest.raises(NotARoot):
            RootedLattice(lats.zero, tuple(u))


class TestDegreeRecomputation:
    def test_kleinian_degrees_with_rational_floors(self):
        # same formula evaluated with Fraction arithmetic instead of //
        import math

        k_kind = SingularityKind.KLEINIAN
        for inv in (E8, kleinian_invariants((2, 2, 7)), kleinian_invariants((4, 4))):
            for k in range(0, 201):
                by_fraction = k * (2 - inv.r) + sum(
                    math.floor(Fraction(k, a)) for a in inv.alphas
                )
                assert divisor_degree(inv, k_kind, k) == by_fraction

    def test_fuchsian_degrees_with_rational_floors(self):
        import math

        f_kind = SingularityKind.FUCHSIAN
        for inv in (E12, fuchsian_invariants((3, 4, 5, 6))):
            for k in range(0, 201):
                by_fraction = -2 * k + sum(
                    math.floor(Fraction(k * (a - 1), a)) for a in inv.alphas
                )
                assert divisor_degree(inv, f_kind, k) == by_fraction


class TestQuotientIdentities:
    def test_prop_parts_on_small_inputs(self):
        # Q = minus/zero and P + t = plus/zero, as series to order 40
        for inv in (kleinian_invariants(()), kleinian_invariants((2, 2)), E8, E12):
            lats = build(inv)
            rl = rooted_at_center(lats)
            d_minus = char_poly(coxeter_matrix(lats.minus))
            d_zero = char_poly(coxeter_matrix(lats.zero))
            d_plus = char_poly(coxeter_matrix(lats.plus))
            q = hilbert_Q(rl, 40)
            ok, _ = series_equal(q, series_from_rational(d_minus, d_zero, 40))
            assert ok
            p = hilbert_P(rl, 40)
            shifted = list(p.coeffs)
            shifted[1] += 1
            ok, _ = series_equal(
                type(p)(tuple(shifted)), series_from_rational(d_plus, d_zero, 40)
            )
            assert ok
