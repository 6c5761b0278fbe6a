import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlat.errors import NotARoot, NotUnitriangular
from coxlat.lattice import (
    Lattice,
    asym_form_matrix,
    char_poly,
    coxeter_inverse_matrix,
    coxeter_matrix,
    coxeter_via_form,
    identity_matrix,
    linear_map,
    mat_det,
    mat_mul,
    mat_transpose,
    nonzeros,
    quotient_by_radical,
    radical_basis,
    reflection_matrix,
    rows_vec,
    star_char_poly,
)
from coxlat.star import build, catalog, catalog_names, kleinian_invariants

from oracles import (
    charpoly_minor_expansion,
    det_minor_expansion,
    gram_by_pairings,
    mat_mul_naive,
    matrix_order,
)
from strategies import chain_grams, valid_stars

A2 = Lattice(("e1", "e2"), ((-2, 1), (1, -2)))
RANK1 = Lattice(("e",), ((-2,),))
# V_zero of the armless star: basis (E, E-u)
ARMLESS_ZERO = Lattice(("E", "E-u"), ((-2, -2), (-2, -2)))


def rand_root_lattice(rng, n, edge_values=(-1, 0, 0, 1, 1, 2)):
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = -2
        for j in range(i + 1, n):
            gram[i][j] = gram[j][i] = rng.choice(edge_values)
    return Lattice(tuple(f"e{i}" for i in range(n)), tuple(tuple(r) for r in gram))


class TestReflections:
    def test_rank_one(self):
        assert reflection_matrix(RANK1, 0) == [[-1]]

    def test_a2_columns(self):
        # e1 -> -e1, e2 -> e2 + e1
        assert reflection_matrix(A2, 0) == [[-1, 1], [0, 1]]

    def test_orthogonal_vector_fixed(self):
        s = reflection_matrix(A2, 0)
        # x = e1 + 2 e2 has <x, e1> = 0
        x = [1, 2]
        assert A2.pairing(x, [1, 0]) == 0
        assert rows_vec(nonzeros(s), x) == x

    def test_not_a_root(self):
        bad = Lattice(("a",), ((-4,),))
        with pytest.raises(NotARoot):
            reflection_matrix(bad, 0)

    def test_involution_isometry_determinant(self):
        rng = random.Random(7)
        for _ in range(20):
            lat = rand_root_lattice(rng, rng.randint(1, 6))
            g = lat.gram_rows()
            for i in range(lat.rank):
                s = reflection_matrix(lat, i)
                assert mat_mul(s, s) == identity_matrix(lat.rank)
                assert mat_mul(mat_transpose(s), mat_mul(g, s)) == g
                assert det_minor_expansion(s) == -1


class TestCoxeter:
    def test_rank_one(self):
        assert coxeter_matrix(RANK1) == [[-1]]

    def test_a2(self):
        # tau(e1) = e2, tau(e2) = -e1 - e2
        assert coxeter_matrix(A2) == [[0, -1], [1, -1]]

    def test_armless_zero(self):
        assert coxeter_matrix(ARMLESS_ZERO) == [[3, 2], [-2, -1]]
        assert char_poly(coxeter_matrix(ARMLESS_ZERO)) == [1, -2, 1]

    def test_inverse(self):
        for lat in (A2, ARMLESS_ZERO):
            tau = coxeter_matrix(lat)
            assert mat_mul(tau, coxeter_inverse_matrix(lat)) == identity_matrix(lat.rank)

    def test_determinant_sign(self):
        rng = random.Random(11)
        for _ in range(15):
            lat = rand_root_lattice(rng, rng.randint(1, 6))
            tau = coxeter_matrix(lat)
            assert det_minor_expansion(tau) == (-1) ** lat.rank

    def test_preserves_gram(self):
        rng = random.Random(13)
        for _ in range(15):
            lat = rand_root_lattice(rng, rng.randint(1, 6))
            tau = coxeter_matrix(lat)
            g = lat.gram_rows()
            assert mat_mul(mat_transpose(tau), mat_mul(g, tau)) == g


class TestCharPoly:
    def test_identity_2x2(self):
        assert char_poly(identity_matrix(2)) == [1, -2, 1]

    def test_a2_coxeter(self):
        assert char_poly(coxeter_matrix(A2)) == [1, 1, 1]

    def test_e8_star(self):
        lats = build(kleinian_invariants((2, 3, 5)))
        tau = coxeter_matrix(lats.minus)
        # independent oracle: Laplace-expansion char poly, and tau^30 = I
        assert char_poly(tau) == charpoly_minor_expansion(tau)
        assert matrix_order(tau, cap=40) == 30
        # t^8 + t^7 - t^5 - t^4 - t^3 + t + 1
        assert char_poly(tau) == [1, 1, 0, -1, -1, -1, 0, 1, 1]

    def test_matches_minor_expansion_on_random_matrices(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.randint(1, 6)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert char_poly(m) == charpoly_minor_expansion(m)

    def test_bareiss_det_matches_minor_expansion(self):
        rng = random.Random(19)
        for _ in range(40):
            n = rng.randint(1, 6)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert mat_det(m) == det_minor_expansion(m)


class TestAsymForm:
    def test_a2(self):
        assert asym_form_matrix(A2) == [[1, -1], [0, 1]]

    def test_rank_one(self):
        assert asym_form_matrix(RANK1) == [[1]]

    def test_diagonal_gram_gives_identity(self):
        lat = Lattice(("a", "b", "c"), ((-2, 0, 0), (0, -2, 0), (0, 0, -2)))
        assert asym_form_matrix(lat) == identity_matrix(3)
        assert coxeter_via_form(asym_form_matrix(lat)) == [
            [-1, 0, 0],
            [0, -1, 0],
            [0, 0, -1],
        ]

    def test_sum_with_transpose_is_minus_gram(self):
        rng = random.Random(23)
        for _ in range(15):
            lat = rand_root_lattice(rng, rng.randint(1, 6))
            a = asym_form_matrix(lat)
            at = mat_transpose(a)
            summed = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, at)]
            assert summed == [[-x for x in row] for row in lat.gram_rows()]

    def test_coxeter_via_form_examples(self):
        assert coxeter_via_form(asym_form_matrix(A2)) == coxeter_matrix(A2)
        assert coxeter_via_form([[1]]) == [[-1]]

    def test_not_unitriangular(self):
        with pytest.raises(NotUnitriangular):
            coxeter_via_form([[1, 0], [1, 1]])
        with pytest.raises(NotUnitriangular):
            coxeter_via_form([[2, 1], [0, 1]])

    def test_two_routes_agree_on_random_lattices(self):
        rng = random.Random(29)
        for _ in range(20):
            lat = rand_root_lattice(rng, rng.randint(1, 7))
            assert coxeter_matrix(lat) == coxeter_via_form(asym_form_matrix(lat))

    def test_bilinear_identity(self):
        # (y, x) = -(x, tau y) for all basis pairs, i.e. A^t = -(A tau)
        rng = random.Random(31)
        for _ in range(20):
            lat = rand_root_lattice(rng, rng.randint(1, 7))
            a = asym_form_matrix(lat)
            tau = coxeter_matrix(lat)
            assert mat_transpose(a) == [[-x for x in row] for row in mat_mul(a, tau)]


class TestRadical:
    def test_star_zero_radical_is_u(self):
        for alphas in ((), (2, 2), (2, 3, 5), (2, 3, 7)):
            lats = build(kleinian_invariants(alphas)) if alphas != (2, 3, 7) else None
            if lats is None:
                from coxlat.star import fuchsian_invariants

                lats = build(fuchsian_invariants((2, 3, 7)))
            rad = radical_basis(lats.zero)
            assert len(rad) == 1
            u = list(lats.u_zero)
            assert rad[0] == u or rad[0] == [-x for x in u]

    def test_nondegenerate_lattice_has_empty_radical(self):
        assert radical_basis(A2) == []

    def test_zero_gram(self):
        lat = Lattice(("a", "b"), ((0, 0), (0, 0)))
        assert len(radical_basis(lat)) == 2

    def test_radical_pairs_to_zero(self):
        lats = build(kleinian_invariants((2, 3, 5)))
        rad = radical_basis(lats.zero)[0]
        n = lats.zero.rank
        for j in range(n):
            basis = [0] * n
            basis[j] = 1
            assert lats.zero.pairing(rad, basis) == 0


class TestQuotient:
    def test_rank_drops_by_one_on_star_zero(self):
        lats = build(kleinian_invariants((2, 3, 5)))
        quo = quotient_by_radical(lats.zero)
        assert quo.lattice.rank == lats.zero.rank - 1
        assert mat_det(quo.lattice.gram_rows()) != 0

    def test_identity_on_nondegenerate(self):
        quo = quotient_by_radical(A2)
        assert quo.lattice == A2
        assert [list(r) for r in quo.projection] == identity_matrix(2)

    def test_armless_quotient_gram(self):
        quo = quotient_by_radical(ARMLESS_ZERO)
        assert quo.lattice.gram == ((-2,),)

    def test_projection_lift_compose_to_identity(self):
        lats = build(kleinian_invariants((2, 2, 3)))
        quo = quotient_by_radical(lats.zero)
        p = [list(r) for r in quo.projection]
        l = [list(r) for r in quo.lift]
        assert mat_mul(p, l) == identity_matrix(quo.lattice.rank)

    def test_induced_coxeter_preserves_quotient_gram(self):
        lats = build(kleinian_invariants((2, 3, 4)))
        quo = quotient_by_radical(lats.zero)
        tau_bar = quo.induced(coxeter_matrix(lats.zero))
        g = quo.lattice.gram_rows()
        assert mat_mul(mat_transpose(tau_bar), mat_mul(g, tau_bar)) == g


class TestMatrixOrder:
    def test_negative_one(self):
        assert matrix_order([[-1]]) == 2

    def test_a2(self):
        assert matrix_order(coxeter_matrix(A2)) == 3

    def test_cap_exceeded(self):
        # shear of infinite order
        assert matrix_order([[1, 1], [0, 1]], cap=50) is None


class TestCharPolyStructure:
    def test_constant_term_one_and_palindromic(self):
        rng = random.Random(37)
        for _ in range(15):
            lat = rand_root_lattice(rng, rng.randint(1, 7))
            p = char_poly(coxeter_matrix(lat))
            assert p[0] == 1
            n = len(p) - 1
            eps = p[n]  # c_n = eps * c_0
            assert eps in (1, -1)
            assert all(p[i] == eps * p[n - i] for i in range(n + 1))


# ---------------------------------------------------------------------------
# the nonzero-row kernels against naive references

DENSE = st.integers(-9, 9)
SPARSE = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3))


@st.composite
def int_matrices(draw, rows, cols):
    """rows x cols integers, dense or mostly zero, with some rows all zero."""
    entry = draw(st.sampled_from((DENSE, SPARSE)))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    return [[0] * cols if i in zero_rows else draw(st.lists(entry, min_size=cols, max_size=cols))
            for i in range(rows)]


@st.composite
def products(draw):
    q, n, w = draw(st.integers(0, 6)), draw(st.integers(1, 7)), draw(st.integers(0, 6))
    return draw(int_matrices(q, n)), draw(int_matrices(n, w)), w


@st.composite
def square_matrices(draw, max_rank):
    n = draw(st.integers(0, max_rank))
    return draw(int_matrices(n, n))


@given(products())
def test_mat_mul_matches_triple_loop(case):
    a, b, width = case
    assert mat_mul(a, b) == mat_mul_naive(a, b, width)


@st.composite
def matrix_vector_pairs(draw):
    q, n = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    return draw(int_matrices(q, n)), draw(st.lists(DENSE, min_size=n, max_size=n))


def naive_mat_vec(m, v):
    return [row[0] for row in mat_mul_naive(m, [[x] for x in v], 1)]


@given(matrix_vector_pairs())
def test_rows_vec_matches_matrix_vector(case):
    m, v = case
    expected = naive_mat_vec(m, v)
    assert rows_vec(nonzeros(m), v) == expected
    assert linear_map(m)(v) == expected


def test_linear_map_edge_cases():
    """A row longer than any interpreter's chain limit (3.13 compiles 5,000
    chained terms but not 10,000), an entry longer than the decimal digit
    limit, empty shapes, and entries that are not ints."""
    rng = random.Random(5)
    n = 10000
    v = [rng.randint(-9, 9) for _ in range(n)]
    long_row = [rng.choice((1, -1, 2, -3, 7)) for _ in range(n)]
    huge = 10 ** 4999 + 3  # 5,000 decimal digits
    m = [long_row, [-huge] + [0] * (n - 2) + [huge], [0] * n]
    assert linear_map(m)(v) == naive_mat_vec(m, v)
    assert linear_map([])(v) == []
    assert linear_map([[], []])([]) == [0, 0]
    for bad in (True, False, 1.0, 0.5):
        with pytest.raises(TypeError):
            linear_map([[1, bad]])


@settings(max_examples=60, deadline=None)
@given(square_matrices(8))
def test_char_poly_matches_minor_expansion(m):
    assert char_poly(m) == charpoly_minor_expansion(m)


@pytest.mark.parametrize("name", catalog_names())
def test_quotient_gram_matches_pairings_on_catalog(name):
    zero = build(catalog(name)).zero
    quo = quotient_by_radical(zero)
    assert [list(r) for r in quo.lattice.gram] == gram_by_pairings(zero.gram, quo.lift)


@st.composite
def degenerate_grams(draw):
    """C S C^t with C n x k and S symmetric k x k, k < n: rank below n."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, n - 1))
    c = draw(int_matrices(n, k))
    s = draw(int_matrices(k, k))
    sym = [[s[i][j] + s[j][i] for j in range(k)] for i in range(k)]
    ct = [[c[r][i] for r in range(n)] for i in range(k)]
    return mat_mul_naive(mat_mul_naive(c, sym, k), ct, n)


@given(degenerate_grams())
def test_quotient_gram_matches_pairings_on_degenerate_grams(gram):
    lat = Lattice(tuple(f"e{i}" for i in range(len(gram))), tuple(map(tuple, gram)))
    quo = quotient_by_radical(lat)
    assert quo.lattice.rank < lat.rank
    assert [list(r) for r in quo.lattice.gram] == gram_by_pairings(lat.gram, quo.lift)


@settings(max_examples=60, deadline=None)
@given(valid_stars())
def test_chain_elimination_matches_berkowitz_on_stars(inv):
    lats = build(inv)
    for lat in (lats.minus, lats.zero, lats.plus):
        assert star_char_poly(lat, lats.center) == char_poly(coxeter_matrix(lat))


def ends_parallel(lat, center):
    """Whether the pairings of the chain ends with the core are pairwise parallel."""
    ends = [lat.gram[i][center:] for i in range(center)
            if i + 1 == center or not lat.gram[i][i + 1]]
    return all(v[p] * w[q] == v[q] * w[p]
               for v in ends for w in ends for p in range(len(v)) for q in range(len(v)))


@settings(max_examples=200, deadline=None)
@given(chain_grams())
def test_chain_elimination_on_chain_grams(case):
    """Off the stars: any chain pairings, any core of at most three vertices.
    Elimination answers exactly when the chain ends are parallel, and then
    agrees with Berkowitz."""
    lat, center = case
    delta = star_char_poly(lat, center)
    assert (delta is not None) == ends_parallel(lat, center)
    if delta is not None:
        assert delta == char_poly(coxeter_matrix(lat))
