import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlat.errors import NotARoot, NotUnitriangular
from coxlat.lattice import (
    Lattice,
    apply_word,
    asym_form_matrix,
    char_poly,
    coxeter_inverse_matrix,
    coxeter_matrix,
    coxeter_via_form,
    identity_matrix,
    mat_det,
    mat_mul,
    mat_transpose,
    nonzeros,
    quotient_by_radical,
    radical_basis,
    reflection_matrix,
    reflection_product,
    reflection_word,
    rows_vec,
    star_char_polys,
    word_columns,
)
from coxlat.star import build, catalog, catalog_names, kleinian_invariants, lattices_from_minus

from oracles import (
    charpoly_minor_expansion,
    det_minor_expansion,
    extended_gram,
    gram_by_pairings,
    mat_mul_naive,
    matrix_order,
    pairing,
    prefix_shape,
    reflection_product_naive,
    star_gram,
)
from strategies import chain_grams, root_lattices, valid_stars

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


def test_gram_faults_name_the_first_in_row_order():
    """The first asymmetric (i, j), j < i, in row order, though a later row
    has one in an earlier column; a short row is named only after the rows
    before it pass."""
    asymmetric = ((-2, 1, 0, 0), (1, -2, 1, 0), (0, 3, -2, 0), (4, 0, 1, -2))
    with pytest.raises(ValueError, match=r"^Gram matrix not symmetric at \(2,1\)$"):
        Lattice("abcd", asymmetric)
    with pytest.raises(ValueError, match=r"^Gram matrix not symmetric at \(1,0\)$"):
        Lattice("abc", ((-2, 1, 0), (0, -2, 1), (0, 1)))
    with pytest.raises(ValueError, match="^Gram matrix is not square$"):
        Lattice("abc", ((-2, 1, 0), (1, -2, 1), (0, 1)))
    assert Lattice((), ()).rank == 0


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
        assert pairing(A2.gram, x, [1, 0]) == 0
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
            assert pairing(lats.zero.gram, rad, basis) == 0


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


# ---------------------------------------------------------------------------
# the reflection-word kernel against the reflection products


@settings(max_examples=100, deadline=None)
@given(root_lattices(), st.data())
def test_word_matches_reflection_product(lat, data):
    """tau from the word in basis order, and tau^-1 from the reversed word,
    against the dense product of the reflection matrices: column by column
    and on a random vector."""
    n = lat.rank
    v = data.draw(st.lists(DENSE, min_size=n, max_size=n))
    for order in (range(n), range(n - 1, -1, -1)):
        word = reflection_word(lat, order)
        product = reflection_product_naive(lat.gram, order)
        assert reflection_product(lat, order) == product
        columns = mat_transpose(product)
        assert word_columns(word, n) == columns
        assert apply_word(word, list(v)) == naive_mat_vec(mat_transpose(columns), v)


def test_word_names_rightmost_non_root():
    lat = Lattice(("a", "b", "c"), ((-4, 1, 0), (1, -2, 1), (0, 1, -3)))
    with pytest.raises(NotARoot, match="'c'"):
        reflection_word(lat, range(3))
    with pytest.raises(NotARoot, match="'a'"):
        reflection_word(lat, range(2, -1, -1))


@settings(max_examples=100, deadline=None)
@given(root_lattices(), st.data())
def test_word_steps_list_each_row_as_a_full_scan_does(lat, data):
    """Each step lists the nonzero pairings of its row but the diagonal, as
    a scan of the whole row lists them, for the indices in any order."""
    order = data.draw(st.permutations(range(lat.rank)))
    assert reflection_word(lat, order) == tuple(
        (i, tuple([(j, g) for j, g in enumerate(lat.gram[i]) if g and j != i]))
        for i in reversed(order))


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
@given(valid_stars(), st.data())
def test_nonzero_rows_and_chain_elimination_on_stars_and_edits(inv, data):
    """On a built star, and on the lattices that lattices_from_minus makes of
    its V_minus with one arm edge deleted or set to 2: the nonzero columns of
    V_plus and of its cuts V_minus and V_zero are the nonzero pattern of
    each Gram, and one pass over V_plus gives the Delta of all three.  A link
    of 2 makes a continuant that is not all ones, which joins by poly_mul."""
    lats = build(inv)
    routes = [lats]
    edges = [(i, i + 1) for start, stop in lats.arms for i in range(start, stop - 1)]
    edges += [(stop - 1, lats.center) for _, stop in lats.arms]
    if edges:
        i, j = data.draw(st.sampled_from(edges))
        g = lats.minus.gram_rows()
        g[i][j] = g[j][i] = data.draw(st.sampled_from([0, 2]))
        edited = Lattice(lats.minus.labels, g)
        routes.append(lattices_from_minus(edited, inv, lats.kind, lats.arms, lats.center))
    for route in routes:
        lattices = (route.minus, route.zero, route.plus)
        for lat in lattices:
            assert lat.nonzero_cols == tuple(
                tuple(j for j, x in enumerate(row) if x) for row in lat.gram)
        assert star_char_polys(route.plus, route.center) == [
            char_poly(coxeter_matrix(lat)) for lat in lattices]


@settings(max_examples=80, deadline=None)
@given(valid_stars(), st.data())
def test_lattices_of_rows_are_the_dense_input_path(inv, data):
    """V_plus built from rows, by build and by lattices_from_minus on V_minus
    with one off-diagonal entry set to a value in -3..2, and its cuts V_minus
    and V_zero: each equals the Lattice of its labels and a dense Gram
    built entry by entry, in labels, gram, nonzero_cols and to_json()."""
    lats = build(inv)
    minus = star_gram(inv.alphas)
    n = len(minus)
    routes = [(lats, minus)]
    if n > 1:
        j = data.draw(st.integers(1, n - 1))
        i = data.draw(st.integers(0, j - 1))
        edited = [list(row) for row in minus]
        edited[i][j] = edited[j][i] = data.draw(st.integers(-3, 2))
        routes.append((lattices_from_minus(Lattice(lats.plus.labels[:n], edited), inv, lats.kind,
                                           lats.arms, lats.center), edited))
    for route, gram in routes:
        plus = extended_gram(gram)
        for lat in (route.minus, route.zero, route.plus):
            k = lat.rank
            dense = Lattice(route.plus.labels[:k], [row[:k] for row in plus[:k]])
            assert lat == dense
            assert (lat.labels, lat.gram, lat.nonzero_cols, lat.to_json()) == (
                dense.labels, dense.gram, dense.nonzero_cols, dense.to_json())


def prefix(lat, k):
    """The lattice of the first k basis vectors."""
    return Lattice(lat.labels[:k], tuple(row[:k] for row in lat.gram[:k]))


@settings(max_examples=300, deadline=None)
@given(chain_grams())
def test_chain_elimination_on_chain_grams(case):
    """Off the stars: any chain links and pairings with the center, a core of
    one to three vertices.  Elimination answers exactly when the shape
    oracle says so, and then each prefix from the center on is Berkowitz
    on that prefix."""
    lat, center = case
    deltas = star_char_polys(lat, center)
    assert (deltas is not None) == prefix_shape(lat.gram, center)
    if deltas is not None:
        assert deltas == [char_poly(coxeter_matrix(prefix(lat, k)))
                          for k in range(center + 1, lat.rank + 1)]


def chain_lattice(chains):
    """(lattice, center): chains, each given as (links, g), its consecutive
    vertices paired by links and its last vertex paired with the center,
    the last basis vector, by g."""
    n = sum(len(links) + 1 for links, _ in chains) + 1
    gram = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    i = 0
    for links, g in chains:
        for x in links:
            gram[i][i + 1] = gram[i + 1][i] = x
            i += 1
        gram[i][n - 1] = gram[n - 1][i] = g
        i += 1
    return Lattice(tuple(f"e{k + 1}" for k in range(n)), tuple(map(tuple, gram))), n - 1


def test_chains_group_by_their_whole_triple():
    """Chains join in one group only where f_R, h_R and g_R^2 all agree:
    links (1, 2) and (2, 1) give the same f_R and different h_R, and two
    single vertices paired with the center by 1 and 2 differ only in g_R^2.
    The last Grams hold one group of three and one of two."""
    for chains in ([((1, 2), 1), ((2, 1), 1)],
                   [((), 1), ((), 2)],
                   [((1, 2), 1), ((2, 1), 1), ((), 1), ((), -2), ((), 2)],
                   [((2,), 1), ((-2,), -1), ((2,), 1), ((3, 1), 1), ((3, -1), -1)]):
        lat, center = chain_lattice(chains)
        assert star_char_polys(lat, center) == [char_poly(coxeter_matrix(lat))]
