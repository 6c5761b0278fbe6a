import dataclasses
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxlat import series, verify
from coxlat.cli import main
from coxlat.lattice import (
    Lattice,
    apply_word,
    char_poly,
    coxeter_inverse_matrix,
    coxeter_matrix,
    identity_matrix,
    mat_transpose,
    radical_basis,
    reflection_word,
    star_char_polys,
    word_columns,
)
from coxlat.series import hilbert_P, hilbert_Q, poincare_direct
from coxlat.star import (
    SingularityKind,
    build,
    catalog,
    catalog_names,
    fuchsian_invariants,
    kleinian_invariants,
    lattices_from_minus,
    validate,
)
from coxlat.verify import (
    Subject,
    check_identities,
    check_orbit_formulas,
    check_orbit_series,
    check_theorem,
    random_fuchsian_invariants,
    run_check,
    run_suite,
    suite_inputs,
    verify_lattices,
)

from oracles import (conv, dense_coxeter_witness, mat_mul_naive, matrix_order, pair_run_witness,
                     pairing, reflection_product_naive, series_by_dense_recurrence, star_deltas)
from strategies import root_lattices, valid_stars

E8 = kleinian_invariants((2, 3, 5))
E12 = fuchsian_invariants((2, 3, 7))


def flipped_lattices(inv, i, j):
    """The star of inv with its V_minus entry (i, j) flipped between 0 and 1,
    extensions rebuilt on top."""
    lats = build(inv)
    g = lats.minus.gram_rows()
    g[i][j] = g[j][i] = 1 - g[i][j]
    bad_minus = Lattice(lats.minus.labels, tuple(map(tuple, g)))
    return lattices_from_minus(bad_minus, inv, lats.kind, lats.arms, lats.center)


def broken_e8_lattices():
    """E8 star with one arm edge deleted."""
    return flipped_lattices(E8, 4, 5)


def test_run_check_stops_at_first_witness():
    pulled = []

    def witnesses():
        for k in range(5):
            pulled.append(k)
            yield None if k < 2 else {"identity": "x", "index": k, "expected": 0, "got": 1}

    report = run_check("c", "s", 3, witnesses())
    assert pulled == [0, 1, 2]
    assert not report.passed and report.witness["index"] == 2 and report.order == 3
    assert run_check("c", "s", 3, iter([None, None])).passed


# roster inputs with at least one arm, so V_minus has an off-diagonal entry
FLIP_INPUTS = [inv for _, inv in suite_inputs() if inv.alphas]


def draw_entry(data, inv):
    """An off-diagonal position (i, j), i < j, of the V_minus Gram of inv."""
    j = data.draw(st.integers(1, sum(a - 1 for a in inv.alphas)))
    return data.draw(st.integers(0, j - 1)), j


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_flipped_minus_entry_fails_with_witness(data):
    """One off-diagonal V_minus Gram entry flipped between 0 and 1 breaks the
    theorem, and every failing check names where."""
    inv = data.draw(st.sampled_from(FLIP_INPUTS))
    lats = flipped_lattices(inv, *draw_entry(data, inv))
    reports = verify_lattices(lats, 60)
    theorem = reports[0]
    assert theorem.check == "theorem" and not theorem.passed
    w = theorem.witness
    assert w["expected"] == poincare_direct(inv, lats.kind, 60)[w["index"]] != w["got"]
    for report in reports:
        assert report.passed == (report.witness is None)
        if not report.passed:
            assert set(report.witness) == {"identity", "index", "expected", "got"}


def assert_delta_is_berkowitz(lats):
    subject = Subject(lats)
    for which in ("minus", "zero", "plus"):
        assert subject.delta(which) == char_poly(coxeter_matrix(getattr(lats, which)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_delta_matches_berkowitz_on_flipped_grams(data):
    inv = data.draw(st.sampled_from(FLIP_INPUTS))
    assert_delta_is_berkowitz(flipped_lattices(inv, *draw_entry(data, inv)))


def assert_quotients_are_dense_recurrence(lats, order):
    """Subject.quotient, which expands m Delta_which / m Delta_zero over the
    nonzero terms, against the dense recurrence on the bare Deltas."""
    subject = Subject(lats)
    for which in ("minus", "plus"):
        expected, bad = series_by_dense_recurrence(
            subject.delta(which), subject.delta("zero"), order)
        assert bad is None
        assert subject.quotient(which, order).coeffs == tuple(expected)


@settings(max_examples=60, deadline=None)
@given(valid_stars(max_zero_rank=30, max_arms=8), st.integers(0, 80))
def test_quotient_matches_dense_recurrence(inv, order):
    assert_quotients_are_dense_recurrence(build(inv), order)
    if inv.r >= 2:  # the denominator the expansion runs on is prod (1 - t^a_i)
        expected = [1]
        for a in inv.alphas:
            expected = conv(expected, [1] + [0] * (a - 1) + [-1])
        assert Subject(build(inv))._scaled_delta("zero") == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quotient_matches_dense_recurrence_on_edited_grams(data):
    """A flipped entry, or the link (j-1, j), which deletes an arm edge where
    there is one, leaves a Delta_zero that is not (1-t)^2 prod [a_i]."""
    inv = data.draw(st.sampled_from(FLIP_INPUTS))
    i, j = draw_entry(data, inv)
    if data.draw(st.booleans()):
        i = j - 1
    assert_quotients_are_dense_recurrence(flipped_lattices(inv, i, j), 60)


# E8's V_minus basis: arms {0}, {1, 2}, {3, 4, 5, 6}, then E at 7
@pytest.mark.parametrize("i, j, eliminated", [
    (4, 5, True),    # an arm edge deleted: the arm splits, one piece off the core
    (0, 7, True),    # an arm detached from E
    (3, 7, False),   # an interior arm vertex joined to E
    (0, 2, False),   # two vertices that are not neighbours joined
])
def test_delta_branches_on_edited_e8(i, j, eliminated):
    """Subject.delta eliminates chains where the Gram keeps the chain shape
    and falls back to Berkowitz on tau where it does not; both agree."""
    lats = flipped_lattices(E8, i, j)
    assert (star_char_polys(lats.plus, lats.center) is not None) == eliminated
    assert_delta_is_berkowitz(lats)


def test_subject_eliminates_once_for_all_three_deltas(monkeypatch):
    """All four checks read Delta_minus, Delta_zero and Delta_plus from one
    star_char_polys call on V_plus."""
    calls = []

    def counted(lat, center):
        calls.append(lat)
        return star_char_polys(lat, center)

    monkeypatch.setattr(verify, "star_char_polys", counted)
    lats = build(E12)
    assert all(report.passed for report in verify_lattices(lats, 20))
    assert calls == [lats.plus]


def test_many_arm_star_minus_delta_is_closed_form():
    """Sixty short arms fill tau_minus in; elimination never builds it."""
    alphas = (3,) * 60 + (100,)
    assert Subject(build(fuchsian_invariants(alphas))).delta("minus") == star_deltas(alphas)["minus"]


@settings(max_examples=40, deadline=None)
@given(valid_stars())
def test_coxeter_descends_to_arm_words(inv):
    """pi tau_zero iota, from the dense product of reflections on V_zero,
    is the product of the arm words on V_minus, and each arm word moves E
    with period alpha_i.  pi folds the E-u coordinate into E, iota
    pads a zero."""
    lats = build(inv)
    f, c = lats.f_index, lats.center
    tau = reflection_product_naive(lats.zero.gram, range(lats.zero.rank))
    projected = [row[:f] for row in tau[:f]]
    projected[c] = [x + y for x, y in zip(projected[c], tau[f])]
    arms = word_columns(reflection_word(lats.minus, range(c)), f)
    assert projected == mat_transpose(arms)
    # tau_minus = tau_1 ... tau_r s_E, and s_E is an involution
    tau_minus = reflection_product_naive(lats.minus.gram, range(f))
    s_e = reflection_product_naive(lats.minus.gram, [c])
    assert mat_mul_naive(tau_minus, s_e, f) == mat_transpose(arms)
    e = [int(k == c) for k in range(f)]
    for (start, stop), alpha in zip(lats.arms, inv.alphas):
        arm = reflection_word(lats.minus, range(start, stop))
        v = list(e)
        assert [k for k in range(1, 2 * alpha + 1) if apply_word(arm, v) == e] == [alpha, 2 * alpha]


class CorruptedMinusWord(Subject):
    """A subject whose V_minus word, or the word of ``lattice`` where that is
    set, has a spurious pairing with e_k in its first step, which acts only
    on the column tau e_k."""

    k = 1  # not a neighbour of E in the E8 star
    lattice = "minus"

    def word(self, which):
        word = super().word(which)
        if which != self.lattice:
            return word
        (i, pairs), *rest = word
        return ((i, pairs + ((self.k, 1),)), *rest)


class DroppedReadWord(Subject):
    """A subject whose word of ``lattice`` has a first step that forgets its
    read of its highest neighbour k below the lattice's rank.  The column
    tau e_k then starts at k's own step and is right in rows 0..top: only
    the row test past top, on the pairing of k with the first step's index,
    sees that it is wrong."""

    lattice = "minus"

    def word(self, which):
        word = super().word(which)
        if which != self.lattice:
            return word
        (i, pairs), *rest = word
        k = max(j for j, _ in pairs if j < getattr(self.lats, which).rank)
        return ((i, tuple(p for p in pairs if p[0] != k)), *rest)


def test_corrupted_word_fails_identities_at_its_column():
    subject = CorruptedMinusWord(build(E8))
    k = subject.k
    tau = subject.coxeter("minus")
    honest = mat_transpose(reflection_product_naive(subject.lats.minus.gram, range(8)))
    assert [j for j, (col, ok) in enumerate(zip(tau, honest)) if col != ok] == [k]
    report = check_identities(subject)
    assert not report.passed
    w = report.witness
    assert w["identity"] == "coxeter(minus) == -A^-1 A^t" and w["index"][1] == k
    i = w["index"][0]
    assert (w["got"], w["expected"]) == (tau[k][i], honest[k][i])


@pytest.mark.parametrize("which", ["zero", "plus"])
def test_corrupted_zero_or_plus_word_fails_identities_at_its_column(which):
    """V_minus passes, so the first witness is the solve's, on the corrupted
    lattice, at the one column its word gets wrong."""
    subject = CorruptedMinusWord(build(E8))
    subject.lattice = which
    k, lat = subject.k, getattr(subject.lats, which)
    tau = subject.coxeter(which)
    honest = mat_transpose(reflection_product_naive(lat.gram, range(lat.rank)))
    assert [j for j, (col, ok) in enumerate(zip(tau, honest)) if col != ok] == [k]
    w = check_identities(subject).witness
    assert w["identity"] == f"coxeter({which}) == -A^-1 A^t" and w["index"][1] == k
    i = w["index"][0]
    assert (w["got"], w["expected"]) == (tau[k][i], honest[k][i])


def test_passing_subjects_neither_solve_the_form_nor_reduce_the_gram(monkeypatch):
    """The residual A tau + A^t decides tau == -A^-1 A^t, and the radical is
    read off u and Delta_minus(1): the solve runs only to name a failing
    entry, and radical_basis not at all."""
    calls = []
    for name in ("coxeter_columns_via_form", "radical_basis"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    for _, inv in suite_inputs(n_random=5):
        assert all(report.passed for report in verify_lattices(build(inv), 30))
    assert calls == []
    assert not check_identities(CorruptedMinusWord(build(E8))).passed
    assert calls == ["coxeter_columns_via_form"]


RADICAL = "radical of V_zero is rank 1 spanned by u"


def assert_radical_verdict_is_radical_basis(lats):
    """The identities' radical verdict, from G_zero u and Delta_minus(1),
    against the unimodular column reduction; returns the witness.

    A null vector of G_minus pairs with E-u as with E, so where
    Delta_minus(1) = 0 it is a radical vector of V_zero besides u."""
    w = check_identities(Subject(lats)).witness
    # the identities before the radical hold on every Gram of roots
    assert w is None or w["identity"] == RADICAL or w["identity"].endswith("== closed form")
    u = list(lats.u_zero)
    spanned_by_u = radical_basis(lats.zero) in ([u], [[-x for x in u]])
    assert (w is None or w["identity"] != RADICAL) == spanned_by_u
    return w


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_radical_verdict_matches_radical_basis_on_flipped_grams(data):
    inv = data.draw(st.sampled_from(FLIP_INPUTS))
    assert_radical_verdict_is_radical_basis(flipped_lattices(inv, *draw_entry(data, inv)))


def affine_d4_lattices():
    """The affine D4 Gram, null vector (1, 1, 1, 1, 2), as V_minus."""
    gram = [[-2 if i == j else int(4 in (i, j)) for j in range(5)] for i in range(5)]
    minus = Lattice([f"E{i}^1" for i in range(1, 5)] + ["E"], gram)
    inv = fuchsian_invariants((2, 2, 2, 3))
    return lattices_from_minus(minus, inv, validate(inv), tuple((i, i + 1) for i in range(4)), 4)


# two of the 14 flips of the first 40 roster inputs whose V_minus is degenerate
@pytest.mark.parametrize("lats", [affine_d4_lattices(), flipped_lattices(catalog("A3"), 0, 1),
                                  flipped_lattices(E12, 3, 4)], ids=["affine-D4", "A3", "E12"])
def test_degenerate_minus_fails_radical_at_delta_minus_one(lats):
    w = assert_radical_verdict_is_radical_basis(lats)
    assert w == {"identity": RADICAL, "index": "Delta_minus(1)", "expected": "nonzero", "got": 0}
    assert len(radical_basis(lats.zero)) == 2


def with_plus_entry(lats, i, j, x):
    """lats with the pairing of vertices i and j set to x in V_plus, and so
    in V_minus and V_zero, its leading blocks, wherever they hold both."""
    g = lats.plus.gram_rows()
    g[i][j] = g[j][i] = x
    return dataclasses.replace(lats, plus=Lattice(lats.plus.labels, g))


def with_e_minus_u_entry(lats, j, x):
    """lats with the pairing of E-u and vertex j set to x."""
    return with_plus_entry(lats, j, lats.f_index, x)


def test_zero_gram_off_u_fails_radical_at_its_row():
    """E-u of E8 made to pair with e_1, which E does not: row 1 of G_zero u
    is the first that is not zero."""
    w = assert_radical_verdict_is_radical_basis(with_e_minus_u_entry(build(E8), 1, 1))
    assert w == {"identity": RADICAL, "index": 1, "expected": 0, "got": -1}


def test_zero_gram_off_an_arm_end_fails_pair_run_at_its_column():
    """E-u of E8 no longer paired with e_0, the end of arm 1 and the first
    column that s_E s_{E-u} touches: (a) names that column, as a scan of
    every column does."""
    lats = with_e_minus_u_entry(build(E8), 0, 0)
    w = check_orbit_formulas(Subject(lats), 20).witness
    assert w == pair_run_witness(lats)
    assert w == {"identity": "s_E s_{E-u} == id", "index": [7, 0], "expected": 0, "got": 1}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_run_names_the_first_discrepancy_over_every_column(data):
    """E-u's pairing with one V_minus vertex set to -1, 0 or 1, on a whole or
    a flipped Gram: (a) compares only the columns its two steps touch, and
    its witness is the first over every column of V_minus."""
    inv = data.draw(st.sampled_from(FLIP_INPUTS))
    lats = flipped_lattices(inv, *draw_entry(data, inv)) if data.draw(st.booleans()) else build(inv)
    j = data.draw(st.integers(0, lats.f_index - 1))
    lats = with_e_minus_u_entry(lats, j, data.draw(st.sampled_from((-1, 0, 1))))
    expected = pair_run_witness(lats)
    w = check_orbit_formulas(Subject(lats), 10).witness
    if expected is None:
        assert w is None or w["identity"] != "s_E s_{E-u} == id"
    else:
        assert w == expected


TAU_IDENTITIES = ("coxeter(",)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_identities_give_the_dense_route_witness(data):
    """check_identities names the dense all-three route's first failure of
    tau == -A^-1 A^t exactly, and where that route finds none it fails no
    identity of tau: on valid stars, flipped V_minus entries, edited V_plus
    entries, and each lattice's word with a spurious read or a dropped read
    in its first step."""
    case = data.draw(st.sampled_from(["star", "flipped", "V_plus edited", "corrupted word"]))
    if case == "star":
        subject = Subject(build(data.draw(valid_stars())))
    else:
        inv = data.draw(st.sampled_from(FLIP_INPUTS))
        lats = build(inv)
        if case == "flipped":
            subject = Subject(flipped_lattices(inv, *draw_entry(data, inv)))
        elif case == "V_plus edited":
            j = data.draw(st.integers(1, lats.plus.rank - 1))
            i = data.draw(st.integers(0, j - 1))
            subject = Subject(with_plus_entry(lats, i, j, 1 - lats.plus.gram[i][j]))
        else:
            subject = data.draw(st.sampled_from([CorruptedMinusWord, DroppedReadWord]))(lats)
            subject.lattice = data.draw(st.sampled_from(["minus", "zero", "plus"]))
    expected = dense_coxeter_witness(subject.lats, subject.word)
    w = check_identities(subject).witness
    if expected is None:
        assert w is None or not w["identity"].startswith(TAU_IDENTITIES)
    else:
        assert w == expected


def test_one_application_per_shared_tau_column(monkeypatch):
    """verify_lattices applies a suffix of V_plus's word once per distinct
    column of the three tau: rank(V_plus) + r + 2 times, where V_minus adds
    the columns of E and its r arm ends and V_zero the column of E-u.  No
    column fails, so the dense form is never built."""
    inside, applied, dense = [], [], []
    real_columns, real_apply = Subject.columns, verify.apply_word

    def columns(subject, which):
        inside.append(which)
        try:
            return real_columns(subject, which)
        finally:
            inside.pop()

    def apply_word(word, v):
        if inside:
            applied.append(len(word))
        return real_apply(word, v)

    monkeypatch.setattr(Subject, "columns", columns)
    monkeypatch.setattr(verify, "apply_word", apply_word)
    real_form = verify.asym_form_matrix
    monkeypatch.setattr(verify, "asym_form_matrix", lambda lat: dense.append(lat) or real_form(lat))
    for name in catalog_names():
        lats = build(catalog(name))
        applied.clear()
        assert all(report.passed for report in verify_lattices(lats, 30))
        assert len(applied) == lats.plus.rank + lats.invariants.r + 2
    assert dense == []


def padded_columns(word, rank, n):
    """The word applied to each e_j of rank ``rank``, padded with zeros to n
    and cut back to rank."""
    return [apply_word(word, col + [0] * (n - rank))[:rank] for col in identity_matrix(rank)]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_runs_of_plus_word_act_as_each_lattice_word(data):
    """On flipped Grams, tau of each lattice from a run of V_plus's word is
    tau from its own word, and the pair run of (a) and the arm runs of (c)
    move every basis vector as the words of V_zero and V_minus do."""
    inv = data.draw(st.sampled_from(FLIP_INPUTS))
    lats = flipped_lattices(inv, *draw_entry(data, inv))
    subject = Subject(lats)
    n, f, c = lats.plus.rank, lats.f_index, lats.center
    for which in ("minus", "zero", "plus"):
        lat = getattr(lats, which)
        assert subject.coxeter(which) == word_columns(reflection_word(lat, range(lat.rank)), lat.rank)
    assert (padded_columns(subject.run(c, f + 1), f + 1, n)
            == word_columns(reflection_word(lats.zero, (c, f)), f + 1))
    for start, stop in lats.arms:
        assert (padded_columns(subject.run(start, stop), f, n)
                == word_columns(reflection_word(lats.minus, range(start, stop)), f))


def test_one_word_for_the_checks_and_one_for_the_walk(monkeypatch):
    """verify_lattices builds V_plus's word in Subject and V_zero's in the
    orbit walk, and no other."""
    calls = []
    for module in (verify, series):
        real = module.reflection_word
        monkeypatch.setattr(module, "reflection_word", lambda lat, indices, module=module, real=real:
                            calls.append((module.__name__, lat.rank)) or real(lat, indices))
    for name in catalog_names():
        lats = build(catalog(name))
        calls.clear()
        assert all(report.passed for report in verify_lattices(lats, 30))
        assert sorted(calls) == [("coxlat.series", lats.zero.rank), ("coxlat.verify", lats.plus.rank)]


@pytest.mark.parametrize("inv", [catalog("D250"), fuchsian_invariants((3,) * 60 + (100,))],
                         ids=["D250", "sixty-arms"])
def test_large_inputs_pass(inv):
    reports = verify_lattices(build(inv), 50)
    assert [r.check for r in reports] == ["theorem", "orbit-series", "orbit-formulas", "identities"]
    assert all(r.passed for r in reports)


def naive_orbit_pairings(lat, tau, root, count):
    """<e, tau^l e> for e the basis vector at index root and l = 0..count-1,
    stepping with the triple-loop product."""
    e = [int(i == root) for i in range(lat.rank)]
    out, v = [], [[x] for x in e]
    for _ in range(count):
        out.append(pairing(lat.gram, e, [x for x, in v]))
        v = mat_mul_naive(tau, v, 1)
    return out


@settings(max_examples=40, deadline=None)
@given(valid_stars())
def test_random_valid_stars_all_routes_agree(inv):
    lats = build(inv)
    assert all(report.passed for report in verify_lattices(lats, 60))
    lat, root = lats.zero, lats.center
    forward = naive_orbit_pairings(lat, coxeter_matrix(lat), root, 60)
    backward = naive_orbit_pairings(lat, coxeter_inverse_matrix(lat), root, 61)
    assert hilbert_P(lat, root, 60).coeffs == tuple(accumulate(forward, initial=1))
    assert hilbert_Q(lat, root, 60).coeffs == tuple(accumulate((-x for x in backward[1:]), initial=1))


@settings(max_examples=100, deadline=None)
@given(root_lattices(), st.data())
def test_q_read_off_p_matches_inverse_walk(lat, data):
    """P against the naive tau pairings and Q_k = -P_{k+1} against the naive
    tau^-1 pairings, off the stars and at any basis root: the walk reads its
    functionals off an arbitrary Gram row."""
    root = data.draw(st.integers(0, lat.rank - 1))
    forward = naive_orbit_pairings(lat, reflection_product_naive(lat.gram, range(lat.rank)), root, 30)
    backward = naive_orbit_pairings(lat, coxeter_inverse_matrix(lat), root, 31)
    assert hilbert_P(lat, root, 30).coeffs == tuple(accumulate(forward, initial=1))
    assert hilbert_Q(lat, root, 30).coeffs == tuple(accumulate((-x for x in backward[1:]), initial=1))



def test_walk_builds_no_dense_form(monkeypatch, capsys):
    """The walk reads both functionals off one Gram row: a passing
    verify_lattices and hilbert never call asym_form_matrix from series."""
    calls = []
    real = series.asym_form_matrix
    monkeypatch.setattr(series, "asym_form_matrix", lambda lat: calls.append(lat) or real(lat))
    assert all(report.passed for report in verify_lattices(build(E12), 60))
    assert main(["hilbert", "--name", "D10", "--order", "60"]) == 0
    assert "Q: [1, 0, 1," in capsys.readouterr().out
    assert calls == []

class TestTheorem:
    def test_kleinian_235(self):
        report = check_theorem(Subject(build(E8)), 100)
        assert report.passed and report.witness is None

    def test_fuchsian_237(self):
        report = check_theorem(Subject(build(E12)), 100)
        assert report.passed

    def test_perturbed_gram_fails_with_witness(self):
        reports = verify_lattices(broken_e8_lattices(), order=60)
        theorem = reports[0]
        assert theorem.check == "theorem"
        assert not theorem.passed
        assert theorem.witness is not None
        assert isinstance(theorem.witness["index"], int)
        assert theorem.witness["expected"] != theorem.witness["got"]


class TestOrbitSeries:
    def test_armless(self):
        report = check_orbit_series(Subject(build(kleinian_invariants(()))), 60)
        assert report.passed

    def test_235_and_237(self):
        assert check_orbit_series(Subject(build(E8)), 100).passed
        assert check_orbit_series(Subject(build(E12)), 100).passed


class TestOrbitFormulas:
    def test_237(self):
        report = check_orbit_formulas(Subject(build(E12)), 100)
        assert report.passed

    def test_235(self):
        report = check_orbit_formulas(Subject(build(E8)), 100)
        assert report.passed

    def test_divisor_value_at_42(self):
        from coxlat.series import divisor_degree

        assert 1 + divisor_degree(E12, SingularityKind.FUCHSIAN, 42) == 2


class TestIdentities:
    def test_22(self):
        assert check_identities(Subject(build(kleinian_invariants((2, 2))))).passed

    def test_235_coxeter_order(self):
        lats = build(E8)
        assert matrix_order(coxeter_matrix(lats.minus)) == 30

    def test_237_coxeter_hits_cap(self):
        lats = build(E12)
        assert matrix_order(coxeter_matrix(lats.zero), cap=300) is None

    def test_broken_gram_fails(self):
        reports = verify_lattices(broken_e8_lattices(), order=40)
        assert not all(r.passed for r in reports)


class TestSuite:
    def test_inputs_deterministic(self):
        a = suite_inputs(n_random=5, seed=99)
        b = suite_inputs(n_random=5, seed=99)
        assert [(s, inv) for s, inv in a] == [(s, inv) for s, inv in b]
        c = suite_inputs(n_random=5, seed=100)
        assert [inv for _, inv in a] != [inv for _, inv in c]

    def test_random_generator_produces_valid_fuchsians(self):
        rng = random.Random(42)
        for _ in range(20):
            inv = random_fuchsian_invariants(rng)
            assert validate(inv) is SingularityKind.FUCHSIAN
            assert all(2 <= a <= 12 for a in inv.alphas)
            assert inv.r in (3, 4, 5)

    def test_verify_all_shares_results(self):
        reports = verify_lattices(build(E12), 60)
        assert [r.check for r in reports] == ["theorem", "orbit-series", "orbit-formulas", "identities"]
        assert all(r.passed for r in reports)

    def test_small_suite_passes(self):
        reports = run_suite(order=40, n_random=3, seed=7)
        assert reports and all(r.passed for r in reports)

    def test_report_json_shape(self):
        report = check_theorem(Subject(build(E8)), 30)
        obj = report.to_json()
        assert obj["check"] == "theorem"
        assert obj["status"] == "pass"
        assert obj["witness"] is None
        assert "elapsed_ms" in obj


class TestComposedEquality:
    def test_direct_series_equals_orbit_series(self):
        # Kleinian: direct == Q of (V_zero, E); Fuchsian: direct == P + t
        from coxlat.series import hilbert_P, hilbert_Q, poincare_direct
        from coxlat.verify import suite_inputs

        for _, inv in suite_inputs(n_random=8, seed=31):
            lats = build(inv)
            direct = poincare_direct(inv, lats.kind, 80)
            if lats.kind is SingularityKind.KLEINIAN:
                assert hilbert_Q(lats.zero, lats.center, 80).coeffs == direct.coeffs
            else:
                shifted = list(hilbert_P(lats.zero, lats.center, 80).coeffs)
                shifted[1] += 1
                assert tuple(shifted) == direct.coeffs
