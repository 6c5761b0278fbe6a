import contextlib
import dataclasses
import io
import itertools
import json
import random
import tempfile
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxlat import series, star, verify
from coxlat.cli import main
from coxlat.errors import NeitherKind
from coxlat.exact import series_from_rational
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
    classify_alphas,
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

from oracles import (arm_period_by_applications, column_by_steps, conv, dense_coxeter_witness,
                     descent_witness, mat_mul_naive, matrix_order, pair_run_witness, pairing,
                     reflection_product_naive, series_by_dense_recurrence, star_deltas)
from strategies import root_lattices, valid_stars

E8 = kleinian_invariants((2, 3, 5))
E12 = fuchsian_invariants((2, 3, 7))


def edited_lattices(inv, i, j, x):
    """The star of inv with its V_minus pairing of i and j set to x,
    extensions rebuilt on top."""
    lats = build(inv)
    g = lats.minus.gram_rows()
    g[i][j] = g[j][i] = x
    bad_minus = Lattice(lats.minus.labels, tuple(map(tuple, g)))
    return lattices_from_minus(bad_minus, inv, lats.kind, lats.arms, lats.center)


def flipped_lattices(inv, i, j):
    """The star of inv with its V_minus entry (i, j) flipped between 0 and 1."""
    return edited_lattices(inv, i, j, 1 - build(inv).minus.gram[i][j])


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
    """Subject.quotient, which divides the arm factors out of
    (1-t)^(r-2) Delta_which on a star and expands the bare Delta_which /
    Delta_zero over the nonzero terms of Delta_zero otherwise, against the
    dense recurrence on the bare Deltas."""
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
    if inv.r >= 2:  # the factors the quotient divides out: (1-t)^(r-2) Delta_zero = prod (1 - t^a_i)
        scaled, expected = Subject(build(inv)).delta("zero"), [1]
        for _ in range(inv.r - 2):
            scaled = conv(scaled, [1, -1])
        for a in inv.alphas:
            expected = conv(expected, [1] + [0] * (a - 1) + [-1])
        assert scaled == expected


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


@st.composite
def equal_arm_stars(draw):
    """Up to twelve arms of one alpha, and now and then one other arm."""
    alphas = [draw(st.integers(2, 8))] * draw(st.integers(0, 12))
    alphas = sorted(alphas + draw(st.lists(st.integers(2, 20), max_size=1)))
    try:
        kind = classify_alphas(alphas)
    except NeitherKind:
        assume(False)
    return (kleinian_invariants if kind is SingularityKind.KLEINIAN else fuchsian_invariants)(alphas)


@settings(max_examples=40, deadline=None)
@given(equal_arm_stars())
def test_quotient_matches_dense_recurrence_on_equal_arms(inv):
    """Many equal factors 1 - t^a divided out in turn, against the dense
    recurrence on the bare Deltas."""
    assert_quotients_are_dense_recurrence(build(inv), 300)


def test_quotient_of_440_equal_arms_is_the_direct_series():
    """The star of 440 arms with alpha = 2 (rank 443): 440 factors 1 - t^2.
    At order 100, below deg Delta_plus = 443, the quotient reads only the
    first 101 terms of the 438 differences of Delta_plus."""
    inv = fuchsian_invariants([2] * 440)
    subject = Subject(build(inv))
    for order in (2000, 100):
        assert subject.quotient("plus", order) == poincare_direct(inv, SingularityKind.FUCHSIAN, order)


def assert_quotients_are_the_recurrence(lats, order):
    """Subject.quotient against series_from_rational on the bare Deltas."""
    subject = Subject(lats)
    for which in ("minus", "plus"):
        assert subject.quotient(which, order) == series_from_rational(
            subject.delta(which), subject.delta("zero"), order)


def test_quotient_by_blocks_on_the_d_ladder():
    """D16 to D80 at order 200: the long arm, alpha = 14 to 78, divides out
    1 - t^alpha by residue classes at alpha = 14 and by blocks from alpha =
    22 on (201 <= 22 * 21), the last block partial (201 % alpha != 0)."""
    for n in (16, 24, 32, 48, 64, 80):
        assert_quotients_are_the_recurrence(build(catalog(f"D{n}")), 200)


@st.composite
def stars_dividing_by_blocks(draw):
    """A star with a long arm of alpha = a in 15..40 and up to three short
    ones, and an order at which 1 - t^a divides out by blocks, more than one
    and the last partial: a < order + 1 <= a (a - 1), (order + 1) % a != 0."""
    a = draw(st.integers(15, 40))
    alphas = sorted(draw(st.lists(st.integers(2, 12), max_size=3)) + [a])
    try:
        kind = classify_alphas(alphas)
    except NeitherKind:
        assume(False)
    order = draw(st.integers(a, a * (a - 1) - 1))
    assume((order + 1) % a)
    return (kleinian_invariants if kind is SingularityKind.KLEINIAN else fuchsian_invariants)(alphas), order


@settings(max_examples=40, deadline=None)
@given(stars_dividing_by_blocks())
def test_quotient_by_blocks_with_a_partial_last_block(case):
    inv, order = case
    assert_quotients_are_the_recurrence(build(inv), order)


def count_rational_calls(monkeypatch) -> list:
    calls = []

    def counted(num, den, order):
        calls.append(den)
        return series_from_rational(num, den, order)

    monkeypatch.setattr(verify, "series_from_rational", counted)
    return calls


# r = 0 (A1) through 8 arms
@pytest.mark.parametrize("inv", [catalog("A1"), kleinian_invariants((4,)), kleinian_invariants((3, 3)),
                                 E8, fuchsian_invariants((2, 2, 2, 3)),
                                 *(fuchsian_invariants((2,) * r + (5,)) for r in range(4, 8))],
                         ids=lambda inv: str(inv.alphas))
def test_valid_stars_divide_out_the_arm_factors(monkeypatch, inv):
    """No valid star expands its quotients by the recurrence."""
    calls = count_rational_calls(monkeypatch)
    assert all(report.passed for report in verify_lattices(build(inv), 60))
    assert calls == []


def test_edited_gram_expands_by_the_recurrence(monkeypatch):
    calls = count_rational_calls(monkeypatch)
    lats = broken_e8_lattices()
    assert not verify_lattices(lats, 60)[0].passed
    assert calls and all(den == Subject(lats).delta("zero") for den in calls)


def test_negative_controls_fail_the_theorem_at_the_dense_quotient():
    """A catalog Gram with an arm edge deleted, as in the benchmark's
    negative controls, fails the theorem where its own Delta_top /
    Delta_zero, by the dense recurrence, first leaves the direct series,
    and the witness gives both values."""
    edges = [(name, e) for name in catalog_names()
             for start, stop in build(catalog(name)).arms for e in range(start, stop - 1)]
    for name, edge in edges:
        lats = flipped_lattices(catalog(name), edge, edge + 1)
        subject = Subject(lats)
        quotient, bad = series_by_dense_recurrence(
            subject.delta(lats.kind.top), subject.delta("zero"), 60)
        direct = poincare_direct(lats.invariants, lats.kind, 60)
        assert bad is None
        k = next(k for k, (x, y) in enumerate(zip(quotient, direct)) if x != y)
        assert check_theorem(subject, 60).witness == {
            "identity": f"{lats.kind.top}/zero == direct", "index": k,
            "expected": direct[k], "got": quotient[k]}


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


@st.composite
def many_equal_arms(draw):
    """20 to 60 arms whose alphas take two to four values, each at least once."""
    values = draw(st.lists(st.integers(2, 6), min_size=2, max_size=4, unique=True))
    more = draw(st.lists(st.sampled_from(values), min_size=20 - len(values),
                         max_size=60 - len(values)))
    return sorted(values + more)


@settings(max_examples=20, deadline=None)
@given(many_equal_arms())
def test_both_delta_routes_group_many_equal_arms(alphas):
    """Elimination, which groups equal chains by their continuants, and the
    closed form, which groups equal arms by alpha, each give the Deltas of
    star_deltas; up to rank 40 elimination is Berkowitz on tau too."""
    expected = star_deltas(alphas)
    lats = build(fuchsian_invariants(alphas))
    subject = Subject(lats)
    assert {which: subject.delta(which) for which in expected} == expected
    assert verify._closed_form_deltas(alphas) == expected
    if lats.plus.rank <= 40:
        assert [subject.delta(which) for which in ("minus", "zero", "plus")] == [
            char_poly(coxeter_matrix(lat)) for lat in (lats.minus, lats.zero, lats.plus)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=30), st.integers(1, 40))
def test_window_product_is_the_product_by_ones(p, a):
    while p and not p[-1]:
        p.pop()
    assert verify._window_product(p, a) == conv(p, [1] * a)


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



@pytest.mark.parametrize("inv", [E8, E12, fuchsian_invariants((2, 2, 3, 5))], ids=["E8", "E12", "2235"])
def test_arm_periods_walk_from_e(monkeypatch, inv):
    """(c) asks each arm's run of V_plus's word for its period on E's unit
    vector, the class of E in V_minus padded to the rank of V_plus, and
    finds alpha_i."""
    lats = build(inv)
    subject = Subject(lats)
    calls = []
    real = verify._arm_period

    def arm_period(arm, start, e, *args):
        calls.append((arm, start, list(e), real(arm, start, e, *args)))
        return calls[-1][-1]

    monkeypatch.setattr(verify, "_arm_period", arm_period)
    assert check_orbit_formulas(subject, 10).passed
    e = [int(k == lats.center) for k in range(lats.plus.rank)]
    assert calls == [(subject.run(start, stop), start, e, alpha)
                     for (start, stop), alpha in zip(lats.arms, inv.alphas)]


def assert_arm_periods_are_applications(lats):
    """Each arm period by differences is that of alpha whole applications
    of the arm word, and (c) names the same witness with either; returns
    the periods."""
    subject = Subject(lats)
    e = [int(k == lats.center) for k in range(lats.plus.rank)]
    periods = []
    for (start, stop), alpha in zip(lats.arms, lats.invariants.alphas):
        arm = subject.run(start, stop)
        periods.append(verify._arm_period(arm, start, e, alpha, lats.plus.nonzero_cols,
                                          subject.reach()))
        assert periods[-1] == arm_period_by_applications(arm, e, alpha)
    report = check_orbit_formulas(subject, 6)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_arm_period",
                      lambda arm, start, e, alpha, *_: arm_period_by_applications(arm, e, alpha))
        assert check_orbit_formulas(Subject(lats), 6).witness == report.witness
    return periods


# E8's V_minus basis: arms {0}, {1, 2}, {3, 4, 5, 6}, then E at 7
@pytest.mark.parametrize("i, j, x, periods", [
    (4, 5, 0, [2, 3, 3]),        # an arm edge deleted: E moves on a shorter chain
    (6, 7, 0, [2, 3, 1]),        # an arm detached from E, which it fixes
    (1, 2, 2, [2, None, 5]),     # an arm edge set to 2: no period up to alpha
    (0, 7, 2, [2, 3, 5]),        # an arm end paired with E by 2
    (3, 7, 1, [2, 3, 5]),        # an interior arm vertex joined to E
    (0, 3, 1, [2, 3, 5]),        # two arms joined
])
def test_arm_periods_on_edited_e8(i, j, x, periods):
    assert assert_arm_periods_are_applications(edited_lattices(E8, i, j, x)) == periods


LINKS = {"deleted": 0, "two": 2, "minus one": -1}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_arm_periods_are_alpha_applications(data):
    """On valid stars, and on their Grams with an arm edge deleted or set to
    2 or -1, an arm top's pairing with E set to -1 or 2 or with a vertex of
    its arm below its neighbour set to 1, or any V_minus entry flipped
    between 0 and 1, each arm period, by the unit-chain lemma or by
    differences, is that of alpha applications, periods below alpha, 1 and
    none included."""
    inv = data.draw(valid_stars())
    lats = build(inv)
    edit = data.draw(st.sampled_from([*LINKS, "top", "flipped", "none"] if inv.alphas else ["none"]))
    if edit == "flipped":
        lats = flipped_lattices(inv, *draw_entry(data, inv))
    elif edit == "top":
        start, stop = data.draw(st.sampled_from(lats.arms))
        below = data.draw(st.sampled_from([*range(start, stop - 2), lats.center]))
        lats = edited_lattices(inv, below, stop - 1,
                               1 if below < stop else data.draw(st.sampled_from((-1, 2))))
    elif edit != "none":
        start, stop = data.draw(st.sampled_from(lats.arms))
        i = data.draw(st.integers(start, stop - 1))  # the edge to i + 1, or the end's to E
        lats = edited_lattices(inv, i, i + 1 if i + 1 < stop else lats.center, LINKS[edit])
    assert_arm_periods_are_applications(lats)


def test_arm_periods_where_the_chain_lemma_breaks():
    """Each link of the long arm of E8, E12 and D10 in turn set to 2, -1 or
    0, and its top paired with E by -1 or 2 or with each vertex below its
    neighbour by 1: the period by the unit-chain lemma where it still holds
    (the top paired with E by x != 0 gives alpha_i) and by differences where
    not is that of alpha applications."""
    for inv in (E8, E12, catalog("D10")):
        lats = build(inv)
        start, stop = lats.arms[-1]
        edits = [(i, i + 1, x) for i in range(start, stop - 1) for x in LINKS.values()]
        edits += [(stop - 1, lats.center, x) for x in (-1, 2)]
        edits += [(i, stop - 1, 1) for i in range(start, stop - 2)]
        for i, j, x in edits:
            assert_arm_periods_are_applications(edited_lattices(inv, i, j, x))


def test_arm_periods_take_linear_steps_on_d898(monkeypatch):
    """(c) on D898, arms of alpha 2, 2 and 896, reads the pairings of 3 word
    steps, where alpha applications of each arm take sum alpha_i (alpha_i -
    1) = 801,924 and the difference walk 4,475.  Every arm is a unit chain
    (_unit_chain, which reads each step's last pairing by index, not by
    iterating its pairs), so each arm reads only its top's pairings, once,
    for x, the top's pairing with E, which makes the period alpha_i."""
    steps = []

    class CountedPairs(tuple):
        def __iter__(self):
            steps.append(None)
            return super().__iter__()

    real = verify._arm_period
    monkeypatch.setattr(verify, "_arm_period", lambda arm, *args: real(
        tuple((i, CountedPairs(pairs)) for i, pairs in arm), *args))
    assert check_orbit_formulas(Subject(build(catalog("D898"))), 1).passed
    assert len(steps) == 3


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


def test_descent_names_the_first_discrepancy_over_every_column():
    """E-u's pairing with each V_minus vertex in turn set to -1, 0 or 1, on
    E8, E12 and D6, with (a) skipped: (b) compares column by column, and
    its witness is the first of the dense products over every column."""
    for lats in map(build, (E8, E12, catalog("D6"))):
        for j, x in itertools.product(range(lats.f_index), (-1, 0, 1)):
            edited = with_e_minus_u_entry(lats, j, x)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(verify, "_touched", lambda word, rank: [])
                w = check_orbit_formulas(Subject(edited), 10).witness
            expected = descent_witness(edited)
            if expected is None:
                assert w is None or w["identity"] != "tau_0 == tau_1 ... tau_r"
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
    """verify_lattices runs a suffix of V_plus's word at most once per
    distinct column of the three tau, rank(V_plus) + r + 2 columns, where
    V_minus adds the columns of E and its r arm ends and V_zero the column
    of E-u.  The sum (alpha_i - 2) arm vertices below their tops take the
    shift lemma and run nothing, so 2r + 5 columns run, the border columns:
    rank(V_plus) = sum (alpha_i - 1) + 3.  No column fails, so the dense
    form is never built."""
    applied, dense = [], []
    real_run = verify._run_to_floor
    monkeypatch.setattr(verify, "_run_to_floor", lambda *args: applied.append(None) or real_run(*args))
    real_form = verify.asym_form_matrix
    monkeypatch.setattr(verify, "asym_form_matrix", lambda lat: dense.append(lat) or real_form(lat))
    for name in catalog_names():
        lats = build(catalog(name))
        applied.clear()
        assert all(report.passed for report in verify_lattices(lats, 30))
        inv = lats.invariants
        shifted = sum(alpha - 2 for alpha in inv.alphas)
        assert len(applied) == lats.plus.rank + inv.r + 2 - shifted == 2 * inv.r + 5
    assert dense == []


def padded_columns(word, rank, n):
    """The word applied to each e_j of rank ``rank``, padded with zeros to n
    and cut back to rank."""
    return [apply_word(word, col + [0] * (n - rank))[:rank] for col in identity_matrix(rank)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stopped_columns_are_the_whole_run(data):
    """Last-step lemma: on valid stars and on flipped Grams, each column of
    the three tau, stopped at its floor low, is the lattice's whole word
    applied to e_j, and it is zero outside rows low..top, with low <= j <=
    top: its window, rows low..top, padded with zeros is the whole column."""
    if data.draw(st.booleans()):
        lats = build(data.draw(valid_stars()))
    else:
        inv = data.draw(st.sampled_from(FLIP_INPUTS))
        lats = flipped_lattices(inv, *draw_entry(data, inv))
    subject = Subject(lats)
    n = lats.plus.rank
    for which in ("minus", "zero", "plus"):
        rank = getattr(lats, which).rank
        whole = padded_columns(subject.word(which), rank, n)
        for j, (start, low, top, window) in enumerate(subject.columns(which)):
            assert low <= j <= top and len(window) == top + 1 - low
            assert [0] * low + window + [0] * (rank - 1 - top) == whole[j]


class PerStepSubject(Subject):
    """A subject whose every tau column steps to its floor: no zero-arm path."""

    def arm_block(self):
        return None


def test_columns_stopped_above_their_floor_fail_identities():
    """A column run stopped at the reach of its own coordinate, with no
    nonzero lowering its floor, is right in its window and zero below it,
    where tau e_j is not: only the rows of A tau e_j below low, which the
    residual compares as well, see it.  Identities names the first wrong
    entry of the first tau that is wrong: tau_minus on the per-step path.
    On the zero-arm path the fill lowers the floor itself, so the columns
    that go wrong are arm runs whose nonzeros reach below j, such as
    V_zero's top of a long arm, which is -1 down the arm."""
    real = verify._run_to_floor
    for name, kind in itertools.product(("E8", "D10", "E12"), (PerStepSubject, Subject)):
        subject = kind(build(catalog(name)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(verify, "_run_to_floor", lambda word, pos, reach, v, low: real(
                word, pos, [len(reach)] * len(reach), v, low))
            w = check_identities(subject).witness
        lats = subject.lats
        honest = {which: mat_transpose(reflection_product_naive(lat.gram, range(lat.rank)))
                  for which, lat in (("minus", lats.minus), ("zero", lats.zero), ("plus", lats.plus))}
        which = next(which for which in honest if subject.coxeter(which) != honest[which])
        assert which == "minus" or kind is Subject
        assert w is not None and w["identity"] == f"coxeter({which}) == -A^-1 A^t"
        tau = subject.coxeter(which)
        i, j = w["index"]
        assert [i, j] == next([i, j] for j, (col, ok) in enumerate(zip(tau, honest[which]))
                              for i, (x, y) in enumerate(zip(col, ok)) if x != y)
        assert (w["got"], w["expected"]) == (tau[j][i], honest[which][j][i])


def with_top_pairs(lats, tops, j, x):
    """lats with the pairing of each arm top of ``tops`` (arm indices) with
    vertex j set to x in V_plus."""
    for arm in tops:
        lats = with_plus_entry(lats, lats.arms[arm][1] - 1, j, x)
    return lats


def assert_table_is_per_step(subject):
    lats = subject.lats
    gram = lats.plus.gram
    for which in ("minus", "zero", "plus"):
        rank = getattr(lats, which).rank
        assert subject.columns(which) == [column_by_steps(gram, rank, j) for j in range(rank)]


def arm_vertices(lats) -> list:
    """The arm vertices below their tops, whose columns take the shift
    lemma on a star; a vertex of the last arm where every arm is its top."""
    return [j for start, stop in lats.arms for j in range(start, stop - 1)] or [lats.center - 1]


@settings(max_examples=95, deadline=None)
@given(st.data())
def test_zero_arm_table_is_the_per_step_run(data):
    """Every table entry (start, low, top, window) of the three tau equals a
    per-step run's, on valid stars (also of many equal arms and of arms of
    alpha = 2), with one flipped V_minus entry or a deleted arm edge, with
    one edited V_plus entry or the tops' pairing with u-w edited, on the
    zero-arm path where its guard holds and the per-step one where not, and
    where an edit breaks the shift lemma at one arm vertex j below its top:
    its link to j + 1 set to 2 or -1 in V_plus, j + 1 paired with a vertex
    below j, or the V_minus word's first step given a read of j.  The
    corrupted word's column j is its whole word applied to e_j, and V_minus's
    other columns are the per-step runs."""
    case = data.draw(st.sampled_from(["star", "equal arms", "flipped", "edge deleted",
                                      "V_plus edited", "tops edited", "corrupted word"]))
    if case in ("star", "equal arms"):
        lats = build(data.draw(valid_stars() if case == "star" else equal_arm_stars()))
    else:
        inv = data.draw(st.sampled_from(FLIP_INPUTS))
        lats = build(inv)
        if case == "flipped":
            lats = flipped_lattices(inv, *draw_entry(data, inv))
        elif case == "edge deleted":
            start, stop = data.draw(st.sampled_from([arm for arm in lats.arms if arm[1] - arm[0] > 1]
                                                    or [(lats.center - 1, lats.center + 1)]))
            k = data.draw(st.integers(start, stop - 2))
            lats = edited_lattices(inv, k, k + 1, 0)
        elif case == "V_plus edited" and data.draw(st.booleans()):
            j = data.draw(st.integers(1, lats.plus.rank - 1))
            i = data.draw(st.integers(0, j - 1))
            lats = with_plus_entry(lats, i, j, data.draw(st.sampled_from((-1, 0, 1, 2))))
        elif case == "V_plus edited":  # one shift column broken
            j = data.draw(st.sampled_from(arm_vertices(lats)))
            i, x = data.draw(st.sampled_from([(j, 2), (j, -1), *((i, 1) for i in range(j))]))
            lats = with_plus_entry(lats, i, j + 1, x)
        elif case == "tops edited":
            tops = data.draw(st.sets(st.integers(0, len(lats.arms) - 1), min_size=1))
            j = data.draw(st.sampled_from((lats.f_index, lats.f_index + 1)))
            lats = with_top_pairs(lats, tops, j, data.draw(st.sampled_from((0, 1, 2))))
        else:
            subject = CorruptedMinusWord(lats)
            subject.k = k = data.draw(st.sampled_from(arm_vertices(lats)))
            n, rank = lats.plus.rank, lats.minus.rank
            whole = padded_columns(subject.word("minus"), rank, n)
            columns = list(subject.columns("minus"))
            _, low, top, window = columns.pop(k)
            assert [0] * low + window + [0] * (rank - 1 - top) == whole[k]
            assert columns == [column_by_steps(lats.plus.gram, rank, j) for j in range(rank) if j != k]
            return
    assert_table_is_per_step(Subject(lats))


def test_zero_arm_guard_refuses_tops_that_pair_apart():
    """On E8 the zero-arm path takes the columns where every top pairs with
    E, E-u and u-w alike, and refuses them where one top pairs with u-w and
    the others do not, or pairs with E-u apart: the per-step run stays.
    Each table is the per-step run's."""
    lats = build(E8)
    u_w = lats.f_index + 1
    for edited, guarded in ((lats, True), (with_top_pairs(lats, (0, 1, 2), u_w, 1), True),
                            (with_top_pairs(lats, (1,), u_w, 1), False),
                            (with_top_pairs(lats, (2,), lats.f_index, 2), False)):
        subject = Subject(edited)
        assert (subject.arm_block() is not None) == guarded
        assert_table_is_per_step(subject)


def test_shift_columns_refused_where_the_lemma_breaks():
    """Each edit breaks the shift lemma at one vertex j below the top of the
    long arm of E8 and of D10, in V_plus and so in V_minus: the link of j
    and j + 1 set to 2 or -1, or j + 1 paired by 1 with j - 1 or with
    vertex 0, the first arm's top.  Column j of tau_minus is then not
    e_(j+1), the guard refuses it, and every table entry is the per-step
    run's."""
    for inv in (E8, catalog("D10")):
        lats = build(inv)
        start, stop = lats.arms[-1]
        for j in range(start, stop - 1):
            for i, x in ((j, 2), (j, -1), (j - 1, 1), (0, 1)):
                subject = Subject(with_plus_entry(lats, i, j + 1, x))
                assert subject.coxeter("minus")[j] != [int(k == j + 1) for k in range(lats.minus.rank)]
                assert_table_is_per_step(subject)


def test_identities_name_every_single_entry_error():
    """The residual alone decides tau == -A^-1 A^t, so that the dense solve
    runs only to name a failing entry: on E8 and on the Fuchsian star
    (2, 2, 3, 4) the honest table passes without it, and each table entry
    with one row of its window off by one, or with a 1 one row below its
    floor, fails the first lattice that reads it, named at that row and
    column.  Every row of A tau e_j, in an arm or not and below the floor or
    not, is compared."""
    solves, real = [], verify.coxeter_columns_via_form
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "coxeter_columns_via_form", lambda a: solves.append(None) or real(a))
        for inv in (E8, fuchsian_invariants((2, 2, 3, 4))):
            honest, solves[:] = Subject(build(inv)), []
            assert check_identities(honest).passed and solves == []
            for which in ("minus", "zero", "plus"):
                tau = honest.coxeter(which)
                for j in honest.own(which):
                    start, low, top, window = honest.columns(which)[j]
                    for i in range(max(low - 1, 0), top + 1):
                        subject = Subject(build(inv))
                        table = subject._once("columns", subject._table)
                        edited = [0] * (low - i) + window
                        edited[max(i - low, 0)] += 1
                        table[which][0][j] = start, min(i, low), top, edited
                        w = check_identities(subject).witness
                        assert w == {"identity": f"coxeter({which}) == -A^-1 A^t", "index": [i, j],
                                     "expected": tau[j][i], "got": tau[j][i] + 1}


def test_star_paths_build_no_dense_gram(monkeypatch, capsys):
    """verify_lattices on D898 (rank 900), and charpoly, poincare and hilbert
    on a Fuchsian triple, read the Gram's rows only: none builds the dense
    view."""
    built = []
    real = Lattice.__dict__["gram"].func
    monkeypatch.setattr(Lattice, "gram", property(lambda lat: built.append(lat.rank) or real(lat)))
    assert all(report.passed for report in verify_lattices(build(catalog("D898")), 200))
    for command in ("charpoly", "poincare", "hilbert"):
        assert main([command, "--fuchsian", "2,3,7"]) == 0
    assert built == []


def column_runs(monkeypatch, subject) -> list:
    """Build the three tau's columns of subject and return, for each column
    run, (len(word) - pos, the index of its first step, the word steps it
    applies): every step a run reads the pairs of, by _run_to_floor or by
    apply_word."""
    runs, steps, counted = [], [], {}

    class CountedPairs(tuple):
        def __iter__(self):
            steps.append(None)
            return super().__iter__()

    real = verify._column

    def column(word, j, pos, *args):
        if id(word) not in counted:
            counted[id(word)] = word, tuple((i, CountedPairs(pairs)) for i, pairs in word)
        before = len(steps)
        result = real(counted[id(word)][1], j, pos, *args)
        runs.append((len(word) - pos, word[pos][0] if pos < len(word) else j, len(steps) - before))
        return result

    monkeypatch.setattr(verify, "_column", column)
    for which in ("minus", "zero", "plus"):
        subject.columns(which)
    return runs


@pytest.mark.parametrize("name, applied, whole", [("D80", 83, 889), ("D898", 901, 9887)])
def test_tau_columns_stop_at_their_floor(monkeypatch, name, applied, whole):
    """The word steps the column runs of the three tau apply on D_n, arms of
    alpha 2, 2 and n - 2 (center n - 1): 83 on D80 and 901 on D898, where
    the same runs to index 0 would take 889 and 9,887.  Only the 2r + 5 = 11
    border columns run (the arm vertices below their tops take the shift
    lemma), each on the zero-arm path, which applies in full only the steps
    of j's own arm: V_minus's tops 1, 1 and 2 (the top and the vertex below,
    where the arm's floor stops it), V_zero's tops 1, 1 and n - 3, as each
    is -1 down its arm, and none for E, E-u and u-w.  Runs to index 0 take
    the rank of their lattice each: r + 1 in V_minus, of rank n, r + 2 in
    V_zero and 2 in V_plus."""
    runs = column_runs(monkeypatch, Subject(build(catalog(name))))
    n = int(name[1:])
    assert applied == (1 + 1 + 2) + (1 + 1 + n - 3) and whole == 4 * n + 5 * (n + 1) + 2 * (n + 2)
    assert (sum(steps for _, _, steps in runs), sum(suffix for suffix, _, _ in runs)) == (applied, whole)


def test_border_columns_of_300_arms_take_linear_steps(monkeypatch):
    """Zero-arm lemma: on the star of 299 arms with alpha = 3 and one with
    alpha = 300 (rank 900) the 2r + 5 = 605 border columns, the runs from a
    step of index center or above, apply in full only the steps of j's own
    arm, 2r + center = 1,497 word steps, where the per-step runs apply
    543,296: each top's 2 in V_minus (the top, which computes 0, and the
    vertex below it, where the arm's own floor stops the run), and each
    top's whole arm in V_zero, as it is -1 down the arm, center steps in
    all.  The at most three steps before the arm block are read once per
    word (_heads), and each column reads of them only its pairings from
    center on and the one with j."""
    subject = Subject(build(fuchsian_invariants([3] * 299 + [300])))
    r, center = 300, subject.lats.center
    border = [steps for _, first, steps in column_runs(monkeypatch, subject) if first >= center]
    assert (len(border), sum(border)) == (2 * r + 5, 2 * r + center) == (605, 1497)


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


def count_word_calls(monkeypatch) -> list:
    """Record each reflection_word call of verify and series as (module,
    rank); one of series is the word of a walk."""
    words = []
    for module in (verify, series):
        real = module.reflection_word
        monkeypatch.setattr(module, "reflection_word", lambda lat, indices, module=module, real=real:
                            words.append((module.__name__, lat.rank)) or real(lat, indices))
    return words


def test_stars_build_one_word_and_walk_none(monkeypatch):
    """verify_lattices builds V_plus's word in Subject and no other on every
    catalog star, whose walk runs its arms as delay lines and walks no
    word.  A roster control, E8 with an arm edge deleted, is off the star
    shape: its walk builds V_zero's word, once."""
    words = count_word_calls(monkeypatch)
    for name in catalog_names():
        lats = build(catalog(name))
        words.clear()
        assert all(report.passed for report in verify_lattices(lats, 30))
        assert words == [("coxlat.verify", lats.plus.rank)]
    lats = broken_e8_lattices()
    words.clear()
    assert not verify_lattices(lats, 30)[0].passed
    assert sorted(words) == [("coxlat.series", lats.zero.rank), ("coxlat.verify", lats.plus.rank)]


def test_one_decode_per_subject(monkeypatch, capsys):
    """verify_lattices on D80 decodes V_minus's star shape once, in
    Subject.star, for the walk and the identities' closed-form guard alike;
    hilbert, which has no Subject, decodes V_zero's leading block itself."""
    decoded = []
    for module in (star, verify, series):
        real = module.decode_star
        monkeypatch.setattr(module, "decode_star",
                            lambda lat, real=real: decoded.append(lat.rank) or real(lat))
    lats = build(catalog("D80"))
    assert all(report.passed for report in verify_lattices(lats, 200))
    assert decoded == [lats.minus.rank]
    decoded.clear()
    assert main(["hilbert", "--name", "D80", "--order", "20"]) == 0
    assert decoded == [lats.minus.rank]
    capsys.readouterr()


@st.composite
def stars_of_equal_arms(draw):
    """Zero to eight arms whose alphas take one to three values, so that
    most arms share their length with others."""
    values = draw(st.lists(st.integers(2, 12), min_size=1, max_size=3, unique=True))
    alphas = sorted(draw(st.lists(st.sampled_from(values), max_size=8)))
    try:
        kind = classify_alphas(alphas)
    except NeitherKind:
        assume(False)
    return (kleinian_invariants if kind is SingularityKind.KLEINIAN else fuchsian_invariants)(alphas)


@settings(max_examples=40, deadline=None)
@given(stars_of_equal_arms())
def test_delay_lines_give_the_word_walk_of_e_minus_u(inv):
    """P of (V_zero, E) by the delay lines equals P of (V_zero, E-u) by the
    reflection word, to order 300.  Every reflection fixes the
    radical vector u: s_i(u) = u + <u, e_i> e_i = u.  So tau^l (E-u) =
    tau^l E - u, and <E-u, tau^l (E-u)> = <E, tau^l E>, since <u, -> = 0:
    P(E-u) = P(E)."""
    lats = build(inv)
    with pytest.MonkeyPatch.context() as patch:
        words = count_word_calls(patch)
        by_lines = hilbert_P(lats.zero, lats.center, 300)
        assert words == []
        by_word = hilbert_P(lats.zero, lats.f_index, 300)
        assert words == [("coxlat.series", lats.zero.rank)]
    assert by_lines == by_word


def test_off_shape_zero_grams_walk_the_word():
    """E8's V_zero rooted at E, off the star shape in three ways: E-u not
    paired with e_0, the end of arm 1 (an edited E-u row); the arm edge
    (4, 5) deleted; and that edge set to -1.  Each walk builds the
    reflection word and gives P of the naive orbit."""
    lats = build(E8)
    for zero in (with_e_minus_u_entry(lats, 0, 0).zero, flipped_lattices(E8, 4, 5).zero,
                 with_plus_entry(lats, 4, 5, -1).zero):
        with pytest.MonkeyPatch.context() as patch:
            words = count_word_calls(patch)
            walk = hilbert_P(zero, lats.center, 60)
        assert words == [("coxlat.series", zero.rank)]
        tau = reflection_product_naive(zero.gram, range(zero.rank))
        assert walk.coeffs == tuple(accumulate(naive_orbit_pairings(zero, tau, lats.center, 60),
                                               initial=1))


def test_hilbert_gram_off_the_star_shape_prints_the_naive_orbit():
    """hilbert --gram on two Grams whose walks take the reflection word, off
    the V_zero star shape at E: E8's V_zero at --root E-u, and its V_plus at
    --root E.  Each exits 0 and prints P of the naive orbit."""
    lats = build(E8)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gram.json"
        for lat, root in ((lats.zero, lats.f_index), (lats.plus, lats.center)):
            extra = ["--root", str(root)]
            path.write_text(json.dumps(lat.to_json()))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["hilbert", "--gram", str(path), "--series", "P", "--order", "30",
                             "--format", "json", *extra])
            assert code == 0
            tau = reflection_product_naive(lat.gram, range(lat.rank))
            forward = naive_orbit_pairings(lat, tau, root, 30)
            assert json.loads(out.getvalue())["P"]["coeffs"] == list(accumulate(forward, initial=1))


@pytest.mark.parametrize("name", ["A1", "D4", "E8", "E12"])
def test_hilbert_gram_without_root_walks_a_zero_star_at_e(monkeypatch, capsys, name):
    """hilbert --gram with no --root roots a Gram of V_zero's star shape at
    E, whose walk runs as delay lines and builds no word, and prints what
    --root E-u prints by the word, since P(E-u) = P(E).  Any other Gram
    keeps its last vertex: V_plus of the same star, rooted at u-w, walks
    its word."""
    lats = build(catalog(name))
    words = count_word_calls(monkeypatch)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gram.json"
        outputs = []
        for lat, extra in ((lats.zero, []), (lats.zero, ["--root", str(lats.f_index)]),
                           (lats.plus, []), (lats.plus, ["--root", str(lats.plus.rank - 1)])):
            path.write_text(json.dumps(lat.to_json()))
            words.clear()
            assert main(["hilbert", "--gram", str(path), "--order", "40", "--format", "json",
                         *extra]) == 0
            outputs.append((capsys.readouterr().out, words[:]))
    assert outputs[0] == (outputs[1][0], [])
    assert outputs[1][1] == [("coxlat.series", lats.zero.rank)]
    assert outputs[2] == outputs[3] and outputs[2][1] == [("coxlat.series", lats.plus.rank)]


def test_hilbert_gram_without_root_reads_the_star_shape_once(monkeypatch, capsys):
    """hilbert --gram with no --root reads the star shape once, at rank - 2,
    for the root and the walk alike: E8's V_zero is rooted at E there, and
    its V_plus, off that shape, at its last vertex."""
    calls = []
    real = series._star_arms
    monkeypatch.setattr(series, "_star_arms", lambda lat, root: calls.append(root) or real(lat, root))
    lats = build(E8)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gram.json"
        for lat in (lats.zero, lats.plus):
            path.write_text(json.dumps(lat.to_json()))
            calls.clear()
            assert main(["hilbert", "--gram", str(path), "--order", "10"]) == 0
            assert calls == [lat.rank - 2]
    capsys.readouterr()


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

    def test_default_roster_is_pinned(self):
        """suite_inputs() at the default seed and count: the catalog, then
        these 50 Fuchsian tuples, which the golden roster and the benchmark
        also assume."""
        roster = """
            2,3,4,8,12 2,4,5 5,6,10 4,7,8,11,11 3,4,9,11 6,7,7,12 2,4,11 3,6,10,12
            3,5,10,11,11 2,5,7,11 5,7,8 3,7,11,12 6,6,7,9,10 3,6,11 3,11,11 6,6,7
            3,4,7,10 6,7,11 4,9,11,12 4,7,10 12,12,12 3,3,4,10,10 4,5,9,9,11
            7,7,11,12 2,2,4,9 2,2,5,6,11 3,6,8,9,11 2,3,10,11 7,10,12 6,11,12
            8,8,10,10,10 6,11,11,12 2,5,8,9,12 4,6,7,10,12 9,10,10,10 4,7,11,12
            3,3,6,7,11 4,5,8,11 2,6,9,12 2,3,5,8 4,4,6,9,12 3,7,7,11 2,3,6,9,9
            4,6,7,8,10 2,5,8,8,8 3,6,7,11,12 4,5,6,8,9 3,8,11 7,8,9,11 2,2,10,10,12
        """.split()
        assert [label for label, _ in suite_inputs()] == list(catalog_names()) + [
            f"random#{i}:fuchsian({alphas})" for i, alphas in enumerate(roster, start=1)]

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
