"""The mutant roster: each shortcut in the checks, broken on purpose, and the
named checks that catch it.

A row names a mutant, the binding it patches (module or class, attribute)
and what must follow on the catalog plus 10 seeded random inputs at order
60: the count of inputs on which each check fails, or the exception that
every input raises.  A mutant inside a function wraps that function's
output, or its input at a binding the function calls, such as the readout
rows the walk hands to compile_word.  A row that fails nowhere is an
equivalent mutant and says why, unless a unit test catches it on an
edited input, which the row then names.  A shortcut added later adds its
row here.
"""

from dataclasses import dataclass
from itertools import accumulate

import pytest

import test_verify
from coxlat import lattice, series, verify
from coxlat.cli import main
from coxlat.errors import RouteMismatch
from coxlat.exact import PowerSeries, poly_add
from coxlat.star import SingularityKind, build
from coxlat.verify import Subject, suite_inputs, verify_lattices

ORDER = 60
INPUTS = suite_inputs(n_random=10)
CHECKS = ("theorem", "orbit-series", "orbit-formulas", "identities")
WITNESS_KEYS = {"identity", "index", "expected", "got"}


def leaf_sign_flipped(real):
    """Delta_plus by the leaf rule with +t g^2 Delta_minus for -t g^2 Delta_minus."""
    def mutant(lat, center):
        deltas = real(lat, center)
        if deltas is None:
            return None
        minus, zero, plus = deltas
        return [minus, zero, poly_add(plus, minus, 2 * lat.gram[-1][-2] ** 2, 1)]
    return mutant


def twin_factor_plus(real):
    """The twin rule D_{k+1} = (1+t)^2 D_{k-1} for (1-t)^2 D_{k-1}."""
    return lambda a, b: real([1, 2, 1] if a == [1, -2, 1] else a, b)


def q_is_minus_p_k(real):
    """Q_k = -P_k for -P_{k+1}."""
    return lambda walk: (PowerSeries(walk.coeffs[:-1]),
                         PowerSeries(tuple(-c for c in walk.coeffs[:-1])))


def fuchsian_k1_slot_one(real):
    """The Fuchsian k = 1 coefficient 1 + deg D^(1) = 1 for dim L(D_0) = g = 0."""
    def mutant(inv, kind, order):
        coeffs = list(real(inv, kind, order).coeffs)
        if kind is SingularityKind.FUCHSIAN and order >= 1:
            coeffs[1] = 1
        return PowerSeries(tuple(coeffs))
    return mutant


def walk_form_plus_g(real):
    """The walk's form functional (e, x) = x_e + sum_{j > e} g_j x_j."""
    return lambda word, readout: real(
        word, [readout[0][:1] + [(j, -x) for j, x in readout[0][1:]], readout[1]])


def walk_pairing_without_diagonal(real):
    """The walk's pairing <e, x> without its -2 x_e term."""
    def mutant(word, readout):
        form, pairing = readout
        return real(word, [form, [(j, x) for j, x in pairing if j != form[0][0]]])
    return mutant


def scaled_delta_one_short(real):
    """(1-t)^(r-3) Delta for (1-t)^(r-2) Delta: the output divided by 1 - t
    by its prefix sums, exact since (1-t)^(r-2) Delta vanishes at t = 1."""
    def mutant(subject, which):
        p = real(subject, which)
        if subject.lats.invariants.r <= 2:
            return p
        *q, rest = accumulate(p)
        assert rest == 0
        return q
    return mutant


def prefix_word_one_step_short(real):
    """Each lattice's word as the run 0..rank-2 of V_plus's word, without the
    step of its last index."""
    return lambda subject, which: real(subject, which)[1:]


def arm_run_one_step_long(real):
    """An arm run with the step of the next index too.  Only the arm runs end
    at or before E; the words and the pair s_E s_{E-u} end past it."""
    def mutant(subject, start, stop):
        return real(subject, start, stop + 1 if stop <= subject.lats.center else stop)
    return mutant


def column_one_step_late(real):
    """Each tau column from the step after the first that touches its coordinate."""
    return lambda word, rank: [min(pos + 1, len(word)) for pos in real(word, rank)]


def first_touched_column_dropped(real):
    """(a) without the first column that s_E s_{E-u} reads or writes."""
    return lambda word, rank: real(word, rank)[1:]


@dataclass(frozen=True)
class Row:
    name: str
    owner: object
    attribute: str
    mutant: object      # the real binding -> its mutant
    fails: dict         # check -> number of inputs it fails on
    raises: type = None
    why_equivalent: str = ""
    caught_by: str = ""  # a test in test_verify that fails under the mutant


ROSTER = [
    Row("leaf sign of Delta_plus flipped", verify, "star_char_polys", leaf_sign_flipped,
        {"theorem": 11, "orbit-series": 29, "identities": 29}),
    Row("twin factor (1+t)^2", lattice, "poly_mul", twin_factor_plus,
        {"theorem": 29, "orbit-series": 29, "identities": 29}),
    Row("Q = -P_k in p_and_q", verify, "p_and_q", q_is_minus_p_k, {"orbit-series": 29}),
    Row("Fuchsian k = 1 slot of poincare_direct set to 1", verify, "poincare_direct",
        fuchsian_k1_slot_one, {"theorem": 11}),
    Row("walk form functional with +g", series, "compile_word", walk_form_plus_g, {},
        raises=RouteMismatch),
    Row("walk pairing without its -2 diagonal", series, "compile_word",
        walk_pairing_without_diagonal, {}, raises=RouteMismatch),
    Row("_scaled_delta one difference short", Subject, "_scaled_delta", scaled_delta_one_short, {},
        why_equivalent="a common factor m of both Deltas with m(0) = 1 leaves their quotient "
                       "unchanged: (1-t)^(r-3) serves as well as (1-t)^(r-2)"),
    Row("prefix word one step short", Subject, "word", prefix_word_one_step_short,
        {"identities": 29}),
    # A1 has no arms
    Row("arm run one step long", Subject, "run", arm_run_one_step_long, {"orbit-formulas": 28}),
    Row("tau column one step late", verify, "_first_steps", column_one_step_late,
        {"identities": 29}),
    # s_E s_{E-u} is the identity on every roster star; an edited V_zero moves e_j
    Row("first touched column of (a) dropped", verify, "_touched", first_touched_column_dropped,
        {}, caught_by="test_zero_gram_off_an_arm_end_fails_pair_run_at_its_column"),
]


def apply(monkeypatch, row) -> list:
    """Patch the row's binding with its mutant; the returned list counts the
    mutant's calls, so a row whose binding nothing calls cannot pass."""
    calls = []
    mutant = row.mutant(getattr(row.owner, row.attribute))

    def counted(*args):
        calls.append(None)
        return mutant(*args)

    monkeypatch.setattr(row.owner, row.attribute, counted)
    return calls


@pytest.mark.parametrize("row", ROSTER, ids=[row.name for row in ROSTER])
def test_named_checks_catch_mutant(monkeypatch, row):
    calls = apply(monkeypatch, row)
    failed = dict.fromkeys(CHECKS, 0)
    for subject, inv in INPUTS:
        if row.raises:
            with pytest.raises(row.raises):
                verify_lattices(build(inv), ORDER, subject)
            continue
        for report in verify_lattices(build(inv), ORDER, subject):
            assert report.passed == (report.witness is None)
            if not report.passed:
                assert set(report.witness) == WITNESS_KEYS
                failed[report.check] += 1
    assert calls
    assert {check: n for check, n in failed.items() if n} == row.fails
    if row.caught_by:
        with pytest.raises(AssertionError):
            getattr(test_verify, row.caught_by)()
    assert bool(row.fails or row.raises or row.caught_by) != bool(row.why_equivalent)


def test_mutant_fails_verify_all(monkeypatch, capsys):
    apply(monkeypatch, ROSTER[0])
    assert main(["verify", "--all", "--random", "10", "--order", str(ORDER)]) == 1
    failures = sum(ROSTER[0].fails.values())
    assert capsys.readouterr().out.endswith(f"{failures} of {4 * len(INPUTS)} checks FAILED\n")
