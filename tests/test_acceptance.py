"""Acceptance suite: one test per criterion, exact integer equality throughout.

Each test prints a single pass/fail line (bypassing pytest's capture) so a
plain ``pytest -v`` run shows the criterion results inline.
"""

import random
import time
from fractions import Fraction

import pytest

from coxlat.errors import NeitherKind
from coxlat.exact import series_equal, series_from_rational
from coxlat.lattice import Lattice, char_poly, coxeter_matrix
from coxlat.series import hilbert_Q, poincare_direct
from coxlat.star import (
    SingularityKind,
    build,
    catalog,
    fuchsian_invariants,
    kleinian_invariants,
    lattices_from_minus,
    validate,
)
from coxlat.verify import (
    DEFAULT_SEED,
    Subject,
    check_identities,
    check_orbit_formulas,
    check_orbit_series,
    suite_inputs,
    verify_lattices,
)

from oracles import conv, hypersurface_dims, matrix_order


@pytest.fixture
def announce(capsys):
    def _announce(number, ok, text):
        with capsys.disabled():
            print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {text}")

    return _announce


def theorem_sides(lats, order):
    top = getattr(lats, lats.kind.top)
    quotient = series_from_rational(
        char_poly(coxeter_matrix(top)), char_poly(coxeter_matrix(lats.zero)), order
    )
    direct = poincare_direct(lats.invariants, lats.kind, order)
    return quotient, direct


KLEINIAN_SET = (
    [kleinian_invariants(())]
    + [kleinian_invariants((a, a)) for a in range(2, 7)]
    + [kleinian_invariants((2, 2, n)) for n in range(2, 11)]
    + [kleinian_invariants((2, 3, 3)), kleinian_invariants((2, 3, 4)), kleinian_invariants((2, 3, 5))]
)


def test_criterion_1_theorem_kleinian(announce):
    order = 200
    started = time.perf_counter()
    failures = []
    for inv in KLEINIAN_SET:
        quotient, direct = theorem_sides(build(inv), order)
        ok, k = series_equal(quotient, direct)
        if not ok:
            failures.append((inv.describe(), k))
    elapsed = time.perf_counter() - started
    announce(
        1,
        not failures,
        f"Kleinian quotient == divisor series, exact to order {order} on "
        f"{len(KLEINIAN_SET)} inputs ({elapsed:.2f} s)",
    )
    assert not failures, failures


def fuchsian_triples():
    return [
        (a, b, c)
        for a in range(2, 13)
        for b in range(a, 13)
        for c in range(b, 13)
        if Fraction(1, a) + Fraction(1, b) + Fraction(1, c) < 1
    ]


def random_fuchsian_with_arms(rng, arms):
    """A random valid genus-0 Fuchsian tuple with ``arms`` arms, alpha <= 12;
    the draws of coxlat.verify.random_fuchsian_invariants once it has
    chosen the arm count."""
    while True:
        alphas = sorted(rng.randint(2, 12) for _ in range(arms))
        if sum(Fraction(1, a) for a in alphas) < arms - 2:
            return fuchsian_invariants(alphas)


def test_criterion_2_theorem_fuchsian(announce):
    order = 200
    started = time.perf_counter()
    inputs = [fuchsian_invariants(t) for t in fuchsian_triples()]
    rng = random.Random(DEFAULT_SEED)
    inputs += [random_fuchsian_with_arms(rng, 4) for _ in range(10)]
    inputs += [random_fuchsian_with_arms(rng, 5) for _ in range(10)]
    failures = []
    for inv in inputs:
        quotient, direct = theorem_sides(build(inv), order)
        ok, k = series_equal(quotient, direct)
        if not ok:
            failures.append((inv.describe(), k))
    elapsed = time.perf_counter() - started
    announce(
        2,
        not failures,
        f"Fuchsian quotient == divisor series, exact to order {order} on "
        f"{len(inputs)} inputs ({elapsed:.2f} s)",
    )
    assert not failures, failures


HYPERSURFACES = [
    ("E6", catalog("E6"), (3, 4, 6), 12),
    ("E7", catalog("E7"), (4, 6, 9), 18),
    ("E8", catalog("E8"), (6, 10, 15), 30),
    ("A3", catalog("A3"), (1, 2, 2), 4),
    ("A1", catalog("A1"), (1, 1, 1), 2),
    ("E12", fuchsian_invariants((2, 3, 7)), (6, 14, 21), 42),
]


def test_criterion_3_hypersurface_oracle(announce):
    order = 100
    failures = []
    for name, inv, weights, degree in HYPERSURFACES:
        direct = poincare_direct(inv, validate(inv), order)
        counted = hypersurface_dims(weights, degree, order)
        if list(direct.coeffs) != counted:
            k = next(i for i, (x, y) in enumerate(zip(direct.coeffs, counted)) if x != y)
            failures.append((name, "monomial count", k))
        expansion = series_from_rational(
            [1] + [0] * (degree - 1) + [-1],
            _product_of_cyclotomic_denominators(weights),
            order,
        )
        ok, k = series_equal(direct, expansion)
        if not ok:
            failures.append((name, "rational expansion", k))
    announce(3, not failures, f"direct series matches weighted-monomial counts to order {order} "
                              f"on {len(HYPERSURFACES)} hypersurfaces")
    assert not failures, failures


def _product_of_cyclotomic_denominators(weights):
    den = [1]
    for w in weights:
        factor = [1] + [0] * (w - 1) + [-1]  # 1 - t^w
        den = conv(den, factor)
    return den


def test_criterion_4_orbit_series_quotients(announce):
    order = 100
    started = time.perf_counter()
    failures = []
    inputs = suite_inputs(n_random=50, seed=DEFAULT_SEED)
    for subject, inv in inputs:
        report = check_orbit_series(Subject(build(inv)), order)
        if not report.passed:
            failures.append((subject, report.witness))
    elapsed = time.perf_counter() - started
    announce(4, not failures,
             f"Q = minus/zero and P + t = plus/zero to order {order} on "
             f"{len(inputs)} inputs ({elapsed:.2f} s)")
    assert not failures, failures


def test_criterion_5_identity_suite(announce):
    k_max = 200
    started = time.perf_counter()
    failures = []
    inputs = suite_inputs(n_random=50, seed=DEFAULT_SEED)
    for subject, inv in inputs:
        for report in (check_orbit_formulas(Subject(build(inv)), k_max),
                       check_identities(Subject(build(inv)))):
            if not report.passed:
                failures.append((subject, report.check, report.witness))
    elapsed = time.perf_counter() - started
    announce(5, not failures,
             f"identity suite (divisor displays to k={k_max}) on {len(inputs)} inputs "
             f"({elapsed:.2f} s)")
    assert not failures, failures


def test_criterion_6_spot_values(announce):
    failures = []

    lats = build(kleinian_invariants((2, 3, 5)))
    tau_minus = coxeter_matrix(lats.minus)
    if char_poly(tau_minus) != [1, 1, 0, -1, -1, -1, 0, 1, 1]:
        failures.append("char poly of (2,3,5) Coxeter element")
    if matrix_order(tau_minus) != 30:
        failures.append("order of (2,3,5) Coxeter element")

    armless = build(kleinian_invariants(()))
    q = hilbert_Q(armless.zero, armless.center, 49)
    if q.coeffs != tuple(2 * k + 1 for k in range(50)):
        failures.append("Q of the armless V_zero")

    direct = poincare_direct(fuchsian_invariants((2, 3, 7)), SingularityKind.FUCHSIAN, 14)
    expected = tuple(1 if k in (0, 6, 12, 14) else 0 for k in range(15))
    if direct.coeffs != expected:
        failures.append("leading coefficients of the (2,3,7) direct series")

    announce(6, not failures, "spot values (char poly, Coxeter order, Q series, series head)")
    assert not failures, failures


def test_criterion_7_negative_controls(announce):
    failures = []

    lats = build(kleinian_invariants((2, 3, 5)))
    gram = lats.minus.gram_rows()
    gram[4][5] = gram[5][4] = 0  # delete one edge of the long arm
    broken = lattices_from_minus(
        Lattice(lats.minus.labels, tuple(tuple(r) for r in gram)),
        lats.invariants, lats.kind, lats.arms, lats.center,
    )
    quotient, direct = theorem_sides(broken, 60)
    ok, k = series_equal(quotient, direct)
    if ok or k is None:
        failures.append("deleted edge went unnoticed by the theorem check")
    report = verify_lattices(broken, order=60)[0]
    if report.passed or report.witness is None or not isinstance(report.witness["index"], int):
        failures.append("theorem report for the broken Gram lacks a witness index")

    try:
        validate(fuchsian_invariants((2, 3, 6)))
        failures.append("(2,3,6) was not rejected")
    except NeitherKind:
        pass
    try:
        validate(kleinian_invariants((2, 3, 6)))
        failures.append("Kleinian-pattern (2,3,6) was not rejected")
    except NeitherKind:
        pass

    announce(7, not failures, "negative controls (perturbed Gram fails with witness; "
                              "(2,3,6) rejected)")
    assert not failures, failures
