"""Machine verification of the series and Coxeter-element identities.

Each check is a generator of candidate witnesses, yielded in a fixed
order: None where an identity holds, or a dict with the identity, the
first discrepant index and the expected and computed values where it
fails.  run_check is the one place that times a check and builds its
VerificationReport: it pulls candidates until the first witness and never
runs the rest of the check, so a failing report always carries a witness.
The checks are pure, so a caller may fan them out over inputs freely;
run_suite evaluates the whole built-in roster plus seeded random Fuchsian
tuples in a deterministic order.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count, islice, repeat, zip_longest
from math import prod
from operator import sub

from .errors import NotAStarLattice
from .exact import PowerSeries, poly_add, poly_mul, series_equal, series_from_rational
from .lattice import (
    apply_word,
    asym_form_matrix,
    char_poly,
    coxeter_columns_via_form,
    reflection_word,
    star_char_polys,
)
from .series import divisor_degree, hilbert_P, p_and_q, poincare_direct
# Not called here; perfbench/spans.py wraps these bindings by attribute.
from .lattice import (coxeter_inverse_matrix, coxeter_matrix, coxeter_via_form,  # noqa: F401
                      identity_matrix, mat_det, mat_mul, mat_transpose, quotient_by_radical,
                      radical_basis, reflection_matrix, reflection_product)
from .series import hilbert_Q  # noqa: F401
from .star import (
    OrbitInvariants,
    SingularityKind,
    StarLattices,
    build,
    catalog,
    catalog_names,
    decode_star,
    fuchsian_invariants,
    validate,
)

DEFAULT_ORDER = 200
DEFAULT_SEED = 271828
DEFAULT_RANDOM_COUNT = 50


@dataclass
class VerificationReport:
    """Outcome of one named check on one input.

    elapsed is the wall time of the check.  It includes the shared work the
    check is the first to ask its Subject for, which later checks read from
    the memo: in the order of verify_lattices, orbit-formulas computes the
    columns of tau (all but two of V_plus's), and identities reads them."""

    check: str
    subject: str
    passed: bool
    order: int
    witness: dict | None
    elapsed: float

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "subject": self.subject,
            "status": "pass" if self.passed else "fail",
            "order": self.order,
            "witness": self.witness,
            "elapsed_ms": round(self.elapsed * 1000, 3),
        }

    def row(self) -> str:
        status = "pass" if self.passed else "FAIL"
        witness = "-" if self.witness is None else " ".join(
            f"{k}={v}" for k, v in self.witness.items())
        return (
            f"{self.check:<18} {self.subject:<24} {status:<5} "
            f"order={self.order:<4} {self.elapsed * 1000:7.1f} ms  {witness}"
        )


def subject_of(inv: OrbitInvariants, kind: SingularityKind) -> str:
    return f"{kind.value}({','.join(str(a) for a in inv.alphas)})"


def _first_steps(word, rank: int) -> list:
    """For each coordinate j < rank, the position in word of the first step
    that reads or writes it; len(word) where no step does."""
    first = [len(word)] * rank
    for pos in range(len(word) - 1, -1, -1):
        i, pairs = word[pos]
        for k in [i] + [j for j, _ in pairs]:
            if k < rank:
                first[k] = pos
    return first


def _touched(word, rank: int) -> list:
    """The coordinates j < rank that some step of word reads or writes, in
    order.  By the first-step lemma the word fixes e_j for every other j."""
    return [j for j, pos in enumerate(_first_steps(word, rank)) if pos < len(word)]


def _reach(word) -> list:
    """reach[k] for each coordinate k: the least of k and the indices k pairs
    with, read off word, which has one step per index, as V_plus's has.
    Pairing is symmetric, so no step below reach[k] reads k."""
    reach = [0] * len(word)
    for i, pairs in word:
        reach[i] = min([i] + [j for j, _ in pairs])
    return reach


def _run_to_floor(word, pos: int, reach, v, low: int) -> int:
    """Apply the steps of word from position pos on to v in place, stopping
    at the first step whose index is below low, and return low.  Each
    nonzero the run writes to v[i] lowers low to reach[i].

    Last-step lemma: low starts at most the reach of every nonzero of v, as
    reach[j] is for e_j, and each nonzero written lowers it to its own reach,
    so no nonzero v[k] ever pairs with an index below low.  The steps run in
    decreasing index order.  A step of index i below low finds v[i] = 0,
    since reach[i] <= i, and reads only zeros, so it writes 0 again: no step
    below low changes v, and the result is the whole run's.  Once low is 0
    no step lies below it, and the rest of the run goes to apply_word."""
    steps = islice(word, pos, None)
    for i, pairs in steps:
        if i < low:
            return low
        total = -v[i]
        for k, g in pairs:
            total += g * v[k]
        v[i] = total
        if total and reach[i] < low:
            low = reach[i]
            if not low:
                break
    apply_word(steps, v)
    return low


def _arm_period(arm, start: int, e, alpha: int, cols, reach):
    """The least k <= alpha with c^k e = e for the arm word c, or None.

    arm is the run of V_plus's word for the indices start..stop-1: it writes
    only those, and the step of index i is at position stop-1-i.  With
    d_1 = ce - e and d_k = c d_(k-1), c^k e = c^(k-1) e + d_k.  d_1 takes one
    application of the arm, and each later d_k a run of it on d_(k-1) in
    place, to its floor as in _run_to_floor, from the step of top, the
    largest index below stop that a nonzero of d_(k-1) pairs with (read off
    cols, V_plus's nonzero columns; no step above it touches d_(k-1)), or
    from the first step for d_2.  The run rewrites every coordinate from top
    down to its floor, where the nonzeros of d_(k-1) lie, so those it writes
    are d_k's: each is added into c^k e and sets the next top and floor.  On
    the chain of A_(alpha-1) d_k = -e_(start+k-2) from k = 2 on, so the runs
    of d_3 on take at most three steps each: O(alpha) steps for the arm,
    where alpha applications take alpha (alpha - 1)."""
    stop = start + len(arm)
    v = apply_word(arm, list(e))
    if v == e:
        return 1
    d = [0] * len(e)
    d[start:stop] = map(sub, v[start:stop], e[start:stop])
    top, low = stop - 1, 0
    for k in range(2, alpha + 1):
        if top < 0:
            return None  # d_(k-1) = 0, so every later c^k e is c^(k-2) e, not e
        steps, floor, top, low = islice(arm, stop - 1 - top, None), low, -1, len(reach)
        for i, pairs in steps:
            if i < floor:
                break
            total = -d[i]
            for j, g in pairs:
                total += g * d[j]
            d[i] = total
            if total:
                v[i] += total
                row = cols[i]
                top = max(top, row[bisect_left(row, stop) - 1])
                if reach[i] < low:
                    low = reach[i]
                    floor = min(floor, low)
        if v == e:
            return k
    return None


class Subject:
    """One input's star lattices and label, and what the checks and commands
    share, each computed at most once: V_plus's reflection word, the columns
    of the three tau, each Delta, the closed forms of the Deltas, the orbit
    walk of (V_zero, E) and each Delta quotient.

    V_minus and V_zero are basis prefixes of V_plus, which StarLattices cuts
    them from.  So one star_char_polys call on V_plus gives all three Deltas,
    with no tau; a Gram outside that shape falls back, lattice by lattice, to
    Berkowitz on the columns of tau, that is on tau^t, with the same
    characteristic polynomial.  And every other word is a run of V_plus's
    word: on a vector that is zero from index stop on, the steps for
    start..stop-1 read those coordinates as 0 and never write them, so they
    act as the word of the prefix of rank stop."""

    def __init__(self, lats: StarLattices, label: str | None = None):
        self.lats = lats
        self.label = label or subject_of(lats.invariants, lats.kind)
        self._memo = {}

    def _once(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def run(self, start: int, stop: int) -> tuple:
        """The steps of V_plus's word for the indices start..stop-1."""
        n = self.lats.plus.rank
        word = self._once("word", lambda: reflection_word(self.lats.plus, range(n)))
        return word[n - stop:n - start]

    def word(self, which: str) -> tuple:
        return self.run(0, getattr(self.lats, which).rank)

    def reach(self) -> list:
        """_reach of V_plus's word."""
        return self._once("reach", lambda: _reach(self.run(0, self.lats.plus.rank)))

    def columns(self, which: str) -> list:
        """(start, low, top, tau e_j) for each e_j of ``which``, by the lemmas
        of coxeter: start is the position in V_plus's word of the first step
        that touches j (the word's end where none does), top the larger of j
        and that step's index, and low the floor where the column's run
        stopped, so that the column is zero outside rows low..top.  It is
        padded with zeros to the rank of V_plus.  The columns are shared:
        read them, never write."""
        def compute():
            word = self.word(which)
            n, size, memo, reach = self.lats.plus.rank, len(word), self._memo, self.reach()
            out = []
            for j, pos in enumerate(_first_steps(word, getattr(self.lats, which).rank)):
                start = n - size + pos
                key = ("column", j, start)
                if key not in memo:
                    column = [0] * j + [1] + [0] * (n - j - 1)
                    memo[key] = _run_to_floor(word, pos, reach, column, reach[j]), column
                low, column = memo[key]
                out.append((start, low, max(j, word[pos][0]) if pos < size else j, column))
            return out

        return self._once(("columns", which), compute)

    def coxeter(self, which: str) -> list:
        """The columns tau e_j of ``which``.

        First-step lemma: a step that neither reads nor writes coordinate j
        leaves e_j fixed, so tau e_j is the suffix of the word from the first
        step that touches j on, applied to e_j.  The steps run from the
        highest index down, so that suffix writes no coordinate past the
        larger of j and its first step's index.
        Prefix lemma: every word is a suffix of V_plus's, so a column is
        fixed by j and the position of that first step in V_plus's word, and
        each is computed once for all three lattices.  On the star they
        differ only in r + 2 border columns: E and the arm ends of V_minus,
        which pair with E-u in V_zero, and E-u of V_zero, which pairs with
        u-w in V_plus; rank(V_plus) + r + 2 columns in all.
        Last-step lemma (_run_to_floor): the suffix writes no coordinate
        below low, the least reach of j and of every coordinate it has made
        nonzero, where reach[k] is the least of k and the indices k pairs
        with; so a column stops at the first step below low."""
        rank = getattr(self.lats, which).rank
        return [column[:rank] for *_, column in self.columns(which)]

    def delta(self, which: str):
        deltas = self._once("deltas", lambda: star_char_polys(self.lats.plus, self.lats.center))
        if deltas is None:
            return self._once(("delta", which), lambda: char_poly(self.coxeter(which)))
        return deltas[("minus", "zero", "plus").index(which)]

    def walk(self, order: int) -> PowerSeries:
        """P of (V_zero, E) to order + 1, which holds P and Q to order."""
        return self._once(("walk", order), lambda: hilbert_P(
            self.lats.zero, self.lats.center, order + 1))

    def quotient(self, which: str, order: int) -> PowerSeries:
        """Delta_which / Delta_zero expanded to order.

        On the star Delta_zero = (1-t)^2 prod [a_i], for r arms, and
        (1-t)[a] = 1 - t^a, so with m = (1-t)^(r-2)

            m Delta_zero = prod (1 - t^a_i) (1-t)^max(2-r, 0),

        one factor per arm and, below two arms, 1 - t = 1 - t^1 for each
        missing one.  The quotient is then m Delta_which over those factors.
        Dividing by 1 - t^a is c[k] += c[k-a], a prefix sum over each residue
        class mod a, so the series costs additions only and is integral by
        construction.  Only the first order + 1 terms of m Delta_which are
        read, and _differenced computes just those.  The factors are read off
        the invariants, so they are taken only where the Gram's own
        Delta_zero equals the closed form (1-t)^2 prod [a_i] of those
        invariants (_arm_factors): the route still reads only the Gram.
        Where they differ (an edited Gram) the series is the recurrence of
        series_from_rational over the nonzero terms of the bare Delta_zero,
        whose constant term det(-tau) is 1."""
        def compute():
            factors = self._once("factors", self._arm_factors)
            if factors is None:
                return series_from_rational(self.delta(which), self.delta("zero"), order)
            c = _differenced(self.delta(which), self.lats.invariants.r - 2, order + 1)
            for a in factors:
                for s in range(min(a, order + 1)):
                    c[s::a] = accumulate(c[s::a])
            return PowerSeries(tuple(c))

        return self._once(("quotient", which, order), compute)

    def _arm_factors(self):
        """The exponents a of the factors 1 - t^a of (1-t)^(r-2) Delta_zero,
        where the Gram's Delta_zero is the closed form of the invariants;
        else None."""
        inv = self.lats.invariants
        if self.delta("zero") != self.closed_forms()["zero"]:
            return None
        return [1] * (2 - inv.r) + list(inv.alphas)

    def closed_forms(self) -> dict:
        """_closed_form_deltas of the invariants' arms, which read nothing
        of the Gram."""
        return self._once("closed", lambda: _closed_form_deltas(self.lats.invariants.alphas))


def _differenced(p, times: int, size: int) -> list:
    """The first size terms of (1-t)^times p, or of p where times <= 0.
    They are times first differences q - t q of p cut to size terms, each
    cut back to size, as no term of q past size reaches one below it; so
    they only subtract, and the zeros that pad to size terms come last."""
    p = p[:size]
    for _ in range(times):
        p = list(map(sub, p + [0], [0] + p))[:size]
    return p + [0] * (size - len(p))


def _witness(identity: str, index, got, expected):
    if got == expected:
        return None
    return {"identity": identity, "index": index, "expected": expected, "got": got}


def _first_witness(identity: str, got, expected, column=None):
    """The first discrepancy of two coefficient lists, zero-padded to equal
    length; indexed [row, column] where a column is given."""
    if got == expected:
        return None
    for k, (x, y) in enumerate(zip_longest(got, expected, fillvalue=0)):
        if x != y:
            return _witness(identity, k if column is None else [k, column], x, y)


def _series_witness(identity: str, lhs: PowerSeries, rhs: PowerSeries):
    ok, k = series_equal(lhs, rhs)
    return None if ok else _witness(identity, k, lhs[k], rhs[k])


def _matrix_witness(identity: str, got, expected):
    """The first discrepancy of two matrices given as lists of columns: the
    topmost in the first column that differs."""
    return next(filter(None, map(_first_witness, repeat(identity), got, expected, count())), None)


def _window_product(p, a: int) -> list:
    """p [a], with [a] = 1 + t + ... + t^(a-1), as window sums: coefficient k
    is the sum of p over k-a+1..k, the difference of two prefix sums of p.
    O(len(p) + a) additions, whatever a is."""
    if not p:
        return []
    sums = list(accumulate(p, initial=0))
    return list(map(sub, sums[1:] + [sums[-1]] * (a - 1), [0] * (a - 1) + sums[:-1]))


def _closed_form_deltas(alphas) -> dict:
    """Delta_minus, Delta_zero and Delta_plus of the star with these arms,
    from the arms alone.  With [m] = 1 + t + ... + t^(m-1):

        Delta_minus = (1+t) prod [a_i] - t sum_j [a_j - 1] prod_{i != j} [a_i]
        Delta_zero  = (1-t)^2 prod [a_i]
        Delta_plus  = (1+t) Delta_zero - t Delta_minus

    The c arms of one length a add [a]^c to the product and c [a - 1]
    [a]^(c-1) times the product of the other lengths to the sum, and every
    factor [m] is a window product (_window_product).  So the whole costs
    O(len) additions per arm and a few per distinct length: linear in the
    arms, where a product per arm is quadratic.  star_char_polys's twin and
    leaf rules (g = 1) give Delta_zero and Delta_plus here too.
    """
    prod, acc = [1], []
    for a, count in Counter(alphas).items():
        for _ in range(count - 1):
            acc, prod = _window_product(acc, a), _window_product(prod, a)
        acc = poly_add(_window_product(acc, a), _window_product(prod, a - 1), count)
        prod = _window_product(prod, a)
    minus = poly_add(poly_mul([1, 1], prod), acc, -1, 1)
    zero = poly_mul([1, -2, 1], prod)
    return {"minus": minus, "zero": zero,
            "plus": poly_add(poly_mul([1, 1], zero), minus, -1, 1)}


# ---------------------------------------------------------------------------
# the four checks


def run_check(check: str, label: str, order: int, witnesses) -> VerificationReport:
    """Time one check: pull candidate witnesses from the lazy iterable until
    the first that is not None.  The rest of the check is never run."""
    t0 = time.perf_counter()
    witness = next((w for w in witnesses if w is not None), None)
    return VerificationReport(check, label, witness is None, order, witness,
                              time.perf_counter() - t0)


def check_theorem(subject: Subject, order: int) -> VerificationReport:
    """Poincare series == quotient of characteristic polynomials."""
    def witnesses():
        kind = subject.lats.kind
        quotient = subject.quotient(kind.top, order)
        direct = poincare_direct(subject.lats.invariants, kind, order)
        yield _series_witness(f"{kind.top}/zero == direct", quotient, direct)

    return run_check("theorem", subject.label, order, witnesses())


def check_orbit_series(subject: Subject, order: int) -> VerificationReport:
    """Q = Delta_minus/Delta_zero and P + t = Delta_plus/Delta_zero, at a = E."""
    def witnesses():
        p, q = p_and_q(subject.walk(order))
        yield _series_witness("Q == minus/zero", q, subject.quotient("minus", order))
        shifted = list(p.coeffs)
        if order >= 1:
            shifted[1] += 1
        yield _series_witness("P + t == plus/zero", PowerSeries(tuple(shifted)),
                              subject.quotient("plus", order))

    return run_check("orbit-series", subject.label, order, witnesses())


def check_orbit_formulas(subject: Subject, k_max: int) -> VerificationReport:
    """Checks on V_minus as the quotient of V_zero by its radical <u>.

    The projection pi: V_zero -> V_minus maps E-u to E and has kernel <u>,
    and the lift iota pads a zero coordinate for E-u.  Every reflection of
    V_zero fixes u, and the pairings of E-u are those of E, so pi s_i =
    s_i pi for each arm root and both s_E and s_{E-u} descend to s_E:

    (a) pi s_E s_{E-u} iota is the identity,
    (b) pi tau_zero iota is tau_1 ... tau_r, read as tau_minus s_E (s_E^2 = 1),
    (c) each arm word moves E with period exactly alpha_i,
    (d) the orbit sums reproduce 1 + deg D^(k) for both divisor patterns.

    (a) and (b) compare columns, so a witness indexes V_minus coordinates.
    (a) compares only the columns of the coordinates that s_E s_{E-u}
    reads or writes, E and the Gram neighbours of E and E-u below E-u: by
    the first-step lemma every other column is e_j, on any Gram, so the
    first discrepancy is still the first in column order.
    (c) follows the orbit of E by its differences (_arm_period): O(alpha_i)
    word steps per arm, for the least k that alpha_i applications find.
    (d) reads the orbit sums P_k and Q_k = -P_{k+1} off the subject's walk
    of (V_zero, E), with no walk of its own.  They equal the sums of E on
    V_minus: pi keeps every pairing and tau descends, so
    <E, tau_0^l E> = <E, tau^l E> for every l.
    """
    def witnesses():
        lats = subject.lats
        inv = lats.invariants
        f = lats.f_index

        def project(y):
            out = y[:f]
            out[lats.center] += y[f]
            return out

        pair = subject.run(lats.center, f + 1)
        for j in _touched(pair, f):
            e_j = [0] * j + [1] + [0] * (f - j - 1)
            yield _first_witness("s_E s_{E-u} == id", project(apply_word(pair, e_j + [0, 0])), e_j, j)

        tau_minus = subject.coxeter("minus")
        yield _matrix_witness("tau_0 == tau_1 ... tau_r",
                              [project(col) for col in subject.coxeter("zero")[:f]],
                              [[x + g * y for x, y in zip(col, tau_minus[lats.center])] if g else col
                               for col, g in zip(tau_minus, lats.minus.gram[lats.center])])

        e = [0] * lats.center + [1] + [0] * (f - lats.center + 1)
        for arm_index, ((start, stop), alpha) in enumerate(zip(lats.arms, inv.alphas), start=1):
            period = _arm_period(subject.run(start, stop), start, e, alpha,
                                 lats.plus.nonzero_cols, subject.reach())
            yield _witness(f"arm {arm_index} period on class of E", alpha, period, alpha)

        walk = subject.walk(k_max)
        for k in range(1, k_max + 1):
            yield _witness("orbit sum == 1 + deg D_Fuchs", k, walk[k],
                           1 + divisor_degree(inv, SingularityKind.FUCHSIAN, k))
            yield _witness("orbit sum == 1 + deg D_Klein", k, -walk[k + 1],
                           1 + divisor_degree(inv, SingularityKind.KLEINIAN, k))

    return run_check("orbit-formulas", subject.label, k_max, witnesses())


def check_identities(subject: Subject) -> VerificationReport:
    """Structural identities of the three lattices and their Coxeter elements.

    tau comes as the columns of its reflection word (Subject.columns).  A is
    unitriangular, so tau == -A^-1 A^t exactly when A tau == -A^t, which is
    also (y,x) == -(x,tau y) for the form (x,y) = x^t A y: one residual
    decides all three, and -A^-1 A^t is solved only to name where tau
    differs.  V_minus and V_zero are leading blocks of V_plus, so one A, read
    off V_plus's Gram, serves all three.  By the first-step lemma column j is
    zero past top, so its rows of A tau e_j == -A^t e_j past top hold exactly
    when the last nonzero of row j in the lattice's Gram is at most top.  By
    the last-step lemma it is zero below low too, which the residual checks
    as it checks zero past top, so it reads the column only in rows
    low..top.  Rows 0..top of A tau e_j combine the sparse columns of A at
    those nonzeros.  The rows below low are compared as well: a column of A
    at a nonzero k reaches the rows below k that k pairs with, and a column
    run that stopped too early leaves A tau e_j nonzero there.  By the
    prefix lemma the verdict is fixed by the column's (j, start) and shared.
    det tau == (-1)^rank multiplies the word's factors, det s_i = 1 +
    <e_i, e_i>, so it checks only that the word has one root reflection per
    basis vector; its value is pinned before it by A tau = -A^t and
    Delta(0) = det(-tau) = 1.

    The radical of V_zero is Zu: G_zero u = 0, u is primitive (entries +-1),
    and its corank-1 leading block V_minus has Delta_minus(1) = det(A + A^t)
    = (-1)^rank det G_minus != 0, so the saturated radical has rank 1.
    """
    def witnesses():
        lats = subject.lats
        gram, cols = lats.plus.gram, lats.plus.nonzero_cols
        a_cols = [[(k, 1)] + [(i, -gram[k][i]) for i in row if i < k] for k, row in enumerate(cols)]
        verdicts = {}

        def holds(j, start, low, top, column):
            """A tau e_j == -A^t e_j in rows 0..top, from the columns of A at
            the nonzeros of tau e_j in rows low..top, and tau e_j zero
            outside those rows."""
            if (j, start) not in verdicts:
                a_tau = [0] * (top + 1)
                for k in compress(range(low, top + 1), islice(column, low, top + 1)):
                    x = column[k]
                    for i, a in a_cols[k]:
                        a_tau[i] += a * x
                a_tau[j] += 1  # plus A^t e_j: 1 at j and -g_ji past j
                for i in cols[j]:
                    if j < i <= top:
                        a_tau[i] -= gram[j][i]
                verdicts[j, start] = not (any(a_tau) or any(column[:low]) or any(column[top + 1:]))
            return verdicts[j, start]

        for which in ("minus", "zero", "plus"):
            lat = getattr(lats, which)
            if not all(lat.nonzero_cols[j][-1] <= top and holds(j, start, low, top, column)
                       for j, (start, low, top, column) in enumerate(subject.columns(which))):
                yield _matrix_witness(f"coxeter({which}) == -A^-1 A^t", subject.coxeter(which),
                                      coxeter_columns_via_form(asym_form_matrix(lat)))
            delta = subject.delta(which)
            yield _witness(f"char poly of {which} has constant term 1", 0, delta[0], 1)
            # char_poly is monic, so palindromic up to sign means delta[i] == delta[n - i]
            yield _first_witness(f"char poly of {which} palindromic up to sign", delta, delta[::-1])
            det = prod(1 + lat.gram[i][i] for i, _ in subject.word(which))
            yield _witness(f"det tau == (-1)^rank on {which}", lat.rank, det, (-1) ** lat.rank)
        radical = "radical of V_zero is rank 1 spanned by u"
        u = [(j, x) for j, x in enumerate(lats.u_zero) if x]
        yield _first_witness(radical, [sum(row[j] * x for j, x in u) for row in lats.zero.gram],
                             [0] * lats.zero.rank)
        if not sum(subject.delta("minus")):
            yield {"identity": radical, "index": "Delta_minus(1)", "expected": "nonzero", "got": 0}

        # The closed forms are those of the star of the invariants.  A V_minus
        # that is not that star (an edited Gram) fails the theorem check instead.
        try:
            star_arms = sorted(decode_star(lats.minus)[0])
        except NotAStarLattice:
            star_arms = None
        if star_arms == list(lats.invariants.alphas):
            for which, closed in subject.closed_forms().items():
                yield _first_witness(f"char poly of {which} == closed form",
                                     subject.delta(which), closed)

    return run_check("identities", subject.label, 0, witnesses())


def verify_lattices(lats: StarLattices, order: int = DEFAULT_ORDER,
                    subject: str | None = None) -> list:
    """All four checks on one input, sharing its tau and Delta."""
    data = Subject(lats, subject)
    return [
        check_theorem(data, order),
        check_orbit_series(data, order),
        check_orbit_formulas(data, order),
        check_identities(data),
    ]


# ---------------------------------------------------------------------------
# input roster


def random_fuchsian_invariants(rng: random.Random) -> OrbitInvariants:
    """A random valid genus-0 Fuchsian tuple with r in {3,4,5}, alpha <= 12."""
    while True:
        arms = rng.choice((3, 4, 5))
        alphas = sorted(rng.randint(2, 12) for _ in range(arms))
        if sum(Fraction(1, a) for a in alphas) < arms - 2:
            return fuchsian_invariants(alphas)


def suite_inputs(n_random: int = DEFAULT_RANDOM_COUNT, seed: int = DEFAULT_SEED) -> list:
    """Deterministic roster: catalog entries, then seeded random Fuchsian tuples.

    Returns (subject, invariants) pairs.
    """
    inputs = [(name, catalog(name)) for name in catalog_names()]
    rng = random.Random(seed)
    for i in range(n_random):
        inv = random_fuchsian_invariants(rng)
        inputs.append((f"random#{i + 1}:{subject_of(inv, validate(inv))}", inv))
    return inputs


def run_suite(order: int = DEFAULT_ORDER, n_random: int = DEFAULT_RANDOM_COUNT,
              seed: int = DEFAULT_SEED) -> list:
    """Run all four checks over the whole roster, in input order."""
    reports = []
    for subject, inv in suite_inputs(n_random, seed):
        reports.extend(verify_lattices(build(inv), order, subject))
    return reports
