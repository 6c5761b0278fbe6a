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
import re
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, count, repeat, zip_longest
from math import prod
from operator import add, eq, itemgetter, mul, ne, sub
from typing import NamedTuple

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
    the memo: in the order of verify_lattices, orbit-series pays for the
    star decode of V_minus and the walk, and orbit-formulas for the one
    table of tau columns of all three lattices (rank(V_plus) + r + 2
    columns, 2r + 5 column runs on a star), which identities reads."""

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
        if i < rank:
            first[i] = pos
        for k, _ in pairs:
            if k < rank:
                first[k] = pos
    return first


def _touches(step, rank: int) -> list:
    """The coordinates j < rank that the step reads or writes, in order."""
    i, pairs = step
    return sorted(k for k in {i, *[j for j, _ in pairs]} if k < rank)


def _touched(word, rank: int) -> list:
    """The coordinates j < rank that some step of word reads or writes, in
    order.  By the first-step lemma the word fixes e_j for every other j."""
    return sorted(set().union(*[_touches(step, rank) for step in word]))


def _reach(word) -> list:
    """reach[k] for each coordinate k: the least of k and the indices k pairs
    with, read off word, which has one step per index, as V_plus's has.
    Pairing is symmetric, so no step below reach[k] reads k."""
    reach = [0] * len(word)
    for i, pairs in word:
        reach[i] = min(i, min(pairs)[0]) if pairs else i
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
    no step lies below it, and the rest of the run goes to apply_word.  The
    steps are read by index, as skipping to pos in an iterator would cost
    pos steps of its own."""
    for pos in range(pos, len(word)):
        i, pairs = word[pos]
        if i < low:
            return low
        total = -v[i]
        for k, g in pairs:
            total += g * v[k]
        v[i] = total
        if total and reach[i] < low:
            low = reach[i]
            if not low:
                apply_word(word[pos + 1:], v)
                break
    return low


def _take_window(buffer, low: int, top: int) -> list:
    """Rows low..top of buffer, the rows a column's run wrote, which are then
    zeroed again for the next run."""
    window = buffer[low:top + 1]
    buffer[low:top + 1] = [0] * len(window)
    return window


def _shift_runs(word, first, reach) -> list:
    """The runs [a, b) of columns j of word, a lattice's with one step per
    index, where the shift lemma holds (Subject._table), read off its
    _first_steps, V_plus's reach and, as reflection_word lists pairings in
    column order, the first pairing (j, 1) of step j + 1 and the last (j +
    1, 1) of step j: one pass in C over all j per condition."""
    n, pairs = len(word), [*map(itemgetter(1), reversed(word))]  # by index
    links = [*zip(range(n), repeat(1))]
    flags = bytes(map(all, zip(map(eq, first[:n - 1], range(n - 2, -1, -1)),
                               map(eq, reach[1:n], range(n - 1)),
                               map(eq, map(itemgetter(slice(1)), pairs[1:]), zip(links)),
                               map(eq, map(itemgetter(slice(-1, None)), pairs[:-1]),
                                   zip(links[1:])))))
    return [match.span() for match in re.finditer(b"\x01+", flags)]


def _shifted(a: int, b: int, n: int, reach) -> list:
    """The table entries e_(j+1) of a run [a, b) of _shift_runs, step j + 1 at
    n - 2 - j in V_plus's word (rank n): past a, rows j-1..j+1 of one window."""
    low = reach[a]
    return [(n - 2 - a, low, a + 1, [0] * (a + 1 - low) + [1]),
            *zip(range(n - 3 - a, n - 2 - b, -1), range(a, b - 1), range(a + 2, b + 1),
                 repeat([0, 0, 1]))]


def _column(word, j: int, pos: int, reach, buffer, block) -> tuple:
    """(start, low, top, window) of tau e_j for the word, a suffix of V_plus's,
    from its step at pos, the first that touches j (Subject.coxeter): start
    is pos in V_plus's word, whose rank the zeroed buffer has.  A run from a
    step of index center or above takes the zero-arm path where block, the
    subject's Subject.arm_block with the word's _heads, is not None
    (_block_run); any other run steps to its floor."""
    top = max(j, word[pos][0]) if pos < len(word) else j
    buffer[j] = 1
    if block is None or pos >= len(word) - block[0]:
        low = _run_to_floor(word, pos, reach, buffer, reach[j])
        window = _take_window(buffer, low, top)
    else:
        low, window = _block_run(word, j, pos, reach, buffer, block)
    return len(buffer) - len(word) + pos, low, top, window


def _block_run(word, j: int, pos: int, reach, buffer, block) -> tuple:
    """(low, window) of the run of word from pos on applied to e_j in buffer,
    as _run_to_floor and _take_window give them, where pos lies before the
    arm block, so that the window is rows low..head for the index head of
    the step at pos; buffer is left zeroed.  block is (center, arms, starts,
    shared, heads): the arm spans, their starts, the pairings with E and
    past it that every arm top has (_unit_arms), and the word's steps
    before the arm block (_heads).

    Zero-arm lemma: the steps before the arm block have indices center and
    above, so they leave every arm coordinate zero but j's own.  So each of
    them reads, of the arm block, e_j alone: its pairing with j is looked
    up, and only its pairings from center on are summed.  In the arm block
    each top step then computes -0 + 0 + c, with c = sum g x_k over shared,
    the same on every top, and each lower step of a unit-link arm -0 +
    x'_(i+1) + 0: every arm but j's ends as the constant c.  So only j's arm
    runs, in buffer, and one fill writes c over the rest of the block as the
    window's rows from low (_fill).  No step of j's arm but its top reads
    outside the arm, so the last-step lemma holds for the arm's run on its
    own, from the floor reach[j]: it stops where the arm's own nonzeros
    end, below a top that computes 0.  The floor of the whole run is the least reach of j and of
    each nonzero written: by the steps before the block (indices
    center..head), by j's arm, and by the fill, whose least is that of its
    least coordinate, an arm start, where c is not 0."""
    center, arms, starts, shared, heads = block
    n, head, low = len(word), word[pos][0], reach[j]
    start = stop = center
    if j < center:
        start, stop = arms[bisect_right(starts, j) - 1]
    for i, arm_pairs, far in heads[pos:]:
        total = arm_pairs.get(j, 0) - buffer[i]
        for k, g in far:
            total += g * buffer[k]
        buffer[i] = total
        if total and reach[i] < low:
            low = reach[i]
    low = min(low, _run_to_floor(word[n - stop:n - start], 0, reach, buffer, reach[j]))
    c = 0
    for k, g in shared:
        c += g * buffer[k]
    if c and (start or stop < center):
        low = min(low, reach[stop if start == 0 else 0])
    window = _fill(buffer, c, start, stop, center, low)
    window += buffer[max(low, center):head + 1]
    buffer[start:stop] = [0] * (stop - start)
    buffer[center:head + 1] = [0] * (head + 1 - center)
    return low, window


def _heads(word, center: int) -> list:
    """(i, its pairings below center as a dict, those with one index summed,
    and its pairings from center on) for each step of word before its arm
    block, the steps of indices center and above, read once per word."""
    heads = []
    for i, pairs in word[:len(word) - center]:
        arm_pairs, far = {}, []
        for k, g in pairs:
            if k < center:
                arm_pairs[k] = arm_pairs.get(k, 0) + g
            else:
                far.append((k, g))
        heads.append((i, arm_pairs, far))
    return heads


def _fill(buffer, c: int, start: int, stop: int, center: int, low: int) -> list:
    """Rows low..center-1 of a zero-arm column: c on every arm coordinate
    but start..stop-1, the span of j's own arm, whose rows buffer holds."""
    return [*repeat(c, start - low), *buffer[max(low, start):stop],
            *repeat(c, center - max(low, stop))]


def _unit_arms(word, center: int, arms):
    """The pairings with E and the coordinates past it that every arm top
    has, read off the arm block of V_plus's word (the steps of indices below
    center), where they are the same on every top and no other arm
    coordinate has any; else None.  With the decode of V_minus, which gives
    the arm spans, unit links and no other pairing below E, this is the
    guard of the zero-arm path (_block_run)."""
    tops, shared = {stop - 1 for _, stop in arms}, set()
    for i, pairs in word[len(word) - center:]:
        if i in tops:
            shared.add(tuple(sorted(p for p in pairs if p[0] >= center)))
        elif pairs and max(pairs)[0] >= center:
            return None
    if len(shared) > 1:
        return None
    return shared.pop() if shared else ()


def _unit_chain(arm, start: int, cols, reach) -> bool:
    """Whether the arm run, its steps from the top down, is a unit chain:
    start pairs with nothing below, each vertex above with nothing below its
    neighbour (reach), each below the top with nothing past i + 1 (its last
    column in cols, V_plus's), read by its step as its last pairing, by 1."""
    top = start + len(arm) - 1
    return (reach[start:top + 1] == [start, *range(start, top)]
            and [*map(itemgetter(-1), cols[start:top])] == [*range(start + 1, top + 1)]
            and [*map(itemgetter(1), map(itemgetter(-1), map(itemgetter(1), arm[1:])))]
            == [1] * (top - start))


def _arm_period(arm, start: int, e, alpha: int, cols, reach):
    """The least k <= alpha with c^k e = e for the arm word c, or None.

    arm is the run of V_plus's word for the indices start..stop-1: it writes
    only those, and the step of index i is at position stop-1-i.  With
    d_1 = ce - e and d_k = c d_(k-1), c^k e = c^(k-1) e + d_k.  d_1 takes one
    application of the arm, and each later d_k a run of it on d_(k-1) in
    place, to its floor as in _run_to_floor, from the step of top, the
    largest index below stop that a nonzero of d_(k-1) pairs with (read off
    cols, V_plus's nonzero columns; no step above it touches d_(k-1)), or
    from the first step for d_2: those it writes are d_k's, each added into
    c^k e.  off, the count of arm coordinates where c^k e differs from e,
    kept as each is written, reads c^k e = e at once.

    Chain lemma: where the arm is a unit chain of m vertices (_unit_chain)
    and e is zero on it, the top reads x, its pairing with e, and each step
    below adds its upper neighbour, so d_1 = x(1, ..., 1); c(1, ..., 1) =
    -e_start and, by the shift lemma, c e_i = e_(i+1) below the top, so d_k
    = -x e_(start+k-2) up to k = m + 1.  c^k e = e first at k = 1 where x =
    0, else at m + 1 (alpha on a star), with no walk run."""
    stop = start + len(arm)
    if _unit_chain(arm, start, cols, reach) and not any(e[start:stop]):
        x = sum(g * e[k] for k, g in arm[0][1] if not start <= k < stop)
        return 1 if not x else len(arm) + 1 if len(arm) < alpha else None
    v = apply_word(arm, list(e))
    off = sum(map(ne, v[start:stop], e[start:stop]))
    if not off:
        return 1
    d = [0] * len(e)
    d[start:stop] = map(sub, v[start:stop], e[start:stop])
    top, low = stop - 1, 0
    for k in range(2, alpha + 1):
        if top < 0:
            return None  # d_(k-1) = 0, so every later c^k e is c^(k-2) e, not e
        first, floor, top, low = stop - 1 - top, low, -1, len(reach)
        for pos in range(first, len(arm)):
            i, pairs = arm[pos]
            if i < floor:
                break
            total = -d[i]
            for j, g in pairs:
                total += g * d[j]
            d[i] = total
            if total:
                off -= v[i] != e[i]
                v[i] += total
                off += v[i] != e[i]
                row = cols[i]
                top = max(top, row[bisect_left(row, stop) - 1])
                if reach[i] < low:
                    low = reach[i]
                    floor = min(floor, low)
        if not off:
            return k
    return None


class Subject:
    """One input's star lattices and label, and what the checks and commands
    share, each computed at most once: V_plus's reflection word, V_minus's
    star decode, the columns of the three tau, each Delta, the closed forms
    of the Deltas, the orbit walk of (V_zero, E) and each Delta quotient.

    V_minus and V_zero are basis prefixes of V_plus, which StarLattices cuts
    them from.  So one star_char_polys call on V_plus gives all three Deltas,
    with no tau; a Gram outside that shape falls back, lattice by lattice, to
    Berkowitz on the columns of tau, that is on tau^t, with the same
    characteristic polynomial.  And every other word is a run of V_plus's
    word: on a vector that is zero from index stop on, the steps for
    start..stop-1 read those coordinates as 0 and never write them, so they
    act as the word of the prefix of rank stop.

    The first check to ask for a shared value pays for it in its report's
    elapsed time.  In the order of verify_lattices, theorem pays for the
    Deltas and their closed forms, orbit-series for the decode and the walk,
    and orbit-formulas for the one table of tau columns (rank(V_plus) + r +
    2 columns); identities reads all three."""

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

    def star(self):
        """decode_star of V_minus, (alphas, arms), or None where V_minus is
        not a star.  A guard, not a route: the walk reads the arms only where
        V_zero's E-u row is E's (series._star_arms), and the identities
        compare the closed forms only where the alphas are the invariants'."""
        def compute():
            try:
                return decode_star(self.lats.minus)
            except NotAStarLattice:
                return None

        return self._once("star", compute)

    def arm_block(self):
        """(center, arms, starts, shared) for the zero-arm path of tau's
        border columns (_block_run): the decode's arm spans, their starts and
        the pairings every arm top shares (_unit_arms).  None where V_minus
        is not a star or V_plus's word fails _unit_arms, as on an edited
        Gram: then every column steps to its floor."""
        def compute():
            star, center = self.star(), self.lats.center
            shared = None if star is None else _unit_arms(self.run(0, self.lats.plus.rank),
                                                          center, star[1])
            return None if shared is None else (center, star[1], [s for s, _ in star[1]], shared)

        return self._once("block", compute)

    def columns(self, which: str) -> list:
        """(start, low, top, window) for each e_j of ``which``, by the lemmas
        of coxeter: start is the position in V_plus's word of the first step
        that touches j (the word's end where none does), top the larger of j
        and that step's index, and low the floor where the column's run
        stopped, so that the column is zero outside rows low..top; window
        holds those rows.  The windows are shared: read them, never write."""
        return self._once("columns", self._table)[which][0]

    def own(self, which: str) -> list:
        """The coordinates whose column of ``which`` is its own, not the
        entry of the lattice before it: every coordinate of V_minus, then the
        border of V_zero and of V_plus (_table)."""
        return self._once("columns", self._table)[which][1]

    def _table(self) -> dict:
        """The columns of the three tau as one table, by the lemmas of
        coxeter.  V_zero's word is V_minus's with the step of E-u in front,
        and V_plus's is V_zero's with that of u-w, so V_minus runs its
        columns, and each longer word re-runs from its front step only its
        border, the coordinates that step touches (_touches), each run on
        one zeroed buffer of V_plus's rank that _take_window zeroes again.
        Shift lemma: where the first step that touches j is that of j + 1,
        which reads j by 1, step j reads j + 1 by 1, and no step below j
        pairs with j + 1 (reach[j+1] = j), the run writes 1 at j + 1, then
        -1 + 1 = 0 at j, and below j reads only zeros: tau e_j = e_(j+1).
        _shift_runs reads those conditions off V_minus's word and _shifted
        writes the entries, with no run: on a star every arm vertex below its
        top, so that only the 2r + 5 border columns run (E and the arm tops
        of V_minus, V_zero's border, E-u and u-w of V_plus).
        Zero-arm lemma (_block_run): a border column runs from a step of
        index center or above, so it reaches the arm block with every arm
        coordinate zero but j's own.  Where every arm is a unit chain whose
        top pairs with E and past it as every other top does (arm_block),
        every arm but j's ends as one constant, one fill, and only j's arm
        and the steps before the block run, O(1 + alpha_j) steps."""
        reach, buffer, block = self.reach(), [0] * self.lats.plus.rank, self.arm_block()

        def word_block(word):
            return block and block + (_heads(word, block[0]),)

        word = self.word("minus")
        heads, first, cols = word_block(word), _first_steps(word, self.lats.minus.rank), []
        for a, b in [*_shift_runs(word, first, reach), (len(first),) * 2]:
            cols += [_column(word, j, first[j], reach, buffer, heads) for j in range(len(cols), a)]
            cols += _shifted(a, b, len(buffer), reach) if a < b else []
        table = {"minus": (cols, range(len(cols)))}
        for which in ("zero", "plus"):
            word = self.word(which)
            cols, border, heads = cols + [None], _touches(word[0], len(cols) + 1), word_block(word)
            for j in border:
                cols[j] = _column(word, j, 0, reach, buffer, heads)
            table[which] = cols, border
        return table

    def coxeter(self, which: str) -> list:
        """The columns tau e_j of ``which``.

        First-step lemma: a step that neither reads nor writes coordinate j
        leaves e_j fixed, so tau e_j is the suffix of the word from the first
        step that touches j on, applied to e_j.  The steps run from the
        highest index down, so that suffix writes no coordinate past the
        larger of j and its first step's index.
        Prefix lemma: every word is a suffix of V_plus's, so a column is
        fixed by j and the position of that first step in V_plus's word, and
        each is computed once for all three lattices (_table).  On the star
        they differ only in r + 2 border columns: E and the arm ends of
        V_minus, which pair with E-u in V_zero, and E-u of V_zero, which
        pairs with u-w in V_plus; rank(V_plus) + r + 2 columns in all.
        Last-step lemma (_run_to_floor): the suffix writes no coordinate
        below low, the least reach of j and of every coordinate it has made
        nonzero, where reach[k] is the least of k and the indices k pairs
        with; so a column stops at the first step below low.  Each column is
        its window padded with zeros to the rank of ``which``."""
        rank = getattr(self.lats, which).rank
        return [[0] * low + window + [0] * (rank - 1 - top)
                for _, low, top, window in self.columns(which)]

    def delta(self, which: str):
        deltas = self._once("deltas", lambda: star_char_polys(self.lats.plus, self.lats.center))
        if deltas is None:
            return self._once(("delta", which), lambda: char_poly(self.coxeter(which)))
        return deltas[("minus", "zero", "plus").index(which)]

    def walk(self, order: int) -> PowerSeries:
        """P of (V_zero, E) to order + 1, which holds P and Q to order.  The
        walk takes the arms of the subject's decode; where V_minus is not a
        star, hilbert_P reads V_zero's shape itself, and walks the word."""
        star = self.star()
        return self._once(("walk", order), lambda: hilbert_P(
            self.lats.zero, self.lats.center, order + 1, None if star is None else star[1]))

    def quotient(self, which: str, order: int) -> PowerSeries:
        """Delta_which / Delta_zero expanded to order.

        On the star Delta_zero = (1-t)^2 prod [a_i], for r arms, and
        (1-t)[a] = 1 - t^a, so with m = (1-t)^(r-2)

            m Delta_zero = prod (1 - t^a_i) (1-t)^max(2-r, 0),

        one factor per arm and, below two arms, 1 - t = 1 - t^1 for each
        missing one.  The quotient is then m Delta_which over those factors,
        each divided out by additions only (_divide_out), so the series is
        integral by construction.  Only the first order + 1 terms of
        m Delta_which are read, and _differenced computes just those.  The
        factors are read off the invariants, so they are taken only where
        the Gram's own Delta_zero equals the closed form (1-t)^2 prod [a_i]
        of those invariants (_arm_factors): the route still reads only the
        Gram.  Where they differ (an edited Gram) the series is the
        recurrence of series_from_rational over the nonzero terms of the
        bare Delta_zero, whose constant term det(-tau) is 1."""
        def compute():
            factors = self._once("factors", self._arm_factors)
            if factors is None:
                return series_from_rational(self.delta(which), self.delta("zero"), order)
            c = _differenced(self.delta(which), self.lats.invariants.r - 2, order + 1)
            for a in factors:
                _divide_out(c, a)
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


def _divide_out(c: list, a: int) -> list:
    """c over 1 - t^a, cut to len(c), in place; returns c.  That is c[k] +=
    c[k-a] for k >= a in increasing k: a prefix sum over each residue class
    mod a, or c[s:s+a] += c[s-a:s] for s = a, 2a, ..., the last block cut
    short.  Each is one slice pass in C, so it takes whichever are fewer:
    alpha = 78 at order 200 adds 2 blocks in, not 78 class sums."""
    if len(c) <= a * (a - 1):  # ceil(len(c) / a) < a
        for s in range(a, len(c), a):
            c[s:s + a] = map(add, c[s:s + a], c[s - a:s])
    else:
        for s in range(min(a, len(c))):
            c[s::a] = accumulate(c[s::a])
    return c


def _differenced(p, times: int, size: int) -> list:
    """The first size terms of (1-t)^times p, or of p where times <= 0.
    They are times first differences q - t q of p cut to size terms, each
    cut back to size, as no term of q past size reaches one below it; so
    they only subtract, and the zeros that pad to size terms come last."""
    p = p[:size]
    for _ in range(times):
        p = list(map(sub, p + [0], [0] + p))[:size]
    return p + [0] * (size - len(p))


class _RowClasses(NamedTuple):
    """V_plus's Gram rows as the residual reads them, read once per subject.

    Row i of A x is x_i - sum g_ik x_k over the upper part of row i, its
    pairings with k > i.  A chain row has the upper part {i+1: 1}, so its
    row of A x is x_i - x_(i+1).  A class row has the upper part shared, the
    most common one of the other rows, so its row of A x is x_i less one
    core value, the same for every class row: on a star the class rows are
    the arm tops.  runs holds the class rows as arithmetic runs (first,
    step, last), with firsts their first rows, so that equal arms give one
    run.  rest lists every other row (on a star E, E-u and u-w), and upper
    holds their upper parts; special lists the rows that are not chain
    rows.  floor[k] is the least row that column k of A reaches, the least
    of k and the indices it pairs with (the diagonal of a root is not 0),
    and far lists the rows whose floor is below k - 1.  special, rest and
    far are in order and end with the rank."""

    rows: tuple
    special: list
    shared: tuple
    runs: list
    firsts: list
    rest: list
    upper: dict
    floor: list
    far: list


def _runs(rows) -> list:
    """The rows, in order, as maximal arithmetic runs (first, step, last),
    each run taking the next row where its step allows."""
    runs = []
    for i in rows:
        if runs and (runs[-1][1] in (0, i - runs[-1][2])):
            runs[-1] = runs[-1][0], i - runs[-1][2], i
        else:
            runs.append((i, 0, i))
    return [(first, step or 1, last) for first, step, last in runs]


def _row_classes(lat) -> _RowClasses:
    rows, cols, n = lat.rows, lat.nonzero_cols, lat.rank
    upper = {i: tuple((k, rows[i][k]) for k in c[bisect_right(c, i):])
             for i, c in enumerate(cols) if c[-1] != i + 1 or rows[i][i + 1] != 1}
    others = Counter(upper.values()).most_common(1)
    shared = others[0][0] if others else ()
    runs = _runs([i for i, up in upper.items() if up == shared])
    rest = [i for i, up in upper.items() if up != shared]
    floor = [c[0] for c in cols]
    return _RowClasses(rows, list(upper) + [n], shared, runs, [r[0] for r in runs], rest + [n],
                       {i: upper[i] for i in rest}, floor,
                       [k for k, f in enumerate(floor) if f < k - 1] + [n])


def _residual_holds(j: int, low: int, top: int, window, form: _RowClasses) -> bool:
    """Whether A tau e_j + A^t e_j is zero in rows 0..top, for tau e_j given
    as its window (rows low..top), A read off form, and A^t e_j as Gram row
    j: 1 at j and -g_ji past j.

    Rows below lo are zero: column k of A reaches no row below floor[k],
    which is k - 1 or more but on the far rows, so lo is the least floor of
    low and of the far rows in low..top.  Rows lo..low-1 are compared as
    well, where a column run that stopped too early leaves A tau e_j
    nonzero.  With x = tau e_j in rows lo..top+1, row i of the residual is
    x_i - y_i, with y_i the upper part of row i of A x less A^t e_j: x_(i+1)
    on the chain rows, which y is first as x shifted up one row; the core
    value on the class rows, one strided slice per run of them; on the rest
    a sum in Python; and then row j's own terms of A^t e_j, in Python.  One
    comparison of x with y then decides every row at once, row top+1 being
    0 in both."""
    rows, special, shared, runs, firsts, rest, upper, floor, far = form
    lo = floor[low]
    if far[0] <= top:
        for k in far[bisect_left(far, low):bisect_right(far, top)]:
            lo = min(lo, floor[k])
    x = [0] * (low - lo) + window
    x += [0] * (top + 2 - lo - len(x))
    y = x[1:]
    if special[bisect_left(special, lo)] <= top:
        core = 0
        for k, g in shared:
            if k <= top:
                core += g * x[k - lo]
        for first, step, last in runs[max(bisect_right(firsts, lo) - 1, 0):bisect_right(firsts, top)]:
            first = max(first, lo + (first - lo) % step)
            last = min(last, top)
            if first <= last:
                y[first - lo:last + 1 - lo:step] = [core] * ((last - first) // step + 1)
        for i in rest[bisect_left(rest, lo):bisect_right(rest, top)]:
            total = 0
            for k, g in upper[i]:
                if k <= top:
                    total += g * x[k - lo]
            y[i - lo] = total
    y[j - lo] -= 1
    for i, g in rows[j].items():
        if j < i <= top:
            y[i - lo] += g
    y.append(x[-1])
    return x == y


def _descent_witness(j: int, zero_col, minus_col, e_col, g: int, center: int):
    """(b) at column j: pi tau_zero e_j == tau_minus e_j + g tau_minus e_E,
    for g = <e_j, E>, with the columns as Subject.columns gives them.  Each
    side is built over rows lo..f, from the lowest row its windows reach:
    the windows of tau_zero e_j and tau_minus e_j are copied in as one slice
    each, g tau_minus e_E is added in as one more (g = 1 on a star), pi
    folds row f = E-u into E, and the sides are padded only to name a
    witness."""
    f = center + 1
    lo = min(zero_col[1], minus_col[1], e_col[1] if g else f)
    got, expected = [0] * (f + 1 - lo), [0] * (f + 1 - lo)
    for span, (_, low, _, window) in ((got, zero_col), (expected, minus_col)):
        span[low - lo:low - lo + len(window)] = window
    if g:
        _, low, _, window = e_col
        k = low - lo
        expected[k:k + len(window)] = map(add, expected[k:k + len(window)],
                                          window if g == 1 else map(mul, window, repeat(g)))
    got[center - lo] += got.pop()
    expected.pop()
    if got == expected:
        return None
    return _first_witness("tau_0 == tau_1 ... tau_r", [0] * lo + got, [0] * lo + expected, j)


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
    (b) compares column by column, each over the rows its windows reach
    (_descent_witness), and only the columns j whose two sides are not one
    table entry, V_zero's border (Subject._table), or whose g_j = <e_j, E>
    is not 0: every other column is vacuous by the prefix lemma, so the
    first discrepancy is still the first in column order.  On the star
    these are E and the arm ends.
    (a) compares only the columns of the coordinates that s_E s_{E-u}
    reads or writes, E and the Gram neighbours of E and E-u below E-u: by
    the first-step lemma every other column is e_j, on any Gram, so the
    first discrepancy is still the first in column order.  Each e_j is
    moved as a sparse vector: the two steps write only E-u and E, so only
    j, E and E-u are ever nonzero, and each step reads its pairings with
    those three by lookup, where a dense application reads all of them.
    (c) finds the least k that alpha_i applications find (_arm_period): by
    the chain lemma m + 1 on a unit chain of m vertices whose top pairs with
    E, as the differences c^k E - c^(k-1) E move down it by the shift lemma,
    with no word step run; any other arm walks the differences.
    (d) reads the orbit sums P_k and Q_k = -P_{k+1} off the subject's walk
    of (V_zero, E), with no walk of its own.  They equal the sums of E on
    V_minus: pi keeps every pairing and tau descends, so
    <E, tau_0^l E> = <E, tau^l E> for every l.
    """
    def witnesses():
        lats = subject.lats
        inv = lats.invariants
        f = lats.f_index

        pair = subject.run(lats.center, f + 1)
        steps = [(i, dict(pairs)) for i, pairs in pair]  # a row's pairings, one per index
        for j in _touched(pair, f):
            y = {j: 1}
            for i, pairs in steps:
                y[i] = sum(pairs.get(k, 0) * x for k, x in y.items() if k != i) - y.get(i, 0)
            y[lats.center] += y.pop(f)  # pi folds E-u into E
            wrong = [k for k in sorted(y) if y[k] != (k == j)]
            if wrong:
                yield _witness("s_E s_{E-u} == id", [wrong[0], j], y[wrong[0]], int(wrong[0] == j))

        tau_zero, tau_minus = subject.columns("zero"), subject.columns("minus")
        e_row = lats.minus.rows[lats.center]
        for j in sorted(e_row.keys() | {j for j in subject.own("zero") if j < f}):
            yield _descent_witness(j, tau_zero[j], tau_minus[j], tau_minus[lats.center],
                                   e_row.get(j, 0), lats.center)

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
    the last-step lemma it is zero below low too, so it is read as its
    window, rows low..top.  The residual is read by the classes of A's rows,
    a slice for all chain rows, one per run of class rows (on a star the arm
    tops) and a sum in Python only for the rest (on a star E, E-u and u-w),
    so a border column of a many-arm star costs O(1) interpreter steps
    (_row_classes, _residual_holds).  A shift column tau e_j = e_(j+1)
    (Subject._table) has A tau e_j + A^t e_j = 0, and row j ends at top,
    exactly where row j is a chain row and row j + 1's floor is j; so
    V_minus compares each run of such rows past its first with e_(j+1) in
    rows j-1..j+1 as one slice, and the rest, or a run that differs, take
    fault, so a witness keeps its entry and row.
    The rows below low are compared as well, down to the least row
    a column of A at the window reaches: a column run that stopped too
    early leaves A tau e_j nonzero there.  The residual reads A and row j
    of V_plus in rows 0..top only, so it is the same for every lattice a
    column of the shared table serves, and each table entry is checked once
    (Subject.own): the entry is wrong for a leading block of rank R exactly
    where the residual fails or V_plus's row j has a nonzero in top+1..R-1,
    and fault gives the least such R.
    det tau == (-1)^rank multiplies the word's factors, det s_i = 1 +
    <e_i, e_i>, those of the steps in front of the word before it onto that
    word's product, so it checks only that the word has one root reflection
    per basis vector; its value is pinned before it by A tau = -A^t and
    Delta(0) = det(-tau) = 1.

    The radical of V_zero is Zu: G_zero u = 0, summed over the rows of u's
    support, which are its columns as G_zero is symmetric; u is primitive
    (entries +-1), and its corank-1 leading block V_minus has Delta_minus(1)
    = det(A + A^t) = (-1)^rank det G_minus != 0, so the saturated radical
    has rank 1.
    """
    def witnesses():
        lats = subject.lats
        form = _row_classes(lats.plus)
        n, nonzero_cols = lats.plus.rank, lats.plus.nonzero_cols

        def fault(j, start, low, top, window):
            """The least rank of a leading block of V_plus in whose tau this
            column j is wrong: 0 where the residual is not zero, else the
            first column of V_plus's row j past top, or rank(V_plus)."""
            if not _residual_holds(j, low, top, window, form):
                return 0
            cols = nonzero_cols[j]
            return cols[bisect_right(cols, top)] if cols[-1] > top else n

        faults, det = [], 1
        for which in ("minus", "zero", "plus"):
            lat, columns = getattr(lats, which), subject.columns(which)
            # the steps in front of the word of the lattice before
            det *= prod(1 + lat.rows[i][i] for i, _ in subject.word(which)[:lat.rank - len(faults)])
            faults += [0] * (lat.rank - len(faults))
            own = [*subject.own(which)]
            if which == "minus":  # runs of chain rows j with j + 1 not far, past their first
                cut = sorted({*form.special, *(k - 1 for k in form.far)})
                cut = cut[:bisect_left(cut, lat.rank - 1)]
                for p, q in reversed([*zip([-1, *cut], [*cut, lat.rank - 1])]):
                    if list(map(itemgetter(1, 2, 3), columns[p + 2:q])) == [
                            *zip(range(p + 1, q - 1), range(p + 3, q + 1), repeat([0, 0, 1]))]:
                        del own[p + 2:q]
                        faults[p + 2:q] = repeat(n, q - p - 2)
            for j in own:
                faults[j] = fault(j, *columns[j])
            if min(faults) < lat.rank:
                yield _matrix_witness(f"coxeter({which}) == -A^-1 A^t", subject.coxeter(which),
                                      coxeter_columns_via_form(asym_form_matrix(lat)))
            delta = subject.delta(which)
            yield _witness(f"char poly of {which} has constant term 1", 0, delta[0], 1)
            # char_poly is monic, so palindromic up to sign means delta[i] == delta[n - i]
            yield _first_witness(f"char poly of {which} palindromic up to sign", delta, delta[::-1])
            yield _witness(f"det tau == (-1)^rank on {which}", lat.rank, det, (-1) ** lat.rank)
        radical = "radical of V_zero is rank 1 spanned by u"
        zero_u = [0] * lats.zero.rank
        for j, x in compress(enumerate(lats.u_zero), lats.u_zero):
            for i, g in lats.zero.rows[j].items():
                zero_u[i] += g * x
        yield _first_witness(radical, zero_u, [0] * lats.zero.rank)
        if not sum(subject.delta("minus")):
            yield {"identity": radical, "index": "Delta_minus(1)", "expected": "nonzero", "got": 0}

        # The closed forms are those of the star of the invariants.  A V_minus
        # that is not that star (an edited Gram) fails the theorem check instead.
        star = subject.star()
        if star is not None and sorted(star[0]) == list(lats.invariants.alphas):
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
