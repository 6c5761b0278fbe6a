"""The mutant roster: each shortcut in the checks, broken on purpose, and the
named checks that catch it.

A row names a mutant, the binding it patches (module or class, attribute)
and what must follow on the catalog plus 10 seeded random inputs at order
60: the count of inputs on which each check fails.  A mutant inside a
function wraps that function's output, or its input at a binding the
function calls, such as the readout rows the walk hands to rows_vec.
A row that fails nowhere is an equivalent mutant and says why, unless a
unit test catches it on an edited input or a Gram off the star shape,
which the row then names.  A mutant that crashes the checks names the
exception they raise on the inputs instead of counts.  A shortcut added
later adds its row here.
"""

import contextlib
from bisect import bisect_left
from dataclasses import dataclass
from operator import add

import pytest

import test_lattice
import test_verify
from coxlat import lattice, series, verify
from coxlat.cli import main
from coxlat.errors import NotARoot
from coxlat.exact import PowerSeries, poly_add
from coxlat.lattice import Lattice
from coxlat.star import SingularityKind, build
from coxlat.verify import Subject, suite_inputs, verify_lattices

ORDER = 60
INPUTS = suite_inputs(n_random=10)
CHECKS = ("theorem", "orbit-series", "orbit-formulas", "identities")
WITNESS_KEYS = {"identity", "index", "expected", "got"}
TEST_MODULES = (test_verify, test_lattice)  # where a row's caught_by tests live


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
    return lambda readout, v: real(
        [readout[0][:1] + [(j, -x) for j, x in readout[0][1:]], readout[1]], v)


def walk_pairing_without_diagonal(real):
    """The walk's pairing <e, x> without its -2 x_e term."""
    def mutant(readout, v):
        form, pairing = readout
        return real([form, [(j, x) for j, x in pairing if j != form[0][0]]], v)
    return mutant


def delay_line_one_step_long(real):
    """Each arm's delay line one step long: top(k+1) = C(k) - K(k-m-1)."""
    return lambda groups: lambda *args: real(groups)(*[x + i % 2 for i, x in enumerate(args)])


def e_minus_u_row_unchecked(real):
    """The star shape read with row root + 1 taken as E-u's, whatever it holds."""
    def mutant(lat, root, *arms):
        if lat.rank != root + 2:
            return real(lat, root, *arms)
        g = lat.gram_rows()
        for j in range(root):
            g[root + 1][j] = g[j][root + 1] = g[root][j]
        g[root][root + 1] = g[root + 1][root] = g[root + 1][root + 1] = -2
        return real(Lattice(lat.labels, g), root, *arms)
    return mutant


def numerator_one_difference_short(real):
    """(1-t)^(r-3) Delta for (1-t)^(r-2) Delta in the quotient's numerator."""
    return lambda p, times, size: real(p, times - 1, size)


def numerator_cut_one_term_short(real):
    """Delta_which cut to order terms for order + 1 before its differences."""
    return lambda p, times, size: real(p[:size - 1], times, size)


def arm_factors_uncompared(real):
    """The arm factors 1 - t^a_i taken from the invariants without comparing
    the Gram's Delta_zero with their closed form."""
    def mutant(subject):
        inv = subject.lats.invariants
        return [1] * (2 - inv.r) + list(inv.alphas)
    return mutant


def continuant_shifts_at_every_link(real):
    """Each chain's last difference shifted at every link, as if g^2 = 1."""
    return lambda links: real([1] * len(links))


def group_key_without(index):
    """Chains grouped by their (f_R, h_R, g_R^2) without the entry at index:
    each coarser group keeps its first chain's triple and adds the counts."""
    def wrap(real):
        def mutant(groups):
            merged = {}
            for key, count in groups:
                coarse = key[:index] + key[index + 1:]
                first, total = merged.get(coarse, (key, 0))
                merged[coarse] = first, total + count
            return real(list(merged.values()))
        return mutant
    return wrap


def window_join_on_any_continuant(real):
    """The window join for every continuant, as if each were all ones."""
    return lambda p, f: real(p, (1,) * len(f))


def window_join_one_wider(real):
    """Each window join one coefficient wider, cut to the length of p f."""
    return lambda p, f: (real(p, (1,) * (len(f) + 1))[:len(p) + len(f) - 1]
                         if f.count(1) == len(f) else real(p, f))


def cut_keeps_every_index(real):
    """A leading block whose rows keep their nonzeros at column rank and past it."""
    return lambda lat, rank: Lattice._of_rows(real(lat, rank).labels, lat.rows[:rank])


def cut_drops_last_nonzero(real):
    """A leading block whose rows each lose their last nonzero."""
    def mutant(lat, rank):
        block = real(lat, rank)
        return Lattice._of_rows(block.labels, [dict(list(row.items())[:-1]) for row in block.rows])
    return mutant


def window_short_at_top(real):
    """Each column window cut, and its buffer zeroed again, one row short at
    its top: rows low..top-1."""
    return lambda buffer, low, top: real(buffer, low, top - 1)


def window_short_at_bottom(real):
    """Each column window cut, and its buffer zeroed again, one row short at
    its bottom: rows low+1..top, read as if they began at low."""
    return lambda buffer, low, top: real(buffer, low + 1, top)


def residual_without_rows_below_floor(real):
    """The residual of each column without its rows below the floor: every
    column of A read as reaching no row below its own index."""
    return lambda j, low, top, window, form: real(
        j, low, top, window, form._replace(floor=range(len(form.floor)), far=form.far[-1:]))


def class_rows_one_row_late(real):
    """The residual's class rows each read one row lower, so that the row
    above each arm top is read as a class row and the top as a chain row."""
    def mutant(lat):
        form = real(lat)
        runs = [(first + 1, step, last + 1) for first, step, last in form.runs]
        return form._replace(runs=runs, firsts=[first for first, _, _ in runs])
    return mutant


def rest_row_dropped(real):
    """The residual's rows in no class without the first, read as a chain
    row."""
    def mutant(lat):
        form = real(lat)
        return form._replace(rest=form.rest[1:])
    return mutant


def class_constant_off_by_one(real):
    """The zero-arm fill writing c + 1 for the class constant c."""
    return lambda buffer, c, *rest: real(buffer, c + 1, *rest)


def fill_one_coordinate_short(real):
    """The zero-arm fill leaving its least coordinate unwritten."""
    def mutant(buffer, c, start, stop, center, low):
        rows = real(buffer, c, start, stop, center, low)
        least = stop if start == 0 else 0
        if low <= least < center:
            rows[least - low] = 0
        return rows
    return mutant


def guard_blind_past_e_minus_u(real):
    """The zero-arm guard reading each arm step without its pairings past
    E-u, so that it accepts a top that also pairs with u-w."""
    return lambda word, center, arms: real(
        tuple((i, tuple(p for p in pairs if p[0] <= center + 1)) for i, pairs in word), center, arms)


def window_product_one_wider(real):
    """p [a] by windows one coefficient wider, cut to the length of p [a]."""
    return lambda p, a: real(p, a + 1)[:len(p) + a - 1]


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
    return lambda word, j, pos, *rest: real(word, j, min(pos + 1, len(word)), *rest)


def first_touched_column_dropped(real):
    """(a) without the first column that s_E s_{E-u} reads or writes."""
    return lambda word, rank: real(word, rank)[1:]


def border_misses_its_lowest_coordinate(real):
    """Each step's touched coordinates without the lowest, so that a leading
    block's border misses it: the column of V_zero's first arm end (E on A1)
    is taken from V_minus's table and that of E-u in V_plus from V_zero's.
    (a) skips the first arm end, which s_E s_{E-u} fixes on every star."""
    return lambda step, rank: real(step, rank)[1:]


def arm_one_longer(arms):
    """Decoded arm spans with the last arm one vertex longer."""
    return arms and (*arms[:-1], (arms[-1][0], arms[-1][1] + 1))


def walk_handed_an_arm_one_longer(real):
    """The subject's decode handed to the walk with its last arm one vertex
    longer."""
    return lambda lat, root, order, arms=None: real(lat, root, order, arm_one_longer(arms))


def decode_with_an_arm_one_longer(real):
    """The subject's decode with its last arm one vertex longer, read by the
    walk and the closed-form guard alike."""
    def mutant(subject):
        star = real(subject)
        if not star or not star[1]:
            return star
        alphas, arms = star
        return [*alphas[:-1], alphas[-1] + 1], arm_one_longer(arms)
    return mutant


def block_division_one_block_late(real):
    """Division by 1 - t^a by blocks from the second block on: the first
    block past a keeps its coefficients undivided."""
    def mutant(c, a):
        if len(c) > a * (a - 1):
            return real(c, a)
        for s in range(2 * a, len(c), a):
            c[s:s + a] = map(add, c[s:s + a], c[s - a:s])
        return c
    return mutant


def column_floor_never_lowered(real):
    """Each tau column stopped at the reach of its own coordinate: no nonzero
    the run writes lowers the floor."""
    return lambda word, pos, reach, v, low: real(word, pos, [len(reach)] * len(reach), v, low)


def reach_ignores_lower_neighbours(real):
    """reach[k] as the least of k and the indices above k that it pairs
    with, which is k."""
    return lambda word: real(tuple((i, tuple(p for p in pairs if p[0] > i)) for i, pairs in word))


def difference_run_one_step_late(real):
    """Each arm's difference runs from the step after the first that touches
    the difference: every arm coordinate's last neighbour below the arm's
    stop read one index lower.  The run of d_2 starts at the arm's first
    step whatever the neighbours are."""
    def mutant(arm, start, e, alpha, cols, reach):
        stop = start + len(arm)

        def lowered(row):
            k = bisect_left(row, stop) - 1
            return row[:k] + (row[k] - 1,) + row[k + 1:]
        return real(arm, start, e, alpha,
                    [lowered(row) if start <= i < stop else row for i, row in enumerate(cols)], reach)
    return mutant


def difference_floor_one_higher(real):
    """Each arm's difference runs stopped at a floor one index too high:
    every reach read one higher.  The run of d_2 has floor 0 whatever the
    reaches are."""
    return lambda arm, start, e, alpha, cols, reach: real(arm, start, e, alpha, cols,
                                                          [r + 1 for r in reach])


def arm_period_one_more(real):
    """Each arm period one more than the least k with c^k E = E."""
    def mutant(*args):
        k = real(*args)
        return k if k is None else k + 1
    return mutant


@dataclass(frozen=True)
class Row:
    name: str
    owner: object
    attribute: str
    mutant: object      # the real binding -> its mutant
    fails: dict         # check -> number of inputs it fails on
    why_equivalent: str = ""
    caught_by: tuple = ()  # tests in TEST_MODULES that fail under the mutant
    raises: type = None    # the exception the checks raise on the inputs, if they crash


ROSTER = [
    Row("leaf sign of Delta_plus flipped", verify, "star_char_polys", leaf_sign_flipped,
        {"theorem": 11, "orbit-series": 29, "identities": 29}),
    Row("twin factor (1+t)^2", lattice, "poly_mul", twin_factor_plus,
        {"theorem": 29, "orbit-series": 29, "identities": 29}),
    Row("Q = -P_k in p_and_q", verify, "p_and_q", q_is_minus_p_k, {"orbit-series": 29}),
    Row("Fuchsian k = 1 slot of poincare_direct set to 1", verify, "poincare_direct",
        fuchsian_k1_slot_one, {"theorem": 11}),
    # every roster input is a star, whose walk runs as delay lines; a Gram
    # off the star shape walks the word
    Row("walk form functional with +g", series, "rows_vec", walk_form_plus_g, {},
        caught_by=("test_hilbert_gram_off_the_star_shape_prints_the_naive_orbit",)),
    Row("walk pairing without its -2 diagonal", series, "rows_vec",
        walk_pairing_without_diagonal, {},
        caught_by=("test_hilbert_gram_off_the_star_shape_prints_the_naive_orbit",)),
    # A1 has no arms
    Row("delay line one step long", series, "_delay_lines", delay_line_one_step_long,
        {"orbit-series": 28, "orbit-formulas": 28}),
    # every roster V_zero has the E-u row of its star; an edited one does not
    Row("E-u row check skipped", series, "_star_arms", e_minus_u_row_unchecked, {},
        caught_by=("test_off_shape_zero_grams_walk_the_word",)),
    # from three arms the numerator keeps a factor 1 - t too few for the arm
    # factors the quotient divides out
    Row("quotient numerator one difference short", verify, "_differenced",
        numerator_one_difference_short, {"theorem": 23, "orbit-series": 23}),
    # every roster Delta has fewer than ORDER terms, so the cut drops none;
    # the 440-arm star's Delta_plus has 444, and the unit test reads order 100
    Row("quotient numerator cut one term short", verify, "_differenced",
        numerator_cut_one_term_short, {},
        caught_by=("test_quotient_of_440_equal_arms_is_the_direct_series",)),
    # every roster star passes the comparison; an edited Gram does not
    Row("quotient takes the arm factors without comparing Delta_zero", Subject, "_arm_factors",
        arm_factors_uncompared, {},
        caught_by=("test_quotient_matches_dense_recurrence_on_edited_grams",
                   "test_negative_controls_fail_the_theorem_at_the_dense_quotient")),
    # every roster link is 1; chain Grams draw links in -3..3
    Row("continuant shifts d at every link", lattice, "_continuant",
        continuant_shifts_at_every_link, {},
        caught_by=("test_chain_elimination_on_chain_grams",)),
    # on the roster every link and every g_R is 1, so f_R fixes h_R and g_R^2
    Row("chain group key without h_R", lattice, "_join_chains", group_key_without(1), {},
        caught_by=("test_chains_group_by_their_whole_triple",)),
    Row("chain group key without g_R^2", lattice, "_join_chains", group_key_without(2),
        {}, caught_by=("test_chains_group_by_their_whole_triple",)),
    # every roster continuant is all ones; chain Grams and a link of 2 are not
    Row("window join on a continuant that is not all ones", lattice, "_times",
        window_join_on_any_continuant, {},
        caught_by=("test_chain_elimination_on_chain_grams",
                   "test_nonzero_rows_and_chain_elimination_on_stars_and_edits")),
    # every Delta is wrong, and the quotient's guard falls back to the
    # recurrence on the wrong Deltas; A1 has no arms
    Row("window join one coefficient wider", lattice, "_times", window_join_one_wider,
        {"theorem": 28, "orbit-series": 28, "identities": 28}),
    # the walk reads a pairing past V_zero's last index, that of E-u with u-w
    Row("leading block keeps its columns past the rank", Lattice, "_leading",
        cut_keeps_every_index, {}, raises=IndexError,
        caught_by=("test_lattices_of_rows_are_the_dense_input_path",)),
    # each cut row loses the entry itself: A1's V_zero keeps E-u's row
    # without its -2, and the walk's word refuses E-u as a root
    Row("leading block drops each row's last nonzero", Lattice, "_leading",
        cut_drops_last_nonzero, {}, raises=NotARoot,
        caught_by=("test_lattices_of_rows_are_the_dense_input_path",)),
    # the guard of the quotient rejects the wrong closed Delta_zero and falls
    # back to the recurrence, so only the closed-form comparison fails
    Row("window product one coefficient wider", verify, "_window_product",
        window_product_one_wider, {"identities": 28}),
    Row("prefix word one step short", Subject, "word", prefix_word_one_step_short,
        {"identities": 29}),
    # A1 has no arms
    Row("arm run one step long", Subject, "run", arm_run_one_step_long, {"orbit-formulas": 28}),
    Row("tau column one step late", verify, "_column", column_one_step_late,
        {"identities": 29}),
    # a column stopped too early is zero below its floor where tau e_j is
    # not: identities sees A tau e_j nonzero below the floor, and (b) a
    # tau_0 that differs from tau_1 ... tau_r.  On the zero-arm path the fill
    # lowers the floor itself, so only V_zero's arm tops go wrong, whose arm
    # is -1 down from the top: on an arm of alpha >= 4 the floor never
    # lowered stops it two vertices down, and on one of alpha >= 3 reach read
    # as the index itself stops it one vertex down.  A1, A3 and D4 have no
    # such arm for either, and A5, D5 and E6 none of alpha >= 4
    Row("column floor never lowered", verify, "_run_to_floor", column_floor_never_lowered,
        {"orbit-formulas": 23, "identities": 23}),
    Row("reach ignores lower neighbours", verify, "_reach", reach_ignores_lower_neighbours,
        {"orbit-formulas": 26, "identities": 26}),
    # a row left in the buffer spoils the next columns; the zero-arm path
    # builds its windows itself, so only the runs stepped to their floor,
    # which (b) does not compare, go wrong: none on A1, A3 and D4, whose
    # columns are all border columns
    Row("column window one row short at its top", verify, "_take_window", window_short_at_top,
        {"identities": 26}),
    Row("column window one row short at its bottom", verify, "_take_window",
        window_short_at_bottom, {"identities": 26}),
    # a right column has no rows below its floor to compare; a column stopped
    # above its floor is right in its window, and only those rows see it
    Row("residual drops the rows below the floor", verify, "_residual_holds",
        residual_without_rows_below_floor, {},
        caught_by=("test_columns_stopped_above_their_floor_fail_identities",)),
    # a right column passes the dense comparison that a residual failing in
    # error asks for, so only the single-entry test, which also pins that
    # a right table asks for none, sees these
    Row("residual's class rows one row late", verify, "_row_classes", class_rows_one_row_late,
        {}, caught_by=("test_identities_name_every_single_entry_error",)),
    Row("residual's first row in no class read as a chain row", verify, "_row_classes",
        rest_row_dropped, {}, caught_by=("test_identities_name_every_single_entry_error",)),
    # the border columns of tau_minus are wrong, and (b) compares them too;
    # A1 has no arms
    Row("zero-arm class constant off by one", verify, "_fill", class_constant_off_by_one,
        {"orbit-formulas": 28, "identities": 28}),
    Row("zero-arm fill one coordinate short", verify, "_fill", fill_one_coordinate_short,
        {"orbit-formulas": 28, "identities": 28}),
    # no roster top pairs with u-w
    Row("zero-arm guard accepts a top with an extra pairing", verify, "_unit_arms",
        guard_blind_past_e_minus_u, {},
        caught_by=("test_zero_arm_guard_refuses_tops_that_pair_apart",
                   "test_zero_arm_table_is_the_per_step_run")),
    # A1 has no arms, and every arm of A3 and D4 has alpha = 2, whose period
    # takes d_1 and d_2 only
    Row("arm difference run one step late", verify, "_arm_period", difference_run_one_step_late,
        {"orbit-formulas": 26}),
    # so do A1, A3 and D4, and every arm of A5, D5 and E6 has alpha <= 3: the
    # run of d_3 is the last, and c^3 E gains only the nonzeros it writes,
    # which the high floor leaves right
    Row("arm difference floor one index too high", verify, "_arm_period",
        difference_floor_one_higher, {"orbit-formulas": 23}),
    # A1 has no arms
    Row("arm period off by one", verify, "_arm_period", arm_period_one_more, {"orbit-formulas": 28}),
    # identities sees the column wrong for its lattice, and (b) compares V_zero's
    # arm end, or E, with V_minus's as one table entry where g != 0
    Row("leading block's border misses its lowest coordinate", verify, "_touches",
        border_misses_its_lowest_coordinate, {"orbit-formulas": 29, "identities": 29}),
    # the walk is a route, not a guard: P of the longer star fails Q and P + t
    # and the orbit sums; A1 has no arms
    Row("walk handed an arm one vertex longer", verify, "hilbert_P",
        walk_handed_an_arm_one_longer, {"orbit-series": 28, "orbit-formulas": 28}),
    # the closed-form guard reads the wrong alphas and only stops comparing
    Row("decode with an arm one vertex longer", Subject, "star", decode_with_an_arm_one_longer,
        {"orbit-series": 28, "orbit-formulas": 28}),
    # at order 60 the 11 inputs with an arm of alpha >= 9 (61 <= 9 * 8) divide by
    # blocks; at order 200 no roster arm does, and the unit tests do
    Row("block division one block late", verify, "_divide_out", block_division_one_block_late,
        {"theorem": 11, "orbit-series": 11},
        caught_by=("test_quotient_by_blocks_on_the_d_ladder",
                   "test_quotient_by_blocks_with_a_partial_last_block")),
    # s_E s_{E-u} is the identity on every roster star; an edited V_zero moves e_j
    Row("first touched column of (a) dropped", verify, "_touched", first_touched_column_dropped,
        {}, caught_by=("test_zero_gram_off_an_arm_end_fails_pair_run_at_its_column",)),
]


def apply(monkeypatch, row) -> list:
    """Patch the row's binding with its mutant; the returned list counts the
    mutant's calls, on the inputs and in the row's caught_by tests, so a row
    whose binding nothing calls cannot pass."""
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
    with pytest.raises(row.raises) if row.raises else contextlib.nullcontext():
        for subject, inv in INPUTS:
            for report in verify_lattices(build(inv), ORDER, subject):
                assert report.passed == (report.witness is None)
                if not report.passed:
                    assert set(report.witness) == WITNESS_KEYS
                    failed[report.check] += 1
    assert {check: n for check, n in failed.items() if n} == row.fails
    for test in row.caught_by:
        with pytest.raises(AssertionError):
            next(getattr(module, test) for module in TEST_MODULES if hasattr(module, test))()
    assert calls
    assert bool(row.fails or row.caught_by) != bool(row.why_equivalent)


def test_mutant_fails_verify_all(monkeypatch, capsys):
    apply(monkeypatch, ROSTER[0])
    assert main(["verify", "--all", "--random", "10", "--order", str(ORDER)]) == 1
    failures = sum(ROSTER[0].fails.values())
    assert capsys.readouterr().out.endswith(f"{failures} of {4 * len(INPUTS)} checks FAILED\n")
