"""Poincare series: divisor-degree counts and Coxeter-orbit pairings.

Two independent routes to the same generating function.  The direct route
counts sections of the divisors D^(k) on a genus-0 base via the dimension
formula dim L(D) = 1 + deg D.  The lattice route pairs a basis root e = e_i
with its orbit under the Coxeter element tau, building the two
Hilbert-Poincare series

    P coefficient k : 1 + sum_{l=0}^{k-1} <e, tau^l e>   =  (e, tau^k e)
    Q coefficient k : 1 - sum_{l=1}^{k}  <e, tau^-l e>   =  (e, tau^-k e)  =  -P_{k+1}

where (-,-) is the upper-triangular form with tau = -A^{-1}A^t.  Both
functionals the walk reads, <e, -> and (e, -), are row i of the Gram and
row i of A, so they come off one Gram row in O(rank).  One walk of e under
tau gives both series: Q to order n is read off P to order n + 1 (the proof
is in hilbert_Q).  The walk compares the orbit sum with the form value on
every coefficient; a disagreement raises RouteMismatch.

The orbit comes from one of two generators.  On a Gram of V_zero's star
shape rooted at E, each arm runs as a delay line (_delay_lines), at a cost
per coefficient of O(distinct arm lengths); on any other Gram or root
apply_word steps the whole reflection word, at O(nnz(Gram)).  A Gram of
that shape given without a root is rooted at E (hilbert_P).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from itertools import accumulate, chain, cycle, islice, repeat
from operator import add

from .errors import CoxlatError, NegativeDimension, NotAStarLattice, RouteMismatch, TooLarge
from .exact import PowerSeries
from .lattice import Lattice, apply_word, reflection_word, rows_vec
# Not called here; perfbench/spans.py wraps these bindings by attribute.
from .lattice import asym_form_matrix, coxeter_inverse_matrix, coxeter_matrix  # noqa: F401
from .star import OrbitInvariants, SingularityKind, decode_star


def divisor_degree(inv: OrbitInvariants, kind: SingularityKind, k: int) -> int:
    """deg D^(k) for weight k.

    Kleinian: k(2-r) + sum floor(k/alpha_i)          (deg D_0 = 2 - r)
    Fuchsian: -2k + sum floor(k(alpha_i-1)/alpha_i)  (deg D_0 = 2g - 2 = -2)
    """
    if kind is SingularityKind.KLEINIAN:
        return k * (2 - inv.r) + sum(k // a for a in inv.alphas)
    return -2 * k + sum((k * (a - 1)) // a for a in inv.alphas)


def divisor_counts(inv: OrbitInvariants, kind: SingularityKind, order: int) -> list:
    """1 + deg D^(k) for k = 0..order, the formulas of divisor_degree.

    With b = 1 (Kleinian) or alpha - 1 (Fuchsian), the increment
    floor(kb/alpha) - floor((k-1)b/alpha) has period alpha in k, since
    floor((k + alpha)b/alpha) = floor(kb/alpha) + b.  So the increments of
    1 + deg D^(k) are the slope plus, for each distinct alpha, one period
    of them weighted by its arm count and repeated; one prefix sum from 1
    gives the column, and a star of many equal arms costs one period.
    """
    fuchsian = kind is SingularityKind.FUCHSIAN
    steps = repeat(-2 if fuchsian else 2 - inv.r, order)
    for a, count in Counter(inv.alphas).items():
        b = a - 1 if fuchsian else 1
        period = [count * (k * b // a - (k - 1) * b // a) for k in range(1, a + 1)]
        steps = map(add, steps, cycle(period))
    return list(accumulate(steps, initial=1))


def poincare_direct(inv: OrbitInvariants, kind: SingularityKind, order: int) -> PowerSeries:
    """Series of graded dimensions dim L(D^(k)) for k = 0..order.

    dim L(D^(k)) = 1 + deg D^(k) (divisor_counts), except the Fuchsian
    k = 1 coefficient which is dim L(D_0) = g = 0.  A negative 1 + deg
    anywhere else means the genus-0 vanishing hypothesis fails for this
    input; the error names the first such k.
    """
    coeffs = divisor_counts(inv, kind, order)
    if kind is SingularityKind.FUCHSIAN and order >= 1:
        coeffs[1] = 0
    if min(coeffs) < 0:
        k = next(k for k, dim in enumerate(coeffs) if dim < 0)
        raise NegativeDimension(f"1 + deg D^({k}) = {coeffs[k]} < 0")
    return PowerSeries(tuple(coeffs))


def _star_arms(lat: Lattice, root: int, arms=None):
    """The arms of lat as (count, length) pairs by length, where lat has the
    shape of V_zero rooted at E; None otherwise.  The shape is read off the
    Gram's rows alone, in O(nnz): rank root + 2; a leading block of rank
    root + 1 that decode_star reads as a star centered at root; and row
    root + 1, E-u, equal to row root, E, so <E-u, E-u> = <E-u, E> = -2.
    Given arms, the spans that decode_star read off that block, the block is
    not decoded again."""
    if lat.rank != root + 2 or lat.rows[root] != lat.rows[root + 1]:
        return None
    if arms is None:
        try:
            arms = decode_star(lat._leading(root + 1))[1]
        except NotAStarLattice:
            return None
    lengths = Counter(stop - start for start, stop in arms)
    return [(count, m) for m, count in sorted(lengths.items())]


@functools.cache
def _delay_lines(groups: int):
    """The orbit generator of E on a V_zero star with this many distinct arm
    lengths: orbit(n_0, m_0, ..., n_{g-1}, m_{g-1}) for n_i arms of m_i
    vertices each, yielding ((e, x), <e, x>) after each application of tau.

    The word rewrites E-u, then E, then each arm from its top (the vertex
    next to E) to its leaf.  E-u pairs as E does, so with T the sum of the
    arm tops, x_F = T - 2 x_E - x_F and then x_E = T - 2 x_F - x_E.  Let C
    be the new x_E + x_F and K = C - (old top).  On an arm x_1 (the leaf)
    .. x_m (the top), the top pairs with E, E-u and x_{m-1}, so it becomes
    -x_m + x_{m-1} + C = K + x_{m-1}; then x_{m-1} reads the new top and
    becomes -x_{m-1} + x_{m-2} + K + x_{m-1} = K + x_{m-2}, and so on down
    to the leaf: x_j <- K + x_{j-1}, with x_0 := 0.

    Number the applications k = 0, 1, ..., with top(k) the top before
    application k and C(k), K(k) = C(k) - top(k) computed in it.  From a
    zero arm, as e = E starts, the coordinate x_j before application k is
    K(k-1) + ... + K(k-j), with K(i) = 0 for i < 0, so

        top(k+1) = K(k) + top(k) - K(k-m) = C(k) - K(k-m):

    one append and one index per arm length and coefficient.  Arms of equal
    length hold equal coordinates, so they share one line, weighted by their
    count in T.  The readouts of row E are (e, x) = x_E + 2 x_F and
    <e, x> = T - 2 x_E - 2 x_F."""
    lines = range(groups)
    source = (f"def orbit({', '.join(f'n{i}, m{i}' for i in lines)}):\n"
              "    e, f, t, k = 1, 0, 0, 0\n"
              + "".join(f"    t{i}, h{i} = 0, [0] * m{i}\n" for i in lines)
              + "    while True:\n"
              "        f = t - 2 * e - f\n"
              "        e = t - 2 * f - e\n"
              "        c = e + f\n"
              + "".join(f"        h{i}.append(c - t{i})\n        t{i} = c - h{i}[k]\n"
                        for i in lines)
              + f"        k += 1\n        t = {' + '.join(f'n{i} * t{i}' for i in lines) or 0}\n"
              "        yield c + f, t - 2 * c\n")
    namespace = {}
    exec(compile(source, "<_delay_lines>", "exec"), namespace)
    return namespace.pop("orbit")


def hilbert_P(lat: Lattice, root: int | None, order: int, arms=None) -> PowerSeries:
    """P series of (V, e) for e the basis vector at index root: coefficient k
    is 1 + sum_{l<k} <e, tau^l e>.  A caller that has decoded the leading
    block of rank root + 1 as a star passes its arm spans as arms, and the
    shape read takes them for its decode (_star_arms).

    A root of None is E where the Gram has the shape of V_zero rooted at E
    (_star_arms), and the last vertex otherwise.  On V_zero's shape the last
    vertex is E-u, and every reflection fixes the radical vector u, so
    P(E-u) = P(E): the series is the one the last vertex gives, and the
    shape is read once, for the root and the walk alike.

    Every coefficient is checked against the triangular form value
    (e, tau^k e), read off Gram row root, g_j = <e, e_j>:

        (e, x) = x_root - sum_{j > root} g_j x_j     (row root of A)
        <e, x> = sum_j g_j x_j

    Where the Gram has the shape of V_zero and root is E (_star_arms), the
    orbit is that of _delay_lines, O(distinct arm lengths) per
    coefficient.  Elsewhere tau acts as the reflection word of the whole
    basis: apply_word steps one vector in place, once per coefficient, and
    rows_vec reads both functionals off it.  The word requires every basis
    vector, e too, to be a root; it is built before the functionals, so of
    several basis vectors that are not roots the one with the highest index
    is named.  On an indefinite Gram the coefficients grow exponentially;
    the walk draws one application per coefficient, so the first too long
    to print raises TooLarge at once, without walking on.
    """
    if root is None:
        arms = _star_arms(lat, lat.rank - 2) if lat.rank > 1 else None
        root = lat.rank - (1 if arms is None else 2)
    elif not 0 <= root < lat.rank:
        raise CoxlatError(f"root index {root} out of range for rank {lat.rank}")
    else:
        arms = _star_arms(lat, root, arms)
    row = lat.rows[root]
    if arms is None:
        word = reflection_word(lat, range(lat.rank))
        pairing = list(row.items())
        form = [(root, 1)] + [(j, -g) for j, g in pairing if j > root]
        e = [0] * lat.rank
        e[root] = 1
        orbit = (rows_vec([form, pairing], apply_word(word, e)) for _ in repeat(None))
    else:
        orbit = _delay_lines(len(arms))(*chain.from_iterable(arms))
    # (e, e) and <e, e>, then both functionals at tau^k e for k = 1, 2, ...
    values = chain([(1, row[root])], orbit)
    digits = sys.get_int_max_str_digits()  # 0: no limit
    bound = 10 ** digits if digits else None
    coeffs = []
    acc = 1
    for k, (form_value, paired) in enumerate(islice(values, order + 1)):
        if form_value != acc:
            raise RouteMismatch(f"P coefficient {k}: orbit sum {acc} vs form value {form_value}")
        if bound and not -bound < acc < bound:
            raise TooLarge(f"P coefficient {k} has more than {digits} digits, Python's limit to print")
        coeffs.append(acc)
        acc += paired
    return PowerSeries(tuple(coeffs))


def hilbert_Q(lat: Lattice, root: int, order: int) -> PowerSeries:
    """Q series of (V, e) for e the basis vector at index root: coefficient
    k is 1 - sum_{1<=l<=k} <e, tau^-l e>, which is (e, tau^-k e) = -P_{k+1};
    so Q is read off P to order + 1.

    A tau = -A^t gives (x, tau y) = -(y, x), and then tau^t A tau = A, so
    (e, tau^-k e) = (tau^k e, e) = -(e, tau^{k+1} e).  The sum starts at
    l = 1, as Q(0) = (e, e) = 1 forces.
    """
    return p_and_q(hilbert_P(lat, root, order + 1))[1]


def p_and_q(walk: PowerSeries) -> tuple:
    """P and Q to order n, read off P to order n + 1 (see hilbert_Q)."""
    return PowerSeries(walk.coeffs[:-1]), PowerSeries(tuple(-c for c in walk.coeffs[1:]))
