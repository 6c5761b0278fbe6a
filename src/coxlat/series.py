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
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import chain, islice

from .errors import CoxlatError, NegativeDimension, RouteMismatch, TooLarge
from .exact import PowerSeries
from .lattice import Lattice, compile_word, reflection_word
# Not called here; perfbench/spans.py wraps these bindings by attribute.
from .lattice import asym_form_matrix, coxeter_inverse_matrix, coxeter_matrix  # noqa: F401
from .star import OrbitInvariants, SingularityKind


def divisor_degree(inv: OrbitInvariants, kind: SingularityKind, k: int) -> int:
    """deg D^(k) for weight k.

    Kleinian: k(2-r) + sum floor(k/alpha_i)          (deg D_0 = 2 - r)
    Fuchsian: -2k + sum floor(k(alpha_i-1)/alpha_i)  (deg D_0 = 2g - 2 = -2)
    """
    if kind is SingularityKind.KLEINIAN:
        return k * (2 - inv.r) + sum(k // a for a in inv.alphas)
    return -2 * k + sum((k * (a - 1)) // a for a in inv.alphas)


def poincare_direct(inv: OrbitInvariants, kind: SingularityKind, order: int) -> PowerSeries:
    """Series of graded dimensions dim L(D^(k)) for k = 0..order.

    dim L(D^(k)) = 1 + deg D^(k), except the Fuchsian k = 1 coefficient
    which is dim L(D_0) = g = 0.  A negative 1 + deg anywhere else means
    the genus-0 vanishing hypothesis fails for this input; the error names
    the first such k.

    The degrees of divisor_degree are summed arm by arm: one column of
    floors for k = 0..order per distinct alpha, weighted by the number of
    arms that carry it, is added to the running sum, so a star of many
    equal arms costs one column and memory stays O(order).
    """
    fuchsian = kind is SingularityKind.FUCHSIAN
    slope = -2 if fuchsian else 2 - inv.r
    coeffs = [1 + slope * k for k in range(order + 1)]
    for a, count in Counter(inv.alphas).items():
        b = a - 1 if fuchsian else 1
        coeffs = [c + count * (k * b // a) for k, c in enumerate(coeffs)]
    if fuchsian and order >= 1:
        coeffs[1] = 0
    for k, dim in enumerate(coeffs):
        if dim < 0:
            raise NegativeDimension(f"1 + deg D^({k}) = {dim} < 0")
    return PowerSeries(tuple(coeffs))


def hilbert_P(lat: Lattice, root: int, order: int) -> PowerSeries:
    """P series of (V, e) for e the basis vector at index root: coefficient k
    is 1 + sum_{l<k} <e, tau^l e>.

    Every coefficient is checked against the triangular form value
    (e, tau^k e).  tau acts as the reflection word of the whole basis,
    compiled once into the generator of the orbit of e together with both
    functionals, read off Gram row root, g_j = <e, e_j>:

        (e, x) = x_root - sum_{j > root} g_j x_j     (row root of A)
        <e, x> = sum_j g_j x_j

    The word requires every basis vector, e too, to be a root; it is built
    before the functionals, so of several basis vectors that are not roots
    the one with the highest index is named.  On an indefinite Gram the
    coefficients grow exponentially; the walk draws one application per
    coefficient, so the first too long to print raises TooLarge at once,
    without walking on.
    """
    if not 0 <= root < lat.rank:
        raise CoxlatError(f"root index {root} out of range for rank {lat.rank}")
    word = reflection_word(lat, range(lat.rank))
    row = lat.gram[root]
    form = [(root, 1)] + [(j, -g) for j, g in enumerate(row[root + 1:], root + 1) if g]
    pairing = [(j, g) for j, g in enumerate(row) if g]
    e = [0] * lat.rank
    e[root] = 1
    # (e, e) and <e, e>, then both functionals at tau^k e for k = 1, 2, ...
    values = chain([(1, row[root])], compile_word(word, [form, pairing])(e))
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
