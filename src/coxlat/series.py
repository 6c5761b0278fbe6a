"""Poincare series: divisor-degree counts and Coxeter-orbit pairings.

Two independent routes to the same generating function.  The direct route
counts sections of the divisors D^(k) on a genus-0 base via the dimension
formula dim L(D) = 1 + deg D.  The lattice route pairs a distinguished
root a with its orbit under the Coxeter element tau, building the two
Hilbert-Poincare series

    P coefficient k : 1 + sum_{l=0}^{k-1} <a, tau^l a>   =  (a, tau^k a)
    Q coefficient k : 1 - sum_{l=1}^{k}  <a, tau^-l a>   =  (a, tau^-k a)  =  -P_{k+1}

where (-,-) is the upper-triangular form with tau = -A^{-1}A^t.  One walk
of a under tau gives both: Q to order n is read off P to order n + 1 (the
proof is in hilbert_Q).  The walk compares the orbit sum with the form
value on every coefficient; a disagreement raises RouteMismatch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import NegativeDimension, NotARoot, RouteMismatch
from .exact import PowerSeries
from .lattice import Lattice, asym_form_matrix, compile_word, nonzeros, reflection_word, rows_vec
# Not called here; perfbench/spans.py wraps these bindings by attribute.
from .lattice import coxeter_inverse_matrix, coxeter_matrix  # noqa: F401
from .star import OrbitInvariants, SingularityKind


@dataclass(frozen=True)
class RootedLattice:
    """A lattice with a distinguished root a, given by coordinates."""

    lattice: Lattice
    root: tuple

    def __post_init__(self):
        object.__setattr__(self, "root", tuple(self.root))
        if len(self.root) != self.lattice.rank:
            raise ValueError("root coordinate length does not match rank")
        norm = self.lattice.pairing(self.root, self.root)
        if norm != -2:
            raise NotARoot(f"distinguished vector has self-pairing {norm}, not -2")

    @classmethod
    def at_basis_index(cls, lat: Lattice, i: int) -> "RootedLattice":
        v = [0] * lat.rank
        v[i] = 1
        return cls(lat, tuple(v))


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


def _row(m, a: Sequence[int]):
    """The row vector a^T m; for m the Gram this is the functional <a, ->."""
    return [sum(ai * x for ai, x in zip(a, col)) for col in zip(*m)]


def hilbert_P(rl: RootedLattice, order: int) -> PowerSeries:
    """P series of (V, a): coefficient k is 1 + sum_{l<k} <a, tau^l a>.

    Every coefficient is checked against the triangular form value
    (a, tau^k a).  tau acts as the reflection word of the whole basis,
    compiled once for the walk together with both functionals.  The word
    is built before the form, so of several basis vectors that are not
    roots the one with the highest index is named.
    """
    lat = rl.lattice
    word = reflection_word(lat, range(lat.rank))
    functionals = nonzeros([_row(asym_form_matrix(lat), rl.root), _row(lat.gram, rl.root)])
    step = compile_word(word, functionals)
    coeffs = []
    v = list(rl.root)
    acc = 1
    form_value, paired = rows_vec(functionals, v)
    for k in range(order + 1):
        if form_value != acc:
            raise RouteMismatch(f"P coefficient {k}: orbit sum {acc} vs form value {form_value}")
        coeffs.append(acc)
        acc += paired
        form_value, paired = step(v)
    return PowerSeries(tuple(coeffs))


def hilbert_Q(rl: RootedLattice, order: int) -> PowerSeries:
    """Q series of (V, a): coefficient k is 1 - sum_{1<=l<=k} <a, tau^-l a>,
    which is (a, tau^-k a) = -P_{k+1}; so Q is read off P to order + 1.

    A tau = -A^t gives (x, tau y) = -(y, x), and then tau^t A tau = A, so
    (a, tau^-k a) = (tau^k a, a) = -(a, tau^{k+1} a).  The sum starts at
    l = 1, as Q(0) = (a, a) = 1 forces.
    """
    return p_and_q(hilbert_P(rl, order + 1))[1]


def p_and_q(walk: PowerSeries) -> tuple:
    """P and Q to order n, read off P to order n + 1 (see hilbert_Q)."""
    return PowerSeries(walk.coeffs[:-1]), PowerSeries(tuple(-c for c in walk.coeffs[1:]))
