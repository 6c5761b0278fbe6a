"""Poincare series: divisor-degree counts and Coxeter-orbit pairings.

Two independent routes to the same generating function.  The direct route
counts sections of the divisors D^(k) on a genus-0 base via the dimension
formula dim L(D) = 1 + deg D.  The lattice route pairs a distinguished
root a with its orbit under the Coxeter element tau, building the two
Hilbert-Poincare series

    P coefficient k : 1 + sum_{l=0}^{k-1} <a, tau^l a>   =  (a, tau^k a)
    Q coefficient k : 1 - sum_{l=1}^{k}  <a, tau^-l a>   =  (a, tau^-k a)

where (-,-) is the upper-triangular form with tau = -A^{-1}A^t.  Both
evaluations are carried out and compared on every call; a disagreement
raises RouteMismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import NegativeDimension, NotARoot, RouteMismatch
from .exact import PowerSeries
from .lattice import (
    Lattice,
    asym_form_matrix,
    coxeter_inverse_matrix,
    coxeter_matrix,
    linear_map,
)
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
    the genus-0 vanishing hypothesis fails for this input.
    """
    coeffs = []
    for k in range(order + 1):
        if kind is SingularityKind.FUCHSIAN and k == 1:
            coeffs.append(0)
            continue
        dim = 1 + divisor_degree(inv, kind, k)
        if dim < 0:
            raise NegativeDimension(f"1 + deg D^({k}) = {dim} < 0")
        coeffs.append(dim)
    return PowerSeries(tuple(coeffs))


def _row(m, a: Sequence[int]):
    """The row vector a^T m; for m the Gram this is the functional <a, ->."""
    return [sum(ai * x for ai, x in zip(a, col)) for col in zip(*m)]


def _orbit_walk(rl: RootedLattice, order: int, name: str, step, pair) -> PowerSeries:
    """Coefficient k is 1 + sum_{l<k} pair . step^l a, checked on every k
    against the triangular form value (a, step^k a).  The step matrix and
    both functionals are compiled once for the walk."""
    functionals = linear_map([_row(asym_form_matrix(rl.lattice), rl.root), pair])
    step = linear_map(step)
    coeffs = []
    v = list(rl.root)
    acc = 1
    for k in range(order + 1):
        form_value, paired = functionals(v)
        if form_value != acc:
            raise RouteMismatch(f"{name} coefficient {k}: orbit sum {acc} vs form value {form_value}")
        coeffs.append(acc)
        acc += paired
        v = step(v)
    return PowerSeries(tuple(coeffs))


def hilbert_P(rl: RootedLattice, order: int) -> PowerSeries:
    """P series of (V, a): coefficient k is 1 + sum_{l<k} <a, tau^l a>."""
    lat = rl.lattice
    return _orbit_walk(rl, order, "P", coxeter_matrix(lat), _row(lat.gram, rl.root))


def hilbert_Q(rl: RootedLattice, order: int) -> PowerSeries:
    """Q series of (V, a): coefficient k is 1 - sum_{1<=l<=k} <a, tau^-l a>.

    The sum genuinely starts at l = 1; starting it at 0 would make the
    constant coefficient 3 instead of (a, a) = 1.  The walk steps v
    through tau^-l a and adds -<a, tau^-1 v>, so its pairing row is
    -<a, -> tau^-1.
    """
    lat = rl.lattice
    tau_inv = coxeter_inverse_matrix(lat)
    pair = [-x for x in _row(tau_inv, _row(lat.gram, rl.root))]
    return _orbit_walk(rl, order, "Q", tau_inv, pair)
