"""Star-shaped root lattices from orbit invariants.

The orbit invariants {g; b; (alpha_1,beta_1),...,(alpha_r,beta_r)} of a
genus-0 graded surface singularity determine a star of (-2)-curves: r
chains of lengths alpha_i - 1 attached to a central vertex E.  This module
validates the invariants (Kleinian vs Fuchsian pattern), builds the star
lattice and its two extensions

    V_minus : the bare star, basis (arm chains..., E)
    V_zero  : V_minus extended by an orthogonal isotropic u, basis (..., E-u)
    V_plus  : V_minus extended by a hyperbolic plane <u, w>, basis (..., E-u, u-w)

of which it builds V_plus alone: V_minus and V_zero are its leading blocks,
and decodes Gram matrices back into invariants for the JSON interfaces.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Sequence

from .errors import CoxlatError, NeitherKind, NotAStarLattice, UnknownName
from .lattice import Lattice, json_ints


class SingularityKind(enum.Enum):
    KLEINIAN = "kleinian"
    FUCHSIAN = "fuchsian"

    @property
    def top(self) -> str:
        """The lattice whose Delta is the series numerator: minus Kleinian, plus Fuchsian."""
        return "minus" if self is SingularityKind.KLEINIAN else "plus"


@dataclass(frozen=True)
class OrbitInvariants:
    """The tuple {g; b; (alpha_1,beta_1),...,(alpha_r,beta_r)}.

    Pairs are kept sorted by (alpha, beta); each pair needs
    0 < beta < alpha and gcd(alpha, beta) = 1.
    """

    genus: int
    b: int
    pairs: tuple

    def __post_init__(self):
        pairs = tuple(sorted((int(a), int(b)) for a, b in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        for a, b in pairs:
            if a < 2:
                raise ValueError(f"alpha must be >= 2, got {a}")
            if not 0 < b < a:
                raise ValueError(f"beta must satisfy 0 < beta < alpha, got ({a},{b})")
            if math.gcd(a, b) != 1:
                raise ValueError(f"alpha and beta must be coprime, got ({a},{b})")

    @property
    def r(self) -> int:
        return len(self.pairs)

    @functools.cached_property
    def alphas(self) -> tuple:
        return tuple(a for a, _ in self.pairs)

    def describe(self) -> str:
        pairs = ",".join(f"({a},{b})" for a, b in self.pairs)
        return f"{{{self.genus}; {self.b}; {pairs}}}"

    def to_json(self) -> dict:
        return {"g": self.genus, "b": self.b, "pairs": [list(p) for p in self.pairs]}


def kleinian_invariants(alphas: Sequence[int]) -> OrbitInvariants:
    """Kleinian pattern {0; 2; (alpha_i, alpha_i - 1)}."""
    return OrbitInvariants(0, 2, tuple((a, a - 1) for a in alphas))


def fuchsian_invariants(alphas: Sequence[int]) -> OrbitInvariants:
    """Genus-0 Fuchsian pattern {0; r-2; (alpha_i, 1)}."""
    return OrbitInvariants(0, len(alphas) - 2, tuple((a, 1) for a in alphas))


def _reciprocal_sum(alphas: Sequence[int]) -> Fraction:
    return sum((Fraction(1, a) for a in alphas), Fraction(0))


def classify_alphas(alphas: Sequence[int]) -> SingularityKind:
    """Kind from the ramification indices alone, by the sum-of-reciprocals test."""
    s = _reciprocal_sum(alphas)
    r = len(alphas)
    if s > r - 2:
        return SingularityKind.KLEINIAN
    if s < r - 2:
        return SingularityKind.FUCHSIAN
    raise NeitherKind(
        f"sum of 1/alpha equals r - 2 = {r - 2} for alpha={tuple(alphas)}; boundary case"
    )


def validate(inv: OrbitInvariants) -> SingularityKind:
    """Classify validated orbit invariants as Kleinian or Fuchsian.

    Kleinian: b = 2, every beta_i = alpha_i - 1, sum 1/alpha_i > r - 2.
    Fuchsian: b = r - 2, every beta_i = 1,       sum 1/alpha_i < r - 2.
    Either pattern satisfies the Gorenstein relations R*beta_i = 1 mod alpha_i
    and R*vdeg = 2 - r + sum 1/alpha_i identically (R = -1 Kleinian, +1
    Fuchsian, vdeg = -b + sum beta_i/alpha_i), so they need no check here.
    """
    if inv.genus != 0:
        raise NeitherKind(f"only genus 0 is supported, got g={inv.genus}")
    r = inv.r
    s = _reciprocal_sum(inv.alphas)
    if inv.b == 2 and all(b == a - 1 for a, b in inv.pairs) and s > r - 2:
        return SingularityKind.KLEINIAN
    if inv.b == r - 2 and all(b == 1 for a, b in inv.pairs) and s < r - 2:
        return SingularityKind.FUCHSIAN
    raise NeitherKind(f"invariants {inv.describe()} match neither pattern")


# ---------------------------------------------------------------------------
# lattice construction


@dataclass(frozen=True)
class StarLattices:
    """The lattices V_minus, V_zero, V_plus of one star, with bookkeeping.

    ``arms`` holds the index span [start, stop) of each chain in the minus
    basis; ``center`` is the index of E (always last in the minus basis).
    Only V_plus is held: V_minus and V_zero are its leading blocks of ranks
    center + 1 and center + 2, cut on first use, so they are basis prefixes
    of V_plus on every route.  star_char_polys and the word runs of
    verify.Subject rely on it.
    """

    invariants: OrbitInvariants
    kind: SingularityKind
    plus: Lattice
    center: int
    arms: tuple

    def _leading(self, rank: int) -> Lattice:
        return Lattice(self.plus.labels[:rank], [row[:rank] for row in self.plus.gram[:rank]])

    @functools.cached_property
    def minus(self) -> Lattice:
        return self._leading(self.center + 1)

    @functools.cached_property
    def zero(self) -> Lattice:
        return self._leading(self.center + 2)

    @property
    def f_index(self) -> int:
        """Index of E-u in the zero (and plus) basis."""
        return self.center + 1

    @property
    def u_zero(self) -> tuple:
        """Coordinates of the isotropic u = E - (E-u) in the zero basis."""
        v = [0] * (self.center + 2)
        v[self.center] = 1
        v[self.f_index] = -1
        return tuple(v)


def _star_rows(alphas: Sequence[int]):
    """Labels and Gram rows of the bare star: chains of length alpha_i - 1,
    center E last.  Returns (labels, gram, arms, center)."""
    labels = []
    arms = []
    for i, a in enumerate(alphas, start=1):
        start = len(labels)
        labels.extend(f"E{i}^{j}" for j in range(1, a))
        arms.append((start, len(labels)))
    center = len(labels)
    labels.append("E")
    n = len(labels)
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        gram[i][i] = -2
    for start, stop in arms:
        for i in range(start, stop - 1):
            gram[i][i + 1] = gram[i + 1][i] = 1
        gram[stop - 1][center] = gram[center][stop - 1] = 1
    return labels, gram, tuple(arms), center


def extend_star(labels, gram) -> Lattice:
    """V_plus: the lattice of these labels and Gram rows, whose last basis
    vector is E, with E-u and then u-w adjoined.

    E-u pairs with everything exactly as E does except <E-u, E-u> = -2 and
    <E-u, E> = -2 (u is isotropic and orthogonal to the star); u-w pairs
    only with E-u, value 1.
    """
    n = len(gram)
    e_row = gram[n - 1]
    f_row = [*e_row, -2, 1]
    f_row[n - 1] = -2
    return Lattice((*labels, "E-u", "u-w"),
                   [[*row, e, 0] for row, e in zip(gram, e_row)] + [f_row, [0] * n + [1, -2]])


def build(inv: OrbitInvariants) -> StarLattices:
    """Validate the invariants and construct V_plus from the star's rows."""
    kind = validate(inv)
    labels, gram, arms, center = _star_rows(inv.alphas)
    return StarLattices(inv, kind, extend_star(labels, gram), center, arms)


def lattices_from_minus(minus: Lattice, inv: OrbitInvariants, kind: SingularityKind,
                        arms: tuple, center: int) -> StarLattices:
    """Assemble StarLattices around a caller-supplied minus lattice, E last."""
    if center != minus.rank - 1:
        raise ValueError(f"center {center} is not the last index {minus.rank - 1} of V_minus")
    return StarLattices(inv, kind, extend_star(minus.labels, minus.gram), center, arms)


def decode_star(lat: Lattice):
    """Read the arm structure off a star Gram matrix.

    Expects the central vertex last, each arm a contiguous chain ordered
    from its free end toward the center, self-pairings -2 and off-diagonal
    pairings 0 or 1.  Returns (alphas, arms) in basis order; raises
    NotAStarLattice (with the offending index) otherwise.
    """
    n = lat.rank
    if n == 0:
        raise NotAStarLattice("empty Gram matrix", index=0)
    center = n - 1
    for i, row in enumerate(lat.gram):
        if row[i] != -2:
            raise NotAStarLattice(f"vertex {i} has self-pairing {row[i]}", index=i)
        for j in compress(range(i + 1, n), row[i + 1:]):
            if row[j] != 1:
                raise NotAStarLattice(f"pairing <{i},{j}> = {row[j]} not in {{0,1}}", index=i)
    arms = []
    i = 0
    while i < center:
        j = i
        while j + 1 < center and lat.gram[j][j + 1] == 1:
            j += 1
        if lat.gram[j][center] != 1:
            raise NotAStarLattice(
                f"chain ending at vertex {j} is not attached to the center", index=j
            )
        for k in range(i, j):
            if lat.gram[k][center] != 0:
                raise NotAStarLattice(
                    f"interior chain vertex {k} touches the center", index=k
                )
        arms.append((i, j + 1))
        i = j + 1
    # no pairings other than consecutive-in-chain and chain-end-to-center:
    # the arms cover 0..center-1, and a pairing of i with i + 1 is a link
    # (a chain stops where there is none), so any other nonzero is wrong
    for i in range(center):
        row = lat.gram[i]
        j = next(compress(range(i + 2, center), row[i + 2:center]), None)
        if j is not None:
            raise NotAStarLattice(f"unexpected pairing <{i},{j}> = {row[j]}", index=i)
    alphas = [stop - start + 1 for start, stop in arms]
    return alphas, tuple(arms)


def invariants_from_star(lat: Lattice) -> tuple:
    """Decode a star Gram matrix and classify it.

    Returns (invariants, kind, arms).  The kind is decided by the
    sum-of-reciprocals test on the decoded ramification indices, all >= 2,
    so its pattern is one that validate accepts.
    """
    alphas, arms = decode_star(lat)
    kind = classify_alphas(alphas)
    pattern = kleinian_invariants if kind is SingularityKind.KLEINIAN else fuchsian_invariants
    return pattern(alphas), kind, arms


# ---------------------------------------------------------------------------
# catalog and JSON interface

_CATALOG_NAMES = (
    ["A1"]
    + [f"A{2 * a - 1}" for a in range(2, 7)]
    + [f"D{n + 2}" for n in range(2, 11)]
    + ["E6", "E7", "E8", "E12"]
)

_EXCEPTIONAL = {
    "E6": ("kleinian", (2, 3, 3)),
    "E7": ("kleinian", (2, 3, 4)),
    "E8": ("kleinian", (2, 3, 5)),
    "E12": ("fuchsian", (2, 3, 7)),
}


def catalog(name: str) -> OrbitInvariants:
    """Named entries: A1, A{2a-1}, D{n}, E6, E7, E8 (Kleinian), E12 (Fuchsian).

    Even-index A types are deliberately absent: their weights and degree
    are not determined by the star data alone.
    """
    if name in _EXCEPTIONAL:
        kind, alphas = _EXCEPTIONAL[name]
        return kleinian_invariants(alphas) if kind == "kleinian" else fuchsian_invariants(alphas)
    m = re.fullmatch(r"A(\d+)", name)
    if m:
        idx = int(m.group(1))
        if idx == 1:
            return kleinian_invariants(())
        if idx % 2 == 1 and idx >= 3:
            a = (idx + 1) // 2
            return kleinian_invariants((a, a))
        raise UnknownName(
            f"{name!r}: even-index A types have no canonical orbit invariants here"
        )
    m = re.fullmatch(r"D(\d+)", name)
    if m:
        idx = int(m.group(1))
        if idx >= 4:
            return kleinian_invariants((2, 2, idx - 2))
        raise UnknownName(f"{name!r}: D types start at D4")
    raise UnknownName(f"no catalog entry named {name!r}")


def catalog_names() -> list:
    """The built-in roster used by `verify --all`."""
    return list(_CATALOG_NAMES)


def invariants_from_json(obj: dict) -> OrbitInvariants:
    """Parse either the full record {"g","b","pairs"} or the shorthand
    {"kind": "kleinian"|"fuchsian", "alpha": [...]}."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    if "kind" in obj:
        if "alpha" not in obj:
            raise CoxlatError("shorthand invariants need an 'alpha' list next to 'kind'")
        kind = str(obj["kind"]).lower()
        alphas = json_ints(obj["alpha"], "'alpha'")
        if kind == "kleinian":
            return kleinian_invariants(alphas)
        if kind == "fuchsian":
            return fuchsian_invariants(alphas)
        raise ValueError(f"unknown kind {obj['kind']!r}")
    if "pairs" in obj:
        pairs = obj["pairs"]
        if not isinstance(pairs, list) or any(len(json_ints(p, "each pair")) != 2 for p in pairs):
            raise CoxlatError("'pairs' must be a list of [alpha, beta] pairs")
        g, b = obj.get("g", 0), obj.get("b")
        if type(g) is not int or type(b) is not int:
            raise CoxlatError("'g' and 'b' must be integers")
        return OrbitInvariants(g, b, tuple(map(tuple, pairs)))
    raise ValueError("invariants JSON needs either 'kind'+'alpha' or 'g','b','pairs'")
