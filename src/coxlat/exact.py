"""Exact integer polynomials and truncated formal power series.

A polynomial is a plain list of Python ints indexed by degree, with no
trailing zeros; the zero polynomial is the empty list.  Python's unbounded
integers provide the exact arithmetic.  A PowerSeries wraps a coefficient
tuple of fixed length order+1.  Division that would leave a fractional
coefficient raises NonIntegralCoefficient instead of silently promoting
to rationals: every series in scope is integral, so a fraction signals a
construction bug upstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NonIntegralCoefficient, OrderMismatch, ZeroConstantTerm

Poly = list  # list[int] indexed by degree, canonical (no trailing zeros)


def poly_trim(coeffs: Iterable[int]) -> Poly:
    """Strip trailing zeros, giving the canonical representative."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(p: Sequence[int], q: Sequence[int]) -> Poly:
    """p * q, visiting only the nonzero coefficients of p."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q, i):
                out[j] += a * b
    return poly_trim(out)


def poly_add(p: Sequence[int], q: Sequence[int], scale: int = 1, shift: int = 0) -> Poly:
    """p + scale * t^shift * q."""
    out = list(p) + [0] * max(0, len(q) + shift - len(p))
    for i, c in enumerate(q, shift):
        out[i] += scale * c
    return poly_trim(out)


def poly_to_string(p: Sequence[int]) -> str:
    """Signed monomials, highest degree first, e.g. ``t^2 - 2*t + 1``."""
    if not p:
        return "0"
    parts = []
    for d in range(len(p) - 1, -1, -1):
        c = p[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if d == 0:
            body = str(mag)
        else:
            t = "t" if d == 1 else f"t^{d}"
            body = t if mag == 1 else f"{mag}*{t}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


@dataclass(frozen=True)
class PowerSeries:
    """Formal power series truncated at a fixed order, exact coefficients.

    ``coeffs`` has length order+1; index = power of t.
    """

    coeffs: tuple

    def __post_init__(self):
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("a power series carries at least its order-0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]

    def __len__(self) -> int:
        return len(self.coeffs)

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": list(self.coeffs)}

    def __str__(self):
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


def series_from_rational(num: Sequence[int], den: Sequence[int], order: int) -> PowerSeries:
    """Expand num/den as a power series up to the given order.

    Uses the linear recurrence den[0]*c[k] = num[k] - sum_j den[j]*c[k-j],
    summed over the nonzero den[j] only, so each coefficient costs one
    product per nonzero term of den, not one per degree: a denominator
    such as prod (1 - t^a_i) has a few terms spread over a high degree.
    Raises ZeroConstantTerm if den(0) = 0 and NonIntegralCoefficient as
    soon as a coefficient fails to divide exactly.
    """
    num = poly_trim(num)[:order + 1]
    den = poly_trim(den)
    if not den or den[0] == 0:
        raise ZeroConstantTerm("denominator has zero constant term")
    d0, deg = den[0], len(den) - 1
    # out holds deg zeros, then c[0], c[1], ...; so c[k - j] is out[k + deg - j]
    terms = [(c, deg - j) for j, c in enumerate(den) if j and c]
    out = [0] * deg
    for k, n_k in enumerate(num + [0] * (order + 1 - len(num))):
        acc = n_k
        for c, shift in terms:
            acc -= c * out[k + shift]
        q, r = divmod(acc, d0)
        if r:
            raise NonIntegralCoefficient(f"coefficient of t^{k} is {acc}/{d0}")
        out.append(q)
    return PowerSeries(tuple(out[deg:]))


def series_equal(a: PowerSeries, b: PowerSeries):
    """Compare two series of equal order.

    Returns (True, None) on equality, else (False, k) with k the smallest
    index where the coefficients differ.
    """
    if a.order != b.order:
        raise OrderMismatch(f"orders differ: {a.order} vs {b.order}")
    for k, (x, y) in enumerate(zip(a.coeffs, b.coeffs)):
        if x != y:
            return False, k
    return True, None
