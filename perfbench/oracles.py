"""Known answers computed without coxlat.

Everything here is derived from the ramification indices alone: the
closed-form Coxeter polynomials of the star, extended canonical and
canonical lattices, and the Riemann-Roch divisor counts as floor sums.
The benchmark compares the program's outputs against these, so a fast
path that skips work shows up as a failure rather than a speed-up.
"""

from __future__ import annotations


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _add(p: list, q: list, scale: int = 1, shift: int = 0) -> list:
    """p + scale * t^shift * q."""
    out = list(p) + [0] * max(0, len(q) + shift - len(p))
    for i, c in enumerate(q):
        out[i + shift] += scale * c
    return _trim(out)


def star_deltas(alphas) -> dict:
    """Delta_minus, Delta_zero and Delta_plus of the star with these arms.

    With [m] = 1 + t + ... + t^(m-1):
      Delta_minus = (1+t) prod [a_i] - t sum_j [a_j - 1] prod_{i != j} [a_i]
      Delta_zero  = (1-t)^2 prod [a_i]
      Delta_plus  = (1+t) Delta_zero - t Delta_minus
    Coefficients are ascending, as coxlat prints them.
    """
    prod = [1]
    for a in alphas:
        prod = _mul(prod, [1] * a)
    arm_sum = []
    for j, a in enumerate(alphas):
        term = [1] * (a - 1)
        for i, b in enumerate(alphas):
            if i != j:
                term = _mul(term, [1] * b)
        arm_sum = _add(arm_sum, term)
    minus = _add(_mul([1, 1], prod), arm_sum, -1, 1)
    zero = _mul([1, -2, 1], prod)
    plus = _add(_mul([1, 1], zero), minus, -1, 1)
    return {"minus": minus, "zero": zero, "plus": plus}


def kleinian_counts(alphas, order: int) -> list:
    """1 + deg D^(k) = 1 + k(2 - r) + sum floor(k / a_i), k = 0..order.

    This is the Poincare series of a Kleinian star and, for every star,
    the expansion of Delta_minus / Delta_zero (the orbit series Q).
    """
    r = len(alphas)
    return [1 + k * (2 - r) + sum(k // a for a in alphas) for k in range(order + 1)]


def fuchsian_counts(alphas, order: int) -> list:
    """Poincare series of a genus-0 Fuchsian star: 1 - 2k + sum floor(k(a_i-1)/a_i),
    except dim A_1 = g = 0.  It is also Delta_plus / Delta_zero."""
    out = [1 - 2 * k + sum(k * (a - 1) // a for a in alphas) for k in range(order + 1)]
    if order >= 1:
        out[1] = 0
    return out


def poincare(kind: str, alphas, order: int) -> list:
    return kleinian_counts(alphas, order) if kind == "kleinian" else fuchsian_counts(alphas, order)
