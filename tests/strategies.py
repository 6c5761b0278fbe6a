"""Hypothesis strategies shared by the test modules."""

from hypothesis import assume
from hypothesis import strategies as st

from coxlat.errors import NeitherKind
from coxlat.lattice import Lattice
from coxlat.star import SingularityKind, classify_alphas, fuchsian_invariants, kleinian_invariants


@st.composite
def valid_stars(draw, max_zero_rank=40):
    """Kleinian or genus-0 Fuchsian invariants whose V_zero has rank at most
    max_zero_rank, that is sum (alpha_i - 1) <= max_zero_rank - 2."""
    budget = max_zero_rank - 2
    alphas = []
    for _ in range(draw(st.integers(0, 6))):
        if budget < 1:
            break
        alphas.append(draw(st.integers(2, budget + 1)))
        budget -= alphas[-1] - 1
    try:
        kind = classify_alphas(alphas)
    except NeitherKind:
        assume(False)
    if kind is SingularityKind.KLEINIAN:
        return kleinian_invariants(alphas)
    return fuchsian_invariants(alphas)


@st.composite
def root_lattices(draw, max_rank=9):
    """A Gram with -2 on the diagonal and off-diagonal entries in -3..2: not
    necessarily a star, and possibly indefinite or degenerate."""
    n = draw(st.integers(1, max_rank))
    gram = [[-2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 2))
    return Lattice(tuple(f"e{i + 1}" for i in range(n)), tuple(map(tuple, gram)))
