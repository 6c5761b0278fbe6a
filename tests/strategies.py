"""Hypothesis strategies shared by the test modules."""

from hypothesis import assume
from hypothesis import strategies as st

from coxlat.errors import NeitherKind
from coxlat.lattice import Lattice
from coxlat.star import SingularityKind, classify_alphas, fuchsian_invariants, kleinian_invariants


@st.composite
def valid_stars(draw, max_zero_rank=40, max_arms=6):
    """Kleinian or genus-0 Fuchsian invariants with at most max_arms arms
    whose V_zero has rank at most max_zero_rank, that is
    sum (alpha_i - 1) <= max_zero_rank - 2."""
    budget = max_zero_rank - 2
    alphas = []
    for _ in range(draw(st.integers(0, max_arms))):
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


@st.composite
def chain_grams(draw, max_rank=12):
    """(lattice, center): roots whose vertices before center form chains with
    pairings in -3..3, each chain touching a core of at most three vertices
    only at its last vertex.  In half of the draws every chain end pairs
    with the core along one direction; in the other half each end draws
    its own pairings, so the ends are often not parallel."""
    core = draw(st.integers(0, 3))
    n = draw(st.integers(core, max_rank))
    center = n - core
    entry = st.integers(-3, 3)
    gram = [[-2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            gram[i][j] = gram[j][i] = 0
    for i in range(center, n):
        for j in range(center, i):
            gram[i][j] = gram[j][i] = draw(entry)
    direction = draw(st.lists(entry, min_size=core, max_size=core))
    skew = draw(st.booleans())
    for i in range(center):
        link = draw(entry) if i + 1 < center else 0
        if i + 1 < center:
            gram[i][i + 1] = gram[i + 1][i] = link
        if not link:  # i ends a chain
            scale = draw(entry)
            v = draw(st.lists(entry, min_size=core, max_size=core)) if skew else [
                scale * x for x in direction]
            for p, x in enumerate(v, center):
                gram[i][p] = gram[p][i] = x
    return Lattice(tuple(f"e{i + 1}" for i in range(n)), tuple(map(tuple, gram))), center
