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
    links in -3..3, then a core of one to three vertices from center on.

    In a third of the draws the core has the shape of V_plus, or of its
    prefixes V_minus and V_zero: E, a twin of E and a leaf on the twin, with
    each chain end pairing with E by any g in -3..3.  Half of those then
    redraw one entry of a core row, which often spoils the twin or the leaf.
    In the other draws each chain end, and now and then an interior chain
    vertex, pairs with every core vertex freely, and so do the core
    vertices among themselves."""
    core = draw(st.integers(1, 3))
    n = draw(st.integers(core, max_rank))
    center = n - core
    entry = st.integers(-3, 3)
    gram = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]

    def pair(i, j, x):
        gram[i][j] = gram[j][i] = x

    shaped = draw(st.integers(0, 2)) == 0
    for i in range(center):
        link = draw(entry) if i + 1 < center else 0
        if i + 1 < center:
            pair(i, i + 1, link)
        if shaped:
            if not link:
                pair(i, center, draw(entry))
        elif not link or draw(st.integers(0, 4)) == 0:
            for p in range(center, n):
                pair(i, p, draw(entry))
    if shaped:
        if n > center + 1:  # E-u: pairs as E does, and with E by -2
            for j in range(center):
                pair(center + 1, j, gram[center][j])
            pair(center + 1, center, -2)
        if n > center + 2:  # u-w: pairs with E-u only
            pair(center + 2, center + 1, draw(entry))
        if n > center + 1 and draw(st.booleans()):
            k = draw(st.integers(center + 1, n - 1))
            pair(k, draw(st.integers(0, k - 1)), draw(entry))
    else:
        for p in range(center, n):
            for q in range(center, p):
                pair(p, q, draw(entry))
    return Lattice(tuple(f"e{i + 1}" for i in range(n)), tuple(map(tuple, gram))), center
