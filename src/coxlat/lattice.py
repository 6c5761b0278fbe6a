"""Lattices with integer Gram matrices and their Coxeter elements.

A Lattice is an ordered labelled basis together with the symmetric matrix
of pairings <e_i, e_j>.  Basis vectors squaring to -2 are roots; the
reflection in a root e is s_e(x) = x + <x,e> e.  The Coxeter element of
the basis is the product of the reflections in basis order, rightmost
factor acting first.  All matrices act on column coordinate vectors and
everything is exact integer arithmetic on plain lists.

The Grams of star lattices have two to four nonzero entries per row, so
the kernels visit nonzeros only: a Lattice lists each Gram row's nonzero
columns once, for the reflection word and the star shapes, and
``nonzeros(m)`` lists each row of a matrix as its (column, entry) pairs
with entry != 0, for ``rows_vec``, ``mat_mul`` and Berkowitz.

A Coxeter element acts matrix-free, as its reflection word:
``reflection_word`` lists the factors, rightmost first, and each rewrites
one coordinate in place, v[i] = -v[i] + sum_{j != i} g_ij v[j], so one
application costs O(nnz(Gram)) even where the product tau fills in.
``apply_word`` interprets a word in place, for the first application of
an arm to E, the rest of a column of tau once no later step can be
skipped, and the orbit walk off the star shape.

Characteristic polynomials come two ways.  ``star_char_polys`` reads
det(t*I - tau) = det(t*A + A^t) off a star Gram for each basis prefix from
the center on, by continuants and prefix rules and without tau, so one pass
over V_plus gives the Delta of its prefixes V_minus and V_zero too.
``char_poly`` is Berkowitz on any matrix, for Grams outside that shape.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import sub
from typing import Sequence

from .errors import CoxlatError, NotARoot, NotUnitriangular
from .exact import poly_add, poly_mul

Matrix = list  # list[list[int]], rows
Vector = list  # list[int]


# ---------------------------------------------------------------------------
# small exact matrix helpers


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def nonzeros(m: Matrix) -> list:
    """Each row of m as its (column, entry) pairs with entry != 0."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def rows_vec(rows: list, v: Sequence[int]) -> Vector:
    """m v for m given as nonzeros(m)."""
    out = []
    for row in rows:
        total = 0
        for j, x in row:
            total += x * v[j]
        out.append(total)
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b: row i is the combination of the rows of b at the nonzero
    entries of row i of a, visiting only the nonzero entries of b."""
    width = len(b[0]) if b else 0
    b_rows = nonzeros(b)
    out = []
    for row in a:
        acc = [0] * width
        for k, x in enumerate(row):
            if x:
                for j, y in b_rows[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


def _frozen_rows(m) -> tuple:
    """m as a tuple of row tuples.  Each tuple is built from a list, at its
    final size: a tuple built from a generator is allocated at a guessed
    size and resized, so CPython frees it to the free list of another size,
    and those lists then fill up between full garbage collections."""
    return tuple([tuple(row) for row in m])


def mat_transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def mat_det(m: Matrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class Lattice:
    """Ordered labelled basis plus symmetric integer Gram matrix."""

    labels: tuple
    gram: tuple  # tuple of tuples, rows of the pairing matrix

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "gram", _frozen_rows(self.gram))
        gram, n = self.gram, len(self.gram)
        if len(self.labels) != n:
            raise ValueError("label count does not match Gram size")
        cols = tuple([tuple(list(compress(range(n), row))) for row in gram])  # see _frozen_rows
        object.__setattr__(self, "nonzero_cols", cols)  # the j with gram[i][j] != 0; no field
        if any(len(row) != n for row in gram) or not all(  # each nonzero matched, so each zero
                gram[j][i] == row[j] for i, row in enumerate(gram) for j in cols[i]):
            for i, row in enumerate(gram):  # name the first fault, row by row
                if len(row) != n:
                    raise ValueError("Gram matrix is not square")
                for j in range(i):
                    if row[j] != gram[j][i]:
                        raise ValueError(f"Gram matrix not symmetric at ({i},{j})")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def _leading(self, rank: int) -> "Lattice":
        """The leading block of this rank: the first rank labels and the
        principal block of the Gram.  A principal block of a symmetric Gram
        is symmetric, so it skips the check of __post_init__."""
        block = object.__new__(Lattice)
        object.__setattr__(block, "labels", self.labels[:rank])
        object.__setattr__(block, "gram", tuple([row[:rank] for row in self.gram[:rank]]))
        object.__setattr__(block, "nonzero_cols", tuple([
            cols[:bisect_left(cols, rank)] for cols in self.nonzero_cols[:rank]]))
        return block

    def is_root(self, i: int) -> bool:
        return self.gram[i][i] == -2

    def require_root(self, i: int):
        if not self.is_root(i):
            raise NotARoot(f"basis vector {self.labels[i]!r} has self-pairing {self.gram[i][i]}, not -2")

    def gram_rows(self) -> Matrix:
        return [list(row) for row in self.gram]

    def to_json(self) -> dict:
        return {"labels": list(self.labels), "gram": [list(row) for row in self.gram]}

    @classmethod
    def from_json(cls, obj: dict) -> "Lattice":
        if not isinstance(obj, dict) or "gram" not in obj:
            raise ValueError("expected an object with a 'gram' field")
        if not isinstance(obj["gram"], list) or not obj["gram"]:
            raise CoxlatError("'gram' must be a non-empty list of rows")
        gram = [json_ints(row, "each Gram row") for row in obj["gram"]]
        labels = obj.get("labels") or [f"e{i + 1}" for i in range(len(gram))]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise CoxlatError("'labels' must be a list of strings")
        return cls(labels, gram)


def json_ints(value, what: str) -> list:
    """A decoded JSON list of integers, refusing bools, floats and strings."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise CoxlatError(f"{what} must be a list of integers, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# reflections and Coxeter elements


def reflection_matrix(lat: Lattice, i: int) -> Matrix:
    """Matrix of s_{e_i}(x) = x + <x, e_i> e_i on column coordinates.

    Only row i differs from the identity: S[i][j] = delta_ij + <e_i, e_j>.
    """
    lat.require_root(i)
    n = lat.rank
    out = identity_matrix(n)
    row = out[i]
    for j, g in enumerate(lat.gram[i]):
        row[j] += g
    return out


def reflection_product(lat: Lattice, indices: Sequence[int]) -> Matrix:
    """Product s_{e_{i1}} ... s_{e_{ik}}, rightmost reflection acting first,
    as the transpose of the columns of its word."""
    return mat_transpose(word_columns(reflection_word(lat, indices), lat.rank))


def coxeter_matrix(lat: Lattice) -> Matrix:
    """Coxeter element of the root basis, rightmost factor first."""
    return reflection_product(lat, range(lat.rank))


def coxeter_inverse_matrix(lat: Lattice) -> Matrix:
    """Inverse Coxeter element: the same reflections in reversed order."""
    return reflection_product(lat, range(lat.rank - 1, -1, -1))


def reflection_word(lat: Lattice, indices: Sequence[int]) -> tuple:
    """The word s_{e_{i1}} ... s_{e_{ik}} as its steps, rightmost first.

    Step (i, pairs) is s_{e_i}(v) = v + <v, e_i> e_i for the root e_i: it
    rewrites v[i] = -v[i] + sum_{j != i} g_ij v[j], and pairs lists the
    nonzero g_ij, j != i.  Roots are checked in the order the steps act, so
    of several factors that are not roots the rightmost one is named.
    """
    steps = []
    for i in reversed(indices):
        lat.require_root(i)
        row = lat.gram[i]
        steps.append((i, tuple([(j, row[j]) for j in lat.nonzero_cols[i] if j != i])))
    return tuple(steps)


def apply_word(word, v: Vector) -> Vector:
    """Apply the word to v in place and return v."""
    for i, pairs in word:
        total = -v[i]
        for j, g in pairs:
            total += g * v[j]
        v[i] = total
    return v


def word_columns(word, n: int) -> list:
    """The columns of the word's matrix on rank n: the word applied to each e_j."""
    return [apply_word(word, [0] * j + [1] + [0] * (n - j - 1)) for j in range(n)]


def asym_form_matrix(lat: Lattice) -> Matrix:
    """Upper-triangular form A with (e_i,e_j) = -<e_i,e_j> for i<j, 1 on the
    diagonal and 0 below; satisfies A + A^t = -gram."""
    n = lat.rank
    out = []
    for i in range(n):
        lat.require_root(i)
        row = [0] * n
        row[i] = 1
        grow = lat.gram[i]
        for j in range(i + 1, n):
            row[j] = -grow[j]
        out.append(row)
    return out


def coxeter_via_form(a: Matrix) -> Matrix:
    """The Coxeter element as -A^{-1} A^t for the upper-triangular form A."""
    return mat_transpose(coxeter_columns_via_form(a))


def coxeter_columns_via_form(a: Matrix) -> list:
    """The columns of -A^{-1} A^t for the upper-triangular form A.

    Column j solves A x = -(row j of A) by back substitution over the
    nonzero entries of A, from the last nonzero of row j up (x is zero
    below it), so the whole costs O(rank * (rank + nnz(A))).
    """
    rows = nonzeros(a)
    for i, row in enumerate(rows):
        if row[:1] != [(i, 1)]:
            raise NotUnitriangular("matrix is not upper-triangular with unit diagonal")
    above = [row[1:] for row in rows]
    cols = []
    for j, row in enumerate(rows):
        x = [-y for y in a[j]]
        for r in range(row[-1][0], -1, -1):
            total = x[r]
            for k, y in above[r]:
                total -= y * x[k]
            x[r] = total
        cols.append(x)
    return cols


# ---------------------------------------------------------------------------
# characteristic polynomial and orders


def char_poly(m: Matrix) -> list:
    """Monic characteristic polynomial det(t*I - m), ascending coefficients.

    Division-free Berkowitz method: p_{k+1} = T_{k+1} p_k where the Toeplitz
    column is (1, -a, -R C, -R M C, -R M^2 C, ...) built from the k-th
    principal block M, row R, column C and corner a.  Exact over the
    integers, no pivoting.  M and R are read from the nonzero rows of m,
    so step k costs O(k nnz) rather than O(k^3).
    """
    n = len(m)
    rows = nonzeros(m)
    p = [1]  # char poly of the 0x0 block, highest degree first
    for k in range(n):
        a = m[k][k]
        # rows of M, then R as a last row: rows_vec gives (M v, R v)
        block_r = [[(j, x) for j, x in row if j < k] for row in rows[: k + 1]]
        toep = [1, -a]
        v = [m[i][k] for i in range(k)]
        for _ in range(k):
            if not any(v):  # M^j C = 0, so the rest of the column is 0
                break
            v = rows_vec(block_r, v)
            toep.append(-v.pop())
        out = [0] * (k + 2)
        for i, ti in enumerate(toep):
            if ti:
                jmax = min(len(p), k + 2 - i)
                for j in range(jmax):
                    out[i + j] += ti * p[j]
        p = out
    p.reverse()
    return p


def _continuant(links) -> tuple:
    """f_R and h_R of a chain whose vertex k pairs with vertex k + 1 by
    links[k]: f_R is the continuant f_k = (1+t) f_{k-1} - t g^2 f_{k-2} of the
    whole chain, g the link into vertex k, from f_0 = 1 and f_{-1} = 0, and
    h_R that of the chain without its last vertex.

    f is carried with its last difference d = f_k - f_{k-1} = t (d_{k-1} +
    (1 - g^2) f_{k-2}), held as t^s times a list.  Where g^2 = 1 that is d
    shifted by one, and the vertex adds the list to f at a new offset: one
    addition per vertex on a chain of unit links.  Any other link
    recomputes d from f and h.  The first vertex has f_{-1} = 0 and shifts
    whatever its link."""
    f, d, s = [1, 1], [1], 1
    for g in links:
        if g * g == 1:
            s += 1
            f.append(0)
            for k, c in enumerate(d, s):
                f[k] += c
        else:
            h = poly_add(f, d, -1, s)
            d, s = poly_add(f, h, -g * g), 1
            f = poly_add(f, d, 1, 1)
    return f, poly_add(f, d, -1, s)


def _times(p, f) -> list:
    """p f: where f = 1 + t + ... + t^m, coefficient k is the sum of p over
    k-m..k, a difference of prefix sums, O(len + m) additions; else poly_mul."""
    if f.count(1) != len(f) or not p:
        return poly_mul(p, f)
    sums, m = list(accumulate(p, initial=0)), len(f) - 1
    return list(map(sub, sums[1:] + [sums[-1]] * m, [0] * m + sums[:-1]))


def _join_chains(groups) -> tuple:
    """prod_R f_R and sum_R g_R^2 h_R prod_{R' != R} f_R' over chains given
    as ((f_R, h_R, g_R^2), count) groups of equal chains: a group of c
    chains multiplies the product by f^c and adds c g^2 h f^(c-1) times the
    product of the other groups to the sum."""
    prod, acc = [1], []
    for (f, h, g2), count in groups:
        for _ in range(count - 1):
            acc, prod = _times(acc, f), _times(prod, f)
        acc = poly_add(_times(acc, f), _times(prod, h), count * g2)
        prod = _times(prod, f)
    return prod, acc


def star_char_polys(lat: Lattice, center: int):
    """Delta of each basis prefix ending at ``center`` or later; None off this shape.

    Delta = det(t*I - tau) = det(t*A + A^t), with 1 + t on the diagonal and
    (i, j), (j, i) entries whose product is t*g_ij^2; its leading k x k minor
    D_k is the Delta of the first k basis vectors.  With c = center, the
    vertices before c are chains in basis order, each pairing with c at most
    at its last vertex, by g_R.  Chain R has the continuant f_R, f_k =
    (1+t) f_{k-1} - t g_{k-1,k}^2 f_{k-2}, and h_R without its last vertex;
    D_c = prod f_R, and

        D_{c+1} = (1+t) prod f_R - t sum_R g_R^2 h_R prod_{R' != R} f_R'.

    Each later vertex k is a twin of k - 1 (the same pairings with every
    earlier vertex, and -2 with k - 1), so D_{k+1} = (1-t)^2 D_{k-1}; or a
    leaf on k - 1 (no earlier pairing), so D_{k+1} = (1+t) D_k - t g^2 D_{k-1},
    g = <k, k-1>.  E-u is a twin of E and u-w a leaf on E-u, so on V_plus one
    pass gives all three Deltas.

    Cost: the shape is read off the rows' nonzero columns, O(nnz).  A chain
    of unit links costs one addition per vertex (_continuant) and joins by
    window sums (_times); chains with equal (f_R, h_R, g_R^2), read off the
    continuants and never off the arm lengths, join once per group
    (_join_chains).  Each vertex from the center on costs O(rank) additions.
    """
    n = lat.rank
    gram, cols = lat.gram, lat.nonzero_cols
    if not 0 <= center < n or any(gram[i][i] != -2 for i in range(n)):
        return None  # for a non-root lattice the reflection product says where
    chains, links = Counter(), []  # (f_R, h_R, g_R^2) -> count; the open chain's links
    for i in range(center):
        row = gram[i]
        link = row[i + 1] if i + 1 < center else 0
        if any(i + 1 < j < center for j in cols[i]) or (link and row[center]):
            return None
        if link:
            links.append(link)
        else:  # i ends its chain
            f, h = _continuant(links)
            chains[tuple(f), tuple(h), row[center] ** 2] += 1
            links = []
    prod, acc = _join_chains(chains.items())
    d = [prod, poly_add(poly_mul([1, 1], prod), acc, -1, 1)]
    for k in range(center + 1, n):
        row, prev = gram[k], gram[k - 1]
        below = [(j, row[j]) for j in cols[k] if j < k - 1]
        if row[k - 1] == -2 and below == [(j, prev[j]) for j in cols[k - 1] if j < k - 1]:  # a twin
            d.append(poly_mul([1, -2, 1], d[-2]))
        elif not below:  # a leaf on k - 1
            d.append(poly_add(poly_mul([1, 1], d[-1]), d[-2], -row[k - 1] ** 2, 1))
        else:
            return None
    return d[1:]


# ---------------------------------------------------------------------------
# radical and quotient


def _kernel_transform(gram: Matrix):
    """Column-reduce gram by unimodular operations.

    Returns (u, uinv, rank): gram @ u has exactly its last n-rank columns
    zero, u is unimodular and uinv its exact inverse.
    """
    n = len(gram)
    h = [row[:] for row in gram]
    u = identity_matrix(n)
    uinv = identity_matrix(n)

    def swap_cols(i, j):
        if i == j:
            return
        for row in h:
            row[i], row[j] = row[j], row[i]
        for row in u:
            row[i], row[j] = row[j], row[i]
        uinv[i], uinv[j] = uinv[j], uinv[i]

    def add_col(dst, src, q):
        # column dst -= q * column src; inverse tracks row src += q * row dst
        if q == 0:
            return
        for row in h:
            row[dst] -= q * row[src]
        for row in u:
            row[dst] -= q * row[src]
        uinv[src] = [x + q * y for x, y in zip(uinv[src], uinv[dst])]

    col = 0
    for row in range(n):
        if all(h[row][c] == 0 for c in range(col, n)):
            continue
        while True:
            pivot_col = min(
                (c for c in range(col, n) if h[row][c] != 0),
                key=lambda c: abs(h[row][c]),
            )
            swap_cols(col, pivot_col)
            pivot = h[row][col]
            clean = True
            for c in range(col + 1, n):
                if h[row][c]:
                    add_col(c, col, h[row][c] // pivot)
                    if h[row][c]:
                        clean = False
            if clean:
                break
        col += 1
    return u, uinv, col


def radical_basis(lat: Lattice) -> list:
    """Basis of {x : <x,y> = 0 for all y}, as primitive coordinate vectors.

    Computed as the integer kernel of the Gram matrix; the generators come
    out as columns of a unimodular matrix, hence content 1.  Each is
    normalised so its first nonzero entry is positive.
    """
    n = lat.rank
    u, _, rank = _kernel_transform(lat.gram_rows())
    out = []
    for c in range(rank, n):
        vec = [u[r][c] for r in range(n)]
        lead = next(x for x in vec if x != 0)
        if lead < 0:
            vec = [-x for x in vec]
        out.append(vec)
    return out


@dataclass(frozen=True)
class RadicalQuotient:
    """Quotient of a lattice by its radical.

    ``projection`` (q x n) sends coordinates to quotient coordinates, and
    ``lift`` (n x q) picks coordinates of lifted basis vectors; any
    Gram-preserving map M descends to projection @ M @ lift.
    """

    lattice: Lattice
    projection: tuple
    lift: tuple

    def induced(self, m: Matrix) -> Matrix:
        return mat_mul(mat_mul(self.projection, m), self.lift)

    def project(self, v: Sequence[int]) -> Vector:
        return rows_vec(nonzeros(self.projection), v)


def quotient_by_radical(lat: Lattice) -> RadicalQuotient:
    """Quotient lattice with the induced (nondegenerate) form.

    For a nondegenerate input this is the identity projection on the same
    lattice.
    """
    n = lat.rank
    u, uinv, rank = _kernel_transform(lat.gram_rows())
    if rank == n:
        ident = _frozen_rows(identity_matrix(n))
        return RadicalQuotient(lat, ident, ident)
    lift = [[u[r][c] for c in range(rank)] for r in range(n)]
    projection = [uinv[r][:] for r in range(rank)]
    gram = mat_mul(mat_transpose(lift), mat_mul(lat.gram, lift))
    quot = Lattice([f"q{i + 1}" for i in range(rank)], gram)
    return RadicalQuotient(quot, _frozen_rows(projection), _frozen_rows(lift))
