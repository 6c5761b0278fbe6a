"""Lattices with integer Gram matrices and their Coxeter elements.

A Lattice is an ordered labelled basis together with the symmetric matrix
of pairings <e_i, e_j>.  Basis vectors squaring to -2 are roots; the
reflection in a root e is s_e(x) = x + <x,e> e.  The Coxeter element of
the basis is the product of the reflections in basis order, rightmost
factor acting first.  All matrices act on column coordinate vectors and
everything is exact integer arithmetic on plain lists.

The Grams, Coxeter elements and radical projections of star lattices
have two to four nonzero entries per row, so the kernels work on nonzero
rows: ``nonzeros(m)`` lists each row of m as its (column, entry) pairs
with entry != 0, and a product visits only those pairs.  ``rows_vec``
applies such rows to a vector, ``mat_mul`` combines the nonzero rows of
its right factor, and Berkowitz reads its blocks from them.

A matrix that a walk applies once per coefficient is compiled once by its
caller with ``linear_map(m)`` into a straight-line function v -> m v,
which runs about 3.5 times faster than ``rows_vec`` but costs about half a
millisecond to build.  A matrix applied only a few times (Berkowitz
blocks, an arm-period loop, a projection) stays on ``rows_vec``.

Characteristic polynomials come two ways.  ``star_char_poly`` reads
det(t*I - tau) = det(t*A + A^t) off a star Gram by eliminating its arm
chains onto the core, in O(rank * sum of chain lengths) small-integer
steps and without building tau.  ``char_poly`` is Berkowitz on any
matrix; it serves Grams outside the star shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CoxlatError, NotARoot, NotUnitriangular
from .exact import Poly, poly_add, poly_mul, poly_trim

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


_CHUNK = 64  # terms per parenthesised sum; long chains overflow the compiler


def _sum_source(terms: list) -> str:
    """One expression for the sum of terms that each begin with + or -,
    nested so that no chain has more than _CHUNK terms."""
    while len(terms) > _CHUNK:
        terms = ["+(" + "".join(terms[i:i + _CHUNK]).removeprefix("+") + ")"
                 for i in range(0, len(terms), _CHUNK)]
    return "".join(terms).removeprefix("+") or "0"


def linear_map(m: Matrix):
    """The function v -> m v, compiled once into one list display of row
    sums that reads only v[j].  Entries other than +-1 are written as hex
    literals, which have no digit limit; any entry whose type is not int
    raises TypeError, so only integers reach the source text."""
    rows = []
    for row in m:
        terms = []
        for j, x in enumerate(row):
            if type(x) is not int:
                raise TypeError(f"linear_map needs int entries, got {type(x).__name__} {x!r}")
            if x == 1:
                terms.append(f"+v[{j}]")
            elif x == -1:
                terms.append(f"-v[{j}]")
            elif x:
                terms.append(f"{x:+#x}*v[{j}]")
        rows.append(_sum_source(terms))
    return eval(compile(f"lambda v: [{', '.join(rows)}]", "<linear_map>", "eval"), {})


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
        n = len(self.gram)
        if len(self.labels) != n:
            raise ValueError("label count does not match Gram size")
        for i, row in enumerate(self.gram):
            if len(row) != n:
                raise ValueError("Gram matrix is not square")
            for j in range(i):
                if row[j] != self.gram[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i},{j})")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def pairing(self, x: Sequence[int], y: Sequence[int]) -> int:
        """<x, y> for coordinate vectors x, y."""
        return sum(xi * sum(g * yj for g, yj in zip(row, y)) for xi, row in zip(x, self.gram))

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
    """Product s_{e_{i1}} ... s_{e_{ik}}, rightmost reflection acting first.

    Left-multiplying an accumulator by s_{e_i} only rewrites its row i,
    so the whole product costs O(k n^2).
    """
    n = lat.rank
    out = identity_matrix(n)
    for i in reversed(indices):
        lat.require_root(i)
        grow = lat.gram[i]
        new_row = out[i][:]
        for j, g in enumerate(grow):
            if g:
                row_j = out[j]
                for c in range(n):
                    new_row[c] += g * row_j[c]
        out[i] = new_row
    return out


def coxeter_matrix(lat: Lattice) -> Matrix:
    """Coxeter element of the root basis, rightmost factor first."""
    return reflection_product(lat, range(lat.rank))


def coxeter_inverse_matrix(lat: Lattice) -> Matrix:
    """Inverse Coxeter element: the same reflections in reversed order."""
    return reflection_product(lat, range(lat.rank - 1, -1, -1))


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


def unitriangular_inverse(a: Matrix) -> Matrix:
    """Exact inverse of an upper-triangular matrix with unit diagonal."""
    n = len(a)
    for i in range(n):
        if a[i][i] != 1 or any(a[i][j] for j in range(i)):
            raise NotUnitriangular("matrix is not upper-triangular with unit diagonal")
    inv = identity_matrix(n)
    # back substitution, bottom row first: row r of the inverse is e_r minus
    # the rows below it, weighted by the off-diagonal nonzeros of row r of a
    rows = nonzeros(a)
    for r in range(n - 2, -1, -1):
        out = inv[r]
        for k, x in rows[r]:
            if k > r:
                row_k = inv[k]
                for c in range(k, n):
                    out[c] -= x * row_k[c]
    return inv


def coxeter_via_form(a: Matrix) -> Matrix:
    """The Coxeter element as -A^{-1} A^t for the upper-triangular form A."""
    inv = unitriangular_inverse(a)
    at = mat_transpose(a)
    return [[-x for x in row] for row in mat_mul(inv, at)]


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


_MAX_CORE = 3  # E, E-u, u-w


def _poly_det(m: list) -> Poly:
    """Determinant of a small matrix of polynomials, by Laplace expansion."""
    if not m:
        return [1]
    out = []
    for j, x in enumerate(m[0]):
        if x:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            out = poly_add(out, poly_mul(x, _poly_det(minor)), (-1) ** j)
    return out


def star_char_poly(lat: Lattice, center: int):
    """det(t*I - tau) of a star by eliminating its chains onto the core, or
    None for a Gram outside that shape.

    A is unitriangular, so det(t*I - tau) = det(t*A + A^t), a matrix with
    1 + t on the diagonal, -t*g_ij above it and -g_ij below.  The core is
    the at most three vertices from ``center`` on.  The vertices before it
    must form chains in basis order (every pairing among them joins i and
    i + 1), each touching the core only at its last vertex.  A chain R has the
    continuant f_R of its block, f_k = (1+t) f_{k-1} - t g_{k-1,k}^2 f_{k-2},
    and h_R, the same without its last vertex.  With K the core block and
    v_R the pairings of R's last vertex with the core, the Schur complement
    and the matrix determinant lemma give

        Delta = det K prod f_R - t sum_R (v_R^t adj(K) v_R) h_R prod_{R' != R} f_R'

    exactly when the v_R are pairwise parallel, which extend_star ensures.
    One running pass builds the sum in O(rank * sum of chain lengths) steps.
    """
    n = lat.rank
    gram = lat.gram
    if not 0 <= center <= n or n - center > _MAX_CORE:
        return None
    if any(gram[i][i] != -2 for i in range(n)):
        return None  # not a root lattice; the reflection product says where
    chains = []
    start = 0
    for i in range(center):
        if any(gram[i][i + 2:center]):
            return None
        if i + 1 == center or not gram[i][i + 1]:
            if any(any(gram[k][center:]) for k in range(start, i)):
                return None
            chains.append((start, i + 1))
            start = i + 1
    ends = [tuple(gram[stop - 1][center:]) for _, stop in chains]
    ref = next((v for v in ends if any(v)), None)
    if ref is not None and any(v[p] * ref[q] != v[q] * ref[p]
                               for v in ends for p in range(len(v)) for q in range(p)):
        return None

    core = range(center, n)
    block = [[[1, 1] if p == q else poly_trim([0, -gram[p][q]]) if p < q else poly_trim([-gram[p][q]])
              for q in core] for p in core]
    det_k = _poly_det(block)
    weights = {}  # v -> v^t adj(K) v = det(K + v v^t) - det K

    prod, acc = [1], []
    for (start, stop), v in zip(chains, ends):
        h, f = [], [1]
        for i in range(start, stop):
            g2 = gram[i - 1][i] ** 2 if i > start else 0
            h, f = f, poly_add(poly_mul([1, 1], f), h, -g2, 1)
        acc = poly_mul(acc, f)
        if any(v):
            if v not in weights:
                bumped = [[poly_add(x, [v[p] * v[q]]) for q, x in enumerate(row)]
                          for p, row in enumerate(block)]
                weights[v] = poly_add(_poly_det(bumped), det_k, -1)
            acc = poly_add(acc, poly_mul(weights[v], poly_mul(h, prod)))
        prod = poly_mul(prod, f)
    return poly_add(poly_mul(det_k, prod), acc, -1, 1)


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
