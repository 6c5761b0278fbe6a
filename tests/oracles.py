"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive and self-contained so the values it
produces do not depend on the code paths under test.
"""


def conv(p, q):
    """Product of two ascending coefficient lists; the reference for every
    polynomial product in the tests."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def series_by_dense_recurrence(num, den, order):
    """num/den to order by den[0] c[k] = num[k] - sum_{j=1..min(k, deg)} den[j] c[k-j],
    visiting every j whether den[j] is zero or not.

    Returns (coefficients, None), or (the coefficients before k, k) at the
    first k where den[0] does not divide.  den[0] must be nonzero.
    """
    out = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        if acc % den[0]:
            return out, k
        out.append(acc // den[0])
    return out, None


def charpoly_minor_expansion(m):
    """det(t*I - m) by Laplace expansion along the first row, ascending coeffs.

    Exponential-time; fine for the ranks used in tests (<= 10).
    """
    n = len(m)

    def det(rows, cols):
        # matrix of linear polynomials:  entry (i,j) of t*I - m
        if not cols:
            return [1]
        i = rows[0]
        total = []
        for pos, j in enumerate(cols):
            entry = [-m[i][j], 1] if i == j else [-m[i][j]]
            if entry == [0]:
                continue
            sub = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = conv(entry, sub)
            sign = 1 if pos % 2 == 0 else -1
            total = add(total, [sign * c for c in term])
        return total

    def add(p, q):
        if len(p) < len(q):
            p, q = q, p
        out = list(p)
        for k, c in enumerate(q):
            out[k] += c
        return out

    poly = det(list(range(n)), list(range(n)))
    while len(poly) < n + 1:
        poly.append(0)
    return poly


def prefix_shape(gram, center):
    """Whether the Gram has the shape whose basis prefixes have Delta by the
    chain, twin and leaf rules, read off the definitions one pairing at a
    time: roots only; before the center, pairings only between neighbours
    i and i + 1, and with the center only from a vertex that has no next
    neighbour; after it, each vertex k a twin of k - 1 (the same pairings
    with everything before k - 1, and -2 with k - 1) or a leaf on k - 1 (no
    pairing with anything before k - 1)."""
    n = len(gram)
    if not 0 <= center < n or any(gram[i][i] != -2 for i in range(n)):
        return False
    for i in range(center):
        for j in range(i + 1, center):
            if gram[i][j] and j != i + 1:
                return False
        if gram[i][center] and i + 1 < center and gram[i][i + 1]:
            return False
    for k in range(center + 1, n):
        twin = gram[k][k - 1] == -2 and all(gram[k][j] == gram[k - 1][j] for j in range(k - 1))
        leaf = all(gram[k][j] == 0 for j in range(k - 1))
        if not (twin or leaf):
            return False
    return True


def pairing(gram, x, y):
    """<x, y> = sum_ab x_a g_ab y_b for coordinate vectors x, y."""
    return sum(xa * g * yb for xa, row in zip(x, gram) for g, yb in zip(row, y))


def mat_mul_naive(a, b, width):
    """a b by the triple loop; ``width`` is the column count of b."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(width)]
            for i in range(len(a))]


def reflection_product_naive(gram, indices):
    """s_{i1} ... s_{ik} multiplied out densely from the left: each
    s_i = I + e_i g_i^t, so P s_i = P + (P e_i) g_i^t."""
    n = len(gram)
    product = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in indices:
        product = [[x + row[i] * g for x, g in zip(row, gram[i])] for row in product]
    return product


def matrix_order(m, cap=1000):
    """Least k <= cap with m^k = I, or None if the cap is exceeded.

    The cap keeps infinite-order (hyperbolic) Coxeter elements from
    looping forever.
    """
    n = len(m)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    power = [list(row) for row in m]
    for k in range(1, cap + 1):
        if power == ident:
            return k
        power = mat_mul_naive(m, power, n)
    return None


def gram_by_pairings(gram, lift):
    """Gram of the columns of ``lift``, one pairing sum_ab x_a g_ab y_b at a time."""
    n, q = len(lift), len(lift[0]) if lift else 0
    cols = [[lift[r][c] for r in range(n)] for c in range(q)]
    return [[sum(x[a] * gram[a][b] * y[b] for a in range(n) for b in range(n)) for y in cols]
            for x in cols]


def det_minor_expansion(m):
    """Integer determinant by first-row Laplace expansion."""
    n = len(m)

    def det(rows, cols):
        if not cols:
            return 1
        i = rows[0]
        total = 0
        for pos, j in enumerate(cols):
            if m[i][j] == 0:
                continue
            sign = 1 if pos % 2 == 0 else -1
            total += sign * m[i][j] * det(rows[1:], cols[:pos] + cols[pos + 1:])
        return total

    return det(list(range(n)), list(range(n)))


def weighted_monomial_count(weights, k):
    """Number of monomials x^a y^b ... of weighted degree exactly k."""
    if k < 0:
        return 0
    if not weights:
        return 1 if k == 0 else 0
    w = weights[0]
    return sum(weighted_monomial_count(weights[1:], k - e * w) for e in range(k // w + 1))


def hypersurface_dims(weights, degree, order):
    """Graded dimensions of C[x_1..x_m]/(f) for a quasi-homogeneous f.

    dim_k = (# monomials of weighted degree k) - (# of degree k - degree),
    valid because f is a regular element.
    """
    return [
        weighted_monomial_count(list(weights), k) - weighted_monomial_count(list(weights), k - degree)
        for k in range(order + 1)
    ]


def poly_eval(p, x):
    """Evaluate an ascending coefficient list at an integer point (Horner)."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deg(p):
    """Degree of a trimmed polynomial; the zero polynomial reports -1."""
    return len(p) - 1


def series_from_poly(p, order):
    """Coefficients 0..order of a polynomial, zero-padded."""
    return tuple(p[k] if k < len(p) else 0 for k in range(order + 1))


def series_mul_poly(coeffs, p):
    """Product of a truncated series with a polynomial, same truncation."""
    n = len(coeffs) - 1
    out = [0] * (n + 1)
    for j, c in enumerate(p):
        for k in range(j, n + 1):
            out[k] += c * coeffs[k - j]
    return tuple(out)


def star_deltas(alphas):
    """Delta_minus, Delta_zero and Delta_plus of the star with these arms, from
    the closed forms with [m] = 1 + t + ... + t^(m-1):

        Delta_minus = (1+t) prod [a_i] - t sum_j [a_j - 1] prod_{i != j} [a_i]
        Delta_zero  = (1-t)^2 prod [a_i]
        Delta_plus  = (1+t) Delta_zero - t Delta_minus

    Arms of one length share their term of the sum, so a star of many equal
    arms costs one product per distinct length.
    """
    def product(lengths):
        out = [1]
        for a in lengths:
            out = conv(out, [1] * a)
        return out

    def add(p, q, scale=1, shift=0):
        out = list(p) + [0] * max(0, len(q) + shift - len(p))
        for k, c in enumerate(q):
            out[k + shift] += scale * c
        while out and out[-1] == 0:
            out.pop()
        return out

    arm_sum = []
    for a in set(alphas):
        others = list(alphas)
        others.remove(a)
        arm_sum = add(arm_sum, conv([alphas.count(a)] * (a - 1), product(others)))
    minus = add(conv([1, 1], product(alphas)), arm_sum, -1, 1)
    zero = conv([1, -2, 1], product(alphas))
    return {"minus": minus, "zero": zero, "plus": add(conv([1, 1], zero), minus, -1, 1)}


def dense_coxeter_witness(lats, word):
    """The first failure of tau == -A^-1 A^t on V_minus, V_zero and V_plus, in
    that order, named as the identities check names it, or None.

    tau e_j is the whole word of the lattice, word(which), applied to e_j
    padded with zeros to the rank of V_plus, then cut back.  A is the dense
    upper-unitriangular form with A + A^t = -G, and each column of
    -A^-1 A^t is solved by back substitution over the whole row.  The
    witness is the topmost entry of the first column where the two differ,
    indexed [row, column]."""
    n = lats.plus.rank
    for which in ("minus", "zero", "plus"):
        gram = getattr(lats, which).gram
        m = len(gram)
        a = [[1 if i == k else -gram[i][k] if k > i else 0 for k in range(m)] for i in range(m)]
        for j in range(m):
            v = [int(k == j) for k in range(n)]
            for i, pairs in word(which):
                v[i] = -v[i] + sum(g * v[k] for k, g in pairs)
            x = [0] * m
            for i in reversed(range(m)):
                x[i] = -a[j][i] - sum(a[i][k] * x[k] for k in range(i + 1, m))
            for i in range(m):
                if v[i] != x[i]:
                    return {"identity": f"coxeter({which}) == -A^-1 A^t", "index": [i, j],
                            "expected": x[i], "got": v[i]}
    return None


def decode_star_pairwise(gram):
    """The arms of a star Gram, center last and each arm a chain from its
    free end toward it, by a scan of every pair of vertices: ("star",
    alphas, arms), or ("not a star", message, index) at the first pairing
    that does not fit, with the message and index star.decode_star gives."""
    n = len(gram)
    if n == 0:
        return "not a star", "empty Gram matrix", 0
    center = n - 1
    for i in range(n):
        if gram[i][i] != -2:
            return "not a star", f"vertex {i} has self-pairing {gram[i][i]}", i
        for j in range(i + 1, n):
            if gram[i][j] not in (0, 1):
                return "not a star", f"pairing <{i},{j}> = {gram[i][j]} not in {{0,1}}", i
    arms = []
    i = 0
    while i < center:
        j = i
        while j + 1 < center and gram[j][j + 1] == 1:
            j += 1
        if gram[j][center] != 1:
            return "not a star", f"chain ending at vertex {j} is not attached to the center", j
        for k in range(i, j):
            if gram[k][center] != 0:
                return "not a star", f"interior chain vertex {k} touches the center", k
        arms.append((i, j + 1))
        i = j + 1
    for a_start, a_stop in arms:
        for i in range(a_start, a_stop):
            for j in range(i + 1, center):
                expected = 1 if (j == i + 1 and j < a_stop) else 0
                if gram[i][j] != expected:
                    return "not a star", f"unexpected pairing <{i},{j}> = {gram[i][j]}", i
    return "star", [stop - start + 1 for start, stop in arms], tuple(arms)


def star_gram(alphas):
    """The bare star's dense Gram, entry by entry: chains of alpha_i - 1
    vertices in turn, each vertex paired with the next and each chain's last
    with E, the last basis vector."""
    n = sum(a - 1 for a in alphas) + 1
    gram = [[-2 * (i == j) for j in range(n)] for i in range(n)]
    start = 0
    for a in alphas:
        stop = start + a - 1
        for k in range(start, stop):
            other = k + 1 if k + 1 < stop else n - 1
            gram[k][other] = gram[other][k] = 1
        start = stop
    return gram


def extended_gram(gram):
    """V_plus's dense Gram from V_minus's, E last: E-u pairs with every vertex
    as E does and with E and itself by -2, and u-w pairs with E-u by 1."""
    n = len(gram)
    out = [list(row) + [row[n - 1], 0] for row in gram]
    out.append(list(gram[n - 1][:n - 1]) + [-2, -2, 1])
    out.append([0] * n + [1, -2])
    return out


def descent_witness(lats):
    """The first failure of pi tau_zero iota == tau_minus s_E over the
    columns of V_minus, named as orbit-formulas names it, or None.  Both
    sides are multiplied out densely, and pi adds the E-u row to E's."""
    c, f = lats.center, lats.f_index
    zero = reflection_product_naive(lats.zero.gram, range(f + 1))
    got = [row[:f] for row in zero[:f]]
    got[c] = [x + y for x, y in zip(got[c], zero[f])]
    minus = lats.minus.gram
    expected = mat_mul_naive(reflection_product_naive(minus, range(f)),
                             reflection_product_naive(minus, [c]), f)
    for j in range(f):
        for i in range(f):
            if got[i][j] != expected[i][j]:
                return {"identity": "tau_0 == tau_1 ... tau_r", "index": [i, j],
                        "expected": expected[i][j], "got": got[i][j]}
    return None


def pair_run_witness(lats):
    """The first failure of pi s_E s_{E-u} iota == id over every column of
    V_minus, named as orbit-formulas names it, or None.  s_{E-u} and then
    s_E act by the reflection formula on V_zero's Gram, and pi adds the E-u
    coordinate to E's."""
    g, c, f = lats.zero.gram, lats.center, lats.f_index
    for j in range(f):
        v = [int(k == j) for k in range(f + 1)]
        for i in (f, c):
            v[i] = -v[i] + sum(g[i][k] * v[k] for k in range(f + 1) if k != i)
        v[c] += v.pop()
        for i in range(f):
            if v[i] != (i == j):
                return {"identity": "s_E s_{E-u} == id", "index": [i, j],
                        "expected": int(i == j), "got": v[i]}
    return None


def arm_period_by_applications(arm, e, alpha):
    """The least k <= alpha with c^k e = e, or None, for the arm word c given
    as its steps (i, pairs): the whole word applied to a copy of e up to
    alpha times, each step v[i] = -v[i] + sum g v[j] over its pairs."""
    v = list(e)
    for k in range(1, alpha + 1):
        for i, pairs in arm:
            v[i] = -v[i] + sum(g * v[j] for j, g in pairs)
        if v == e:
            return k
    return None


def column_by_steps(gram, rank, j):
    """(start, low, top, window) of tau e_j for the leading block of rank
    ``rank`` of the Gram of V_plus, as the per-step run gives them, with no
    lemma but the first-step one: the steps s_i for i = rank-1 down to 0,
    each v[i] = -v[i] + sum_(k != i) g_ik v[k], applied one by one from the
    first that reads or writes j, to e_j padded to the rank n of V_plus.
    start is that step's position in V_plus's word, of indices n-1 down to
    0, or n where no step touches j; top is the larger of j and its index;
    low is the least reach, min(k, the indices k pairs with), of j and of
    every coordinate the run leaves nonzero; the window is rows low..top."""
    n = len(gram)
    reach = [min([k] + [i for i in range(n) if gram[k][i]]) for k in range(n)]
    steps = [i for i in reversed(range(rank)) if i == j or gram[i][j]]
    v = [int(k == j) for k in range(n)]
    if not steps:
        return n, reach[j], j, v[reach[j]:j + 1]
    for i in range(steps[0], -1, -1):
        v[i] = -v[i] + sum(gram[i][k] * v[k] for k in range(n) if k != i)
    low = min([reach[j]] + [reach[k] for k in range(n) if v[k]])
    top = max(j, steps[0])
    return n - 1 - steps[0], low, top, v[low:top + 1]
