"""Polynomials and polynomial matrices over a finite field F_q.

A polynomial is a tuple of field elements, index = power of z, low degree
first, normalized so the empty tuple is 0 and the last coefficient of a
nonzero polynomial is nonzero.  deg 0 = -inf.

The matrix layer provides the encoder-analysis operations: maximal minors,
overall constraint length and row degrees, basicness (gcd of the maximal
minors is a nonzero constant), minimality (sum of row degrees equals the
constraint length, equivalently the highest-coefficient matrix has full
row rank), row reduction to a minimal matrix, polynomial right inverses,
canonical row echelon forms for deciding code equality, and dual bases.

The Hermite form and the diagonalization share one Euclidean row step,
`_reduce`, and the reductions carry their transforms in an augmented
matrix, as `mat_left_kernel_vector` does over F_q.  `minimize` works on
[G | I_k], so U rides as the last k columns.  `diagonalize` works on
[[G, I_k], [I_n, 0]]: row steps on the first k rows carry U as the last k
columns, and column steps, row steps on the transpose, carry V as the
last n rows.

Everything is pure and operates on immutable values.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import InternalError, check_limit
from .galois import FieldSpec

NEG_INF = float("-inf")
MINOR_TERM_CEILING = 1 << 20  # C(n, k) * k! cofactor terms behind encoder_info
MINOR_WORK_CEILING = 1 << 22  # those terms x the two longest entries' lengths

Poly = tuple  # tuple[int, ...] of field elements, low degree first

ZERO: Poly = ()
ONE: Poly = (1,)


def poly(coeffs: Iterable[int]) -> Poly:
    """Normalize a coefficient sequence (strip trailing zeros)."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def deg(a: Poly):
    """Degree; -inf for the zero polynomial."""
    return len(a) - 1 if a else NEG_INF


def coeff(a: Poly, i: int) -> int:
    return a[i] if 0 <= i < len(a) else 0


def constant(c: int) -> Poly:
    return (c,) if c else ()


def poly_add(fld: FieldSpec, a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = fld.add(out[i], c)
    return poly(out)


def poly_neg(fld: FieldSpec, a: Poly) -> Poly:
    return tuple(fld.neg(c) for c in a)


def poly_sub(fld: FieldSpec, a: Poly, b: Poly) -> Poly:
    return poly_add(fld, a, poly_neg(fld, b))


def poly_scale(fld: FieldSpec, c: int, a: Poly) -> Poly:
    if c == 0:
        return ZERO
    return tuple(fld.mul(c, x) for x in a)


def shift(a: Poly, l: int) -> Poly:
    """Multiply by z^l."""
    if not a:
        return ZERO
    return (0,) * l + a


def poly_mul(fld: FieldSpec, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = fld.add(out[i + j], fld.mul(ca, cb))
    return poly(out)


def poly_divmod(fld: FieldSpec, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder with deg r < deg b; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a)
    db = len(b) - 1
    inv_lead = fld.inv(b[-1])
    quot = [0] * max(len(a) - db, 0)
    while len(rem) - 1 >= db:
        if rem[-1] == 0:
            rem.pop()
            continue
        sh = len(rem) - 1 - db
        f = fld.mul(rem[-1], inv_lead)
        quot[sh] = f
        for i, c in enumerate(b):
            rem[sh + i] = fld.sub(rem[sh + i], fld.mul(f, c))
    return poly(quot), poly(rem)


def monic(fld: FieldSpec, a: Poly) -> Poly:
    if not a:
        return ZERO
    if a[-1] == 1:
        return a
    return poly_scale(fld, fld.inv(a[-1]), a)


def poly_gcd(fld: FieldSpec, a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    while b:
        _, r = poly_divmod(fld, a, b)
        a, b = b, r
    return monic(fld, a)


def poly_str(a: Poly) -> str:
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}z" + (f"^{i}" if i > 1 else ""))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# constant matrices over F_q (tuples of tuples of field elements)
# ---------------------------------------------------------------------------


def _identity(size: int, one, zero) -> tuple[tuple, ...]:
    """The size x size identity, with entries `one` and `zero`."""
    return tuple(tuple(one if i == j else zero for j in range(size)) for i in range(size))


def mat_identity(k: int) -> tuple[tuple[int, ...], ...]:
    return _identity(k, 1, 0)


def mat_mul(fld: FieldSpec, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]):
    return tuple(vec_mat(fld, row, b) for row in a)


def vec_mat(fld: FieldSpec, x: Sequence[int], a: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Row vector times matrix."""
    cols = len(a[0]) if a else 0
    acc = [0] * cols
    for xi, row in zip(x, a):
        if xi:
            for j, y in enumerate(row):
                if y:
                    acc[j] = fld.add(acc[j], fld.mul(xi, y))
    return tuple(acc)


def _eliminate(fld: FieldSpec, rows: list[list[int]], ncols: int) -> int:
    """Forward Gaussian elimination on the first `ncols` columns of `rows`, in
    place; each row operation spans the whole row.  Returns the rank r: rows
    0..r-1 hold the pivots, and rows r.. are zero in those columns."""
    rank = 0
    for j in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = fld.inv(rows[rank][j])
        for i in range(rank + 1, len(rows)):
            if rows[i][j]:
                f = fld.mul(rows[i][j], inv)
                rows[i] = [fld.sub(c, fld.mul(f, d)) for c, d in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def mat_rank(fld: FieldSpec, a: Sequence[Sequence[int]]) -> int:
    rows = [list(r) for r in a]
    return _eliminate(fld, rows, len(rows[0]) if rows else 0)


def mat_left_kernel_vector(fld: FieldSpec, a: Sequence[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Some nonzero w with w*a = 0, or None when a has full row rank.

    Deterministic: the elimination of `_eliminate` on a with the identity
    appended; the tracked part of the first zero row is the witness.
    """
    k, ncols = len(a), len(a[0]) if a else 0
    rows = [list(r) + list(e) for r, e in zip(a, mat_identity(k))]
    rank = _eliminate(fld, rows, ncols)
    return tuple(rows[rank][ncols:]) if rank < k else None


# ---------------------------------------------------------------------------
# polynomial matrices
# ---------------------------------------------------------------------------


class _PolyMatrixFields(NamedTuple):
    field: FieldSpec
    rows: tuple[tuple[Poly, ...], ...]


class PolyMatrix(_PolyMatrixFields):
    # no __slots__, so `info` is cached in the instance's __dict__
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a PolyMatrix is immutable")

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    @functools.cached_property
    def info(self) -> EncoderInfo:
        """encoder_info(self), computed on first use and kept with the matrix
        (a rank-deficient matrix raises again on every access)."""
        return encoder_info(self)

    def __str__(self) -> str:
        return "[" + "; ".join(
            ", ".join(poly_str(e) for e in row) for row in self.rows
        ) + "]"


def pm(field: FieldSpec, rows: Sequence[Sequence[Iterable[int]]]) -> PolyMatrix:
    """Build a matrix from coefficient sequences, validating shape and range."""
    norm = []
    width = None
    for row in rows:
        entries = tuple(poly(e) for e in row)
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ValueError("ragged matrix rows")
        for e in entries:
            for c in e:
                if not 0 <= c < field.q:
                    raise ValueError(f"coefficient {c} out of range for {field!r}")
        norm.append(entries)
    if not norm or width == 0:
        raise ValueError("empty matrix")
    return PolyMatrix(field, tuple(norm))


def pm_identity(field: FieldSpec, k: int) -> PolyMatrix:
    return PolyMatrix(field, _identity(k, ONE, ZERO))


def pm_is_zero(a: PolyMatrix) -> bool:
    return all(not e for row in a.rows for e in row)


def pm_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.n != b.k:
        raise ValueError("inner dimensions differ")
    fld = a.field
    out = []
    for i in range(a.k):
        row = []
        for j in range(b.n):
            acc: Poly = ZERO
            for t in range(a.n):
                acc = poly_add(fld, acc, poly_mul(fld, a.rows[i][t], b.rows[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return PolyMatrix(fld, tuple(out))


def pm_transpose(a: PolyMatrix) -> PolyMatrix:
    return PolyMatrix(a.field, tuple(
        tuple(a.rows[i][j] for i in range(a.k)) for j in range(a.n)
    ))


def pm_eval0(a: PolyMatrix) -> tuple[tuple[int, ...], ...]:
    """Constant matrix of the z^0 coefficients, i.e. the value at z = 0."""
    return tuple(tuple(coeff(e, 0) for e in row) for row in a.rows)


def row_degrees(a: PolyMatrix) -> tuple:
    return tuple(max((deg(e) for e in row), default=NEG_INF) for row in a.rows)


def _det(fld: FieldSpec, rows: list[list[Poly]]) -> Poly:
    """Cofactor-expansion determinant; fine for the small k used here."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    acc: Poly = ZERO
    for i in range(size):
        e = rows[i][0]
        if not e:
            continue
        minor = [rows[t][1:] for t in range(size) if t != i]
        term = poly_mul(fld, e, _det(fld, minor))
        if i % 2:
            term = poly_neg(fld, term)
        acc = poly_add(fld, acc, term)
    return acc


def k_minors(g: PolyMatrix) -> tuple[Poly, ...]:
    """All maximal minors, column subsets in lexicographic order."""
    if g.k > g.n:
        raise ValueError("matrix has more rows than columns")
    fld = g.field
    out = []
    for cols in itertools.combinations(range(g.n), g.k):
        sub = [[g.rows[i][j] for j in cols] for i in range(g.k)]
        out.append(_det(fld, sub))
    return tuple(out)


def highest_coeff_matrix(g: PolyMatrix) -> tuple[tuple[int, ...], ...]:
    """Row i holds the coefficients at z^(row degree of row i)."""
    degs = row_degrees(g)
    if NEG_INF in degs:
        raise ValueError("zero row")
    return tuple(
        tuple(coeff(e, int(d)) for e in row) for row, d in zip(g.rows, degs)
    )


class EncoderInfo(NamedTuple):
    row_degrees: tuple[int, ...]
    delta: int
    is_basic: bool
    is_minimal: bool
    memory: int


def encoder_info(g: PolyMatrix) -> EncoderInfo:
    """Row degrees, overall constraint length, basicness and minimality.

    Requires full row rank over F(z) (some maximal minor nonzero).  The
    minimality decision (sum of row degrees equals the constraint length)
    is cross-checked against full row rank of the highest-coefficient
    matrix; the two criteria always agree for full-rank matrices.
    LimitError, before any minor is expanded, above MINOR_TERM_CEILING
    terms or MINOR_WORK_CEILING coefficient products.
    """
    refusal = "maximal minors of {count} %s exceed the ceiling {bound}"
    terms = check_limit(MINOR_TERM_CEILING, refusal % "terms", range(g.n - g.k + 1, g.n + 1))
    check_limit(MINOR_WORK_CEILING, refusal % "coefficient products",
                [terms, *sorted(max(len(e), 1) for row in g.rows for e in row)[-2:]])
    minors = k_minors(g)
    nonzero = [mnr for mnr in minors if mnr]
    if not nonzero:
        raise ValueError("matrix is rank deficient over F(z)")
    fld = g.field
    delta = int(max(deg(mnr) for mnr in nonzero))
    g_minor = ZERO
    for mnr in nonzero:
        g_minor = poly_gcd(fld, g_minor, mnr)
    basic = deg(g_minor) == 0
    degs = tuple(int(d) for d in row_degrees(g))
    row_reduced = sum(degs) == delta
    if row_reduced != (mat_rank(fld, highest_coeff_matrix(g)) == g.k):
        raise InternalError("row-reducedness criteria disagree: degrees vs rank")
    return EncoderInfo(
        row_degrees=degs,
        delta=delta,
        is_basic=basic,
        is_minimal=basic and row_reduced,
        memory=max(degs),
    )


def _reduce(fld: FieldSpec, rows: list, i: int, r: int, j: int) -> bool:
    """The Euclidean row step, in place: rows[i] -= (rows[i][j] div rows[r][j])
    * rows[r] across the whole row.  Returns whether rows[i][j] is now zero;
    callers pass these to all() as a list, so that every row is reduced."""
    q, _ = poly_divmod(fld, rows[i][j], rows[r][j])
    rows[i] = [poly_sub(fld, a, poly_mul(fld, q, b)) for a, b in zip(rows[i], rows[r])]
    return not rows[i][j]


def minimize(g: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """Row-reduce a basic matrix to a minimal one (Forney, 1975).

    Returns (G_min, U) with U unimodular and G_min = U*G, from [G | I_k].
    Each step finds a left-kernel vector of the highest-coefficient matrix
    of the G part and replaces the highest-degree participating row (ties
    broken toward the largest row index) by the combination of whole
    augmented rows that cancels its leading coefficients.
    """
    if not g.info.is_basic:
        raise ValueError("row reduction requires a basic matrix")
    fld, n = g.field, g.n
    rows = [r + e for r, e in zip(g.rows, _identity(g.k, ONE, ZERO))]
    while True:
        g_min = PolyMatrix(fld, tuple(r[:n] for r in rows))
        w = mat_left_kernel_vector(fld, highest_coeff_matrix(g_min))
        if w is None:
            break
        degs = row_degrees(g_min)
        support = [i for i, wi in enumerate(w) if wi]
        dmax = max(degs[i] for i in support)
        target = max(i for i in support if degs[i] == dmax)
        row = (ZERO,) * len(rows[target])
        for i in support:
            lift = shift(constant(w[i]), dmax - degs[i])
            row = tuple(poly_add(fld, a, poly_mul(fld, lift, b)) for a, b in zip(row, rows[i]))
        rows[target] = row
    u = PolyMatrix(fld, tuple(r[n:] for r in rows))
    if pm_mul(u, g) != g_min:
        raise InternalError("minimize: U * G differs from the reduced matrix")
    if not g_min.info.is_minimal:
        raise InternalError("minimize: the reduced matrix is not minimal")
    return g_min, u


def hermite_form(g: PolyMatrix) -> PolyMatrix:
    """Canonical row echelon form over F_q[z] for a full-row-rank matrix.

    Pivots are monic and leftmost, entries above a pivot have strictly
    smaller degree.  Two basic matrices generate the same row module iff
    their forms coincide.
    """
    fld, k, n = g.field, g.k, g.n
    rows = [list(r) for r in g.rows]
    r = 0
    for j in range(n):
        if r == k:
            break
        while True:
            nz = [i for i in range(r, k) if rows[i][j]]
            if not nz:
                break
            piv = min(nz, key=lambda i: (len(rows[i][j]), i))
            rows[r], rows[piv] = rows[piv], rows[r]
            if all([_reduce(fld, rows, i, r, j) for i in range(r + 1, k) if rows[i][j]]):
                break
        if rows[r][j]:
            scale = fld.inv(rows[r][j][-1])
            rows[r] = [poly_scale(fld, scale, e) for e in rows[r]]
            for i in range(r):
                if rows[i][j] and len(rows[i][j]) >= len(rows[r][j]):
                    _reduce(fld, rows, i, r, j)
            r += 1
    if r < k:
        raise ValueError("matrix is rank deficient over F(z)")
    return PolyMatrix(fld, tuple(tuple(row) for row in rows))


def check_same_shape(g: PolyMatrix, h: PolyMatrix) -> None:
    """Refuse two matrices that differ in field, k or n."""
    if g.field != h.field or (g.k, g.n) != (h.k, h.n):
        raise ValueError("shape/field mismatch")


def codes_equal(g: PolyMatrix, h: PolyMatrix) -> bool:
    """Whether two basic matrices generate the same code (row module)."""
    check_same_shape(g, h)
    for m in (g, h):
        if not m.info.is_basic:
            raise ValueError("code equality is decided for basic matrices only")
    return hermite_form(g) == hermite_form(h)


def diagonalize(g: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix, PolyMatrix]:
    """Smith-style diagonalization U*G*V = S with U, V unimodular.

    Works on [[G, I_k], [I_n, 0]], so U is read off the last k columns and
    V off the last n rows.  Step t moves a nonzero entry of least degree to
    (t, t) and clears column t below it by row steps and row t right of it
    by column steps (row steps on the transpose), until both are clear.
    S is diagonal with monic nonzero entries first; the divisibility chain
    is not enforced (not needed for kernels and right inverses).
    """
    fld, k, n = g.field, g.k, g.n
    a = [list(r + e) for r, e in zip(g.rows, _identity(k, ONE, ZERO))]
    a += [list(e + (ZERO,) * k) for e in _identity(n, ONE, ZERO)]
    for t in range(min(k, n)):
        while True:
            nz = [(len(a[i][j]), i, j) for i in range(t, k) for j in range(t, n) if a[i][j]]
            if not nz:
                break
            _, bi, bj = min(nz)
            a[t], a[bi] = a[bi], a[t]
            for row in a:
                row[t], row[bj] = row[bj], row[t]
            clean = all([_reduce(fld, a, i, t, t) for i in range(t + 1, k) if a[i][t]])
            a = [list(col) for col in zip(*a)]
            clean = all([_reduce(fld, a, j, t, t) for j in range(t + 1, n) if a[j][t]]) and clean
            a = [list(row) for row in zip(*a)]
            if clean:
                break
        if a[t][t] and a[t][t][-1] != 1:
            inv = fld.inv(a[t][t][-1])
            a[t] = [poly_scale(fld, inv, e) for e in a[t]]
    s_m = PolyMatrix(fld, tuple(tuple(r[:n]) for r in a[:k]))
    u_m = PolyMatrix(fld, tuple(tuple(r[n:]) for r in a[:k]))
    v_m = PolyMatrix(fld, tuple(tuple(r[:n]) for r in a[k:]))
    if pm_mul(pm_mul(u_m, g), v_m) != s_m:
        raise InternalError("diagonalize: U * G * V differs from the diagonal form")
    return s_m, u_m, v_m


def right_inverse(g: PolyMatrix) -> tuple[PolyMatrix, int]:
    """Polynomial right inverse of a basic matrix plus its max row degree.

    A basic matrix diagonalizes to S = [I_k 0] (its diagonal entries are
    monic constants), so Ghat = V [I_k; 0] U: V's first k columns times U.
    """
    if not g.info.is_basic:
        raise ValueError("only basic matrices have polynomial right inverses")
    fld = g.field
    s, u, v = diagonalize(g)
    if any(len(s.rows[t][t]) != 1 for t in range(g.k)):
        raise InternalError("diagonal of a basic matrix must be constant")
    ghat = pm_mul(PolyMatrix(fld, tuple(row[:g.k] for row in v.rows)), u)
    if pm_mul(g, ghat) != pm_identity(fld, g.k):
        raise InternalError("right inverse: G * Ghat is not the identity")
    mhat = int(max(d for d in row_degrees(ghat) if d != NEG_INF))
    return ghat, mhat


def dual_basis(g: PolyMatrix) -> PolyMatrix:
    """Basic minimal (n-k) x n matrix H with G * H^T = 0.

    H starts from the kernel columns of the diagonalization and is then
    row-reduced; the whole pipeline is deterministic.
    """
    if g.k >= g.n:
        raise ValueError("dual basis requires k < n")
    if not g.info.is_basic:
        raise ValueError("dual basis requires a basic matrix")
    fld = g.field
    _, _, v = diagonalize(g)
    h0 = PolyMatrix(fld, pm_transpose(v).rows[g.k:])
    if not pm_is_zero(pm_mul(g, pm_transpose(h0))):
        raise InternalError("dual basis: kernel columns are not orthogonal to G")
    h, _ = minimize(h0)
    if not pm_is_zero(pm_mul(g, pm_transpose(h))):
        raise InternalError("dual basis: reduced H is not orthogonal to G")
    return h
