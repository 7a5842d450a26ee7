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

Everything is pure and operates on immutable values.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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


def mat_identity(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


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


@dataclass(frozen=True)
class PolyMatrix:
    field: FieldSpec
    rows: tuple[tuple[Poly, ...], ...]

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
    return PolyMatrix(field, tuple(
        tuple(ONE if i == j else ZERO for j in range(k)) for i in range(k)
    ))


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


@dataclass(frozen=True)
class EncoderInfo:
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


def minimize(g: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """Row-reduce a basic matrix to a minimal one.

    Returns (G_min, U) with U unimodular and G_min = U*G.  Each step finds
    a left-kernel vector of the highest-coefficient matrix and cancels the
    leading coefficient row of the highest-degree participating row (ties
    broken toward the largest row index).
    """
    if not g.info.is_basic:
        raise ValueError("row reduction requires a basic matrix")
    fld = g.field
    rows = [list(r) for r in g.rows]
    u_rows = [list(r) for r in pm_identity(fld, g.k).rows]
    while True:
        degs = [int(max(deg(e) for e in row)) for row in rows]
        hc = tuple(
            tuple(coeff(e, d) for e in row) for row, d in zip(rows, degs)
        )
        w = mat_left_kernel_vector(fld, hc)
        if w is None:
            break
        support = [i for i, wi in enumerate(w) if wi]
        dmax = max(degs[i] for i in support)
        target = max(i for i in support if degs[i] == dmax)
        new_row = [ZERO] * g.n
        new_u = [ZERO] * g.k
        for i in support:
            lift = shift(constant(w[i]), dmax - degs[i])
            for j in range(g.n):
                new_row[j] = poly_add(fld, new_row[j], poly_mul(fld, lift, rows[i][j]))
            for j in range(g.k):
                new_u[j] = poly_add(fld, new_u[j], poly_mul(fld, lift, u_rows[i][j]))
        rows[target] = new_row
        u_rows[target] = new_u
    g_min = PolyMatrix(fld, tuple(tuple(r) for r in rows))
    u = PolyMatrix(fld, tuple(tuple(r) for r in u_rows))
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
    fld = g.field
    rows = [list(r) for r in g.rows]
    k, n = g.k, g.n
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
            done = True
            for i in range(r + 1, k):
                if rows[i][j]:
                    q, _ = poly_divmod(fld, rows[i][j], rows[r][j])
                    rows[i] = [
                        poly_sub(fld, a, poly_mul(fld, q, b))
                        for a, b in zip(rows[i], rows[r])
                    ]
                    if rows[i][j]:
                        done = False
            if done:
                break
        if rows[r][j]:
            scale = fld.inv(rows[r][j][-1])
            rows[r] = [poly_scale(fld, scale, e) for e in rows[r]]
            for i in range(r):
                if rows[i][j] and len(rows[i][j]) >= len(rows[r][j]):
                    q, _ = poly_divmod(fld, rows[i][j], rows[r][j])
                    rows[i] = [
                        poly_sub(fld, a, poly_mul(fld, q, b))
                        for a, b in zip(rows[i], rows[r])
                    ]
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

    S is diagonal with monic nonzero entries first; the divisibility chain
    is not enforced (not needed for kernels and right inverses).
    """
    fld = g.field
    k, n = g.k, g.n
    s = [list(r) for r in g.rows]
    u = [list(r) for r in pm_identity(fld, k).rows]
    v = [list(r) for r in pm_identity(fld, n).rows]

    def row_op(i, t, q):  # row_i -= q * row_t
        s[i] = [poly_sub(fld, a, poly_mul(fld, q, b)) for a, b in zip(s[i], s[t])]
        u[i] = [poly_sub(fld, a, poly_mul(fld, q, b)) for a, b in zip(u[i], u[t])]

    def col_op(j, t, q):  # col_j -= q * col_t
        for i in range(k):
            s[i][j] = poly_sub(fld, s[i][j], poly_mul(fld, q, s[i][t]))
        for i in range(n):
            v[i][j] = poly_sub(fld, v[i][j], poly_mul(fld, q, v[i][t]))

    for t in range(min(k, n)):
        while True:
            best = None
            for i in range(t, k):
                for j in range(t, n):
                    if s[i][j] and (best is None or len(s[i][j]) < len(s[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                s[t], s[bi] = s[bi], s[t]
                u[t], u[bi] = u[bi], u[t]
            if bj != t:
                for row in s:
                    row[t], row[bj] = row[bj], row[t]
                for row in v:
                    row[t], row[bj] = row[bj], row[t]
            clean = True
            for i in range(t + 1, k):
                if s[i][t]:
                    q, _ = poly_divmod(fld, s[i][t], s[t][t])
                    row_op(i, t, q)
                    if s[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if s[t][j]:
                    q, _ = poly_divmod(fld, s[t][j], s[t][t])
                    col_op(j, t, q)
                    if s[t][j]:
                        clean = False
            if clean:
                break
        if s[t][t] and s[t][t][-1] != 1:
            inv = fld.inv(s[t][t][-1])
            s[t] = [poly_scale(fld, inv, e) for e in s[t]]
            u[t] = [poly_scale(fld, inv, e) for e in u[t]]
    s_m = PolyMatrix(fld, tuple(tuple(r) for r in s))
    u_m = PolyMatrix(fld, tuple(tuple(r) for r in u))
    v_m = PolyMatrix(fld, tuple(tuple(r) for r in v))
    if pm_mul(pm_mul(u_m, g), v_m) != s_m:
        raise InternalError("diagonalize: U * G * V differs from the diagonal form")
    return s_m, u_m, v_m


def right_inverse(g: PolyMatrix) -> tuple[PolyMatrix, int]:
    """Polynomial right inverse of a basic matrix plus its max row degree."""
    if not g.info.is_basic:
        raise ValueError("only basic matrices have polynomial right inverses")
    fld = g.field
    s, u, v = diagonalize(g)
    if any(len(s.rows[t][t]) != 1 for t in range(g.k)):
        raise InternalError("diagonal of a basic matrix must be constant")
    # Ghat = V * [diag(1/d); 0] * U  (diagonal entries are monic, so 1)
    w = [[s.rows[j][j] if i == j else ZERO for j in range(g.k)] for i in range(g.n)]
    w_m = PolyMatrix(fld, tuple(tuple(r) for r in w))
    ghat = pm_mul(pm_mul(v, w_m), u)
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
    kernel_rows = tuple(
        tuple(v.rows[i][j] for i in range(g.n)) for j in range(g.k, g.n)
    )
    h0 = PolyMatrix(fld, kernel_rows)
    if not pm_is_zero(pm_mul(g, pm_transpose(h0))):
        raise InternalError("dual basis: kernel columns are not orthogonal to G")
    h, _ = minimize(h0)
    if not pm_is_zero(pm_mul(g, pm_transpose(h))):
        raise InternalError("dual basis: reduced H is not orthogonal to G")
    return h
