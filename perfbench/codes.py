"""Generator matrices as the benchmark sees them, built without `convcode`.

A code is a `Code(field, rows)` with rows[i][j] a polynomial (list of field
elements, low degree first).  This module samples codes of a fixed shape
(field, k, n, row degrees), decides the properties the checks need
(minimality, catastrophicity, delay-freeness) from the polynomials
themselves, writes `.gm` text, and rebuilds the adjacency matrix of the
controller-form state diagram by direct register simulation, using the
state numbering documented in `convcode.statediag`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gf import GF, padd, pgcd, pmul, rank, minors, trim


@dataclass(frozen=True)
class Shape:
    """One shape class: every code in it has these parameters."""

    m: int  # field F_{2^m}
    k: int
    n: int
    degs: tuple[int, ...]  # row degrees, sum = gamma

    @property
    def q(self) -> int:
        return 1 << self.m

    @property
    def gamma(self) -> int:
        return sum(self.degs)


@dataclass
class Code:
    field: GF
    rows: list[list[list[int]]]

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def row_degrees(self) -> list[int]:
        return [max(len(e) for e in row) - 1 for row in self.rows]

    def gm(self, comment: str = "") -> str:
        lines = [f"# {comment}"] if comment else []
        lines += [self.field.header(), f"k={self.k} n={self.n}"]
        for row in self.rows:
            lines.append(" ; ".join(" ".join(map(str, e)) if e else "0" for e in row))
        return "\n".join(lines) + "\n"


_FIELDS: dict[int, GF] = {}


def field(m: int) -> GF:
    if m not in _FIELDS:
        _FIELDS[m] = GF(m)
    return _FIELDS[m]


def from_octal(*gens: str) -> Code:
    """Binary rate-1/n code from octal generators, first bit = z^0."""
    rows = [[]]
    for g in gens:
        bits = "".join(format(int(d), "03b") for d in g).lstrip("0")
        rows[0].append(trim([int(b) for b in bits]))
    return Code(field(1), rows)


# -- properties ----------------------------------------------------------------


def gcd_of_minors(code: Code) -> list[int]:
    g: list[int] = []
    for mnr in minors(code.field, code.rows):
        g = pgcd(code.field, g, mnr)
    return g


def is_minimal(code: Code) -> bool:
    """Basic (gcd of maximal minors is a constant) and row reduced."""
    g = gcd_of_minors(code)
    if len(g) != 1:
        return False
    degs = code.row_degrees()
    high = [[e[d] if len(e) > d else 0 for e in row] for row, d in zip(code.rows, degs)]
    return rank(code.field, high) == code.k


def catastrophic(code: Code) -> bool:
    """Massey-Sain: the gcd of the maximal minors is not a power of z."""
    g = gcd_of_minors(code)
    return sum(1 for c in g if c) != 1


def delay_free(code: Code) -> bool:
    """G(0) has full row rank."""
    g0 = [[e[0] if e else 0 for e in row] for row in code.rows]
    return rank(code.field, g0) == code.k


# -- sampling ------------------------------------------------------------------


def random_poly(rng: random.Random, q: int, deg: int, lead: bool = False) -> list[int]:
    coeffs = [rng.randrange(q) for _ in range(deg + 1)]
    if lead:
        coeffs[-1] = rng.randrange(1, q)
    return trim(coeffs)


def random_matrix(rng: random.Random, shape: Shape) -> Code:
    """Random matrix whose row i has degree exactly shape.degs[i]."""
    q = shape.q
    rows = []
    for d in shape.degs:
        lead_col = rng.randrange(shape.n)
        rows.append([random_poly(rng, q, d, lead=(j == lead_col)) for j in range(shape.n)])
    return Code(field(shape.m), rows)


def random_minimal(rng: random.Random, shape: Shape) -> Code:
    while True:
        code = random_matrix(rng, shape)
        if is_minimal(code):
            return code


def random_full_rank(rng: random.Random, shape: Shape) -> Code:
    """A full-rank matrix of the shape with constraint length delta > 0.
    About a quarter are made catastrophic by a common factor (z + a) in the
    first row, and another quarter made non-delay-free by clearing the first
    row's constant terms."""
    f = field(shape.m)
    kind = rng.randrange(4)
    while True:
        code = random_matrix(rng, shape)
        if kind == 0 and shape.degs[0] >= 1:
            inner = Shape(shape.m, 1, shape.n, (shape.degs[0] - 1,))
            root = [rng.randrange(1, shape.q), 1]
            code.rows[0] = [pmul(f, root, e) for e in random_matrix(rng, inner).rows[0]]
        elif kind == 1 and shape.degs[0] >= 1:
            code.rows[0] = [trim([0] + e[1:]) for e in code.rows[0]]
        mins = minors(f, code.rows)
        # a nonzero minor of positive degree: otherwise the CLI treats the
        # matrix as a block code and refuses to draw a diagram
        if any(len(m) > 1 for m in mins) and code.row_degrees() == list(shape.degs):
            return code


def row_transform(rng: random.Random, code: Code, ops: int = 4) -> Code:
    """Random invertible row operations that keep the matrix minimal: swaps,
    unit scalings, and row_i += c z^l row_j with l bounded by the degree gap."""
    f = code.field
    rows = [list(r) for r in code.rows]
    k = len(rows)
    for _ in range(ops):
        kind = rng.choice(("swap", "scale", "add") if k > 1 else ("scale",))
        if kind == "swap":
            i, j = rng.sample(range(k), 2)
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "scale":
            i = rng.randrange(k)
            c = rng.randrange(1, f.q)
            rows[i] = [pmul(f, [c], e) for e in rows[i]]
        else:
            i, j = rng.sample(range(k), 2)
            di, dj = (max(len(e) for e in rows[t]) - 1 for t in (i, j))
            if di < dj:
                i, j, di, dj = j, i, dj, di
            factor = [0] * rng.randint(0, di - dj) + [rng.randrange(1, f.q)]
            rows[i] = [padd(a, pmul(f, factor, b)) for a, b in zip(rows[i], rows[j])]
    return Code(f, rows)


def column_monomial(rng: random.Random, code: Code) -> Code:
    """Permute the columns and scale each by a unit."""
    f = code.field
    perm = list(range(code.n))
    rng.shuffle(perm)
    scale = [rng.randrange(1, f.q) for _ in range(code.n)]
    rows = [[pmul(f, [scale[j]], row[perm[j]]) for j in range(code.n)] for row in code.rows]
    return Code(f, rows)


def code_key(code: Code) -> tuple:
    """The maximal minors scaled to a monic first nonzero one.  For basic
    matrices this identifies the code: two basic matrices generate the same
    code exactly when their minor vectors are proportional."""
    f = code.field
    mins = minors(f, code.rows)
    inv = f.inv(next(m for m in mins if m)[-1])
    return tuple(tuple(pmul(f, [inv], m)) for m in mins)


# -- adjacency matrix by register simulation -------------------------------------


def adjacency(code: Code) -> dict[tuple[int, int], dict[int, int]]:
    """{(src, dst): {weight: count}} over all edges except the zero loop.

    The register holds, for row i of degree d_i, the inputs u_i(t-1) ..
    u_i(t-d_i) in that order; rows are concatenated in order and the state
    index reads the register as a base-q number, first cell most significant.
    """
    f = code.field
    q, k, n = f.q, code.k, code.n
    degs = code.row_degrees()
    gamma = sum(degs)
    cells = []  # (row, delay r >= 1) per register cell
    for i, d in enumerate(degs):
        cells += [(i, r) for r in range(1, d + 1)]
    coeff = lambda e, t: e[t] if t < len(e) else 0
    # output contribution of each register cell value and of each input digit
    cell_out = [
        [[f.mul(x, coeff(code.rows[i][j], r)) for j in range(n)] for x in range(q)]
        for i, r in cells
    ]
    in_out = [
        [[f.mul(x, coeff(code.rows[i][j], 0)) for j in range(n)] for x in range(q)]
        for i in range(k)
    ]
    adj: dict[tuple[int, int], dict[int, int]] = {}
    for s in range(q**gamma):
        x = []
        v = s
        for _ in range(gamma):
            v, d = divmod(v, q)
            x.append(d)
        x.reverse()
        base = [0] * n
        for c, xv in enumerate(x):
            if xv:
                base = [a ^ b for a, b in zip(base, cell_out[c][xv])]
        for iu in range(q**k):
            u = []
            v = iu
            for _ in range(k):
                v, d = divmod(v, q)
                u.append(d)
            if s == 0 and not any(u):
                continue
            out = list(base)
            for i, ui in enumerate(u):
                if ui:
                    out = [a ^ b for a, b in zip(out, in_out[i][ui])]
            nxt = [0] * gamma
            for c, (i, r) in enumerate(cells):
                nxt[c] = u[i] if r == 1 else x[c - 1]
            dst = 0
            for d in nxt:
                dst = dst * q + d
            w = sum(1 for c in out if c)
            cell = adj.setdefault((s, dst), {})
            cell[w] = cell.get(w, 0) + 1
    return adj


def phi_coeffs(adj: dict, trunc: int) -> list[dict[int, int]]:
    """(Lambda^l)_{0,0} for l = 0..trunc, by iterating the first row."""
    out_edges: dict[int, list] = {}
    for (s, d), cell in adj.items():
        out_edges.setdefault(s, []).append((d, cell))
    row = {0: {0: 1}}
    coeffs = [{0: 1}]
    for _ in range(trunc):
        nxt: dict[int, dict[int, int]] = {}
        for s, poly in row.items():
            for d, cell in out_edges.get(s, ()):
                acc = nxt.setdefault(d, {})
                for a, c in poly.items():
                    for b, e in cell.items():
                        acc[a + b] = acc.get(a + b, 0) + c * e
        row = nxt
        coeffs.append(dict(row.get(0, {})))
    return coeffs
