"""Code invariants carried by the adjacency matrix.

Two adjacency matrices represent the same generalized invariant when one
is the conjugate of the other by a permutation of the states that fixes
the zero state.  The decision procedure here is a backtracking search
over vertex matchings pruned by iterated in/out enumerator-multiset color
refinement, certified by a full conjugation check before a witness is
returned.  On top of that sit: recovery of the code dimension and row
degrees from the matrix alone, the monomial-equivalence decision for
generator matrices, the closed-form dual transform for binary codes with
unit constraint length, and an exhaustive verifier for the shift-
compatibility rigidity of zero-fixing bijections on F_2^gamma.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from . import polyalg
from .errors import InternalError, LimitError
from .galois import FieldSpec
from .polyalg import PolyMatrix
from .spectrum import AdjMatrix, WeightEnum, extend, row_iterate

PermWitness = tuple  # index array pi with pi[0] == 0
MonomialWitness = tuple  # (column permutation, column scalars)


# ---------------------------------------------------------------------------
# conjugation equivalence of adjacency matrices
# ---------------------------------------------------------------------------


def _refined_colors(a: AdjMatrix, b: AdjMatrix):
    """Stable joint color refinement; None when histograms separate.

    A signature lists a state's nonzero out- and in-cells only.  A round
    runs only when both matrices share one color histogram, which fixes
    the colors of a row's zero cells from its nonzero ones, so the sparse
    signatures split the states exactly as the dense rows would.
    """
    s = a.size
    cells = []
    for m in (a, b):
        out = [[(j, e.terms()) for j, e in row] for row in m.rows]
        inn = [[] for _ in range(s)]
        for i, row in enumerate(out):
            for j, t in row:
                inn[j].append((i, t))
        cells.append((out, inn))
    col_a = [0 if i else -1 for i in range(s)]  # state 0 is pinned
    col_b = list(col_a)
    while True:
        sig_ids: dict[tuple, int] = {}
        new_a = []
        new_b = []
        for (out, inn), colors, target in zip(cells, (col_a, col_b), (new_a, new_b)):
            for i in range(s):
                sig = (
                    colors[i],
                    tuple(sorted((t, colors[j]) for j, t in out[i])),
                    tuple(sorted((t, colors[j]) for j, t in inn[i])),
                )
                target.append(sig_ids.setdefault(sig, len(sig_ids)))
        if sorted(new_a) != sorted(new_b):
            return None
        if new_a == col_a and new_b == col_b:
            return col_a, col_b
        col_a, col_b = new_a, new_b


def gen_adj_equal(
    a: AdjMatrix, b: AdjMatrix, *, max_states: int = 256
) -> Optional[PermWitness]:
    """Zero-fixing permutation pi with b[pi(i)][pi(j)] == a[i][j], or None.

    The search assigns states in index order and tries candidates in
    increasing order, so a returned witness is the lexicographically
    least one.  The witness is re-verified entry by entry before return.
    """
    if (a.size, a.q, a.n, a.extended) != (b.size, b.q, b.n, b.extended):
        raise ValueError("adjacency matrices have mismatched dimensions")
    if a.size > max_states:
        raise LimitError(
            f"backtracking over {a.size} states exceeds the bound {max_states}"
        )
    s = a.size
    refined = _refined_colors(a, b)
    if refined is None:
        return None
    col_a, col_b = refined
    candidates = [
        [j for j in range(s) if col_b[j] == col_a[i]] for i in range(s)
    ]
    if any(not c for c in candidates):
        return None
    mapping = [-1] * s
    used = [False] * s
    ta = [{j: e.terms() for j, e in row} for row in a.rows]
    tb = [{j: e.terms() for j, e in row} for row in b.rows]

    def feasible(i: int, j: int) -> bool:
        for i2 in range(i + 1):
            j2 = j if i2 == i else mapping[i2]
            if ta[i].get(i2, ()) != tb[j].get(j2, ()):
                return False
            if ta[i2].get(i, ()) != tb[j2].get(j, ()):
                return False
        return True

    def search(i: int) -> bool:
        if i == s:
            return True
        for j in candidates[i]:
            if not used[j] and feasible(i, j):
                mapping[i] = j
                used[j] = True
                if search(i + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    if not search(0):
        return None
    pi = tuple(mapping)
    rb = [dict(row) for row in b.rows]
    if pi[0] != 0 or any(
        len(row) != len(rb[pi[i]]) or any(e != rb[pi[i]].get(pi[j]) for j, e in row)
        for i, row in enumerate(a.rows)
    ):
        raise InternalError("conjugation witness failed re-verification")
    return pi


def apply_witness(a: AdjMatrix, pi: Sequence[int]) -> AdjMatrix:
    """Conjugate by the permutation: entry (i, j) moves to (pi[i], pi[j])."""
    rows = [()] * a.size
    for i, row in enumerate(a.rows):
        rows[pi[i]] = sorted((pi[j], e) for j, e in row)
    return AdjMatrix(rows, q=a.q, n=a.n, extended=a.extended)


# ---------------------------------------------------------------------------
# dimension and row-degree recovery
# ---------------------------------------------------------------------------


def _power_of(q: int, value: int) -> int:
    e = 0
    while q**e < value:
        e += 1
    if q**e != value:
        raise ValueError(f"count {value} is not a power of q = {q}")
    return e


def recover_dimension(lam: AdjMatrix) -> int:
    """k from the first row of the extended matrix: its counts sum to q^k."""
    gam = lam if lam.extended else extend(lam)
    total = sum(e.count() for _, e in gam.rows[0])
    return _power_of(lam.q, total)


def recover_forney(lam: AdjMatrix) -> tuple[int, ...]:
    """Row-degree multiset of any minimal encoder, from the matrix alone.

    The number of nonzero entries in the first row of Gamma^r equals
    q^(rho_{r-1}) where rho_r is the rank of the stacked reachability
    matrix; the differences of consecutive rho values count the degrees
    exceeding each threshold.
    """
    q = lam.q
    gamma = _power_of(q, lam.size)
    k = recover_dimension(lam)
    gam = lam if lam.extended else extend(lam)
    rhos = []
    row: tuple[WeightEnum, ...] = tuple(
        WeightEnum.one() if j == 0 else WeightEnum.zero() for j in range(gam.size)
    )
    for _ in range(gamma + 2):
        row = row_iterate(row, gam)
        rho = _power_of(q, sum(1 for e in row if e))
        if rhos and rho == rhos[-1]:
            break
        rhos.append(rho)
    else:
        raise ValueError("reachability ranks failed to stabilize")
    if rhos[-1] != gamma:
        raise ValueError("stable rank differs from the state-space dimension")
    exceed = [rhos[0]] + [rhos[r] - rhos[r - 1] for r in range(1, len(rhos))] + [0]
    if any(c < 0 for c in exceed) or rhos[0] > k:
        raise ValueError("inconsistent reachability counts")
    indices = [0] * (k - rhos[0])
    for t in range(1, len(exceed)):
        indices.extend([t] * (exceed[t - 1] - exceed[t]))
    if sum(indices) != gamma:
        raise ValueError("recovered degrees do not sum to the state dimension")
    return tuple(sorted(indices))


# ---------------------------------------------------------------------------
# monomial equivalence
# ---------------------------------------------------------------------------


def apply_monomial(g: PolyMatrix, perm: Sequence[int], scale: Sequence[int]) -> PolyMatrix:
    """Column j of the result is scale[j] times column perm[j] of g."""
    fld = g.field
    rows = tuple(
        tuple(polyalg.poly_scale(fld, scale[j], row[perm[j]]) for j in range(g.n))
        for row in g.rows
    )
    return PolyMatrix(fld, rows)


def monomial_equiv(
    g: PolyMatrix, h: PolyMatrix, *, budget: int = 1_000_000
) -> Optional[MonomialWitness]:
    """Exhaustive search for a column permutation and rescaling mapping the
    code of g onto the code of h; returns the lexicographically first
    witness (permutations in lex order, scalings in value order)."""
    if g.field != h.field or (g.k, g.n) != (h.k, h.n):
        raise ValueError("shape/field mismatch")
    fld = g.field
    n = g.n
    total = 1
    for i in range(2, n + 1):
        total *= i
    total *= (fld.q - 1) ** n
    if total > budget:
        raise LimitError(f"{total} candidates exceed the search budget {budget}")
    target = polyalg.hermite_form(h)
    for perm in itertools.permutations(range(n)):
        for scale in itertools.product(fld.units(), repeat=n):
            cand = apply_monomial(g, perm, scale)
            try:
                if polyalg.hermite_form(cand) == target:
                    return perm, scale
            except ValueError:
                continue
    return None


def weight_preserving_equiv_check(
    fld: FieldSpec,
    m1: Sequence[Sequence[int]],
    m2: Sequence[Sequence[int]],
) -> bool:
    """Whether wt(u m1) == wt(u m2) for every u in F^k (exhaustive)."""
    if len(m1) != len(m2) or len(m1[0]) != len(m2[0]):
        raise ValueError("matrices must have the same shape")
    for u in itertools.product(range(fld.q), repeat=len(m1)):
        w1 = sum(1 for c in polyalg.vec_mat(fld, u, m1) if c)
        w2 = sum(1 for c in polyalg.vec_mat(fld, u, m2) if c)
        if w1 != w2:
            return False
    return True


# ---------------------------------------------------------------------------
# duality transform for binary unit-constraint-length codes
# ---------------------------------------------------------------------------


def macwilliams_delta1(gam: AdjMatrix, n: int, k: int) -> AdjMatrix:
    """Extended adjacency matrix of the dual of a binary code with a
    two-state diagram:

        Gamma_dual = 2^(-k-1) (1+W)^n M^T |_{W <- (1-W)/(1+W)},
        M = [[1,1],[1,-1]] Gamma [[1,1],[1,-1]].

    Carried out in exact integer arithmetic; the final division must be
    exact and the result's coefficients nonnegative, otherwise the input
    was not a valid extended adjacency matrix.
    """
    if gam.q != 2:
        raise ValueError("the transform applies to binary codes only")
    if gam.size != 2:
        raise ValueError("the transform applies to two-state diagrams only")
    if not gam.extended:
        raise ValueError("pass the extended matrix (zero self-loop included)")
    zero = WeightEnum.zero()
    e = [[dict(row).get(j, zero) for j in (0, 1)] for row in gam.rows]
    srows = ((e[0][0] + e[1][0], e[0][1] + e[1][1]),
             (e[0][0] - e[1][0], e[0][1] - e[1][1]))
    m = ((srows[0][0] + srows[0][1], srows[0][0] - srows[0][1]),
         (srows[1][0] + srows[1][1], srows[1][0] - srows[1][1]))
    mt = ((m[0][0], m[1][0]), (m[0][1], m[1][1]))

    # coefficient lists of (1-W)^a (1+W)^(n-a) for each exponent a
    mix = []
    for a in range(n + 1):
        c = [1]
        for _ in range(a):
            c = [x - y for x, y in zip(c + [0], [0] + c)]
        for _ in range(n - a):
            c = [x + y for x, y in zip(c + [0], [0] + c)]
        mix.append(c)

    denom = 1 << (k + 1)
    out_rows = []
    for row in mt:
        out_row = []
        for j, entry in enumerate(row):
            acc = [0] * (n + 1)
            for alpha, cnt in entry.terms():
                if alpha > n:
                    raise ValueError("entry weight exceeds the block length")
                for i, c in enumerate(mix[alpha]):
                    acc[i] += cnt * c
            terms = {}
            for i, c in enumerate(acc):
                if c % denom:
                    raise ValueError("transform does not clear: invalid input matrix")
                c //= denom
                if c < 0:
                    raise ValueError("transform yields a negative count: invalid input")
                if c:
                    terms[i] = c
            if terms:
                out_row.append((j, WeightEnum(terms)))
        out_rows.append(out_row)
    return AdjMatrix(out_rows, q=2, n=n, extended=True)


# ---------------------------------------------------------------------------
# rigidity of shift-compatible zero-fixing bijections on F_2^gamma
# ---------------------------------------------------------------------------


def verify_shift_permutation_lemma(gamma: int) -> bool:
    """Exhaustively confirm that the identity is the only zero-fixing
    bijection of F_2^gamma satisfying, for all X and all u in F_2,

        pi(u, X[0..gamma-2])[1..gamma-1] == pi(X)[0..gamma-2].

    Supported for gamma in {2, 3} (search over (2^gamma - 1)! bijections).
    """
    if gamma not in (2, 3):
        raise ValueError("exhaustive verification supports gamma in {2, 3}")
    vecs = list(itertools.product((0, 1), repeat=gamma))
    zero = vecs[0]
    nonzero = vecs[1:]
    satisfying = []
    for image in itertools.permutations(nonzero):
        pi = {zero: zero}
        pi.update(zip(nonzero, image))
        ok = True
        for x in vecs:
            for u in (0, 1):
                y = (u,) + x[:-1]
                if pi[y][1:] != pi[x][:-1]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            satisfying.append(pi)
    identity = {v: v for v in vecs}
    return satisfying == [identity]
