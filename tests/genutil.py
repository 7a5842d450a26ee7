"""Seeded random generators for codes and unimodular transformations."""

import itertools
import random

from convcode import controller_form, encoder_info, minimize, pm
from convcode.polyalg import (
    PolyMatrix,
    constant,
    mat_rank,
    pm_identity,
    pm_mul,
    poly,
    poly_add,
    poly_mul,
    shift,
    vec_mat,
)
from convcode.spectrum import AdjMatrix, LSeries, WeightEnum
from convcode.statediag import state_index


def random_poly(rng: random.Random, fld, max_deg: int):
    return poly([rng.randrange(fld.q) for _ in range(max_deg + 1)])


def random_matrix(rng: random.Random, fld, k: int, n: int, max_deg: int) -> PolyMatrix:
    return pm(
        fld,
        [[random_poly(rng, fld, max_deg) for _ in range(n)] for _ in range(k)],
    )


def random_minimal_code(
    rng: random.Random,
    fld,
    *,
    n_max: int = 4,
    k_max: int = 2,
    gamma_min: int = 1,
    gamma_max: int = 4,
    tries: int = 2000,
) -> PolyMatrix:
    """Rejection-sample a basic matrix, then row-reduce it."""
    for _ in range(tries):
        n = rng.randint(2, n_max)
        k = rng.randint(1, min(k_max, n - 1))
        deg = rng.randint(1, max(1, gamma_max // k))
        g = random_matrix(rng, fld, k, n, deg)
        try:
            info = encoder_info(g)
        except ValueError:
            continue
        if not info.is_basic:
            continue
        g_min, _ = minimize(g)
        info = encoder_info(g_min)
        if gamma_min <= info.delta <= gamma_max:
            return g_min
    raise RuntimeError("sampling budget exhausted")


def random_nonbasic_fullrank(
    rng: random.Random, fld, *, n_max: int = 4, k_max: int = 2, tries: int = 5000
) -> PolyMatrix:
    for _ in range(tries):
        n = rng.randint(2, n_max)
        k = rng.randint(1, min(k_max, n - 1))
        g = random_matrix(rng, fld, k, n, rng.randint(1, 2))
        try:
            info = encoder_info(g)
        except ValueError:
            continue
        if not info.is_basic and sum(info.row_degrees) > 0:
            return g
    raise RuntimeError("sampling budget exhausted")


def elementary_ops(rng: random.Random, g: PolyMatrix, count: int):
    """Random sequence of minimality-preserving elementary row operations.

    Yields nothing; returns (transformed matrix, unimodular U) with
    U*g == transformed and the transform still minimal.  Degree-raising
    additions are capped by the current row-degree gap, which is exactly
    the condition under which row-reducedness survives.
    """
    fld = g.field
    k = g.k
    rows = [list(r) for r in g.rows]
    u_rows = [list(r) for r in pm_identity(fld, k).rows]

    def rowdeg(i):
        return max((len(e) - 1 for e in rows[i] if e), default=0)

    for _ in range(count):
        kind = rng.choice(["swap", "scale", "add"] if k > 1 else ["scale"])
        if kind == "swap":
            i, j = rng.sample(range(k), 2)
            rows[i], rows[j] = rows[j], rows[i]
            u_rows[i], u_rows[j] = u_rows[j], u_rows[i]
        elif kind == "scale":
            i = rng.randrange(k)
            c = rng.choice(list(fld.units()))
            rows[i] = [tuple(fld.mul(c, x) for x in e) for e in rows[i]]
            u_rows[i] = [tuple(fld.mul(c, x) for x in e) for e in u_rows[i]]
        else:
            i, j = rng.sample(range(k), 2)
            if rowdeg(i) < rowdeg(j):
                i, j = j, i
            l = rng.randint(0, rowdeg(i) - rowdeg(j))
            c = rng.choice(list(fld.units()))
            factor = shift(constant(c), l)
            rows[i] = [
                poly_add(fld, a, poly_mul(fld, factor, b))
                for a, b in zip(rows[i], rows[j])
            ]
            u_rows[i] = [
                poly_add(fld, a, poly_mul(fld, factor, b))
                for a, b in zip(u_rows[i], u_rows[j])
            ]
    transformed = PolyMatrix(fld, tuple(tuple(r) for r in rows))
    u = PolyMatrix(fld, tuple(tuple(r) for r in u_rows))
    assert pm_mul(u, g) == transformed
    assert encoder_info(transformed).is_minimal
    return transformed, u


def zero_label_cycle_exists(sd) -> bool:
    """Cycle whose labelled edges all carry u = 0 and v = 0.

    Never present: with u = 0 the register only shifts toward the zero
    state, and the (0, 0) transition is left out of the diagram.  Peels
    off vertices without zero-label successors (Kahn's algorithm), a
    detector independent of the one in statediag.
    """
    succ = [[] for _ in range(sd.num_states)]
    indegree = [0] * sd.num_states
    for e in sd.edges():
        if not any(e.u) and not any(e.v):
            succ[e.src].append(e.dst)
            indegree[e.dst] += 1
    ready = [i for i, d in enumerate(indegree) if not d]
    peeled = 0
    while ready:
        i = ready.pop()
        peeled += 1
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                ready.append(j)
    return peeled < sd.num_states


def reference_diagram(cf) -> tuple[tuple, list[tuple]]:
    """(edges_by_source, labelled edges) of a form, by tuple arithmetic.

    The state diagram as it was computed before packed tables: one vec_mat
    and one FieldSpec.add per coordinate for every edge.  Labelled edges
    are (src, dst, u, v, weight) for every transition but (0, 0).
    """
    fld = cf.field
    q = fld.q
    inputs = [
        (uvec, vec_mat(fld, uvec, cf.B), vec_mat(fld, uvec, cf.D))
        for uvec in itertools.product(range(q), repeat=cf.k)
    ]
    groups, edges = [], []
    for i, xvec in enumerate(itertools.product(range(q), repeat=cf.gamma)):
        xa = vec_mat(fld, xvec, cf.A)
        xc = vec_mat(fld, xvec, cf.C) or (0,) * cf.n  # () for gamma = 0
        groups.append([])
        for uvec, ub, ud in inputs:
            if i == 0 and not any(uvec):
                continue
            dst = state_index(q, tuple(fld.add(a, b) for a, b in zip(xa, ub)))
            v = tuple(fld.add(a, b) for a, b in zip(xc, ud))
            w = len(v) - v.count(0)
            groups[i].append((dst, w))
            edges.append((i, dst, uvec, v, w))
    return tuple(map(tuple, groups)), edges


def adj_from_dense(cells, q: int, n: int, extended: bool = False) -> AdjMatrix:
    """AdjMatrix from a dense grid of WeightEnums; zero cells are dropped."""
    rows = [[(j, e) for j, e in enumerate(row) if e] for row in cells]
    return AdjMatrix(rows, q=q, n=n, extended=extended)


QUOTIENT_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]


def quotient_corpus(fld, rng: random.Random, *, budget: int = 1 << 13, count: int = 6) -> list:
    """Controller forms of minimal codes with k <= 3 and q^(gamma + k) <= budget
    for the codes with gamma >= 1.

    The first is a block code (gamma = 0), the next a k = 2 code, then,
    where the budget admits gamma = 1, a k = 3 code with one row of degree
    1; the rest are drawn at random.
    """
    while True:
        k = rng.randint(1, 3)
        n = rng.randint(k, 4)
        cells = [[rng.randrange(fld.q) for _ in range(n)] for _ in range(k)]
        if mat_rank(fld, cells) == k:
            forms = [controller_form(pm(fld, [[[c] for c in row] for row in cells]))]
            break
    while len(forms) < 2:
        g = random_minimal_code(rng, fld, n_max=4, k_max=3, gamma_max=3)
        cf = controller_form(g)
        if cf.k == 2 and fld.q ** (cf.gamma + 2) <= budget:
            forms.append(cf)
    while fld.q**4 <= budget:
        g = random_matrix(rng, fld, 3, 4, 0)
        g = PolyMatrix(fld, (tuple(random_poly(rng, fld, 1) for _ in range(4)),) + g.rows[1:])
        try:
            info = encoder_info(g)
        except ValueError:  # rank-deficient
            continue
        if info.is_minimal and info.delta == 1:
            forms.append(controller_form(g))
            break
    while len(forms) < count:
        g = random_minimal_code(rng, fld, n_max=4, k_max=3, gamma_max=3)
        cf = controller_form(g)
        if fld.q ** (cf.gamma + cf.k) <= budget:
            forms.append(cf)
    return forms


def series_inverse(ls: LSeries) -> LSeries:
    """Phi^{-1} by the schoolbook recurrence on WeightEnum products, the
    reference for the packed Omega = 1 - Phi^{-1}."""
    if ls.coeffs[0] != WeightEnum.one():
        raise ValueError("series inverse requires constant coefficient 1")
    inv = [WeightEnum.one()]
    for l in range(1, ls.trunc + 1):
        acc = WeightEnum.zero()
        for j in range(1, l + 1):
            if ls.coeffs[j]:
                acc = acc + ls.coeffs[j] * inv[l - j]
        inv.append(WeightEnum.zero() - acc)
    return LSeries(ls.trunc, inv)
