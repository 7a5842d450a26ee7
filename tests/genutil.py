"""Seeded random generators for codes and unimodular transformations."""

import itertools
import random
from typing import Iterator, NamedTuple

from convcode import controller_form, encoder_info, minimize, pm
from convcode.cli import _schema_id
from convcode.invariance import apply_monomial
from convcode.polyalg import (
    PolyMatrix,
    constant,
    hermite_form,
    mat_rank,
    pm_identity,
    pm_mul,
    poly,
    poly_add,
    poly_mul,
    shift,
    vec_mat,
)
from convcode.spectrum import AdjMatrix, LSeries, WeightEnum, extend
from convcode.statediag import labelled_transitions, state_index, state_vector


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


def code_with_degrees(rng: random.Random, fld, degrees) -> PolyMatrix:
    """Rejection-sample a minimal code with n = k + 1 and these row degrees,
    in any order."""
    while True:
        g = pm(fld, [[random_poly(rng, fld, d) for _ in range(len(degrees) + 1)] for d in degrees])
        try:
            if not encoder_info(g).is_basic:
                continue
        except ValueError:  # rank deficient
            continue
        g, _ = minimize(g)
        if sorted(encoder_info(g).row_degrees) == sorted(degrees):
            return g


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


class Edge(NamedTuple):
    """One labelled transition of a state diagram."""

    src: int
    dst: int
    u: tuple[int, ...]
    v: tuple[int, ...]
    weight: int


def edges(sd) -> Iterator[Edge]:
    """Labelled edges of a diagram, in the order of edges_by_source."""
    for src, dsts, us, vws in labelled_transitions(sd, tuple, lambda v, w: (v, w)):
        for dst, u, (v, w) in zip(dsts, us, vws):
            yield Edge(src, dst, u, v, w)


def zero_label_cycle_exists(sd) -> bool:
    """Cycle whose labelled edges all carry u = 0 and v = 0.

    Never present: with u = 0 the register only shifts toward the zero
    state, and the (0, 0) transition is left out of the diagram.  A
    detector independent of the one in statediag.
    """
    succ = [[] for _ in range(sd.num_states)]
    for e in edges(sd):
        if not any(e.u) and not any(e.v):
            succ[e.src].append(e.dst)
    return dense_cycle_exists(succ)


def dense_cycle_exists(succ: list[list[int]]) -> bool:
    """Cycle in the graph of successor lists `succ`, one per state: peels off
    every state no edge enters, forward and over all states (Kahn's
    algorithm), the opposite direction to statediag's peel."""
    indegree = [0] * len(succ)
    for dsts in succ:
        for j in dsts:
            indegree[j] += 1
    ready = [i for i, d in enumerate(indegree) if not d]
    peeled = 0
    while ready:
        i = ready.pop()
        peeled += 1
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                ready.append(j)
    return peeled < len(succ)


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


def planted_diagram(sd, extra):
    """The diagram `sd` with q^(k+1) inputs: its own q^k, then one input
    planted per (0, weight) pair of `extra`, then its own again up to
    q^(k+1).  A planted input's uB is 0 and its uD has that weight, so it
    adds an edge 0 -> 0 of that weight at the zero state, and an edge
    x -> xA at every other state x, and two inputs share a destination
    everywhere."""
    if any(dst for dst, _ in extra):
        raise ValueError("an edge planted at state 0 leads to state 0")
    q, size = sd.field.q, sd.field.q ** (sd.k + 1)
    planted = [sum(q**i for i in range(w)) for _, w in extra]
    ub = (sd.ub + [0] * len(planted) + sd.ub * q)[:size]
    ud = (sd.ud + planted + sd.ud * q)[:size]
    return sd._replace(k=sd.k + 1, ub=ub, ud=ud)


def adj_from_dense(cells, q: int, n: int, extended: bool = False) -> AdjMatrix:
    """AdjMatrix from a dense grid of WeightEnums; zero cells are dropped and
    every nonzero cell gets an id of its own."""
    table, rows = [], []
    for row in cells:
        sparse = []
        for j, e in enumerate(row):
            if e:
                sparse.append((j, len(table)))
                table.append(e)
        rows.append(sparse)
    return AdjMatrix(rows, table, q=q, n=n, extended=extended)


def series_json(ls: LSeries) -> list[dict]:
    """The series as the dicts json.dumps renders for `spectrum --json`."""
    return [
        {"l": l, "terms": {str(a): c for a, c in ls.coeff(l).terms()}}
        for l in range(ls.trunc + 1)
    ]


def adjacency_json(lam: AdjMatrix) -> dict:
    """Lambda as the payload json.dumps renders for `adjacency --json`."""
    return {
        "schema": _schema_id("adjacency"),
        "size": lam.size,
        "q": lam.q,
        "n": lam.n,
        "extended": lam.extended,
        "entries": [[{str(a): c for a, c in e.terms()} for e in row] for row in lam.entries],
    }


def edges_json(sd) -> list[dict]:
    """The labelled edges as the dicts json.dumps renders for `diagram --json`."""
    return [
        {"from": e.src, "to": e.dst, "u": list(e.u), "v": list(e.v), "w": e.weight}
        for e in edges(sd)
    ]


def reference_adjacency(sd) -> tuple[tuple[WeightEnum, ...], ...]:
    """Lambda as a dense grid of WeightEnums, tallied one dict per cell.

    The tally as it was before the cell table: per source, a dict of
    destination -> {weight: count}, the weight-0 count of cell (0, 0)
    dropped.
    """
    rows = []
    for group in sd.edges_by_source:
        cells: dict[int, dict[int, int]] = {}
        for dst, w in group:
            cell = cells.setdefault(dst, {})
            cell[w] = cell.get(w, 0) + 1
        rows.append(cells)
    rows[0].get(0, {}).pop(0, None)  # the zero self-transition is never counted
    zero = WeightEnum.zero()
    return tuple(
        tuple(WeightEnum(cells[j]) if j in cells else zero for j in range(len(rows)))
        for cells in rows
    )


def dense_row_iterate(row, lam: AdjMatrix) -> tuple[WeightEnum, ...]:
    """One step of r <- r * Lambda over every cell of the dense view."""
    s = lam.size
    acc = [WeightEnum.zero()] * s
    dense = lam.entries  # rebuilt on every access
    for i, e in enumerate(row):
        if not e:
            continue
        lrow = dense[i]
        for j in range(s):
            if lrow[j]:
                acc[j] = acc[j] + e * lrow[j]
    return tuple(acc)


def reference_forney(lam: AdjMatrix) -> tuple[int, ...]:
    """Row degrees as recovered before the support search: the first row of
    Gamma^r by WeightEnum products over the dense rows, until the number
    q^rho of its nonzero entries stops growing, with the same checks."""

    def power_of(value: int) -> int:
        e = 0
        while lam.q**e < value:
            e += 1
        if lam.q**e != value:
            raise ValueError(f"count {value} is not a power of q = {lam.q}")
        return e

    gamma = power_of(lam.size)
    gam = lam if lam.extended else extend(lam)
    k = power_of(sum(e.count() for e in gam.entries[0]))
    row = tuple(WeightEnum.one() if j == 0 else WeightEnum.zero() for j in range(gam.size))
    rhos = []
    for _ in range(gamma + 2):
        row = dense_row_iterate(row, gam)
        rho = power_of(sum(1 for e in row if e))
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


def reference_corpus(fld, rng, per_kind: int = 2) -> dict:
    """Relaxed forms with k <= 3 by kind, at most max(2^12, q^2) transitions each."""
    budget = max(1 << 12, fld.q**2)
    kinds = {"block": [], "minimal": [], "non-basic": [], "not delay-free": []}
    for _ in range(3000):
        if all(len(forms) >= per_kind for forms in kinds.values()):
            break
        k = rng.randint(1, 3)
        g = random_matrix(rng, fld, k, rng.randint(k + 1, 4), rng.randint(0, 2))
        if rng.random() < 0.25:  # a row divisible by z: G(0) loses rank
            g = PolyMatrix(fld, (tuple(shift(e, 1) for e in g.rows[0]),) + g.rows[1:])
        try:
            info = encoder_info(g)
        except ValueError:  # rank-deficient
            continue
        cf = controller_form(g, require_minimal=False)
        if fld.q ** (cf.gamma + k) > budget:
            continue
        if cf.gamma == 0:
            kind = "block"
        elif mat_rank(fld, cf.D) < k:
            kind = "not delay-free"
        else:
            kind = "minimal" if info.is_minimal else "non-basic"
        if len(kinds[kind]) < per_kind:
            kinds[kind].append(cf)
    return kinds


REFERENCE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (2, 8)]


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


def reference_macwilliams(gam: AdjMatrix, n: int, k: int) -> AdjMatrix:
    """The closed form Gamma_dual = 2^(-k-1) (1+W)^n M^T |_{W <- (1-W)/(1+W)},
    M = [[1,1],[1,-1]] Gamma [[1,1],[1,-1]], by WeightEnum products on the
    dense 2 x 2 grid, with n and k given: the reference for
    `macwilliams_delta1`, which reads them off Gamma."""
    e = [[WeightEnum.zero()] * 2 for _ in range(2)]
    for i, row in enumerate(gam.rows):
        for j, t in row:
            e[i][j] = gam.cells[t]
    h = lambda a, b, sign: a + b if sign > 0 else a - b
    m = [[h(h(e[0][0], e[1][0], x), h(e[0][1], e[1][1], x), y) for y in (1, -1)] for x in (1, -1)]
    down, up = WeightEnum({0: 1, 1: -1}), WeightEnum({0: 1, 1: 1})
    mix = [[None] * 2 for _ in range(2)]
    for i, j in itertools.product(range(2), repeat=2):
        acc = WeightEnum.zero()
        for a, c in m[j][i].terms():  # M^T
            term = WeightEnum({0: c})
            for _ in range(a):
                term = term * down
            for _ in range(n - a):
                term = term * up
            acc = acc + term
        assert all(c % (1 << (k + 1)) == 0 for _, c in acc.terms())
        mix[i][j] = WeightEnum({a: c >> (k + 1) for a, c in acc.terms()})
    return adj_from_dense(mix, q=2, n=n, extended=True)


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


# ---------------------------------------------------------------------------
# test references: helpers only the tests use
# ---------------------------------------------------------------------------


def field_pow(fld, a: int, e: int) -> int:
    """a^e in fld by repeated fld.mul, a negative e through fld.inv, which
    raises ZeroDivisionError on 0; 0^0 is 1.  A unit's exponent is taken
    mod q - 1."""
    base = fld.inv(a) if e < 0 else fld.mul(a, 1)
    power = 1
    for _ in range(abs(e) % (fld.q - 1) if base else abs(e)):
        power = fld.mul(power, base)
    return power


def enum_coeff(e: WeightEnum, alpha: int) -> int:
    """The count of weight alpha in the enumerator e."""
    return dict(e.terms()).get(alpha, 0)


def pair_weights(g: PolyMatrix) -> dict:
    """Reference of the pair tables of a code whose k rows have one degree
    m: per positions s < t of 0..m, table[a][b] = wt(u_a G_s + u_b G_t),
    off the coefficients of g, with u_d the input vector of packed letter d
    and G_s the coefficient matrix of z^s."""
    fld, k = g.field, g.k
    m = g.info.row_degrees[0]
    letters = [state_vector(fld.q, k, d) for d in range(fld.q**k)]

    def image(u, s):
        out = [0] * g.n
        for ui, row in zip(u, g.rows):
            for j, entry in enumerate(row):
                out[j] = fld.add(out[j], fld.mul(ui, entry[s] if s < len(entry) else 0))
        return out

    images = [[image(u, s) for u in letters] for s in range(m + 1)]
    return {
        (s, t): [[sum(map(bool, map(fld.add, x, y))) for y in images[t]] for x in images[s]]
        for s, t in itertools.combinations(range(m + 1), 2)
    }


def monomial(alpha: int, c: int = 1) -> WeightEnum:
    return WeightEnum({alpha: c})


def series_one(trunc: int) -> LSeries:
    return LSeries(trunc, [WeightEnum.one()] + [WeightEnum.zero()] * trunc)


def series_zero(trunc: int) -> LSeries:
    return LSeries(trunc, [WeightEnum.zero()] * (trunc + 1))


def _same_trunc(a: LSeries, b: LSeries) -> None:
    if a.trunc != b.trunc:
        raise ValueError("truncation orders differ")


def series_add(a: LSeries, b: LSeries) -> LSeries:
    _same_trunc(a, b)
    return LSeries(a.trunc, [x + y for x, y in zip(a.coeffs, b.coeffs)])


def series_sub(a: LSeries, b: LSeries) -> LSeries:
    _same_trunc(a, b)
    return LSeries(a.trunc, [x - y for x, y in zip(a.coeffs, b.coeffs)])


def series_mul(a: LSeries, b: LSeries) -> LSeries:
    """Truncated product by WeightEnum products."""
    _same_trunc(a, b)
    out = [WeightEnum.zero() for _ in range(a.trunc + 1)]
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j in range(a.trunc + 1 - i):
            y = b.coeffs[j]
            if y:
                out[i + j] = out[i + j] + x * y
    return LSeries(a.trunc, out)


def weight_preserving_equiv_check(fld, m1, m2) -> bool:
    """Whether wt(u m1) == wt(u m2) for every u in F^k (exhaustive)."""
    if len(m1) != len(m2) or len(m1[0]) != len(m2[0]):
        raise ValueError("matrices must have the same shape")
    for u in itertools.product(range(fld.q), repeat=len(m1)):
        w1 = sum(1 for c in vec_mat(fld, u, m1) if c)
        w2 = sum(1 for c in vec_mat(fld, u, m2) if c)
        if w1 != w2:
            return False
    return True


def reference_monomial_equiv(g: PolyMatrix, h: PolyMatrix):
    """First (perm, scale) over every permutation and every one of the
    (q-1)^n column scalings whose image of g has h's Hermite form, or None."""
    target = hermite_form(h)
    for perm in itertools.permutations(range(g.n)):
        for scale in itertools.product(g.field.units(), repeat=g.n):
            if hermite_form(apply_monomial(g, perm, scale)) == target:
                return perm, scale
    return None


def reference_shift_permutation_lemma(gamma: int) -> bool:
    """Lemma A.1 by brute force: whether the identity is the only zero-fixing
    bijection pi of F_2^gamma with pi(u, X[0..gamma-2])[1..] == pi(X)[..gamma-2]
    for all X and u, over all (2^gamma - 1)! bijections."""
    vecs = list(itertools.product((0, 1), repeat=gamma))
    zero, nonzero = vecs[0], vecs[1:]
    satisfying = []
    for image in itertools.permutations(nonzero):
        pi = {zero: zero, **dict(zip(nonzero, image))}
        if all(pi[(u,) + x[:-1]][1:] == pi[x][:-1] for x in vecs for u in (0, 1)):
            satisfying.append(pi)
    return satisfying == [{v: v for v in vecs}]


def carries(w_g, w_h, pi, sigma) -> bool:
    """Per-edge reference of `invariance._carries`: with the rows of each
    table laid end to end, w_h[pi(x) q^k + sigma(u)] == w_g[x q^k + u] on
    every edge (x, u), one lookup each."""
    flat_g, flat_h = (list(itertools.chain.from_iterable(w)) for w in (w_g, w_h))
    letters = len(sigma)
    return all(flat_h[pi[x] * letters + sigma[u]] == flat_g[x * letters + u]
               for x in range(len(pi)) for u in range(letters))


def resolved_equal(a: AdjMatrix, b: AdjMatrix) -> bool:
    """Reference of `AdjMatrix.__eq__` on well-formed rows: size, q, n and
    `extended` agree, and every row lists the same (destination,
    enumerator) pairs, each id resolved through its own matrix's table."""
    def resolved(m: AdjMatrix) -> list:
        return [[(j, m.cells[t]) for j, t in row] for row in m.rows]

    return (a.size, a.q, a.n, a.extended) == (b.size, b.q, b.n, b.extended) and resolved(a) == resolved(b)


def lifted(sd, sigma) -> tuple:
    """Reference of `statediag._letters`' lift: the states by their letters
    d_1 .. d_m, last column first, in `_cellwise` order (m inputs from 0,
    each x -> xA + dB), and pi_sigma[fill[i]] = fill[i with sigma applied
    to every letter]."""
    fill = [0]
    for _ in range(sd.gamma // sd.k):
        fill = [sd.xa[a] + u for a in fill for u in sd.ub]
    moved = [0]
    for _ in range(sd.gamma // sd.k):
        moved = [x * len(sigma) + s for x in moved for s in sigma]
    pi = [None] * len(fill)
    for x, y in zip(fill, moved):
        pi[x] = fill[y]
    return tuple(pi)
