import itertools
import random
from collections import Counter
import tracemalloc

import pytest

from convcode import (
    LSeries,
    WeightEnum,
    active_burst_distances,
    adjacency,
    build,
    controller_form,
    default_truncation,
    extend,
    extended_row_distances,
    free_distance,
    omega_series,
    phi_series,
    pm,
    statediag,
)
from convcode.errors import InternalError, LimitError
from convcode.galois import field_make
from convcode.invariance import apply_witness, code_adjacency
from convcode.polyalg import mat_rank, pm_eval0, vec_mat
from convcode import spectrum
from convcode.spectrum import AdjMatrix, format_series, row_iterate

import genutil


# ---------------------------------------------------------------------------
# dense reference: Lambda as s x s cells and the Phi loop that visits all
# s^2 of them per step; the sparse packed iteration must agree exactly
# ---------------------------------------------------------------------------


def dense_adjacency(sd):
    return genutil.adj_from_dense(genutil.reference_adjacency(sd), q=sd.field.q, n=sd.n)


def dense_phi_series(lam, trunc):
    coeffs = [WeightEnum.one()]
    row = tuple(
        WeightEnum.one() if j == 0 else WeightEnum.zero() for j in range(lam.size)
    )
    for _ in range(trunc):
        row = genutil.dense_row_iterate(row, lam)
        coeffs.append(row[0])
    return LSeries(trunc, coeffs)


def adj_power(lam, l):
    """Naive l-th power; entry (i, j) enumerates length-l paths by weight."""
    if l < 1:
        raise ValueError("power must be >= 1")
    out = lam
    for _ in range(l - 1):
        out = mat_mul(out, lam)
    return out


def mat_mul(a, b):
    s = a.size
    zero = WeightEnum.zero()
    ea, eb = a.entries, b.entries  # rebuilt on every access
    rows = []
    for i in range(s):
        acc = [zero] * s
        for t in range(s):
            e = ea[i][t]
            if not e:
                continue
            brow = eb[t]
            for j in range(s):
                if brow[j]:
                    acc[j] = acc[j] + e * brow[j]
        rows.append(acc)
    return genutil.adj_from_dense(rows, q=a.q, n=a.n, extended=a.extended)


def assert_matches_dense(sd, trunc):
    """Sparse and dense Lambda agree in every form, and so do their Phi."""
    lam = adjacency(sd)
    ref = dense_adjacency(sd)
    assert lam == ref
    assert lam.entries == ref.entries
    assert genutil.adj_from_dense(lam.entries, q=lam.q, n=lam.n) == lam
    phi = phi_series(lam, trunc)
    assert phi == dense_phi_series(ref, trunc)
    assert phi == phi_series(ref, trunc)
    gam, gam_ref = extend(lam), extend(ref)
    assert gam == gam_ref and gam.entries == gam_ref.entries
    row = gam.entries[0]
    for _ in range(3):
        nxt = row_iterate(row, gam)
        assert nxt == genutil.dense_row_iterate(row, gam_ref)
        row = nxt
    return phi


def grid(lam):
    return tuple(tuple(dict(e.terms()) for e in row) for row in lam.entries)


def lam_of(g):
    return adjacency(build(controller_form(g)))


def series_table(ls):
    return {
        (l, a): c
        for l in range(1, ls.trunc + 1)
        for a, c in ls.coeff(l).terms()
    }


# frozen: the 8x8 adjacency matrix of the memory-3 example
E213_GRID = (
    ({}, {}, {}, {}, {2: 1}, {}, {}, {}),
    ({2: 1}, {}, {}, {}, {0: 1}, {}, {}, {}),
    ({}, {2: 1}, {}, {}, {}, {0: 1}, {}, {}),
    ({}, {0: 1}, {}, {}, {}, {2: 1}, {}, {}),
    ({}, {}, {1: 1}, {}, {}, {}, {1: 1}, {}),
    ({}, {}, {1: 1}, {}, {}, {}, {1: 1}, {}),
    ({}, {}, {}, {1: 1}, {}, {}, {}, {1: 1}),
    ({}, {}, {}, {1: 1}, {}, {}, {}, {1: 1}),
)

# frozen: the displayed weight distribution through W^9
E213_OMEGA_LOW = {
    (5, 6): 1,
    (4, 7): 1, (6, 7): 1, (7, 7): 1,
    (6, 8): 1, (7, 8): 1, (8, 8): 1, (9, 8): 2,
    (8, 9): 4, (9, 9): 1, (10, 9): 3, (11, 9): 3,
}


def test_weight_enum_basics():
    a = WeightEnum({2: 1})
    b = WeightEnum({1: 2, 3: 1})
    assert str(a + b) == "2W + W^2 + W^3"
    assert (a * b).terms() == ((3, 2), (5, 1))
    assert (a - a) == WeightEnum.zero()
    assert not WeightEnum.zero()
    assert WeightEnum.one().coeff(0) == 1
    assert b.min_weight() == 1 and b.max_weight() == 3 and b.count() == 3


def _is_canonical(e):
    # strictly increasing weights, no zero count, and one stored tuple
    weights = [a for a, _ in e.terms()]
    return (all(c for _, c in e.terms()) and weights == sorted(set(weights))
            and e.terms() is e.terms() and isinstance(e.terms(), tuple))


def test_weight_enum_keeps_one_sorted_tuple():
    made = [
        WeightEnum({5: 2, 0: 0, 3: -1, 1: 4}),
        WeightEnum([(7, 1), (2, 0), (4, -3), (0, 5)]),
        WeightEnum({9: 0}), WeightEnum([]), WeightEnum(), WeightEnum({12: 1 << 70, 2: -(1 << 65)}),
    ]
    assert [e.terms() for e in made] == [
        ((1, 4), (3, -1), (5, 2)), ((0, 5), (4, -3), (7, 1)), (), (), (), ((2, -(1 << 65)), (12, 1 << 70)),
    ]
    assert all(map(_is_canonical, made))
    assert [(e.min_weight(), e.max_weight()) for e in made[:3]] == [(1, 5), (0, 7), (None, None)]
    # unpacked slot by slot, at several widths, counts above 2^64 included:
    # the same tuple, so == and hash agree with the constructed enumerator
    for width in (1, 3, 8, 64, 65, 72):
        full = (1 << width) - 1
        for slots in ({0: 1}, {4: full, 1: 1}, {30: full, 0: full, 11: 1 << (width - 1)},
                      {2: 1, 3: 0, 6: full}):
            value = sum(c << (a * width) for a, c in slots.items())
            got, want = spectrum._unpack(value, width), WeightEnum(slots)
            assert _is_canonical(got) and got == want and hash(got) == hash(want), (width, slots)
            assert got.terms() == want.terms() and str(got) == str(want)
    assert max(c for _, c in spectrum._unpack((1 << 72) - 1, 72).terms()) > 1 << 64


def test_adjacency_mixed_degrees(g_mixed):
    assert grid(lam_of(g_mixed)) == (
        ({2: 1}, {1: 2}),
        ({2: 2}, {1: 1, 3: 1}),
    )


def test_adjacency_memory_three(g213):
    assert grid(lam_of(g213)) == E213_GRID


def test_adjacency_shifted_code(g2):
    assert grid(lam_of(g2)) == (({}, {1: 1}), ({3: 1}, {2: 1}))


def test_row_sums_count_edges(g213, g_mixed, g1):
    for g in (g213, g_mixed, g1):
        lam = lam_of(g)
        q, k = lam.q, controller_form(g).k
        for i, row in enumerate(lam.entries):
            total = sum(e.count() for e in row)
            assert total == q**k - (1 if i == 0 else 0)
        gam = extend(lam)
        assert all(
            sum(e.count() for e in row) == q**k for row in gam.entries
        )


def test_adj_power(g1):
    lam = lam_of(g1)
    assert adj_power(lam, 1) == lam
    sq = adj_power(lam, 2)
    assert dict(sq.entries[0][0].terms()) == {4: 1}
    gam_sq = adj_power(extend(lam), 2)
    assert sum(1 for e in gam_sq.entries[0] if e) == 2
    with pytest.raises(ValueError):
        adj_power(lam, 0)


def test_phi_series(g1, g213):
    phi = phi_series(lam_of(g1), 8)
    fib = [1, 1, 2, 3, 5, 8, 13]
    assert dict(phi.coeff(0).terms()) == {0: 1}
    assert dict(phi.coeff(1).terms()) == {}
    for l in range(2, 9):
        assert dict(phi.coeff(l).terms()) == {2 * l: fib[l - 2]}

    phi213 = phi_series(lam_of(g213), 6)
    assert phi213.coeff(1) == WeightEnum.zero()
    assert phi213.coeff(5).coeff(6) == 1  # one molecular word of weight 6, length 5

    with pytest.raises(ValueError):
        phi_series(extend(lam_of(g1)), 4)


def test_omega_matches_displayed_series(g213):
    omega = omega_series(phi_series(lam_of(g213), 12))
    low = {lw: c for lw, c in series_table(omega).items() if lw[1] <= 9}
    assert low == E213_OMEGA_LOW


def test_omega_geometric_series(g1, g2):
    for g in (g1, g2):
        omega = omega_series(phi_series(lam_of(g), 8))
        assert series_table(omega) == {(l, 2 * l): 1 for l in range(2, 9)}


def test_omega_of_trivial_phi():
    # one state and no cell: Phi = 1 and Omega = 0
    phi = phi_series(AdjMatrix([()], [], q=2, n=1), 5)
    assert phi == genutil.series_one(5)
    assert omega_series(phi) == genutil.series_zero(5)
    # a series built by hand carries no packed integers, whatever its terms
    bad = LSeries(2, [genutil.monomial(1), WeightEnum.zero(), WeightEnum.zero()])
    for hand_built in (genutil.series_one(5), bad, LSeries(phi.trunc, phi.coeffs)):
        with pytest.raises(ValueError, match="omega_series takes the series phi_series returns"):
            omega_series(hand_built)


def test_phi_times_one_minus_omega_is_one(f2, f3):
    rng = random.Random(83)
    for fld in (f2, f3):
        for _ in range(6):
            g = genutil.random_minimal_code(rng, fld, gamma_max=3)
            phi = phi_series(lam_of(g), 7)
            omega = omega_series(phi)
            one = genutil.series_one(7)
            assert genutil.series_mul(phi, genutil.series_sub(one, omega)) == one
            assert all(c.is_nonnegative() for c in omega.coeffs)
            for l in range(8):
                assert omega.coeff(l).coeff(0) == 0
                mx = omega.coeff(l).max_weight()
                assert mx is None or mx <= g.n * l
                assert phi.coeff(l).coeff(0) == (1 if l == 0 else 0)


def test_free_distance(g213, g1):
    omega = omega_series(phi_series(lam_of(g213), 26))
    fd = free_distance(omega, atomic_gap=5)  # memory 3 + right-inverse degree 2
    assert fd.value == 6 and fd.certified

    fd = free_distance(omega_series(phi_series(lam_of(g213), 12)), atomic_gap=5)
    assert fd.value == 6 and not fd.certified

    fd = free_distance(omega_series(phi_series(lam_of(g1), 8)), atomic_gap=1)
    assert fd.value == 4 and fd.certified

    with pytest.raises(LimitError):
        free_distance(omega_series(phi_series(lam_of(g213), 1)))


def test_extended_row_distances(g213, g1):
    omega = omega_series(phi_series(lam_of(g213), 9))
    assert extended_row_distances(omega) == (None, None, None, 7, 6, 7, 7, 8, 8)
    omega1 = omega_series(phi_series(lam_of(g1), 6))
    assert extended_row_distances(omega1) == (None, 4, 6, 8, 10, 12)
    assert extended_row_distances(genutil.series_zero(3)) == (None, None, None)


def test_active_burst_distances(g213, g1):
    phi1 = phi_series(lam_of(g1), 8)
    assert active_burst_distances(phi1) == (None, 4, 6, 8, 10, 12, 14, 16)
    phi = phi_series(lam_of(g213), 12)
    bursts = [d for d in active_burst_distances(phi) if d is not None]
    assert min(bursts) == 6  # agrees with the free distance
    assert active_burst_distances(genutil.series_zero(0)) == ()


def block_weight_enumerator(g):
    """Reference: classical enumerator of the nonzero words of a constant matrix."""
    fld = g.field
    const = pm_eval0(g)
    out = {}
    for u in itertools.islice(itertools.product(range(fld.q), repeat=g.k), 1, None):
        w = sum(1 for c in vec_mat(fld, u, const) if c)
        out[w] = out.get(w, 0) + 1
    return WeightEnum(out)


def test_block_code_degeneration(f2):
    g = pm(f2, [[[1], [1], [0]], [[0], [1], [1]]])
    lam = lam_of(g)
    assert grid(lam) == (({2: 3},),)
    omega = omega_series(phi_series(lam, 4))
    assert dict(omega.coeff(1).terms()) == {2: 3}
    assert all(not omega.coeff(l) for l in (0, 2, 3, 4))


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=["F2", "F3", "F4", "F5"])
def test_block_codes_match_classical_enumerator(p, m):
    # a block code is the one-state register: Lambda = [[E]], Phi_l = E^l,
    # Omega = E L, with E the classical enumerator of the nonzero words
    fld = field_make(p, m)
    rng = random.Random(100 * p + m)
    trunc = 4
    checked = 0
    while checked < 55:
        n = rng.randint(1, 4)
        k = rng.randint(1, min(3, n))
        cells = [[rng.randrange(fld.q) for _ in range(n)] for _ in range(k)]
        if mat_rank(fld, cells) < k:
            continue
        g = pm(fld, [[[c] for c in row] for row in cells])
        e = block_weight_enumerator(g)
        lam = lam_of(g)
        assert lam.size == 1 and lam.entries == ((e,),)
        phi = phi_series(lam, trunc)
        power = WeightEnum.one()
        for l in range(trunc + 1):
            assert phi.coeff(l) == power
            power = power * e
        omega = omega_series(phi)
        assert omega == LSeries(trunc, [WeightEnum.zero(), e] + [WeightEnum.zero()] * (trunc - 1))
        checked += 1


def test_format_series(g1):
    omega = omega_series(phi_series(lam_of(g1), 4))
    assert format_series(omega) == "L^2 W^4 + L^3 W^6 + L^4 W^8"
    assert format_series(genutil.series_zero(3)) == "0"


@pytest.mark.parametrize(
    "p, m, gamma_max",
    [(2, 1, 5), (3, 1, 3), (2, 2, 3), (2, 3, 2)],
    ids=["F2", "F3", "F4", "F8"],
)
def test_packed_phi_matches_dense_reference(p, m, gamma_max):
    fld = field_make(p, m)
    rng = random.Random(1000 * p + m)
    for _ in range(8):
        g = genutil.random_minimal_code(rng, fld, n_max=3, gamma_max=gamma_max)
        assert_matches_dense(build(controller_form(g)), 10)


def test_packed_phi_non_delay_free(f2):
    gz = pm(f2, [[[0, 1], [0, 1, 1]]])  # G(0) = 0: a weight-0 edge leaves state 0
    sd = build(controller_form(gz, require_minimal=False))
    assert any(w == 0 for _, w in tuple(sd.edges_by_source)[0])
    assert_matches_dense(sd, 12)
    # plant weight-0 and weight-2 edges 0 -> 0: only the weight-0 one is dropped
    planted = genutil.planted_diagram(sd, ((0, 0), (0, 2)))
    assert adjacency(planted).entries[0][0] == WeightEnum({2: 1})
    assert_matches_dense(planted, 12)


def test_packed_phi_slots_beyond_64_bits():
    f8 = field_make(2, 3)
    # k=2 over F8: 64 edges leave every state, so Lambda^16 counts ~2^96 paths
    g = pm(f8, [[[1], [0], [1]], [[0], [1, 1], [2, 1]]])
    sd = build(controller_form(g))
    phi = assert_matches_dense(sd, 16)
    assert max(c for _, c in phi.coeff(16).terms()) > 1 << 64


@pytest.mark.parametrize("trunc", [1, 5, 24])
@pytest.mark.parametrize(
    "cell",
    [{1: 2}, {0: 4}, {0: 2, 1: 2}],
    ids=["2W", "4", "2+2W"],
)
def test_packed_phi_fills_the_full_slot(cell, trunc):
    # one state with row count R: Phi_T has a slot of R^T (2^T W^T, 4^T),
    # which needs every bit of the slot width T * bitlen(R - 1) + 1
    lam = genutil.adj_from_dense([[WeightEnum(cell)]], q=2, n=1)
    row, ref = (WeightEnum.one(),), [WeightEnum.one()]
    for _ in range(trunc):
        row = row_iterate(row, lam)
        ref.append(row[0])
    assert phi_series(lam, trunc).coeffs == tuple(ref)


TABLE_FIELDS = [(p, m) for p, m in genutil.REFERENCE_FIELDS if p**m <= 16]


@pytest.mark.parametrize("p, m", TABLE_FIELDS, ids=[f"F{p**m}" for p, m in TABLE_FIELDS])
def test_cell_table_matches_reference_tally(p, m):
    # the packed-integer tally gives the dict-per-cell tally cell for cell,
    # with one table entry per distinct nonzero enumerator, on full and
    # lumped diagrams, and with weight-0 and weight-1 edges 0 -> 0 planted;
    # every row ascends by destination, and equal pairs are one tuple;
    # _blocks yields one destination tuple per xA, xA + uB or its orbit id,
    # the zero state's past input 0, and streams each source's outputs
    # xC + uD in the same order
    fld = field_make(p, m)
    rng = random.Random(1400 + 10 * p + m)
    forms = [cf for group in genutil.reference_corpus(fld, rng).values() for cf in group]
    forms += genutil.quotient_corpus(fld, rng)
    for cf in forms:
        for sd in (build(cf), build(cf, lumped=True)):
            for diagram in (sd, genutil.planted_diagram(sd, ((0, 0), (0, 1)))):
                ref = genutil.reference_adjacency(diagram)
                lam = adjacency(diagram)
                assert lam.entries == ref
                assert len(lam.cells) == len({e for row in ref for e in row if e})
                assert lam.entries[0][0].coeff(0) == 0
                first: dict = {}  # the first tuple met of each (destination, id)
                assert all(
                    a[0] < b[0] for row in lam.rows for a, b in zip(row, row[1:])
                ) and all(first.setdefault(p, p) is p for row in lam.rows for p in row)
                add, xa, xc, ub, ud = diagram.add, diagram.xa, diagram.xc, diagram.ub, diagram.ud
                orbit = diagram.orbit or range(len(xa))
                row_of: dict = {}  # the first tuple met of each xA
                for sources, rows, outputs in statediag._blocks(diagram, 5):
                    assert len(sources) == len(rows) <= 5
                    for src, dsts in zip(sources, rows):
                        a, zero = xa[src], not src
                        assert dsts == tuple(orbit[a + u] for u in ub)[zero:]
                        assert max(dsts) < diagram.num_states
                        assert zero or row_of.setdefault(a, dsts) is dsts
                    want = [add(xc[src], v) for src in sources for v in ud][not sources[0]:]
                    assert list(outputs) == want


def test_adjacency_entries_cost_about_one_slot_each(f16):
    # [[a + az, a^6 + az, a^11 + az], [1 + z, a^10 + a^5 z, a^5 + a^10 z]]
    # over F16 (modulus x^4 + x + 1): minimal, 256 states, 65,535 entries
    # and 4 cells, so Lambda may cost about one 8-byte slot per entry; the
    # (destination, id) pairs are at most 256 x 4 and must be shared
    g = pm(f16, [[[2, 2], [12, 2], [14, 2]], [[1, 1], [7, 6], [6, 7]]])
    code_adjacency(g)  # warm up the imports and the field's caches
    tracemalloc.start()
    try:
        lam = code_adjacency(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries = sum(map(len, lam.rows))
    assert (lam.size, entries, len(lam.cells)) == (256, 65535, 4)
    assert peak / entries <= 16


# ---------------------------------------------------------------------------
# the F_q^* orbit quotient Q and the packed Omega recurrence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p, m", genutil.QUOTIENT_FIELDS,
                         ids=[f"F{p**m}" for p, m in genutil.QUOTIENT_FIELDS])
def test_lumped_phi_and_packed_omega_match_references(p, m):
    # Phi from Q equals Phi from the full Lambda, and the packed Omega equals
    # 1 - Phi^{-1} computed by WeightEnum products, at T = 1, T = 8 and the
    # command line's default truncation
    fld = field_make(p, m)
    for cf in genutil.quotient_corpus(fld, random.Random(800 + 10 * p + m)):
        full, lumped = build(cf), build(cf, lumped=True)
        assert lumped.num_states == 1 + (fld.q**cf.gamma - 1) // (fld.q - 1)
        assert lumped.lumped == (fld.q > 2 and cf.gamma > 0)
        if fld.q == 2:
            assert lumped == full
        for trunc in (1, 8, default_truncation(cf.gamma)):
            phi = phi_series(adjacency(full), trunc)
            assert phi_series(adjacency(lumped), trunc) == phi
            omega = omega_series(phi)
            assert omega == genutil.series_sub(genutil.series_one(trunc), genutil.series_inverse(phi))
            assert all(c.is_nonnegative() for c in omega.coeffs)


def _packed_by_totals(coeffs):
    """An LSeries of `coeffs` with `_packed` set as phi_series sets it, at a
    width that holds every slot of Omega's sum while Omega >= 0: one guard
    bit over the largest of the totals at W = 1 and their convolutions."""
    phi = LSeries(len(coeffs) - 1, coeffs)
    totals = [c.count() for c in coeffs]
    top = max([*totals, *(sum(totals[j] * totals[l - j] for j in range(1, l))
                          for l in range(len(coeffs)))])
    width = top.bit_length() + 1
    phi._packed = (width, [sum(c << (a * width) for a, c in e.terms()) for e in coeffs])
    return phi


def test_packed_omega_refusals():
    # no nonnegative Lambda has these Phi, so a cleared guard is a fault of
    # the package, InternalError
    w = genutil.monomial
    one, zero = WeightEnum.one(), WeightEnum.zero()
    # Phi_1 = W, Phi_2 = 0: Omega_2 = Phi_2 - Omega_1 Phi_1 = -W^2
    with pytest.raises(InternalError, match="negative coefficient at L\\^2"):
        omega_series(_packed_by_totals([one, w(1), zero, w(3)]))
    # a count of Omega_1 Phi_1 in a slot above every weight of Phi_2
    with pytest.raises(InternalError, match="negative coefficient at L\\^2"):
        omega_series(_packed_by_totals([one, w(5, 3), w(1, 9)]))
    # the borrow is caught in its own slot, not hidden by the slot above
    with pytest.raises(InternalError, match="negative coefficient at L\\^2"):
        omega_series(_packed_by_totals([one, w(1), WeightEnum({1: 5, 3: 1})]))
    ok = _packed_by_totals([one, w(1), WeightEnum({2: 1, 3: 4})])
    assert omega_series(ok) == genutil.series_sub(genutil.series_one(2), genutil.series_inverse(ok))


def _handoff_codes():
    """Seeded minimal codes over F2 to F16 with k = 1 and k = 2, and over
    each field the k = 1 and k = 2 block codes (one state)."""
    codes = []
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)):
        fld = field_make(p, m)
        rng = random.Random(4700 + 10 * p + m)
        codes += [pm(fld, [[[1], [1]]]), pm(fld, [[[1], [0], [1]], [[0], [1], [1]]])]
        for k in (1, 2):
            g = genutil.random_minimal_code(rng, fld, n_max=3, k_max=k, gamma_max=2)
            while g.k != k:
                g = genutil.random_minimal_code(rng, fld, n_max=3, k_max=k, gamma_max=2)
            codes.append(g)
    return codes


def _cycle(length, count):
    """A hand-built Lambda: a cycle through `length` states, each step
    `count` parallel edges of weight 1, so every path from 0 returns first
    at `length` and (Lambda^length)_{0,0} = count^length W^length."""
    rows = [[((i + 1) % length, 0)] for i in range(length)]
    return AdjMatrix(rows, [WeightEnum({1: count})], q=2, n=1)


def test_omega_runs_on_the_integers_phi_hands_over():
    # omega_series(phi) runs on phi_series' packed values, at phi_series'
    # width, and must give the WeightEnum reference 1 - Phi^{-1}.  The
    # cycles put count^T paths of one weight in one slot at L^T, the
    # largest a slot of Phi may hold, so a width without bitlen(T) (or, at
    # T = 1, without the guard bit) makes the guard refuse them
    cases = []
    for g in _handoff_codes():
        lam = code_adjacency(g, lumped=True)
        cases += [(lam, trunc) for trunc in (1, 2, default_truncation(g.info.delta))]
    cases += [(_cycle(length, count), length) for length in (1, 2, 3, 5) for count in (1, 2, 4)]
    for lam, trunc in cases:
        phi = phi_series(lam, trunc)
        assert phi._packed is not None
        omega = omega_series(phi)
        assert omega == genutil.series_sub(genutil.series_one(trunc), genutil.series_inverse(phi)), (
            lam.size, trunc)
    phi = phi_series(_cycle(3, 4), 3)
    assert phi.coeffs[3] == WeightEnum({3: 64}) and omega_series(phi).coeffs[3] == phi.coeffs[3]


def test_unpack_reads_every_slot_from_the_lowest_set_one():
    assert spectrum._unpack(0, 1) == spectrum._unpack(0, 9) == WeightEnum()
    for width in (1, 2, 5, 8, 33):
        top, full = (1 << (width - 1)) - 1 or 1, (1 << width) - 1
        for slots in ({0: 1}, {7: top}, {40: full}, {3: 1 << (width - 1)},
                      {0: top, 1: top, 2: top}, {5: full, 9: 1, 10: top}):
            value = sum(c << (a * width) for a, c in slots.items())
            assert spectrum._unpack(value, width) == WeightEnum(slots), (width, slots)


def test_lseries_refuses_a_wrong_coefficient_count():
    with pytest.raises(ValueError, match="coefficient list does not match the truncation order"):
        LSeries(2, [WeightEnum.one()])


def test_enumerators_series_and_matrices_print_as_text(g1):
    lam = code_adjacency(g1)
    assert str(WeightEnum.zero()) == "0" and str(WeightEnum({0: 2, 1: 1, 3: 4})) == "2 + W + 4W^3"
    assert str(lam) == "[0, W^2]\n[W^2, W^2]"
    phi = phi_series(lam, 3)
    assert str(phi) == repr(phi) == format_series(phi) == "1 + L^2 W^4 + L^3 W^6"


def test_extend_refuses_an_extended_matrix(g1):
    gam = extend(code_adjacency(g1))
    with pytest.raises(ValueError, match="matrix is already extended"):
        extend(gam)


def test_phi_series_refuses_zero_truncation_and_negative_counts(g1):
    with pytest.raises(ValueError, match="truncation must be >= 1"):
        phi_series(code_adjacency(g1), 0)
    cells = [WeightEnum({1: -1}), WeightEnum({2: 1})]
    lam = AdjMatrix([[(1, 0)], [(0, 1), (1, 0)]], cells, q=2, n=3)
    with pytest.raises(ValueError, match="adjacency counts must be nonnegative"):
        phi_series(lam, 2)


def equality_cases(rng):
    """(kind, a, b) per seeded pair of Lambda, Q and Gamma over F2 to F4:
    the same matrix with its cell table reversed and listed twice, copies
    differing in size, q, n or `extended` alone, conjugated copies, and
    copies with one cell changed, added or dropped."""
    cases = []
    for fld in (field_make(2, 1), field_make(3, 1), field_make(2, 2)):
        for _ in range(3):
            g = genutil.random_minimal_code(rng, fld, n_max=3, gamma_max=3)
            other = genutil.random_minimal_code(rng, fld, n_max=3, gamma_max=3)
            for lam in (code_adjacency(g), extend(code_adjacency(g)), code_adjacency(g, lumped=True)):
                order = list(range(len(lam.cells)))[::-1]
                cells = [lam.cells[t] for t in order] * 2
                new_id = {t: u for u, t in enumerate(order)}
                rows = [[(j, new_id[t] + len(order) * (i % 2)) for j, t in row] for i, row in enumerate(lam.rows)]
                cases.append(("retabled", lam, AdjMatrix(rows, cells, q=lam.q, n=lam.n, extended=lam.extended)))
                for field, value in (("q", lam.q + 1), ("n", lam.n + 1), ("extended", not lam.extended)):
                    shape = {**dict(q=lam.q, n=lam.n, extended=lam.extended), field: value}
                    cases.append((field, lam, AdjMatrix(lam.rows, lam.cells, **shape)))
                cases.append(("size", lam, code_adjacency(other)))
                if lam.size > 2:
                    perm = [0] + rng.sample(range(1, lam.size), lam.size - 1)
                    cases.append(("conjugated", lam, apply_witness(lam, perm)))
                i = rng.randrange(lam.size)
                row = list(lam.rows[i])
                fresh = lam.cells + (WeightEnum({lam.n + 1: 1}),)
                free = sorted(set(range(lam.size)) - {j for j, _ in row})
                changes = [row[:-1] + [(row[-1][0], len(lam.cells))], row[:-1]] if row else []
                changes += [sorted(row + [(rng.choice(free), 0)])] if free else []
                for changed in changes:
                    rows = lam.rows[:i] + (tuple(changed),) + lam.rows[i + 1:]
                    cases.append(("one cell", lam, AdjMatrix(rows, fresh, q=lam.q, n=lam.n, extended=lam.extended)))
    return cases


def test_equality_matches_the_resolving_reference():
    # `==` runs `conjugates` with the identity; on well-formed rows it gives
    # the answer of resolving every entry through its own table, both ways
    verdicts = Counter()
    for kind, a, b in equality_cases(random.Random(71)):
        for x, y in ((a, b), (b, a)):
            assert (x == y) == genutil.resolved_equal(x, y), kind
        assert a == a
        verdicts[kind, a == b] += 1
    assert verdicts["retabled", True] == 27 and verdicts["one cell", True] == 0, verdicts
    assert all(verdicts[kind, True] == 0 and verdicts[kind, False] == 27 for kind in ("q", "n", "extended"))
    assert verdicts["conjugated", False] >= 10 and verdicts["one cell", False] >= 40, verdicts


def test_equality_is_false_both_ways_on_a_repeated_destination():
    # a row that repeats a destination stands for no row of the other
    # matrix, whichever side it is on: each destination is taken out of the
    # other's row once, so its second look-up fails
    cells = [WeightEnum({1: 1})]
    a = AdjMatrix([[(1, 0), (1, 0)], [(0, 0)]], cells, q=2, n=2)
    b = AdjMatrix([[(1, 0), (0, 0)], [(0, 0)]], cells, q=2, n=2)
    c = AdjMatrix([[(1, 0), (1, 0), (0, 0)], [(0, 0)]], cells, q=2, n=2)
    assert (a == b, b == a, b == c, c == b) == (False,) * 4
    assert not spectrum.conjugates(a, b, [0, 1]) and not spectrum.conjugates(b, a, [0, 1])


def test_conjugates_is_false_both_ways_on_matrices_of_different_sizes():
    # b's first two rows are a's, and its third state is never read by a
    # permutation of a's two states: the sizes alone tell them apart
    cells = [WeightEnum({1: 1}), WeightEnum({2: 1})]
    a = AdjMatrix([[(1, 0)], [(0, 1)]], cells, q=2, n=2)
    b = AdjMatrix([[(1, 0)], [(0, 1)], [(2, 0)]], cells, q=2, n=2)
    assert not spectrum.conjugates(a, b, (0, 1)) and not spectrum.conjugates(b, a, (0, 1))
    assert not spectrum.conjugates(b, a, (0, 1, 2)) and (a == b, b == a) == (False, False)
    assert spectrum.conjugates(a, AdjMatrix(b.rows[:2], cells, q=2, n=2), (0, 1))


def test_adjacency_keeps_one_weight_table_per_field_and_length():
    # Lambda and Q of F256 n = 2 codes of 256, 2 and 258 states weigh their
    # outputs through one table of q^n = 65,536 entries, whatever the states
    f256 = field_make(2, 8)
    statediag._weigher.cache_clear()
    one, two = (controller_form(pm(f256, [row])) for row in ([[1, 1], [1, 2]], [[1, 1, 1], [1, 2, 3]]))
    sizes = [adjacency(build(one)).size, adjacency(build(one, lumped=True)).size,
             adjacency(build(two, lumped=True)).size]
    list(build(one).edges_by_source)
    assert sizes == [256, 2, 258]
    assert statediag._weigher.cache_info().currsize == 1
