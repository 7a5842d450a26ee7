"""Acceptance suite: one test per criterion, each printing a pass line
with its runtime and asserting the stated time limit."""

import itertools
import random
import time

from convcode import (
    adjacency,
    build,
    controller_form,
    delay_free_check,
    dual_basis,
    encoder_info,
    extend,
    gen_adj_equal,
    macwilliams_delta1,
    monomial_equiv,
    omega_series,
    phi_series,
    pm,
    recover_dimension,
    recover_forney,
    verify_shift_permutation_lemma,
    zero_weight_cycle_exists,
)
from convcode.galois import field_make
from convcode.invariance import apply_witness, code_adjacency, code_witness
from convcode.oracle import survey
from convcode.polyalg import deg, poly, poly_gcd
from convcode.spectrum import WeightEnum

import genutil

F2 = field_make(2)
F3 = field_make(3)


def lam_of(g):
    return adjacency(build(controller_form(g)))


def series_table(ls):
    return {
        (l, a): c
        for l in range(1, ls.trunc + 1)
        for a, c in ls.coeff(l).terms()
    }


def report(num, limit, start, desc):
    elapsed = time.perf_counter() - start
    print(f"criterion {num:2d}: PASS ({elapsed:6.2f}s < {limit}s) {desc}")
    assert elapsed < limit


# shared deterministic code pools (criterion 7 re-examines 3's and 6's codes)


def oracle_suite_codes():
    rng = random.Random(303)
    codes = [
        genutil.random_minimal_code(rng, F2, n_max=4, k_max=2, gamma_min=1, gamma_max=4)
        for _ in range(20)
    ]
    g1 = pm(F2, [[[1], [0, 1], [1, 1]]])
    g2 = pm(F2, [[[0, 1], [0, 1], [1, 1]]])
    return codes + [g1, g2]


def invariance_suite_pairs():
    rng = random.Random(606)
    pairs = []
    for fld in (F2, F3):
        for _ in range(50):
            g = genutil.random_minimal_code(
                rng, fld, n_max=4, k_max=2, gamma_min=1, gamma_max=3
            )
            h, _ = genutil.elementary_ops(rng, g, rng.randint(1, 6))
            pairs.append((g, h))
    return pairs


def test_criterion_01_adjacency_reproduction(g_mixed, g213):
    start = time.perf_counter()
    lam = lam_of(g_mixed)
    assert tuple(tuple(dict(e.terms()) for e in row) for row in lam.entries) == (
        ({2: 1}, {1: 2}),
        ({2: 2}, {1: 1, 3: 1}),
    )
    lam8 = lam_of(g213)
    expected = (
        ({}, {}, {}, {}, {2: 1}, {}, {}, {}),
        ({2: 1}, {}, {}, {}, {0: 1}, {}, {}, {}),
        ({}, {2: 1}, {}, {}, {}, {0: 1}, {}, {}),
        ({}, {0: 1}, {}, {}, {}, {2: 1}, {}, {}),
        ({}, {}, {1: 1}, {}, {}, {}, {1: 1}, {}),
        ({}, {}, {1: 1}, {}, {}, {}, {1: 1}, {}),
        ({}, {}, {}, {1: 1}, {}, {}, {}, {1: 1}),
        ({}, {}, {}, {1: 1}, {}, {}, {}, {1: 1}),
    )
    assert tuple(tuple(dict(e.terms()) for e in row) for row in lam8.entries) == expected
    report(1, 1.0, start, "adjacency matrices match the reference values exactly")


def test_criterion_02_weight_distribution(g213):
    start = time.perf_counter()
    omega = omega_series(phi_series(lam_of(g213), 12))
    low = {lw: c for lw, c in series_table(omega).items() if lw[1] <= 9}
    assert low == {
        (5, 6): 1,
        (4, 7): 1, (6, 7): 1, (7, 7): 1,
        (6, 8): 1, (7, 8): 1, (8, 8): 1, (9, 8): 2,
        (8, 9): 4, (9, 9): 1, (10, 9): 3, (11, 9): 3,
    }
    report(2, 1.0, start, "weight distribution through W^9 at truncation 12")


def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    codes = oracle_suite_codes()
    assert len(codes) >= 22
    for g in codes:
        res = survey(g, 8)
        phi = phi_series(lam_of(g), 8)
        omega = omega_series(phi)
        assert res.atomic == series_table(omega)
        assert res.molecular == series_table(phi)
    report(3, 120.0, start, f"brute-force tallies equal series on {len(codes)} codes")


def test_criterion_04_same_distribution_different_invariant(g1, g2):
    start = time.perf_counter()
    trunc = 8
    omega1 = omega_series(phi_series(lam_of(g1), trunc))
    omega2 = omega_series(phi_series(lam_of(g2), trunc))
    geometric = {(l, 2 * l): 1 for l in range(2, trunc + 1)}
    assert series_table(omega1) == geometric
    assert series_table(omega2) == geometric
    assert gen_adj_equal(lam_of(g1), lam_of(g2)) is None
    dual_omega1 = omega_series(phi_series(lam_of(dual_basis(g1)), trunc))
    dual_omega2 = omega_series(phi_series(lam_of(dual_basis(g2)), trunc))
    divergent = [
        l for l in range(trunc + 1) if dual_omega1.coeff(l) != dual_omega2.coeff(l)
    ]
    assert divergent and divergent[0] == 1
    assert dual_omega1.coeff(1) == WeightEnum({3: 1})
    assert dual_omega2.coeff(1) == WeightEnum({2: 1})
    report(4, 1.0, start, "equal distributions, distinct invariants, divergent duals")


def test_criterion_05_macwilliams_unit_memory(g1, g2):
    start = time.perf_counter()
    for g in (g1, g2):
        transformed = macwilliams_delta1(extend(lam_of(g)))
        assert transformed == extend(lam_of(dual_basis(g)))
    rng = random.Random(505)
    count = 0
    while count < 50:
        g = genutil.random_minimal_code(
            rng, F2, n_max=5, k_max=4, gamma_min=1, gamma_max=1
        )
        transformed = macwilliams_delta1(extend(lam_of(g)))
        assert transformed == extend(lam_of(dual_basis(g)))
        count += 1
    report(5, 5.0, start, "duality transform matches direct duals on 52 codes")


def test_criterion_06_adjacency_is_invariant():
    start = time.perf_counter()
    pairs = invariance_suite_pairs()
    assert len(pairs) == 100
    for g, h in pairs:
        lam_g, lam_h = lam_of(g), lam_of(h)
        wit = gen_adj_equal(lam_g, lam_h)
        assert wit is not None
        assert apply_witness(lam_g, wit) == lam_h
    report(6, 60.0, start, "verified conjugation witness for 100 unimodular pairs")


def test_criterion_07_invariant_recovery():
    start = time.perf_counter()
    seen = 0
    for g in oracle_suite_codes():
        info = encoder_info(g)
        lam = lam_of(g)
        assert recover_dimension(lam) == g.k
        assert recover_forney(lam) == tuple(sorted(info.row_degrees))
        seen += 1
    for g, h in invariance_suite_pairs():
        for m in (g, h):
            info = encoder_info(m)
            lam = lam_of(m)
            assert recover_dimension(lam) == m.k
            assert recover_forney(lam) == tuple(sorted(info.row_degrees))
            seen += 1
    report(7, 120.0, start, f"dimension and row degrees recovered on {seen} matrices")


def _coprime_rows(n, gamma, *, with_zero=False):
    """All basic 1 x n binary rows with max entry degree exactly gamma, with
    zero entries only if `with_zero`."""
    polys = [()] if with_zero else []
    for packed in range(1, 2 ** (gamma + 1)):
        polys.append(poly([(packed >> i) & 1 for i in range(gamma + 1)]))
    rows = []
    for entries in itertools.product(polys, repeat=n):
        if max(deg(e) for e in entries) != gamma:
            continue
        g = ()
        for e in entries:
            g = poly_gcd(F2, g, e)
        if g == (1,):
            rows.append(pm(F2, [list(entries)]))
    return rows


def test_criterion_08_adjacency_determines_monomial_class():
    start = time.perf_counter()
    checked = 0
    equivalent = 0
    for n, gammas, sample in ((2, (1, 2, 3), None), (3, (1, 2), 26)):
        for gamma in gammas:
            codes = _coprime_rows(n, gamma)
            if sample is not None:
                codes = random.Random(808 + gamma).sample(codes, min(sample, len(codes)))
            lams = [lam_of(g) for g in codes]
            for i in range(len(codes)):
                for j in range(i + 1, len(codes)):
                    adj_eq = gen_adj_equal(lams[i], lams[j]) is not None
                    mono_eq = monomial_equiv(codes[i], codes[j]) is not None
                    assert adj_eq == mono_eq
                    checked += 1
                    equivalent += adj_eq
    assert equivalent > 0  # both directions genuinely exercised
    report(8, 300.0, start, f"adjacency equality iff monomial equivalence ({checked} pairs)")


def test_criterion_11_adjacency_classes_are_the_monomial_classes():
    # every basic binary k = 1 code with (n, delta) in (2, 1..4), (3, 1..3),
    # (4, 1..2): its Lambda has the shift graph as support, so a zero-fixing
    # conjugation between two of them is a zero-fixing automorphism of that
    # graph, the identity by Lemma A.1 (at delta = 1 the one nonzero state is
    # fixed); so Lambda itself keys its class, and over F_2 a monomial class
    # is a multiset of columns
    start = time.perf_counter()
    assert all(verify_shift_permutation_lemma(delta) for delta in (2, 3, 4))
    rng = random.Random(1111)
    counts, pools = [], []
    for n, deltas in ((2, (1, 2, 3, 4)), (3, (1, 2, 3)), (4, (1, 2))):
        for delta in deltas:
            codes = _coprime_rows(n, delta, with_zero=True)
            by_lam, by_columns = {}, {}
            for i, g in enumerate(codes):
                lam = code_adjacency(g)
                key = tuple(tuple((j, lam.cells[t].terms()) for j, t in row) for row in lam.rows)
                by_lam.setdefault(key, []).append(i)
                by_columns.setdefault(tuple(sorted(g.rows[0])), []).append(i)
            assert sorted(by_lam.values()) == sorted(by_columns.values())
            classes = [[codes[i] for i in members] for members in by_columns.values()]
            for g, h in (c[:2] for c in classes if len(c) >= 2):
                assert code_witness(g, h) == tuple(range(2**delta))
                assert monomial_equiv(g, h) is not None
            counts.append(len(classes))
            pools.append(classes)
    assert sum(len(c) for classes in pools for c in classes) == 7146
    assert counts == [3, 12, 48, 192, 10, 68, 496, 22, 235]
    for _ in range(200):
        classes = rng.choice(pools)
        g, h = (rng.choice(c) for c in rng.sample(classes, 2))
        assert code_witness(g, h) is None
        assert monomial_equiv(g, h) is None
    report(11, 60.0, start,
           f"Lambda classes are the {sum(counts)} column-multiset classes of 7146 codes")


def test_criterion_09_shift_rigidity():
    start = time.perf_counter()
    assert verify_shift_permutation_lemma(2)
    assert verify_shift_permutation_lemma(3)
    report(9, 60.0, start, "only the identity satisfies the shift condition (gamma 2, 3)")


def test_criterion_10_catastrophicity():
    start = time.perf_counter()
    rng = random.Random(1010)
    for _ in range(50):
        g = genutil.random_nonbasic_fullrank(rng, F2)
        sd = build(controller_form(g, require_minimal=False))
        assert zero_weight_cycle_exists(sd) or not delay_free_check(sd)
        assert not genutil.zero_label_cycle_exists(sd)
    for _ in range(50):
        g = genutil.random_minimal_code(rng, F2, gamma_min=1, gamma_max=3)
        sd = build(controller_form(g))
        assert not zero_weight_cycle_exists(sd)
        assert delay_free_check(sd)
        assert not genutil.zero_label_cycle_exists(sd)
    report(10, 60.0, start, "catastrophic flags on 50 non-basic, clean on 50 minimal")
