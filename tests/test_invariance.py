import itertools
import random

import pytest

from convcode import (
    adjacency,
    build,
    codes_equal,
    controller_form,
    extend,
    gen_adj_equal,
    macwilliams_delta1,
    monomial_equiv,
    pm,
    recover_dimension,
    recover_forney,
    verify_shift_permutation_lemma,
    weight_preserving_equiv_check,
)
from convcode.errors import InternalError, LimitError
from convcode.invariance import apply_monomial, apply_witness
from convcode.polyalg import pm_mul
from convcode.spectrum import AdjMatrix, WeightEnum

import genutil


def lam_of(g, **kw):
    return adjacency(build(controller_form(g, **kw)))


def test_planted_conjugation_witness(g213):
    lam = lam_of(g213)
    rng = random.Random(9)
    for _ in range(10):
        perm = [0] + rng.sample(range(1, 8), 7)
        conj = apply_witness(lam, perm)
        wit = gen_adj_equal(lam, conj)
        assert wit is not None and wit[0] == 0
        assert apply_witness(lam, wit) == conj


def test_smallest_witness_is_lexicographic_least(g213):
    lam = lam_of(g213)
    wit = gen_adj_equal(lam, lam)
    assert wit == tuple(range(8))


def test_witness_reverification_is_not_an_assert(g213, monkeypatch):
    lam = lam_of(g213)
    # the search compares terms(); only the final re-check uses ==
    monkeypatch.setattr(WeightEnum, "__eq__", lambda self, other: False)
    with pytest.raises(InternalError, match="re-verification"):
        gen_adj_equal(lam, lam)


def test_shifted_pair_not_conjugate(g1, g2):
    assert gen_adj_equal(lam_of(g1), lam_of(g2)) is None


def test_dimension_mismatch_raises(g1, g213):
    with pytest.raises(ValueError):
        gen_adj_equal(lam_of(g1), lam_of(g213))


def unimodular_cases(f2, f3):
    # one code/transform pair per elementary transformation class
    g_f2 = pm(f2, [[[1], [0, 1], [0]], [[0], [1], [0, 0, 1]]])  # indices (1, 2)
    g_f3 = pm(f3, [[[1], [0, 1], [0]], [[0], [1], [0, 1]]])  # indices (1, 1)
    swap = pm(f2, [[[0], [1]], [[1], [0]]])
    scale = pm(f3, [[[2], [0]], [[0], [1]]])
    const_add = pm(f2, [[[1], [0]], [[1], [1]]])  # row2 += row1 (deg 1 <= 2)
    z_add = pm(f2, [[[1], [0]], [[0, 1], [1]]])  # row2 += z*row1
    return [
        (g_f2, swap),
        (g_f3, scale),
        (g_f2, const_add),
        (g_f2, z_add),
    ]


def test_unimodular_transform_classes(f2, f3):
    for g, u in unimodular_cases(f2, f3):
        h = pm_mul(u, g)
        assert codes_equal(g, h)
        lam_g, lam_h = lam_of(g), lam_of(h)
        wit = gen_adj_equal(lam_g, lam_h)
        assert wit is not None
        assert apply_witness(lam_g, wit) == lam_h


def test_monomial_transform_leaves_adjacency_unchanged(f2, g_mixed, g1):
    # column permutation + rescaling preserves every edge weight, so under
    # the fixed state ordering the matrices agree entry for entry
    rng = random.Random(99)
    for g in (g_mixed, g1):
        for _ in range(4):
            perm = rng.sample(range(g.n), g.n)
            h = apply_monomial(g, perm, [1] * g.n)
            assert lam_of(h) == lam_of(g)


def test_search_size_guard(g1):
    with pytest.raises(LimitError):
        gen_adj_equal(lam_of(g1), lam_of(g1), max_states=1)


def test_unimodular_random_products(f2, f3):
    rng = random.Random(77)
    for fld in (f2, f3):
        for _ in range(10):
            g = genutil.random_minimal_code(rng, fld, k_max=2, gamma_max=3)
            h, _ = genutil.elementary_ops(rng, g, 6)
            wit = gen_adj_equal(lam_of(g), lam_of(h))
            assert wit is not None


def test_recover_dimension(g1, g_mixed, g213):
    assert recover_dimension(lam_of(g1)) == 1
    assert recover_dimension(lam_of(g_mixed)) == 2
    assert recover_dimension(lam_of(g213)) == 1
    corrupt = AdjMatrix(
        [[WeightEnum.zero(), WeightEnum({2: 2})],
         [WeightEnum({2: 1}), WeightEnum({2: 1})]],
        q=2, n=3,
    )  # extended row-0 count becomes 3
    with pytest.raises(ValueError):
        recover_dimension(corrupt)


def test_recover_forney(g1, g_mixed, g213):
    assert recover_forney(lam_of(g1)) == (1,)
    assert recover_forney(lam_of(g_mixed)) == (0, 1)
    assert recover_forney(lam_of(g213)) == (3,)


def test_recover_matches_encoder_on_random_codes(f2, f3):
    rng = random.Random(55)
    for fld in (f2, f3):
        for _ in range(8):
            g = genutil.random_minimal_code(rng, fld, k_max=2, gamma_max=3)
            lam = lam_of(g)
            from convcode import encoder_info
            info = encoder_info(g)
            assert recover_dimension(lam) == g.k
            assert recover_forney(lam) == tuple(sorted(info.row_degrees))


def test_monomial_equiv_planted(f2, g_mixed):
    rng = random.Random(13)
    for _ in range(5):
        perm = rng.sample(range(3), 3)
        scale = [1, 1, 1]
        h = apply_monomial(g_mixed, perm, scale)
        wit = monomial_equiv(g_mixed, h)
        assert wit is not None
        assert codes_equal(apply_monomial(g_mixed, wit[0], wit[1]), h)


def test_monomial_equiv_negative(g1, g2):
    assert monomial_equiv(g1, g2) is None


def test_monomial_equiv_budget(g16):
    with pytest.raises(LimitError):
        monomial_equiv(g16, g16, budget=10)


def test_weight_preserving_check(f2, f3):
    m = ((1, 0, 1), (0, 1, 1))
    assert weight_preserving_equiv_check(f2, m, ((1, 1, 0), (1, 0, 1)))  # cols swapped
    assert not weight_preserving_equiv_check(f2, ((1, 0),), ((1, 1),))
    m3 = ((1, 2, 0), (0, 1, 2))
    scaled = tuple(tuple(f3.mul(2, row[j]) if j == 0 else row[j] for j in range(3)) for row in m3)
    assert weight_preserving_equiv_check(f3, m3, scaled)


def constant_monomial_witness(fld, m1, m2):
    """Column permutation/rescaling with m1 P R == m2 exactly, or None."""
    n = len(m1[0])
    cols1 = [tuple(row[j] for row in m1) for j in range(n)]
    cols2 = [tuple(row[j] for row in m2) for j in range(n)]
    for perm in itertools.permutations(range(n)):
        scale = []
        for j in range(n):
            src = cols1[perm[j]]
            dst = cols2[j]
            choice = next(
                (c for c in fld.units() if tuple(fld.mul(c, x) for x in src) == dst),
                None,
            )
            if choice is None:
                break
            scale.append(choice)
        else:
            return perm, tuple(scale)
    return None


def test_weight_preserving_implies_monomial_witness(f2, f3, g_mixed):
    # hypothesis check followed by the exhaustive conclusion search
    rng = random.Random(19)
    for fld in (f2, f3):
        for _ in range(10):
            k, n = rng.randint(1, 3), rng.randint(2, 4)
            m = tuple(tuple(rng.randrange(fld.q) for _ in range(n)) for _ in range(k))
            perm = rng.sample(range(n), n)
            scale = [rng.choice(list(fld.units())) for _ in range(n)]
            m2 = tuple(
                tuple(fld.mul(scale[j], row[perm[j]]) for j in range(n)) for row in m
            )
            assert weight_preserving_equiv_check(fld, m, m2)
            wit = constant_monomial_witness(fld, m, m2)
            assert wit is not None
            p, s = wit
            applied = tuple(
                tuple(fld.mul(s[j], row[p[j]]) for j in range(n)) for row in m
            )
            assert applied == m2
    # stacked (C; D) of monomially equivalent encoders is weight preserving
    cf = controller_form(g_mixed)
    h = apply_monomial(g_mixed, (2, 0, 1), (1, 1, 1))
    cf2 = controller_form(h)
    stacked = cf.C + cf.D
    stacked2 = cf2.C + cf2.D
    assert weight_preserving_equiv_check(f2, stacked, stacked2)


def test_macwilliams_classic_pair(g1, g2):
    for g, expected in (
        (g1, (({0: 1, 3: 1}, {1: 1, 2: 1}), ({1: 1, 2: 1}, {1: 1, 2: 1}))),
        (g2, (({0: 1, 2: 1}, {1: 2}), ({2: 2}, {1: 1, 3: 1}))),
    ):
        out = macwilliams_delta1(extend(lam_of(g)), g.n, g.k)
        assert tuple(tuple(dict(e.terms()) for e in row) for row in out.entries) == expected
        from convcode import dual_basis
        dual_gamma = extend(lam_of(dual_basis(g)))
        assert out == dual_gamma


def test_macwilliams_involution(f2):
    rng = random.Random(37)
    for _ in range(15):
        g = genutil.random_minimal_code(
            rng, f2, n_max=5, k_max=4, gamma_min=1, gamma_max=1
        )
        gam = extend(lam_of(g))
        fwd = macwilliams_delta1(gam, g.n, g.k)
        back = macwilliams_delta1(fwd, g.n, g.n - g.k)
        assert back == gam


def test_macwilliams_guards(g213, g1, f3):
    with pytest.raises(ValueError):
        macwilliams_delta1(extend(lam_of(g213)), 2, 1)  # 8 states
    with pytest.raises(ValueError):
        macwilliams_delta1(lam_of(g1), 3, 1)  # not extended
    fake = AdjMatrix(
        [[WeightEnum.one(), WeightEnum({1: 1})],
         [WeightEnum({1: 1}), WeightEnum({1: 1})]],
        q=3, n=2, extended=True,
    )
    with pytest.raises(ValueError):
        macwilliams_delta1(fake, 2, 1)  # non-binary
    corrupt = AdjMatrix(
        [[WeightEnum({0: 1, 1: 1}), WeightEnum({2: 1})],
         [WeightEnum({2: 1}), WeightEnum({2: 1})]],
        q=2, n=3, extended=True,
    )
    with pytest.raises(ValueError):
        macwilliams_delta1(corrupt, 3, 1)  # does not clear


def test_shift_permutation_lemma():
    assert verify_shift_permutation_lemma(2)
    assert verify_shift_permutation_lemma(3)
    with pytest.raises(ValueError):
        verify_shift_permutation_lemma(1)
    with pytest.raises(ValueError):
        verify_shift_permutation_lemma(4)
