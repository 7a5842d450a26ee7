import hashlib
import itertools
import random
from collections import Counter

import pytest

from convcode import codes_equal, dual_basis, encoder_info, hermite_form, k_minors, minimize, pm, right_inverse
from convcode.galois import field_make
from convcode.polyalg import (
    NEG_INF,
    ZERO,
    PolyMatrix,
    deg,
    diagonalize,
    highest_coeff_matrix,
    mat_left_kernel_vector,
    mat_rank,
    pm_identity,
    pm_is_zero,
    pm_mul,
    pm_transpose,
    poly,
    poly_add,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_str,
    row_degrees,
)

import genutil


def test_poly_normalization_and_degree():
    assert poly([0, 0]) == ()
    assert poly([1, 1, 0]) == (1, 1)
    assert deg(ZERO) == NEG_INF
    assert deg((1, 0, 1)) == 2


def test_poly_arith_binary(f2):
    # 1 + z^2 = (1 + z)^2, so gcd with 1 + z is 1 + z
    assert poly_gcd(f2, (1, 0, 1), (1, 1)) == (1, 1)
    assert poly_mul(f2, (1, 1), (1, 1, 1)) == (1, 0, 0, 1)
    q, r = poly_divmod(f2, (1, 0, 0, 1), (1, 1))
    assert q == (1, 1, 1) and r == ()
    with pytest.raises(ZeroDivisionError):
        poly_divmod(f2, (1,), ())


def test_poly_arith_f16(f16):
    # a * (a^3 + 1) = 1 as constant polynomials
    assert poly_mul(f16, (2,), (9,)) == (1,)


def test_poly_divmod_property(f3):
    rng = random.Random(11)
    for _ in range(200):
        a = genutil.random_poly(rng, f3, rng.randint(0, 6))
        b = genutil.random_poly(rng, f3, rng.randint(0, 3))
        if not b:
            continue
        q, r = poly_divmod(f3, a, b)
        assert poly_add(f3, poly_mul(f3, q, b), r) == a
        assert deg(r) < deg(b)


def test_k_minors_single_row(f2, g1):
    assert k_minors(g1) == ((1,), (0, 1), (1, 1))


def test_k_minors_two_rows(f2):
    g = pm(f2, [[[1], [1], [1]], [[0, 1], [1], [0]]])
    assert k_minors(g) == ((1, 1), (0, 1), (1,))


def test_k_minors_padded_identity(f2):
    g = pm(f2, [[[1], [0], [0]], [[0], [1], [0]]])
    assert k_minors(g) == ((1,), (), ())


def test_k_minors_shape_guard(f2):
    with pytest.raises(ValueError):
        k_minors(pm(f2, [[[1]], [[1]], [[1]]]))


def test_encoder_info_examples(f2, g213, g_mixed):
    info = encoder_info(g213)
    assert info.row_degrees == (3,)
    assert info.delta == 3
    assert info.is_basic and info.is_minimal
    assert info.memory == 3

    info = encoder_info(g_mixed)
    assert info.row_degrees == (0, 1)
    assert info.delta == 1
    assert info.is_basic and info.is_minimal

    info = encoder_info(pm(f2, [[[1, 1], [1, 1]]]))
    assert info.delta == 1
    assert not info.is_basic and not info.is_minimal


def test_constant_minors_make_a_basic_matrix(f2):
    # delta = 0: every nonzero maximal minor is a nonzero constant, so their
    # gcd is 1; exhaustive over F2, k <= 2, n <= 3, entry degree <= 1
    entries = [poly(c) for c in itertools.product(range(2), repeat=2)]
    delta_zero = 0
    for k, n in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3)):
        for flat in itertools.product(entries, repeat=k * n):
            g = pm(f2, [flat[r * n:(r + 1) * n] for r in range(k)])
            try:
                info = encoder_info(g)
            except ValueError:
                continue  # rank deficient
            if info.delta == 0:
                delta_zero += 1
                assert info.is_basic
    assert delta_zero > 100  # the property is not vacuous


def test_encoder_info_rank_deficient(f2):
    with pytest.raises(ValueError):
        encoder_info(pm(f2, [[[1], [1]], [[1], [1]]]))


def test_right_inverse(f2, g1, g_mixed):
    ghat, mhat = right_inverse(g1)
    assert pm_mul(g1, ghat) == pm_identity(f2, 1)
    assert mhat >= 0
    ghat, _ = right_inverse(g_mixed)
    assert pm_mul(g_mixed, ghat) == pm_identity(f2, 2)
    with pytest.raises(ValueError):
        right_inverse(pm(f2, [[[1, 1], [1, 1]]]))


def test_minimize_fixpoint(g213):
    g_min, u = minimize(g213)
    assert g_min == g213
    assert u == pm_identity(g213.field, 1)


def test_minimize_unimodular_input(f2):
    # [[1, z], [z, z^2+1]] has determinant 1: both rows reduce to constants
    g = pm(f2, [[[1], [0, 1]], [[0, 1], [1, 0, 1]]])
    info = encoder_info(g)
    assert info.delta == 0
    g_min, u = minimize(g)
    assert encoder_info(g_min).is_minimal
    assert sum(encoder_info(g_min).row_degrees) == 0
    assert pm_mul(u, g) == g_min
    assert deg(k_minors(u)[0]) == 0  # det is a nonzero constant


def test_minimize_already_reduced(f2):
    g = pm(f2, [[[1], [1], [0]], [[0, 1], [1, 1], [0, 1]]])
    info = encoder_info(g)
    assert info.is_minimal
    g_min, u = minimize(g)
    assert g_min == g
    assert u == pm_identity(f2, 2)


def test_minimize_postconditions_random(f2, f3):
    rng = random.Random(23)
    for fld in (f2, f3):
        for _ in range(15):
            g = genutil.random_minimal_code(rng, fld, gamma_max=4)
            info = encoder_info(g)
            assert info.is_minimal
            assert sum(info.row_degrees) == info.delta
            assert mat_rank(fld, highest_coeff_matrix(g)) == g.k


def test_minimize_rejects_nonbasic(f2):
    with pytest.raises(ValueError):
        minimize(pm(f2, [[[1, 1], [1, 1]]]))


def test_codes_equal(f2, g1, g2, g213):
    assert codes_equal(g1, g1)
    assert not codes_equal(g1, g2)
    swapped = pm(f2, [[[0], [1, 1], [0, 1]], [[1], [1], [0]]])
    original = pm(f2, [[[1], [1], [0]], [[0], [1, 1], [0, 1]]])
    assert codes_equal(original, swapped)
    with pytest.raises(ValueError):
        codes_equal(g1, g213)  # n mismatch


def test_codes_equal_under_unimodular(f2, f3):
    rng = random.Random(5)
    for fld in (f2, f3):
        for _ in range(10):
            g = genutil.random_minimal_code(rng, fld, k_max=2, gamma_max=3)
            h, _ = genutil.elementary_ops(rng, g, 6)
            assert codes_equal(g, h)
            info_g, info_h = encoder_info(g), encoder_info(h)
            assert info_g.delta == info_h.delta
            assert sorted(info_g.row_degrees) == sorted(info_h.row_degrees)
            assert info_h.is_basic  # minor gcd stays constant


def test_hermite_form_canonical(f2):
    rng = random.Random(7)
    for _ in range(10):
        g = genutil.random_minimal_code(rng, f2, k_max=2, gamma_max=3)
        h, _ = genutil.elementary_ops(rng, g, 5)
        assert hermite_form(g) == hermite_form(h)
        assert hermite_form(hermite_form(g)) == hermite_form(g)


def test_dual_basis_classic_pair(f2, g1, g2):
    h1 = dual_basis(g1)
    assert codes_equal(h1, pm(f2, [[[1], [1], [1]], [[0, 1], [1], [0]]]))
    h2 = dual_basis(g2)
    assert codes_equal(h2, pm(f2, [[[1], [1], [0]], [[1, 1], [0], [0, 1]]]))
    for g, h in ((g1, h1), (g2, h2)):
        assert pm_is_zero(pm_mul(g, pm_transpose(h)))
        info = encoder_info(h)
        assert info.is_basic and info.is_minimal


def test_dual_basis_square_is_error(f2):
    with pytest.raises(ValueError):
        dual_basis(pm_identity(f2, 2))
    with pytest.raises(ValueError):
        dual_basis(pm(f2, [[[1, 1], [1, 1]]]))  # non-basic


def test_dual_biduality(f2, f3, g1, g2):
    rng = random.Random(31)
    samples = [g1, g2]
    samples += [genutil.random_minimal_code(rng, f2, k_max=2, gamma_max=3) for _ in range(6)]
    samples += [genutil.random_minimal_code(rng, f3, k_max=2, gamma_max=2) for _ in range(4)]
    for g in samples:
        h = dual_basis(g)
        assert pm_is_zero(pm_mul(g, pm_transpose(h)))
        gg = dual_basis(h)
        want = minimize(g)[0]
        assert codes_equal(gg, want)


def test_dual_deterministic(f2, g1):
    assert dual_basis(g1) == dual_basis(g1)


def test_left_kernel_vector(f2):
    w = mat_left_kernel_vector(f2, ((1, 0), (1, 0), (0, 1)))
    assert w is not None and any(w)
    from convcode.polyalg import vec_mat
    assert vec_mat(f2, w, ((1, 0), (1, 0), (0, 1))) == (0, 0)
    assert mat_left_kernel_vector(f2, ((1, 0), (0, 1))) is None


def reduction_corpus():
    """400 seeded full-rank matrices over F2, F3, F4, F5, F7 and F8 with
    k <= 3, n <= 4 and entries of degree <= 3: basic and not, k < n and k = n."""
    rng = random.Random(35)
    fields = [field_make(p, m) for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3))]
    corpus = []
    while len(corpus) < 400:
        fld, k = rng.choice(fields), rng.randint(1, 3)
        n, d = rng.randint(k, 4), rng.randint(0, 3)
        g = pm(fld, [[genutil.random_poly(rng, fld, rng.randint(0, d)) for _ in range(n)] for _ in range(k)])
        if any(k_minors(g)):
            corpus.append(g)
    return corpus


def _plain(x):
    """An output with each PolyMatrix replaced by its rows."""
    if isinstance(x, PolyMatrix):
        return x.rows
    return tuple(map(_plain, x)) if isinstance(x, tuple) else x


def test_reductions_are_pinned():
    # the outputs, or the refusals, of the unimodular reductions on a fixed
    # corpus: a rewrite of any of them must give the same values
    corpus = reduction_corpus()
    kinds = Counter((g.info.is_basic, g.k == g.n) for g in corpus)
    assert len(kinds) == 4 and min(kinds.values()) >= 40
    results = []
    for g in corpus:
        for fn in (hermite_form, diagonalize, minimize, right_inverse, dual_basis):
            try:
                results.append(_plain(fn(g)))
            except ValueError as exc:
                results.append((type(exc).__name__, str(exc)))
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "ccdf1eee0199d9383f48e6698f2f927fd7f9070180f0ceadfe284f754594443f"


def test_diagonalize_gives_unimodular_transforms_of_a_diagonal_form():
    for g in reduction_corpus():
        s, u, v = diagonalize(g)
        assert pm_mul(pm_mul(u, g), v) == s
        assert all(not e for i, row in enumerate(s.rows) for j, e in enumerate(row) if i != j)
        diagonal = [s.rows[t][t] for t in range(g.k)]
        assert all(e and e[-1] == 1 for e in diagonal)  # full rank: none is zero
        for m in (u, v):
            (det,) = k_minors(m)
            assert deg(det) == 0


def test_pm_refuses_ragged_out_of_range_and_empty_input(f2):
    with pytest.raises(ValueError, match="ragged matrix rows"):
        pm(f2, [[[1], [1]], [[1]]])
    with pytest.raises(ValueError, match="coefficient 2 out of range for F2"):
        pm(f2, [[[1, 2]]])
    for rows in ([], [[]]):
        with pytest.raises(ValueError, match="empty matrix"):
            pm(f2, rows)


def test_pm_mul_refuses_mismatched_operands(f2, f3, g1):
    with pytest.raises(ValueError, match="field mismatch"):
        pm_mul(g1, pm(f3, [[[1]], [[1]], [[1]]]))
    with pytest.raises(ValueError, match="inner dimensions differ"):
        pm_mul(g1, g1)


def test_highest_coeff_matrix_refuses_a_zero_row(f2):
    with pytest.raises(ValueError, match="zero row"):
        highest_coeff_matrix(PolyMatrix(f2, (((1,), (1,)), (ZERO, ZERO))))


def test_polynomials_and_matrices_print_in_z():
    f4 = field_make(2, 2)
    assert [poly_str(a) for a in (ZERO, (0, 1, 3), (2, 0, 1), (1,))] == ["0", "z + 3*z^2", "2 + z^2", "1"]
    assert str(pm(f4, [[[1, 2], [0, 1, 3]], [[0], [1]]])) == "[1 + 2*z, z + 3*z^2; 0, 1]"
