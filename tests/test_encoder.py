import random

import pytest

from convcode import (
    ATOMIC,
    CONCATENATED_LOOSE,
    MOLECULAR_TIGHT,
    adjacency,
    build,
    classify,
    controller_form,
    delay_free_check,
    pm,
    realization_check,
    recover_dimension,
    recover_forney,
    state_sequence,
)
from convcode.polyalg import mat_rank, pm_mul, poly, PolyMatrix

import genutil


def test_ccf_memory_three(g213):
    cf = controller_form(g213)
    assert cf.A == ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    assert cf.B == ((1, 0, 0),)
    assert cf.C == ((1, 0), (1, 1), (1, 1))
    assert cf.D == ((1, 1),)
    assert cf.block_degrees == (3,)
    assert cf.gamma == 3


def test_ccf_f16(g16):
    cf = controller_form(g16)
    assert cf.A == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    assert cf.B == ((1, 0, 0), (0, 0, 1))
    assert cf.C == ((2, 2, 2), (1, 7, 6), (1, 6, 7))
    assert cf.D == ((2, 12, 14), (1, 7, 6))
    assert realization_check(cf)


def test_ccf_zero_degree_row(g_mixed):
    cf = controller_form(g_mixed)
    assert cf.A == ((0,),)
    assert cf.B == ((0,), (1,))
    assert cf.C == ((0, 1, 1),)
    assert cf.D == ((1, 1, 0), (0, 1, 0))
    assert realization_check(cf)


def test_ccf_rejects_nonminimal_and_block(f2):
    with pytest.raises(ValueError):
        controller_form(pm(f2, [[[1], [1]], [[0, 1], [0, 1]]]))
    # a block code has the empty register: one state, no A or C rows, D = G
    g = pm(f2, [[[1], [1], [0]], [[0], [1], [1]]])
    cf = controller_form(g)
    assert cf.gamma == 0 and cf.A == () and cf.C == ()
    assert cf.B == ((), ()) and cf.D == ((1, 1, 0), (0, 1, 1))
    assert realization_check(cf)
    sd = build(cf)
    assert sd.num_states == 1
    assert [dst for dst, _ in tuple(sd.edges_by_source)[0]] == [0, 0, 0]  # q^k - 1 self-loops
    assert delay_free_check(sd)
    lam = adjacency(sd)
    assert recover_dimension(lam) == 2 and recover_forney(lam) == (0, 0)
    assert classify(cf, [poly([1]), poly([0])]).kind == ATOMIC
    assert classify(cf, [poly([1, 1]), poly([0, 1])]).kind == MOLECULAR_TIGHT
    assert classify(cf, [poly([1, 0, 1]), poly([0])]).kind == CONCATENATED_LOOSE


def test_minimal_forms_have_full_observer_rank(f2, f3, g213, g_mixed, g16):
    # rank [A, C] = gamma characterizes minimality of the source matrix
    rng = random.Random(3)
    samples = [g213, g_mixed, g16]
    samples += [genutil.random_minimal_code(rng, f3, gamma_max=3) for _ in range(5)]
    for g in samples:
        cf = controller_form(g)
        stacked = tuple(
            row_a + row_c for row_a, row_c in zip(cf.A, cf.C)
        )
        assert mat_rank(cf.field, stacked) == cf.gamma


def test_realization_check_detects_corruption(g213):
    cf = controller_form(g213)
    assert realization_check(cf)
    broken = cf._replace(C=tuple(tuple(0 for _ in row) for row in cf.C))
    assert not realization_check(broken)


def test_state_sequence_zero_input(g213):
    cf = controller_form(g213)
    states, outputs = state_sequence(cf, [poly([])])
    assert states == ((0, 0, 0),)
    assert outputs == ()


def test_state_sequence_unit_input(g213):
    cf = controller_form(g213)
    states, outputs = state_sequence(cf, [poly([1])])
    assert states == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
    assert outputs == ((1, 1), (1, 0), (1, 1), (1, 1))


def test_state_sequence_degree_formula(g213):
    cf = controller_form(g213)
    _, outputs = state_sequence(cf, [poly([1, 0, 1])])
    assert len(outputs) - 1 == 5  # deg(uG) = 3 + 2


def test_state_sequence_matches_polynomial_product(f2, f3):
    rng = random.Random(17)
    for fld in (f2, f3):
        for _ in range(8):
            g = genutil.random_minimal_code(rng, fld, gamma_max=3)
            cf = controller_form(g)
            for _ in range(10):
                u = [genutil.random_poly(rng, fld, rng.randint(0, 3)) for _ in range(g.k)]
                if all(not ui for ui in u):
                    continue
                _, outputs = state_sequence(cf, u)
                u_mat = PolyMatrix(fld, (tuple(u),))
                v = pm_mul(u_mat, g).rows[0]
                n_deg = len(outputs) - 1
                assert n_deg == max(len(e) - 1 for e in v)
                for t, vt in enumerate(outputs):
                    assert vt == tuple(e[t] if t < len(e) else 0 for e in v)


def test_state_degree_equals_shifted_input_degree(g213):
    cf = controller_form(g213)
    rng = random.Random(2)
    for _ in range(20):
        u = [genutil.random_poly(rng, cf.field, rng.randint(0, 4))]
        if not u[0]:
            continue
        states, _ = state_sequence(cf, u)
        x_deg = max(t for t, x in enumerate(states) if any(x)) if any(map(any, states)) else None
        assert x_deg == cf.block_degrees[0] + len(u[0]) - 1


def test_classify_examples(g213):
    cf = controller_form(g213)
    c = classify(cf, [poly([1])])
    assert c.kind == ATOMIC and c.concat_times == () and c.is_molecular

    c = classify(cf, [poly([1, 0, 0, 0, 1])])  # 1 + z^4
    assert c.kind == MOLECULAR_TIGHT
    assert c.concat_times == (4,) and c.tight_times == (4,)
    assert c.is_molecular

    c = classify(cf, [poly([1, 0, 0, 0, 0, 1])])  # 1 + z^5
    assert c.kind == CONCATENATED_LOOSE
    assert c.concat_times == (4, 5) and c.tight_times == (5,)
    assert not c.is_molecular


def test_classify_input_guards(f2, g213):
    cf = controller_form(g213)
    with pytest.raises(ValueError):
        classify(cf, [poly([])])
    with pytest.raises(ValueError):
        classify(cf, [poly([0, 1])])
    loose = controller_form(
        pm(f2, [[[1], [1]], [[0, 1], [0, 1, 1]]]), require_minimal=False
    )
    assert not loose.minimal
    with pytest.raises(ValueError):
        classify(loose, [poly([1]), poly([])])


def test_classification_kind_invariants(f2):
    rng = random.Random(29)
    g = genutil.random_minimal_code(rng, f2, k_max=2, gamma_max=3)
    cf = controller_form(g)
    for _ in range(200):
        u = [genutil.random_poly(rng, f2, rng.randint(0, 4)) for _ in range(g.k)]
        if not any(ui and len(ui) > 0 and ui[0] for ui in u):
            continue
        c = classify(cf, u)
        assert (c.kind == ATOMIC) == (c.concat_times == ())
        assert (c.kind == MOLECULAR_TIGHT) == (
            c.concat_times != () and c.tight_times == c.concat_times
        )
        assert set(c.tight_times) <= set(c.concat_times)


def test_memory_gap_forces_concatenation(g213):
    # m consecutive zero input blocks mid-word always split the codeword
    cf = controller_form(g213)
    m = cf.memory
    rng = random.Random(41)
    for _ in range(30):
        head = [1] + [rng.randrange(2) for _ in range(rng.randint(0, 2))]
        tail = [1] + [rng.randrange(2) for _ in range(rng.randint(0, 2))]
        u = poly(head + [0] * m + tail)
        c = classify(cf, [u])
        assert c.concat_times != ()


def test_equal_indices_zero_window_criterion(f2, g213):
    # when all row degrees equal m: state zero at L iff inputs u_{L-m}..u_{L-1}
    # vanish (coefficients at negative times read as zero)
    for g in (g213, pm(f2, [[[1], [0, 1], [0]], [[0], [1], [0, 1]]])):
        cf = controller_form(g)
        m = cf.memory
        assert all(d == m for d in cf.block_degrees)
        width = 5
        for packed in range(1, 2 ** (cf.k * width)):
            coeffs = [(packed >> i) & 1 for i in range(cf.k * width)]
            u = [poly(coeffs[i * width:(i + 1) * width]) for i in range(cf.k)]
            if not any(coeff_row[0] if coeff_row else 0 for coeff_row in u):
                continue
            states, outputs = state_sequence(cf, u)
            for L in range(1, len(outputs)):
                if L - m < 0:
                    window_zero = False  # window reaches time 0 where u_0 != 0
                else:
                    window_zero = all(
                        not any(e[t] if t < len(e) else 0 for e in u)
                        for t in range(L - m, L)
                    )
                assert (not any(states[L])) == window_zero


def test_controller_form_refuses_a_non_minimal_matrix(f2):
    # [[1, z, 0], [z, z^2, 1]] is basic with row degrees (1, 2), but its
    # minors have degree at most 1
    g = pm(f2, [[[1], [0, 1], [0]], [[0, 1], [0, 0, 1], [1]]])
    assert g.info.is_basic and not g.info.is_minimal
    with pytest.raises(ValueError, match="generator matrix is not minimal"):
        controller_form(g)
    assert controller_form(g, require_minimal=False).gamma == 3


def test_state_sequence_refuses_malformed_input(g1):
    cf = controller_form(g1)
    with pytest.raises(ValueError, match="input needs 1 component polynomials"):
        state_sequence(cf, [(1,), (1,)])
    with pytest.raises(ValueError, match="input coefficient out of field range"):
        state_sequence(cf, [(1, 2)])
