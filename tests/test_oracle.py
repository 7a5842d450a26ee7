import dataclasses
import pathlib
import random
import tracemalloc

import pytest

import convcode.oracle as oracle_mod
from convcode import (
    adjacency,
    build,
    controller_form,
    omega_series,
    phi_series,
    pm,
)
from convcode.cli import parse_gm
from convcode.errors import LimitError
from convcode.oracle import _max_zero_run, survey

import genutil


def series_table(ls):
    return {
        (l, a): c
        for l in range(1, ls.trunc + 1)
        for a, c in ls.coeff(l).terms()
    }


def spectrum_tables(g, l_max):
    lam = adjacency(build(controller_form(g)))
    phi = phi_series(lam, l_max)
    return series_table(omega_series(phi)), series_table(phi)


def test_atomic_matches_displayed_distribution(g213):
    table = survey(g213, 11).atomic
    low = {lw: c for lw, c in table.items() if lw[1] <= 9}
    assert low == {
        (5, 6): 1,
        (4, 7): 1, (6, 7): 1, (7, 7): 1,
        (6, 8): 1, (7, 8): 1, (8, 8): 1, (9, 8): 2,
        (8, 9): 4, (9, 9): 1, (10, 9): 3, (11, 9): 3,
    }


def test_single_row_code_tables(g1):
    # single atomic word per length; molecular counts grow like Fibonacci
    res = survey(g1, 6)
    assert res.atomic == {(l, 2 * l): 1 for l in range(2, 7)}
    assert res.molecular == {
        (2, 4): 1, (3, 6): 1, (4, 8): 2, (5, 10): 3, (6, 12): 5,
    }


def test_short_horizon_is_empty(g213):
    res = survey(g213, 1)
    assert res.atomic == {} and res.molecular == {} and res.words == 0


def test_tables_equal_series(f2, g213, g_mixed, g1, g2):
    for g in (g213, g_mixed, g1, g2):
        res = survey(g, 8)
        omega_t, phi_t = spectrum_tables(g, 8)
        assert res.atomic == omega_t
        assert res.molecular == phi_t


def test_tables_equal_series_random(f2, f3):
    rng = random.Random(71)
    for fld, rounds in ((f2, 5), (f3, 3)):
        for _ in range(rounds):
            g = genutil.random_minimal_code(rng, fld, k_max=2, gamma_max=3)
            l_max = 6
            res = survey(g, l_max)
            omega_t, phi_t = spectrum_tables(g, l_max)
            assert res.atomic == omega_t
            assert res.molecular == phi_t


def test_gap_bound(g213, g1):
    assert survey(g213, 11).gap_bound_ok
    res = survey(g1, 6)
    assert res.gap_bound_ok
    assert res.gap_violation is None


def test_gap_bound_block_code():
    # delta = 0: every word is single-step, so no zero run can occur
    path = pathlib.Path(__file__).resolve().parent.parent / "demos" / "codes" / "block.gm"
    res = survey(parse_gm(path.read_text()), 3)
    assert res.gap_bound == 0
    assert res.gap_bound_ok


def test_max_zero_run_scanner():
    word = ((1, 0), (0, 0), (0, 0), (1, 1), (0, 0), (1, 0))
    assert _max_zero_run(word) == 2
    assert _max_zero_run(((1, 1), (1, 0))) == 0
    # a synthetic word violating a bound of 2 is detected by the same scan
    assert _max_zero_run(((1, 0), (0, 0), (0, 0), (0, 0), (1, 0))) > 2


def test_budget_guard(g213):
    with pytest.raises(LimitError):
        survey(g213, 11, budget=10)


def test_transition_rows_are_made_for_visited_states_only(monkeypatch, f2):
    # memory 16 has 2^16 register states, but a survey to length 17 walks one
    # word through 16 of them; a full table would take 2^16 + 2 products
    g = pm(f2, [[[1] + [0] * 15 + [1], [1, 1] + [0] * 14 + [1]]])
    calls = []
    real = oracle_mod.polyalg.vec_mat
    monkeypatch.setattr(
        oracle_mod.polyalg, "vec_mat", lambda *args: calls.append(1) or real(*args)
    )
    assert survey(g, 17).words == 1
    assert len(calls) <= 20


def test_requires_minimal(f2):
    with pytest.raises(ValueError):
        survey(pm(f2, [[[1], [1]], [[0, 1], [0, 1]]]), 4)
    with pytest.raises(ValueError):
        survey(pm(f2, [[[1, 1], [1, 1]]]), 4)  # non-basic


def test_classifier_disagreement_is_fatal(monkeypatch, g213):
    # sabotage the register so the state criterion disagrees with splitting
    real = controller_form(g213)
    broken = dataclasses.replace(
        real, B=tuple(tuple(0 for _ in row) for row in real.B)
    )
    monkeypatch.setattr(oracle_mod, "controller_form", lambda g: broken)
    with pytest.raises(RuntimeError, match="disagree"):
        survey(g213, 5)


def test_survey_keeps_one_int_per_word(f2):
    # k=2 n=3, rows (1, z, 1) and (0, 1, 1): l_max 5 and 6 meet 384 and 1536
    # words, and the peak may grow by no more than one packed int per word
    g = pm(f2, [[[1], [0, 1], [1]], [[0], [1], [1]]])
    survey(g, 2)  # warm up the imports and the field's caches

    def peak(l_max):
        tracemalloc.start()
        try:
            words = survey(g, l_max).words
            return words, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (w5, p5), (w6, p6) = peak(5), peak(6)
    assert (w5, w6) == (384, 1536)
    assert (p6 - p5) / (w6 - w5) <= 200
