import hashlib
import pathlib
import random
import time
import tracemalloc

import pytest

import convcode.oracle as oracle_mod
from convcode import (
    adjacency,
    build,
    controller_form,
    encoder_info,
    field_make,
    omega_series,
    phi_series,
    pm,
)
from convcode.cli import main, parse_gm
from convcode.errors import LimitError
from convcode.oracle import _max_zero_run, survey

import genutil

CODES = pathlib.Path(__file__).resolve().parent.parent / "demos" / "codes"


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
    res = survey(parse_gm((CODES / "block.gm").read_text()), 3)
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


def test_requires_minimal(f2):
    with pytest.raises(ValueError):
        survey(pm(f2, [[[1], [1]], [[0, 1], [0, 1]]]), 4)
    with pytest.raises(ValueError):
        survey(pm(f2, [[[1, 1], [1, 1]]]), 4)  # non-basic


def test_classifier_disagreement_is_fatal(monkeypatch, f2, g_mixed):
    # sabotage either side, so the state criterion disagrees with splitting:
    # the packing of a word's steps, or the row degrees the register reads
    real = oracle_mod.state_index
    with monkeypatch.context() as m:
        m.setattr(oracle_mod, "state_index", lambda q, vec: real(q, vec) % 2)
        with pytest.raises(RuntimeError, match="disagree"):
            survey(g_mixed, 5)
    # g.info is a cached property, so the instance's dict holds its value
    g = pm(f2, [[[1, 1, 1, 1], [1, 0, 1, 1]]])
    g.__dict__["info"] = g.info._replace(row_degrees=(4,))
    with pytest.raises(RuntimeError, match="disagree"):
        survey(g, 9)


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


def _longest_length(g, inputs):
    # the longest length at which the budget counts at most `inputs` inputs
    l_max = 1
    while g.field.q ** sum(max(l_max + 1 - d, 0) for d in g.info.row_degrees) <= inputs:
        l_max += 1
    return l_max


def _code_with_a_constant_row(rng, fld):
    # a minimal k x n code, k <= 3 and 1 <= gamma <= 4, whose last row has degree 0
    while True:
        k = rng.randint(2, 3)
        n = rng.randint(k + 1, 4)
        degs = [rng.randint(1, 4 // (k - 1)) for _ in range(k - 1)] + [0]
        g = pm(fld, [[genutil.random_poly(rng, fld, d) for _ in range(n)] for d in degs])
        try:
            info = encoder_info(g)
        except ValueError:
            continue
        if info.is_minimal and 1 <= info.delta <= 4:
            return g


def test_surveys_are_pinned():
    # every bundled code, and minimal codes over F2 to F16 with a degree-0
    # row, each at the longest length within 3000 inputs: the tallies, the
    # first zero-run violation and the words
    codes = [parse_gm(path.read_text()) for path in sorted(CODES.glob("*.gm"))]
    rng = random.Random(29)
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (2, 4)):
        codes += [_code_with_a_constant_row(rng, field_make(p, m)) for _ in range(4)]
    digest = hashlib.sha256()
    for g in codes:
        res = survey(g, _longest_length(g, 3000))
        record = (sorted(res.atomic.items()), sorted(res.molecular.items()),
                  res.gap_violation, res.words)
        digest.update(repr(record).encode())
    assert digest.hexdigest() == "2c48ab1efc42f13cb3f51bec2b1e0a45769751238e394eb799b1866c68762682"


def test_deep_register_costs_nothing_per_cell(capsys, tmp_path):
    # (1 + z^2001, 1): two words up to length 2003, each with a register of
    # 2001 cells that the state criterion must not walk cell by cell
    path = tmp_path / "deep2001.gm"
    path.write_text(f"field p=2 m=1\nk=1 n=2\n1{' 0' * 2000} 1 ; 1\n")
    start = time.perf_counter()
    rc = main(["oracle", str(path), "--trunc", "2003"])
    elapsed = time.perf_counter() - start
    assert (rc, capsys.readouterr()) == (0, (
        "inputs enumerated: 2\n"
        "atomic: L^2002W^3 + L^2003W^6\n"
        "molecular: L^2002W^3 + L^2003W^6\n"
        "zero-run bound respected: yes\n",
        "",
    ))
    assert elapsed < 1.0


def test_survey_refuses_zero_length(g1):
    with pytest.raises(ValueError, match="l_max must be >= 1"):
        survey(g1, 0)


def test_zero_run_violation_is_reported(monkeypatch, capsys):
    # with m-hat patched so that the bound is 0, an atomic word of memory3
    # with an all-zero step violates it, and survey and the CLI say so
    path = CODES / "memory3.gm"
    g = parse_gm(path.read_text())
    assert survey(g, 6).gap_bound_ok
    real = oracle_mod.polyalg.right_inverse
    monkeypatch.setattr(oracle_mod.polyalg, "right_inverse", lambda g: (real(g)[0], 1 - g.info.memory))
    res = survey(g, 6)
    assert res.gap_bound == 0 and not res.gap_bound_ok
    assert _max_zero_run(res.gap_violation) > 0
    assert main(["oracle", str(path), "--trunc", "6"]) == 0
    assert capsys.readouterr().out.endswith("zero-run bound respected: no\n")
