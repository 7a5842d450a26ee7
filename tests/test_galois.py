import itertools
import random

import pytest

from convcode import field_make
from convcode.galois import FieldSpec, default_modulus, is_prime


def brute_log_table(fld):
    """Discrete-log table built by exhaustive repeated multiplication,
    independent of the field's internal exp/log construction."""
    # find a generator by brute force
    for g in range(2, fld.q):
        seen = {1}
        val = g
        while val != 1:
            seen.add(val)
            val = fld._mul_raw(val, g)
        if len(seen) == fld.q - 1:
            break
    logs = {}
    val = 1
    for e in range(fld.q - 1):
        logs[val] = (g, e)
        val = fld._mul_raw(val, g)
    return logs


def test_prime_field_basics():
    f2 = field_make(2)
    assert f2.add(1, 1) == 0
    assert f2.mul(1, 1) == 1
    assert f2.neg(1) == 1
    f5 = field_make(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(3) == 2
    assert f5.pow(2, 4) == 1


def test_f16_matches_documented_generator_relation():
    f16 = field_make(2, 4)
    # modulus defaults to x^4 + x + 1, so a^4 = a + 1: mul(2,2,2,2) = 3
    assert f16.modulus == (1, 1, 0, 0, 1)
    assert f16.modulus_encoding == 19
    acc = 2
    for _ in range(3):
        acc = f16.mul(acc, 2)
    assert acc == 3


def test_f16_pow_against_exhaustive_log_oracle():
    f16 = field_make(2, 4)
    logs = brute_log_table(f16)
    g, _ = logs[2]
    # check pow on every element and exponent via the independent table
    for a in range(1, 16):
        _, e = logs[a]
        for exp in range(-3, 20):
            expected = 1
            total = (e * exp) % 15
            for _ in range(total):
                expected = f16._mul_raw(expected, g)
            assert f16.pow(a, exp) == expected
    assert f16.pow(2, 5) == 6  # a^5 = a^2 + a


def test_f16_inverse_by_exhaustive_search():
    f16 = field_make(2, 4)
    for a in range(1, 16):
        found = [b for b in range(1, 16) if f16.mul(a, b) == 1]
        assert found == [f16.inv(a)]
    assert f16.inv(2) == 9  # a * (a^3 + 1) = a^4 + a = 1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (2, 4), (3, 2)])
def test_field_axioms_exhaustive(p, m):
    fld = field_make(p, m)
    elems = list(fld.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert fld.add(a, b) == fld.add(b, a)
        assert fld.mul(a, b) == fld.mul(b, a)
        assert fld.add(a, fld.neg(a)) == 0
        assert fld.mul(a, 1) == a
        assert fld.add(a, 0) == a
    for a, b, c in itertools.product(elems, repeat=3):
        assert fld.add(fld.add(a, b), c) == fld.add(a, fld.add(b, c))
        assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))


EXTENSIONS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (2, 8)]


@pytest.mark.parametrize("p,m", EXTENSIONS, ids=[f"F{p**m}" for p, m in EXTENSIONS])
def test_tables_match_table_free_product(p, m, monkeypatch):
    # exp/log are filled during one walk per candidate generator: on F256, x
    # has order 51 and x + 1 is the first generator, so 51 + 255 products
    calls = []
    raw = FieldSpec._mul_raw

    def counted(self, a, b):
        calls.append((a, b))
        return raw(self, a, b)

    monkeypatch.setattr(FieldSpec, "_mul_raw", counted)
    fld = field_make(p, m)
    monkeypatch.undo()
    if fld.q == 256:
        assert len(calls) == 51 + 255
        rng = random.Random(256)
        pairs = [(rng.randrange(256), rng.randrange(256)) for _ in range(4000)]
    else:
        pairs = itertools.product(fld.elements(), repeat=2)
    for a, b in pairs:
        assert fld.mul(a, b) == fld._mul_raw(a, b)
    for a in fld.units():
        assert fld._mul_raw(a, fld.inv(a)) == 1
        power = 1
        for e in range(fld.q if fld.q < 256 else 8):
            assert fld.pow(a, e) == power
            assert fld.pow(a, -e) == fld.inv(power)
            power = fld._mul_raw(power, a)


@pytest.mark.parametrize("p,m", [(2, 4), (5, 1), (3, 3)])
def test_units_and_bijection(p, m):
    fld = field_make(p, m)
    for a in fld.units():
        assert fld.mul(a, fld.inv(a)) == 1
        assert fld.pow(a, fld.q - 1) == 1
        image = {fld.mul(x, a) for x in fld.elements()}
        assert image == set(fld.elements())


def test_default_moduli_fixed():
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 3) == (1, 1, 0, 1)
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert default_modulus(2, 8) == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert default_modulus(3, 2) == (1, 0, 1)


def test_digit_encoding_round_trip():
    f27 = field_make(3, 3)
    for a in f27.elements():
        assert f27.from_coeffs(f27.coeffs(a)) == a
    assert f27.coeffs(5) == (2, 1, 0)


def test_construction_errors():
    with pytest.raises(ValueError):
        field_make(4)  # not prime
    with pytest.raises(ValueError):
        field_make(2, 2, [0, 1, 1])  # x^2 + x = x(x+1)
    with pytest.raises(ValueError):
        field_make(2, 2, [1, 1])  # wrong degree
    with pytest.raises(ValueError):
        field_make(2, 9)  # 512 > ceiling
    with pytest.raises(ValueError):
        field_make(2, 1, [1, 1])  # prime fields carry no modulus


def test_operand_range_checks():
    f4 = field_make(2, 2)
    with pytest.raises(ValueError):
        f4.add(1, 4)
    with pytest.raises(ValueError):
        f4.mul(-1, 2)
    with pytest.raises(ZeroDivisionError):
        f4.inv(0)
    with pytest.raises(ZeroDivisionError):
        f4.pow(0, -1)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
