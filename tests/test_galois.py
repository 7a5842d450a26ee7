import hashlib
import itertools
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from convcode import field_make
from convcode.cli import parse_gm
from convcode.galois import MAX_ORDER, FieldSpec, default_modulus, is_prime

import genutil


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
    assert genutil.field_pow(f5, 2, 4) == 1


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
            assert genutil.field_pow(f16, a, exp) == expected
    assert genutil.field_pow(f16, 2, 5) == 6  # a^5 = a^2 + a


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
    # has order 51 and x + 1 is the first generator, so 51 + 255 products.
    # field_make interns, so the count is taken on the uncached constructor
    calls = []
    raw = FieldSpec._mul_raw

    def counted(self, a, b):
        calls.append((a, b))
        return raw(self, a, b)

    monkeypatch.setattr(FieldSpec, "_mul_raw", counted)
    fld = FieldSpec(p, m, default_modulus(p, m))
    monkeypatch.undo()
    shared = field_make(p, m)
    assert fld == shared and (fld._exp, fld._log) == (shared._exp, shared._log)
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
            assert genutil.field_pow(fld, a, e) == power
            assert genutil.field_pow(fld, a, -e) == fld.inv(power)
            power = fld._mul_raw(power, a)


def digit_sum(p, a, b):
    """a + b in F_{p^m}: base-p digits added mod p, without the field's tables."""
    out, scale = 0, 1
    while a or b:
        out += (a % p + b % p) % p * scale
        a, b, scale = a // p, b // p, scale * p
    return out


ADDITION_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (251, 1)] + EXTENSIONS


@pytest.mark.parametrize("p,m", ADDITION_FIELDS, ids=[f"F{p**m}" for p, m in ADDITION_FIELDS])
def test_addition_tables_match_digit_sum(p, m):
    fld = field_make(p, m)
    q = fld.q
    if q <= 64:
        pairs = itertools.product(fld.elements(), repeat=2)
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(4000)]
    for a, b in pairs:
        assert fld.add(a, b) == digit_sum(p, a, b)
        assert digit_sum(p, fld.sub(a, b), b) == a
    for a in fld.elements():
        assert digit_sum(p, a, fld.neg(a)) == 0


@pytest.mark.parametrize("p,m", [(2, 4), (5, 1), (3, 3)])
def test_units_and_bijection(p, m):
    fld = field_make(p, m)
    for a in fld.units():
        assert fld.mul(a, fld.inv(a)) == 1
        assert genutil.field_pow(fld, a, fld.q - 1) == 1
        image = {fld.mul(x, a) for x in fld.elements()}
        assert image == set(fld.elements())


def test_default_moduli_fixed():
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 3) == (1, 1, 0, 1)
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert default_modulus(2, 8) == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    assert default_modulus(3, 2) == (1, 0, 1)


CONSTRUCTION_ERRORS = [
    ((4,), "p=4 is not prime"),
    ((2, 2, [0, 1, 1]), "modulus is reducible over the prime field"),  # x^2 + x = x(x+1)
    ((2, 2, [1, 1]), "modulus must be monic of degree 2"),  # wrong degree
    ((2, 9), "field order 2^9 exceeds the ceiling 256"),  # 512 > ceiling
    ((2, 1, [1, 1]), "prime fields take no modulus"),
]


def test_construction_errors():
    # errors are not interned: with F4 and F2, the valid fields of the rejected
    # (p, m), built first, every rejection raises the same message on every call
    field_make(2, 2), field_make(2)
    for args, message in CONSTRUCTION_ERRORS:
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                field_make(*args)


def test_field_make_interns_one_object_per_field():
    f16 = field_make(2, 4)
    assert field_make(2, 4) is f16
    assert field_make(2, 4, [1, 1, 0, 0, 1]) is f16
    assert parse_gm("field p=2 m=4 modulus=19\nk=1 n=2\n1 ; 1\n").field is f16
    assert field_make(5) is field_make(5, 1)
    assert field_make(2, 4, [1, 0, 0, 1, 1]) is not f16  # x^4 + x^3 + 1: another field
    # the shared tables cannot be mutated
    assert isinstance(f16._exp, tuple) and isinstance(f16._log, tuple)
    assert isinstance(f16.add_table, bytes) and isinstance(f16._neg, bytes)


def test_field_make_refuses_modulus_coefficients_outside_the_prime_field():
    # reduced mod p, [5, 3, 1] and [1, 1, 3] would both name x^2 + x + 1
    for modulus in ([5, 3, 1], [1, 1, 3], [1, -1, 1], (3, 1, 0, 0, 1)):
        with pytest.raises(ValueError, match=r"^modulus coefficients must lie in 0\.\.1$"):
            field_make(2, len(modulus) - 1, modulus)


def test_import_builds_no_field():
    probe = ("import convcode.cli; from convcode import galois; "
             "print(galois._interned.cache_info().currsize, "
             "galois.default_modulus.cache_info().currsize)")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "0 0\n"


def brute_generator(p, m):
    """Smallest element of multiplicative order q - 1, by walking its powers
    with the table-free product."""
    fld = FieldSpec(p, m, default_modulus(p, m) if m > 1 else None)
    mul = fld._mul_raw if m > 1 else (lambda a, b: a * b % p)
    for g in range(1, fld.q):
        x, order = g, 1
        while x != 1:
            x, order = mul(x, g), order + 1
        if order == fld.q - 1:
            return g


GENERATOR_FIELDS = EXTENSIONS + [(2, 1), (3, 1), (7, 1), (23, 1), (251, 1)]


@pytest.mark.parametrize("p,m", GENERATOR_FIELDS, ids=[f"F{p**m}" for p, m in GENERATOR_FIELDS])
def test_generator_is_smallest_of_full_order(p, m):
    assert field_make(p, m).generator == brute_generator(p, m)


def test_operand_range_checks():
    f4 = field_make(2, 2)
    with pytest.raises(ValueError):
        f4.add(1, 4)
    with pytest.raises(ValueError):
        f4.mul(-1, 2)
    with pytest.raises(ZeroDivisionError):
        f4.inv(0)
    with pytest.raises(ZeroDivisionError):
        genutil.field_pow(f4, 0, -1)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_default_fields_are_pinned():
    # the modulus, generator, exp table and addition table of every default
    # field with q <= MAX_ORDER, in order of (p, m), under one digest
    digest, count = hashlib.sha256(), 0
    for p in filter(is_prime, range(2, MAX_ORDER + 1)):
        m = 1
        while p**m <= MAX_ORDER:
            fld = field_make(p, m)
            digest.update(repr((p, m, fld.modulus, fld.generator)).encode())
            digest.update(bytes(fld._exp) + fld.add_table)
            count, m = count + 1, m + 1
    assert count == 70
    assert digest.hexdigest() == "d577e4e353238731fe8cab46e16580da30026e97755b924a1d82b185dcb24ef3"


def monic_products(p, m):
    """Every monic polynomial of degree m over F_p (low degree first) that is
    a product of two monic factors of positive degree."""
    monics = lambda d: [low + (1,) for low in itertools.product(range(p), repeat=d)]
    out = set()
    for d in range(1, m // 2 + 1):
        for a, b in itertools.product(monics(d), monics(m - d)):
            prod = [0] * (m + 1)
            for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
            out.add(tuple(prod))
    return out


SMALL_EXTENSIONS = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]


@pytest.mark.parametrize("p,m", SMALL_EXTENSIONS, ids=[f"F{p**m}" for p, m in SMALL_EXTENSIONS])
def test_field_make_accepts_exactly_the_irreducible_moduli(p, m):
    reducible = monic_products(p, m)
    accepted = 0
    for low in itertools.product(range(p), repeat=m):
        mod = low + (1,)
        if mod in reducible:
            with pytest.raises(ValueError, match="^modulus is reducible over the prime field$"):
                field_make(p, m, mod)
        else:
            assert field_make(p, m, mod).modulus == mod
            accepted += 1
    # Gauss's count of the monic irreducibles of degree m
    assert accepted == {2: p**2 - p, 3: p**3 - p, 4: p**4 - p**2, 5: p**5 - p}[m] // m


def test_default_modulus_refuses_degree_zero():
    with pytest.raises(ValueError):
        default_modulus(2, 0)


def test_zero_to_the_zero_is_one():
    for p, m in ((2, 1), (3, 1), (2, 4)):
        fld = field_make(p, m)
        assert genutil.field_pow(fld, 0, 0) == 1 and genutil.field_pow(fld, 0, 3) == 0
        with pytest.raises(ZeroDivisionError):
            genutil.field_pow(fld, 0, -1)
