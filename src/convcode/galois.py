"""Exact arithmetic in small finite fields F_q, q = p^m <= 256.

Field elements are plain Python integers in 0..q-1.  The integer encodes
the element's coordinates in the polynomial basis 1, a, a^2, ..., a^(m-1)
as base-p digits, least significant first:

    c_0 + c_1*a + ... + c_{m-1}*a^(m-1)   <->   c_0 + c_1*p + ... + c_{m-1}*p^(m-1)

so 0 is the additive identity, 1 the multiplicative identity, and the
residue class of x (written `a` above) is encoded as the integer p.

An extension field is reduced modulo a monic irreducible polynomial of
degree m over F_p.  When no modulus is given, the irreducible polynomial
with the smallest integer encoding (same digit scheme, low degree first)
is chosen.  These defaults are fixed so serialized matrices stay portable:

    (2, 2): x^2 + x + 1           encoding 7
    (2, 3): x^3 + x + 1           encoding 11
    (2, 4): x^4 + x + 1           encoding 19
    (2, 8): x^8 + x^4 + x^3 + x + 1   encoding 283
    (3, 2): x^2 + 1               encoding 10
    (3, 3): x^3 + 2x + 1          encoding 34

Every field, prime or not, holds the same tables: the addition table
add_table[a * q + b] = a + b and the negation table, both bytes filled base-p
digit by digit, and the exp/log tables of its smallest multiplicative
generator.  add, neg, sub, mul and inv check their operands and then
read the tables; none of them branches on p or m.

All operations are pure; a FieldSpec is immutable after construction and
safe for unrestricted concurrent use.  `field_make` interns its result: each
distinct field (p, m, modulus) is built on first use, once per process, and
every later call returns the same object.  A field holds q^2 + q bytes plus
3q - 2 exp/log entries, 64 KB for F256; the 404 fields with q <= MAX_ORDER
would hold about 11 MB if all were built, so the interned set needs no
eviction.  Importing the package builds no field.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional, Sequence

MAX_ORDER = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(value: int, p: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return tuple(out)


def _pack(digits: Iterable[int], p: int) -> int:
    value = 0
    for d in reversed(list(digits)):
        value = value * p + d
    return value


def _fp_poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> list[int]:
    """num mod den over F_p for a monic den, as deg den coefficients, low
    degree first (high zeros kept); num must be at least that long."""
    rem, d = list(num), len(den) - 1
    for shift in range(len(rem) - 1 - d, -1, -1):
        factor = rem[shift + d]
        if factor:
            for i, c in enumerate(den):
                rem[shift + i] = (rem[shift + i] - factor * c) % p
    return rem[:d]


def _fp_poly_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial division of a monic polynomial by every monic one of degree 1..deg/2."""
    m = len(coeffs) - 1
    for d in range(1, m // 2 + 1):
        for low in range(p**d):
            if not any(_fp_poly_mod(coeffs, _digits(low, p, d) + (1,), p)):
                return False
    return True


@functools.cache
def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m over F_p with the smallest encoding."""
    check_field(p, m)
    for low in range(p**m):
        cand = _digits(low, p, m) + (1,)
        if _fp_poly_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {m} over F_{p}")  # pragma: no cover


class FieldSpec:
    """Arithmetic of F_q for q = p^m, read off tables that every field holds.

    Construct through :func:`field_make`.  Elements are ints 0..q-1.
    """

    def __init__(self, p: int, m: int, modulus: Optional[tuple[int, ...]]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus  # None for prime fields
        self._build_sums()
        self._build_powers()

    # -- construction helpers ------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Polynomial-basis multiplication without tables (table bootstrap)."""
        p, m = self.p, self.m
        if m == 1:
            return a * b % p
        da = _digits(a, p, m)
        db = _digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        return _pack(_fp_poly_mod(prod, self.modulus, p), p)

    def _build_sums(self) -> None:
        """add_table[a * q + b] = a + b and _neg[a] = -a, base-p digit by digit:
        the high digits come from the entry of a // p and b // p, filled earlier."""
        p, q = self.p, self.q
        add, neg = bytearray(q * q), bytearray(q)
        for a in range(q):
            neg[a] = neg[a // p] * p + (-a) % p
            high = a // p * q
            for b in range(q):
                add[a * q + b] = add[high + b // p] * p + (a + b) % p
        self.add_table, self._neg = bytes(add), bytes(neg)

    def _build_powers(self) -> None:
        """exp/log of the smallest generator of F_q^*, filled while its powers
        are walked; a candidate whose powers return to 1 early is dropped, and
        the generator's walk overwrites every entry it left.  The walk starts
        at 2, as 1 has order 1 < q - 1, except in F_2 where 1 generates."""
        q = self.q
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        for g in range(min(2, q - 1), q):
            val = 1
            for i in range(q - 1):
                exp[i] = exp[i + q - 1] = val
                log[val] = i
                val = self._mul_raw(val, g)
                if val == 1:
                    break
            if val == 1 and i == q - 2:  # order q - 1
                break
        else:  # pragma: no cover - the modulus is checked irreducible first
            raise ValueError("no multiplicative generator found")
        self._exp = tuple(exp)
        self._log = tuple(log)

    @property
    def generator(self) -> int:
        """The generator of F_q^* with the smallest encoding."""
        return self._exp[1]  # the tables are powers of the smallest generator

    # -- basic queries -------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        """Nonzero elements."""
        return range(1, self.q)

    @property
    def modulus_encoding(self) -> Optional[int]:
        if self.modulus is None:
            return None
        return _pack(self.modulus, self.p)

    def _check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element of {self!r}")
        return a

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        return self.add_table[a * self.q + b]

    def neg(self, a: int) -> int:
        return self._neg[self._check(a)]

    def sub(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        return self.add_table[a * self.q + self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[(self.q - 1) - self._log[a]]

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"F{self.q}"


def check_field(p: int, m: int) -> None:
    """Reject (p, m) unless p is prime and p^m <= MAX_ORDER.

    The bounds come before any work that grows with p or m: trial division
    only sees p <= MAX_ORDER, and p^m is only computed for m small enough
    that 2^m <= MAX_ORDER.
    """
    if not 2 <= p <= MAX_ORDER:
        raise ValueError(f"field characteristic p={p} is outside 2..{MAX_ORDER}")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if m < 1:
        raise ValueError(f"extension degree m={m} must be >= 1")
    if m >= MAX_ORDER.bit_length() or p**m > MAX_ORDER:
        raise ValueError(f"field order {p}^{m} exceeds the ceiling {MAX_ORDER}")


def field_make(p: int, m: int = 1, modulus: Optional[Iterable[int]] = None) -> FieldSpec:
    """Construct F_{p^m}, or return the one already built for these arguments.

    `modulus` is a coefficient list of a monic degree-m polynomial over F_p,
    low degree first; omitted, the documented default is used.  Rejected:
    non-prime p, q above MAX_ORDER, reducible or non-monic moduli.  The
    argument checks run on every call; only the irreducibility test and the
    tables are interned, keyed by (p, m, resolved modulus).
    """
    check_field(p, m)
    if m == 1:
        if modulus is not None:
            raise ValueError("prime fields take no modulus")
        return _interned(p, 1, None)
    if modulus is None:
        return _interned(p, m, default_modulus(p, m))
    mod = tuple(int(c) for c in modulus)
    if not all(0 <= c < p for c in mod):
        raise ValueError(f"modulus coefficients must lie in 0..{p - 1}")
    if len(mod) != m + 1 or mod[-1] != 1:
        raise ValueError(f"modulus must be monic of degree {m}")
    return _interned(p, m, mod)


@functools.cache
def _interned(p: int, m: int, mod: Optional[tuple[int, ...]]) -> FieldSpec:
    """The one FieldSpec per field; a reducible modulus raises and is not kept."""
    if mod is not None and not _fp_poly_irreducible(mod, p):
        raise ValueError("modulus is reducible over the prime field")
    return FieldSpec(p, m, mod)
