"""Independent arithmetic for the benchmark's corpus generator and checks.

Binary fields F_{2^m} (m = 1, 2, 3, 4, 8) with elements encoded as bit
masks in the polynomial basis, which is the encoding the `.gm` format uses
for p = 2.  Polynomials over a field are lists of elements, low degree
first, without trailing zeros.  Nothing here imports `convcode`: the checks
built on it must not share code with the program they check.
"""

from __future__ import annotations

# Irreducible moduli as bit masks, the same polynomials the .gm files name.
MODULI = {1: None, 2: 0b111, 3: 0b1011, 4: 0b10011, 8: 0b100011011}


class GF:
    """F_{2^m} with log/antilog tables; add is xor."""

    def __init__(self, m: int):
        self.m = m
        self.q = 1 << m
        self.modulus = MODULI[m]
        q = self.q
        self.log = [0] * q
        self.exp = [0] * (2 * q)
        if m == 1:
            self.exp[0] = self.exp[1] = 1
            return
        gen = next(g for g in range(2, q) if self._order(g) == q - 1)
        val = 1
        for i in range(q - 1):
            self.exp[i] = self.exp[i + q - 1] = val
            self.log[val] = i
            val = self._mul_slow(val, gen)

    def _mul_slow(self, a: int, b: int) -> int:
        out = 0
        while b:
            if b & 1:
                out ^= a
            b >>= 1
            a <<= 1
            if a & self.q:
                a ^= self.modulus
        return out

    def _order(self, g: int) -> int:
        val, order = g, 1
        while val != 1:
            val = self._mul_slow(val, g)
            order += 1
        return order

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        if self.m == 1:
            return 1
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("0 has no inverse")
        if self.m == 1:
            return 1
        return self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)]

    def header(self) -> str:
        """The `field` line of a .gm file for this field."""
        if self.m == 1:
            return "field p=2 m=1"
        return f"field p=2 m={self.m} modulus={self.modulus}"


# -- polynomials -------------------------------------------------------------


def trim(a: list[int]) -> list[int]:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def padd(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] ^= c
    return trim(out)


def pmul(f: GF, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] ^= f.mul(x, y)
    return trim(out)


def pmod(f: GF, a: list[int], b: list[int]) -> list[int]:
    a = trim(a)
    inv_lead = f.inv(b[-1])
    while len(a) >= len(b):
        factor = f.mul(a[-1], inv_lead)
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] ^= f.mul(factor, c)
        a = trim(a)
    return a


def pgcd(f: GF, a: list[int], b: list[int]) -> list[int]:
    a, b = trim(a), trim(b)
    while b:
        a, b = b, pmod(f, a, b)
    return a


def minors(f: GF, rows: list[list[list[int]]]) -> list[list[int]]:
    """Maximal minors of a 1 x n or 2 x n polynomial matrix."""
    if len(rows) == 1:
        return [trim(e) for e in rows[0]]
    if len(rows) != 2:
        raise ValueError("minors are implemented for k <= 2")
    n = len(rows[0])
    return [
        padd(pmul(f, rows[0][a], rows[1][b]), pmul(f, rows[0][b], rows[1][a]))
        for a in range(n)
        for b in range(a + 1, n)
    ]


def rank(f: GF, mat: list[list[int]]) -> int:
    """Rank of a constant matrix by Gaussian elimination."""
    rows = [list(r) for r in mat]
    r = 0
    for j in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = f.inv(rows[r][j])
        for i in range(len(rows)):
            if i != r and rows[i][j]:
                c = f.mul(rows[i][j], inv)
                rows[i] = [x ^ f.mul(c, y) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r
