"""Weight enumerators, the adjacency matrix and the weight distribution.

A WeightEnum, a polynomial in the weight marker W, is stored in one
canonical form, the tuple of its nonzero (weight, count) pairs by
increasing weight, made once and read as it is by every comparison, key
and rendering.  The adjacency matrix Lambda of a state diagram counts
edges by (source, destination, output weight), the zero self-transition
at the zero state excluded.  It is stored sparse, with a table of its
cells: per source state, the (destination, cell id) pairs of its nonzero
cells, and per cell id one WeightEnum.  A diagram has far
fewer distinct enumerators than nonzero cells (the F16 example: 4 for
1,048,575), so every per-cell step of a consumer (packing, interning,
rendering) runs once per table entry.  `adjacency` makes the cells of
Lambda and Q in C-level passes over the runs of `statediag._blocks`,
tallying in Python only the rows that repeat a destination.  A dense
s x s view is expanded, one row at a time, only for display and JSON.
`conjugates` is the one comparison of two matrices' cells, in O(cells),
for `AdjMatrix.__eq__` and `invariance.gen_adj_equal` alike.

Powers of Lambda count paths; the generating series

    Phi = 1 + sum_l (Lambda^l)_{0,0} L^l        (molecular codewords)
    Omega = 1 - Phi^{-1}                        (atomic codewords)

are truncated series in L with WeightEnum coefficients.  Phi iterates
the first row of Lambda^l as a list by state, every enumerator packed
into one integer (W -> 2^b); with a source's cells grouped by (shift,
quotient), a step costs one shifted multiple per group and one add per
nonzero cell reached, and no matrix power is ever materialized.  Only
(Lambda^l)_{0,0} is read, so Phi may iterate the lumped matrix Q of the
diagram's F_q^* orbit quotient (`statediag.build(cf, lumped=True)`) in
place of Lambda.  Omega runs Omega_l = Phi_l - sum_{0<j<l} Omega_j
Phi_{l-j} on the integers `phi_series` alone hands over, in `_packed`, at
its one width: for row counts up to R a slot of Phi_l is at most R^l, and
while every Omega_j >= 0 a slot of the sum is at most (l - 1) R^l <
2^(bitlen(T) + T * bitlen(R - 1)), so one guard bit on top makes b =
T * bitlen(R - 1) + bitlen(T) + 1.  Free distance, extended row distances
and active burst distances are read off Omega and Phi.
"""

from __future__ import annotations

import operator
from collections import deque
from itertools import chain, compress, count, islice, repeat
from typing import Iterator, NamedTuple, Optional, Sequence

from . import statediag
from .errors import InternalError, LimitError, check_limit
from .statediag import StateDiagram

SERIES_BITS = 1 << 33  # bits of phi_series' packed state vector, ~1 GB
OMEGA_BITS = 1 << 32  # operand bits of omega_series' products, a few seconds


def default_truncation(gamma: int) -> int:
    return 4 * gamma + 8


class WeightEnum:
    """Integer-coefficient polynomial in W, stored as its nonzero (weight, count) pairs by weight."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = tuple(sorted((a, c) for a, c in dict(terms).items() if c)) if terms else ()

    @classmethod
    def zero(cls) -> "WeightEnum":
        return cls()

    @classmethod
    def one(cls) -> "WeightEnum":
        return cls({0: 1})

    def terms(self) -> tuple[tuple[int, int], ...]:
        """The stored (weight, count) pairs; usable as a canonical key."""
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeightEnum) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __add__(self, other: "WeightEnum") -> "WeightEnum":
        out = dict(self._terms)
        for a, c in other._terms:
            out[a] = out.get(a, 0) + c
        return WeightEnum(out)

    def __sub__(self, other: "WeightEnum") -> "WeightEnum":
        return self + WeightEnum({a: -c for a, c in other._terms})

    def __mul__(self, other: "WeightEnum") -> "WeightEnum":
        out: dict[int, int] = {}
        for a, c in self._terms:
            for b, d in other._terms:
                key = a + b
                out[key] = out.get(key, 0) + c * d
        return WeightEnum(out)

    def min_weight(self) -> Optional[int]:
        return self._terms[0][0] if self._terms else None

    def max_weight(self) -> Optional[int]:
        return self._terms[-1][0] if self._terms else None

    def count(self) -> int:
        """Sum of all coefficients (number of counted objects)."""
        return sum(c for _, c in self._terms)

    def nonzero_terms(self) -> int:
        return len(self._terms)

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for _, c in self._terms)

    def __str__(self) -> str:
        parts = []
        for a, c in self._terms:
            if a == 0:
                parts.append(str(c))
            else:
                w = "W" if a == 1 else f"W^{a}"
                parts.append(w if c == 1 else f"{c}{w}")
        return " + ".join(parts) or "0"

    __repr__ = __str__


class AdjMatrix:
    """Square matrix of weight enumerators indexed by state, stored sparse.

    `rows[i]` lists the nonzero entries of row i as (destination, cell id)
    pairs in increasing destination order, and `cells[t]` is the WeightEnum
    of cell id t; the constructor takes them in that form, and they are the
    only stored form; equal (destination, id) entries may be shared.  Equal
    cells may share an id, so a consumer does its per-cell work once per
    entry of `cells`.  Ids are local to one matrix: `==` is `conjugates`
    with the identity once size, q, n and `extended` agree, and is False
    when either matrix has a row that repeats a destination.  `entries`, a
    dense view rebuilt on every access, serves tests and counters;
    rendering reads `dense`.
    """

    __slots__ = ("rows", "cells", "q", "n", "extended")

    def __init__(self, rows, cells, q: int, n: int, extended: bool = False):
        self.rows = tuple(map(tuple, rows))
        self.cells = tuple(cells)
        self.q = q
        self.n = n
        self.extended = extended

    @property
    def size(self) -> int:
        return len(self.rows)

    def dense(self, values: Sequence, zero) -> Iterator[list]:
        """The s rows of length s, one at a time, with values[t] at each cell
        of id t and `zero` elsewhere."""
        for sparse in self.rows:
            row = [zero] * len(self.rows)
            for j, t in sparse:
                row[j] = values[t]
            yield row

    @property
    def entries(self) -> tuple[tuple[WeightEnum, ...], ...]:
        """Dense s x s view sharing the table's enumerators, rebuilt on every access."""
        return tuple(map(tuple, self.dense(self.cells, WeightEnum.zero())))

    def __eq__(self, other: object) -> bool:
        key = lambda m: (m.size, m.q, m.n, m.extended)
        return (isinstance(other, AdjMatrix) and key(self) == key(other)
                and conjugates(self, other, range(self.size)))

    def lines(self) -> Iterator[str]:
        """The lines of str(self), one per row, each joined from the text of
        its cells, rendered once per cell id."""
        text = [str(e) for e in self.cells]
        for row in self.dense(text, "0"):
            yield "[" + ", ".join(row) + "]"

    def __str__(self) -> str:
        return "\n".join(self.lines())


def conjugates(a: AdjMatrix, b: AdjMatrix, pi: Sequence[int]) -> bool:
    """Whether b[pi(i)][pi(j)] == a[i][j] for every cell, with pi a
    permutation of the states and pi(0) == 0, in O(cells); False when the
    sizes differ.  A table entry takes the id of a's first entry with its
    terms(), the canonical key (b's others get -1); each row of a, mapped
    by pi, is then taken out of a {destination: id} dict of b's row of one
    length, entry by entry up to the first difference, so a destination
    repeated in either row is a difference."""
    if a.size != b.size or pi[0] != 0 or len(pi) != a.size or set(pi) != set(range(a.size)):
        return False
    first: dict[tuple, int] = {}
    ids_a = [first.setdefault(e.terms(), t) for t, e in enumerate(a.cells)]
    ids_b = [first.get(e.terms(), -1) for e in b.cells]
    for row, p in zip(a.rows, pi):
        if len(b.rows[p]) != len(row):
            return False
        look = dict(b.rows[p])
        for j, t in row:
            u = look.pop(pi[j], None)
            if u is None or ids_b[u] != ids_a[t]:
                return False
    return True


def adjacency(sd: StateDiagram) -> AdjMatrix:
    """Lambda, or Q of a lumped diagram, off the runs of `statediag._blocks`.

    An edge's key is j * (n + 1) + wt(v): `_blocks` scales the shared
    destination rows, and wt(v) is one lookup per packed output in the
    (q, n) table of `_weigher`.  One table maps each key to the shared
    (j, id) pair of W^wt, the pairs of new keys made in one `zip` per run.
    A full `spread` diagram's rows are these runs of pairs.  Other diagrams
    sort their rows' keys, so by destination, and merge row 0 and the rows
    that repeat a destination (in Q those with xA = 0, in a non-spread
    diagram all): an edge of weight w adds 2^(w*b)
    to its cell, b = bitlen(inputs) bits holding any count, and the zero
    self-transition is never counted.  A merged cell counts q - 1 edges or
    sits at 0, so only merged rows share its pair.  Each distinct
    enumerator gets one id; equal pairs are one tuple.
    """
    s, inputs = sd.num_states, sd.field.q**sd.k
    b = inputs.bit_length()
    ids: dict[int, int] = {}  # packed enumerator -> cell id
    index = list(range(s))  # one int object per destination, shared by its pairs
    m = sd.n + 1
    unit = [1 << (w * b) for w in range(m)]  # wt -> packed W^wt
    weight = statediag._weigher(sd.field.q, sd.n)
    table: list = [None] * (s * m)  # key j * m + wt -> the pair of W^wt at j
    merged: dict[int, tuple[int, int]] = {}  # j + v * s -> the pair of merged cell v at j
    fix = sd.lumped or not sd.spread
    # about 2048 edges a block keeps its transient lists small; blocks of q^gamma
    # edges made a 64-state Lambda 8% and a 256-state one 18% slower, at the same
    # peak on 2^16 states
    per_block = (1 << 11) // inputs + 1
    rows = []
    for block, dsts, outputs in statediag._blocks(sd, per_block, m):
        keys = list(map(operator.add, chain.from_iterable(dsts), map(weight, outputs)))
        if fix:  # row 0 drops its keys 0, the weight-0 edges 0 -> 0
            flat = iter(keys)
            chunks = [tuple(filter(None, islice(flat, inputs - 1)))] if not block[0] else []
            chunks += zip(*[flat] * inputs)
            merge = list(map(operator.lt, map(len, map(set, dsts)), map(len, dsts)))
            merge[0] |= not block[0]
            plain = compress(chunks, map(operator.not_, merge))
            keys = list(chain.from_iterable(map(sorted, plain)))
        kept = set(keys)
        fresh = list(compress(kept, map(operator.not_, map(table.__getitem__, kept))))
        cells = map(ids.setdefault, map(unit.__getitem__, map(m.__rmod__, fresh)),
                    map(len, repeat(ids)))  # len(ids) read as each key's id is set
        pairs = zip(map(index.__getitem__, map(m.__rfloordiv__, fresh)), cells)
        deque(map(table.__setitem__, fresh, pairs), maxlen=0)
        flat = map(table.__getitem__, keys)
        if not fix:
            if not block[0]:  # the zero state lacks input 0
                rows.append(tuple(islice(flat, inputs - 1)))
            rows.extend(zip(*[flat] * inputs))
            continue
        made = list(zip(*[flat] * inputs))
        for at in compress(count(), merge):
            acc: dict[int, int] = {}
            for j, w in map(divmod, chunks[at], repeat(m)):
                acc[j] = acc.get(j, 0) + unit[w]
            row = [merged.setdefault(j + v * s, (index[j], ids.setdefault(v, len(ids))))
                   for j, v in sorted(acc.items())]
            made.insert(at, tuple(row))
        rows += made
    return AdjMatrix(rows, [_unpack(v, b) for v in ids], q=sd.field.q, n=sd.n)


def extend(lam: AdjMatrix) -> AdjMatrix:
    """Gamma = Lambda + E_{0,0}: include the zero self-loop."""
    if lam.extended:
        raise ValueError("matrix is already extended")
    first = dict(lam.rows[0])
    loop = lam.cells[first[0]] + WeightEnum.one() if 0 in first else WeightEnum.one()
    first[0] = len(lam.cells)
    rows = (tuple(sorted(first.items())),) + lam.rows[1:]
    return AdjMatrix(rows, lam.cells + (loop,), q=lam.q, n=lam.n, extended=True)


def row_iterate(row: Sequence[WeightEnum], lam: AdjMatrix) -> tuple[WeightEnum, ...]:
    """One step of r <- r * Lambda over the sparse rows."""
    acc: dict[int, WeightEnum] = {}
    for i, e in enumerate(row):
        if not e:
            continue
        for j, t in lam.rows[i]:
            x = e * lam.cells[t]
            acc[j] = acc[j] + x if j in acc else x
    zero = WeightEnum.zero()
    return tuple(acc.get(j, zero) for j in range(lam.size))


class LSeries:
    """Truncated power series in L with WeightEnum coefficients; `_packed` is
    None, or the (width, packed coefficients) that phi_series alone sets, at
    its one width b = T * bitlen(R - 1) + bitlen(T) + 1 (module docstring)."""

    __slots__ = ("trunc", "coeffs", "_packed")

    def __init__(self, trunc: int, coeffs: Sequence[WeightEnum]):
        if len(coeffs) != trunc + 1:
            raise ValueError("coefficient list does not match the truncation order")
        self.trunc = trunc
        self.coeffs = tuple(coeffs)
        self._packed = None

    def coeff(self, l: int) -> WeightEnum:
        return self.coeffs[l]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LSeries)
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __str__(self) -> str:
        return format_series(self)

    __repr__ = __str__


def phi_series(lam: AdjMatrix, trunc: int) -> LSeries:
    """Molecular weight distribution: coefficient l is (Lambda^l)_{0,0}.

    Enumerators are packed by Kronecker substitution, W^a -> 2^(a*b), and
    the first row of Lambda^l is iterated as a list of packed integers by
    state.  A slot counts paths of length l <= T, at most R^T <=
    2^(T * bitlen(R - 1)) for the largest row count R; the bitlen(T) + 1
    more bits of b hold `omega_series`' sum under its guard (module
    docstring), so the packed (Lambda^l)_{0,0} go to it in `_packed`.
    LimitError, before anything is packed, when a vector of weights up to
    n*T would pass SERIES_BITS, or Omega's T^2/2 products, T^2 (n*T + 1) b
    operand bits at most, would pass OMEGA_BITS.
    """
    if lam.extended:
        raise ValueError("use the plain adjacency matrix, not the extended one")
    if trunc < 1:
        raise ValueError("truncation must be >= 1")
    counts = [e.count() for e in lam.cells]
    most = max(sum(counts[t] for _, t in row) for row in lam.rows)
    width = trunc * (most - 1).bit_length() + trunc.bit_length() + 1
    check_limit(SERIES_BITS, "a packed series of {count} bits exceeds the ceiling {bound}",
                [lam.size, lam.n * trunc + 1, width])
    check_limit(OMEGA_BITS, "Omega's products of {count} operand bits exceed the ceiling {bound}",
                [trunc, trunc, lam.n * trunc + 1, width])
    packs = [_pack(e, width) for e in lam.cells]
    # per source, destinations grouped by their cell's (shift, quotient), so
    # one shifted copy of the source's value serves the whole group
    packed = []
    for row in lam.rows:
        groups: dict[tuple[int, int], list[int]] = {}
        for j, t in row:
            groups.setdefault(packs[t], []).append(j)
        packed.append(tuple(groups.items()))
    vec = [1] + [0] * (lam.size - 1)
    firsts = [1]
    for _ in range(trunc):
        nxt = [0] * lam.size
        for x, groups in zip(vec, packed):
            if x:
                for (shift, w), dsts in groups:
                    y = x << shift if w == 1 else (x * w) << shift
                    for j in dsts:
                        nxt[j] += y
        vec = nxt
        firsts.append(vec[0])
    phi = LSeries(trunc, [_unpack(x, width) for x in firsts])
    phi._packed = (width, firsts)
    return phi


def _pack(e: WeightEnum, width: int) -> tuple[int, int]:
    """(low * width, e / W^low packed) for the lowest weight `low` of e.

    Shifting and multiplying by the short quotient (usually 1) is cheaper
    than multiplying by the long packed e.
    """
    low = e.min_weight()
    out = 0
    for a, c in e._terms:
        if c < 0:
            raise ValueError("adjacency counts must be nonnegative")
        out += c << ((a - low) * width)
    return low * width, out


def _unpack(value: int, width: int) -> WeightEnum:
    """The enumerator packed in `value`, its pairs read and stored in weight
    order, from the lowest nonzero slot up."""
    mask = (1 << width) - 1
    terms = []
    a = ((value & -value).bit_length() - 1) // width if value else 0
    value >>= a * width
    while value:
        c = value & mask
        if c:
            terms.append((a, c))
        value >>= width
        a += 1
    out = WeightEnum()
    out._terms = tuple(terms)
    return out


def omega_series(phi: LSeries) -> LSeries:
    """Atomic weight distribution Omega = 1 - Phi^{-1}, Phi from `phi_series`.

    Phi = 1 + Omega * Phi gives Omega_l = Phi_l - sum_{0<j<l} Omega_j Phi_{l-j},
    run on `phi._packed`, at the width b phi_series chose (module docstring),
    with a guard bit on top of every slot, so a slot that would go negative
    clears its guard instead of borrowing from its neighbour.  Omega of a
    nonnegative Lambda counts first-return walks, so a cleared guard is a
    fault of the package, InternalError; a series phi_series did not make
    is a ValueError.
    """
    if phi._packed is None:
        raise ValueError("omega_series takes the series phi_series returns")
    width, packed = phi._packed
    slots = 2 * ((max(packed).bit_length() - 1) // width) + 1  # covers any product
    guards = ((1 << (slots * width)) - 1) // ((1 << width) - 1) << (width - 1)
    omega = [0] * len(packed)
    for l in range(1, len(packed)):
        rest = packed[l] + guards - sum(omega[j] * packed[l - j] for j in range(1, l))
        if rest & guards != guards:
            raise InternalError(f"Omega = 1 - 1/Phi has a negative coefficient at L^{l}")
        omega[l] = rest - guards
    return LSeries(phi.trunc, [_unpack(x, width) for x in omega])


class FreeDistance(NamedTuple):
    value: int
    certified: bool


def free_distance(omega: LSeries, *, atomic_gap: Optional[int] = None) -> FreeDistance:
    """Smallest weight with a nonzero atomic count within the truncation.

    `atomic_gap` is the bound m + mhat on the spacing of nonzero codeword
    coefficients in an atomic word (memory plus the right inverse's max
    row degree).  When supplied, the result is certified exact if every
    atomic word of weight <= value must have length <= the truncation,
    i.e. (value - 1) * atomic_gap + 1 <= trunc; otherwise the value is an
    upper bound only.
    """
    best = min((d for d in extended_row_distances(omega) if d is not None), default=None)
    if best is None:
        raise LimitError(
            f"free distance undetermined at truncation {omega.trunc}: "
            "no atomic codeword within range"
        )
    certified = atomic_gap is not None and (best - 1) * atomic_gap + 1 <= omega.trunc
    return FreeDistance(value=best, certified=certified)


def extended_row_distances(omega: LSeries) -> tuple[Optional[int], ...]:
    """Minimum atomic weight by codeword degree; None encodes +infinity."""
    return tuple(omega.coeffs[l + 1].min_weight() for l in range(omega.trunc))


def active_burst_distances(phi: LSeries) -> tuple[Optional[int], ...]:
    """Minimum molecular weight by codeword degree; None encodes +infinity."""
    return tuple(phi.coeffs[l + 1].min_weight() for l in range(phi.trunc))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def format_series(ls: LSeries) -> str:
    """Weight-major rendering: (L^a + 2L^b) W^alpha + ... + O(trunc)."""
    by_weight: dict[int, dict[int, int]] = {}
    for l, c in enumerate(ls.coeffs):
        for alpha, cnt in c.terms():
            by_weight.setdefault(alpha, {})[l] = cnt
    if not by_weight:
        return "0"
    parts = []
    for alpha in sorted(by_weight):
        lterms = []
        for l, cnt in by_weight[alpha].items():  # filled in increasing l
            lpow = "1" if l == 0 else ("L" if l == 1 else f"L^{l}")
            lterms.append(lpow if cnt == 1 else f"{cnt}{lpow}")
        inner = " + ".join(lterms)
        if alpha == 0:
            parts.append(inner if len(lterms) == 1 else f"({inner})")
        else:
            w = "W" if alpha == 1 else f"W^{alpha}"
            parts.append(f"{inner} {w}" if len(lterms) == 1 else f"({inner}) {w}")
    return " + ".join(parts)
