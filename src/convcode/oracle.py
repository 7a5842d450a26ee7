"""Independent brute-force ground truth for the weight distribution.

One pass in order of length, one int per word.  Inputs are enumerated
directly: a minimal encoder's word ends at max(len(u_i) + deg_i), so each
length L visits the inputs of widths L - deg_i whose last step is nonzero,
and every codeword of length <= l_max appears exactly once.  Each codeword
is computed by polynomial multiplication, packed into one int and
classified twice: once by the register-state criterion and once by a
direct splitting search that asks whether each truncation is a shorter
codeword, met at an earlier length.  The register needs no simulation:
row i's block of a controller canonical form holds that row's last deg_i
input coefficients, so the register is zero at time t exactly when no row
has a nonzero input at times t - deg_i .. t - 1.  The two classifications
must agree on every word; a mismatch aborts the run, since it would
falsify the state criterion.  The budget bounds the words.  Nothing here
touches the controller form, the adjacency matrix or the series machinery.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import polyalg
from .errors import InternalError, check_limit
from .polyalg import PolyMatrix
from .statediag import state_index

DEFAULT_BUDGET = 1 << 24

Table = dict  # {(length, weight): count}


def _max_zero_run(word: tuple[tuple[int, ...], ...]) -> int:
    """Longest run of all-zero coefficient vectors inside a codeword."""
    best = run = 0
    for vec in word:
        if any(vec):
            run = 0
        else:
            run += 1
            best = max(best, run)
    return best


class OracleSurvey(NamedTuple):
    l_max: int
    atomic: Table
    molecular: Table
    gap_bound: int
    gap_violation: tuple | None
    words: int

    @property
    def gap_bound_ok(self) -> bool:
        return self.gap_violation is None


def survey(g: PolyMatrix, l_max: int, *, budget: int = DEFAULT_BUDGET) -> OracleSurvey:
    """Tally atomic and molecular codewords of length <= l_max.

    Requires a minimal generator matrix; the degree formula for minimal
    encoders makes the enumeration domain exact: row i of the input runs
    over degrees <= l_max - 1 - (row degree i), and the word's length is
    known before it is computed.
    """
    info = g.info
    if not info.is_minimal:
        raise ValueError("the enumeration domain is exact for minimal matrices only")
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    fld = g.field
    q, n = fld.q, g.n
    degs = info.row_degrees
    check_limit(budget, "{count} codeword evaluations exceed the budget {bound}",
                itertools.repeat(q, sum(max(l_max - d, 0) for d in degs)))  # input coefficients
    _, mhat = polyalg.right_inverse(g)
    gap_bound = max(info.memory + mhat - 1, 0)  # a block code's words are single-step

    base = q**n  # a word packs time t into base-q^n digit t
    seen: set[int] = set()
    atomic: Table = {}
    molecular: Table = {}
    gap_violation = None
    for length in range(1, l_max + 1):
        # the words of this length: inputs of widths length - deg_i, last step nonzero
        rows = [itertools.product(range(q), repeat=max(length - d, 0)) for d in degs]
        for u_rows in itertools.product(*rows):
            if not any(r[0] for r in u_rows if r) or not any(r[-1] for r in u_rows if r):
                continue  # codewords start at time 0, and a shorter word met its own length
            v = [polyalg.ZERO] * n
            for r, grow in zip(u_rows, g.rows):
                ui = polyalg.poly(r)
                if ui:
                    for j in range(n):
                        v[j] = polyalg.poly_add(fld, v[j], polyalg.poly_mul(fld, ui, grow[j]))
            word = tuple(tuple(polyalg.coeff(e, t) for e in v) for t in range(length))
            packed = 0
            for vec in reversed(word):
                packed = packed * base + state_index(q, vec)
            # state criterion: an input of row i at time p keeps the register
            # nonzero at times p + 1 .. p + deg_i, which end by length - 1
            busy = set()
            for r, d in zip(u_rows, degs):
                for p, c in enumerate(r):
                    if c:
                        busy.update(range(p + 1, p + d + 1))
            state_times = [t for t in range(1, length) if t not in busy]
            # splitting search: is the truncation at t a shorter codeword?  Its
            # trailing zero steps are leading zero digits, so it packs as is
            split_times = [t for t in range(1, length) if packed % base**t in seen]
            seen.add(packed)
            if state_times != split_times:
                raise InternalError(
                    "state and splitting classifications disagree on "
                    f"input {u_rows}: {state_times} vs {split_times}"
                )
            weight = sum(1 for vec in word for c in vec if c)
            if not state_times:
                atomic[(length, weight)] = atomic.get((length, weight), 0) + 1
                molecular[(length, weight)] = molecular.get((length, weight), 0) + 1
                if gap_violation is None and _max_zero_run(word) > gap_bound:
                    gap_violation = word
            elif all(any(word[t]) for t in state_times):
                molecular[(length, weight)] = molecular.get((length, weight), 0) + 1
    return OracleSurvey(
        l_max=l_max,
        atomic=atomic,
        molecular=molecular,
        gap_bound=gap_bound,
        gap_violation=gap_violation,
        words=len(seen),
    )
