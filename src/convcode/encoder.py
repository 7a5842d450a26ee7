"""Controller canonical form (A, B, C, D) and shift-register simulation.

For a generator matrix with row degrees g_1..g_k and their sum gamma,
A is the gamma x gamma block matrix of upper-shift blocks (one per nonzero
row degree), B marks each block's first column (zero rows for degree-0
rows), C stacks the coefficient rows at powers z^1..z^(g_i), and D is the
matrix value at z = 0.  A constant matrix (a block code) has gamma = 0:
A and C have no rows, B has k empty rows and D = G.  The register recursion

    x_{t+1} = x_t A + u_t B,   v_t = x_t C + u_t D,   x_0 = 0

reproduces v = uG exactly; classification of a codeword (atomic /
tightly concatenated / loosely concatenated) reads off the times at which
the state returns to zero.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import polyalg
from .errors import InternalError
from .galois import FieldSpec
from .polyalg import Poly, PolyMatrix, coeff, deg

ATOMIC = "atomic"
MOLECULAR_TIGHT = "molecular-tight"
CONCATENATED_LOOSE = "concatenated-loose"


class ControllerForm(NamedTuple):
    field: FieldSpec
    A: tuple[tuple[int, ...], ...]
    B: tuple[tuple[int, ...], ...]
    C: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    block_degrees: tuple[int, ...]
    gamma: int
    generator: PolyMatrix
    minimal: bool

    @property
    def k(self) -> int:
        return self.generator.k

    @property
    def n(self) -> int:
        return self.generator.n

    @property
    def memory(self) -> int:
        return max(self.block_degrees)


def controller_form(g: PolyMatrix, *, require_minimal: bool = True) -> ControllerForm:
    """Assemble (A, B, C, D) from a generator matrix.

    With `require_minimal` (the default) the input must be basic and
    minimal; the relaxed form is used for catastrophicity diagnostics on
    arbitrary full-rank matrices.
    """
    info = g.info
    if require_minimal and not info.is_minimal:
        raise ValueError("generator matrix is not minimal; row-reduce it first")
    degs = info.row_degrees
    gamma = sum(degs)
    a = [[0] * gamma for _ in range(gamma)]
    b = [[0] * gamma for _ in range(g.k)]
    c = []
    for i, d in enumerate(degs):
        o = len(c)  # the block's first cell
        for r in range(o, o + d - 1):
            a[r][r + 1] = 1
        if d:
            b[i][o] = 1
        c += [tuple(coeff(e, r) for e in g.rows[i]) for r in range(1, d + 1)]
    return ControllerForm(
        field=g.field,
        A=tuple(tuple(r) for r in a),
        B=tuple(tuple(r) for r in b),
        C=tuple(c),
        D=polyalg.pm_eval0(g),
        block_degrees=degs,
        gamma=gamma,
        generator=g,
        minimal=info.is_minimal,
    )


def realization_check(cf: ControllerForm) -> bool:
    """Verify G = z B (I - zA)^{-1} C + D by expanding the finite series
    D + sum_{j < gamma} z^(j+1) B A^j C (A^gamma = 0, so the expansion is exact)."""
    fld = cf.field
    k, n = cf.k, cf.n
    coeff_mats = [cf.D]
    left = cf.B
    for _ in range(cf.gamma):
        coeff_mats.append(polyalg.mat_mul(fld, left, cf.C))
        left = polyalg.mat_mul(fld, left, cf.A)
    rows = []
    for i in range(k):
        rows.append(tuple(
            polyalg.poly(tuple(cm[i][j] for cm in coeff_mats)) for j in range(n)
        ))
    return PolyMatrix(fld, tuple(rows)) == cf.generator


def _input_coeff(u: Sequence[Poly], t: int) -> tuple[int, ...]:
    return tuple(coeff(ui, t) for ui in u)


def state_sequence(cf: ControllerForm, u: Sequence[Poly]):
    """Run the register on a polynomial input.

    Returns (states, outputs) with states = (x_0, ..., x_{N+1}) and
    outputs = (v_0, ..., v_N) where N = deg(uG); for u = 0 the result is
    ((0,), ()).  Inputs are per-row polynomials over the form's field.
    """
    if len(u) != cf.k:
        raise ValueError(f"input needs {cf.k} component polynomials")
    u = tuple(polyalg.poly(ui) for ui in u)
    fld = cf.field
    for ui in u:
        for c in ui:
            if not 0 <= c < fld.q:
                raise ValueError("input coefficient out of field range")
    zero_state = (0,) * cf.gamma
    if all(not ui for ui in u):
        return (zero_state,), ()
    horizon = max(
        cf.block_degrees[i] + int(deg(ui)) for i, ui in enumerate(u) if ui
    )
    states = [zero_state]
    outputs = []
    x = zero_state
    for t in range(horizon + 1):
        ut = _input_coeff(u, t)
        v = polyalg.vec_mat(fld, x, cf.C) or (0,) * cf.n  # () for gamma = 0
        ud = polyalg.vec_mat(fld, ut, cf.D)
        v = tuple(fld.add(a, b) for a, b in zip(v, ud))
        xa = polyalg.vec_mat(fld, x, cf.A)
        ub = polyalg.vec_mat(fld, ut, cf.B)
        x = tuple(fld.add(a, b) for a, b in zip(xa, ub))
        outputs.append(v)
        states.append(x)
    n_deg = max(t for t, v in enumerate(outputs) if any(v))
    if cf.minimal and any(states[n_deg + 1]):
        raise InternalError("minimal encoder did not return to the zero state")
    return tuple(states[: n_deg + 2]), tuple(outputs[: n_deg + 1])


class Classification(NamedTuple):
    kind: str
    concat_times: tuple[int, ...]
    tight_times: tuple[int, ...]

    @property
    def is_molecular(self) -> bool:
        return self.kind != CONCATENATED_LOOSE


def classify(cf: ControllerForm, u: Sequence[Poly]) -> Classification:
    """Classify the codeword uG via the state criterion.

    The word is concatenated at time L exactly when the state returns to
    zero there (1 <= L <= deg v), tightly so when additionally v_L != 0.
    The zero-state criterion is only valid for minimal encoders.  Inputs
    must start at time zero (u_0 != 0); callers normalize shifts.
    """
    if not cf.minimal:
        raise ValueError("classification requires a minimal encoder")
    u = tuple(polyalg.poly(ui) for ui in u)
    if all(not ui for ui in u):
        raise ValueError("cannot classify the zero codeword")
    if not any(_input_coeff(u, 0)):
        raise ValueError("input must have a nonzero constant coefficient")
    states, outputs = state_sequence(cf, u)
    n_deg = len(outputs) - 1
    concat = tuple(
        t for t in range(1, n_deg + 1) if not any(states[t])
    )
    tight = tuple(t for t in concat if any(outputs[t]))
    if not concat:
        kind = ATOMIC
    elif tight == concat:
        kind = MOLECULAR_TIGHT
    else:
        kind = CONCATENATED_LOOSE
    return Classification(kind=kind, concat_times=concat, tight_times=tight)
