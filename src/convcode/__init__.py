"""Exact-arithmetic analysis of convolutional codes over small finite fields.

Layers, bottom up: `galois` (field arithmetic), `polyalg` (polynomials and
polynomial matrices: minors, basicness, minimality, row reduction, right
inverses, duals), `encoder` (controller canonical form and register
simulation), `statediag` (explicit state diagram and catastrophicity
checks), `spectrum` (adjacency matrix, weight distribution series,
distance profiles), `invariance` (conjugation equivalence, invariant
recovery, monomial equivalence, the duality transform for binary codes of
unit constraint length), `oracle` (independent brute-force tallies), and
`cli` (file format and command line).
"""

from .encoder import (
    ATOMIC,
    CONCATENATED_LOOSE,
    MOLECULAR_TIGHT,
    Classification,
    ControllerForm,
    classify,
    controller_form,
    realization_check,
    state_sequence,
)
from .errors import InternalError, LimitError, ParseError
from .galois import FieldSpec, default_modulus, field_make
from .invariance import (
    code_adjacency,
    gen_adj_equal,
    macwilliams_delta1,
    monomial_equiv,
    recover_dimension,
    recover_forney,
    verify_shift_permutation_lemma,
)
from .polyalg import (
    EncoderInfo,
    PolyMatrix,
    codes_equal,
    dual_basis,
    encoder_info,
    hermite_form,
    k_minors,
    minimize,
    pm,
    right_inverse,
)
from .spectrum import (
    AdjMatrix,
    FreeDistance,
    LSeries,
    WeightEnum,
    active_burst_distances,
    adjacency,
    default_truncation,
    extend,
    extended_row_distances,
    free_distance,
    omega_series,
    phi_series,
)
from .statediag import (
    StateDiagram,
    build,
    delay_free_check,
    zero_weight_cycle_exists,
)

__version__ = "0.1.0"

__all__ = [
    "ATOMIC",
    "AdjMatrix",
    "CONCATENATED_LOOSE",
    "Classification",
    "ControllerForm",
    "EncoderInfo",
    "FieldSpec",
    "FreeDistance",
    "InternalError",
    "LSeries",
    "LimitError",
    "MOLECULAR_TIGHT",
    "ParseError",
    "PolyMatrix",
    "StateDiagram",
    "WeightEnum",
    "active_burst_distances",
    "adjacency",
    "build",
    "classify",
    "code_adjacency",
    "codes_equal",
    "controller_form",
    "default_modulus",
    "default_truncation",
    "delay_free_check",
    "dual_basis",
    "encoder_info",
    "extend",
    "extended_row_distances",
    "field_make",
    "free_distance",
    "gen_adj_equal",
    "hermite_form",
    "k_minors",
    "macwilliams_delta1",
    "minimize",
    "monomial_equiv",
    "omega_series",
    "phi_series",
    "pm",
    "realization_check",
    "recover_dimension",
    "recover_forney",
    "right_inverse",
    "state_sequence",
    "verify_shift_permutation_lemma",
    "zero_weight_cycle_exists",
]
