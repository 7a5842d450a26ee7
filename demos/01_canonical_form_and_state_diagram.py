"""From a generator matrix to its register realization and state diagram.

Loads two bundled encoders (a binary memory-3 encoder and a two-row
encoder over F16), prints their structural invariants, assembles the
controller canonical form, replays an input through the register,
classifies a few codewords as atomic / tightly / loosely concatenated, and
screens the state diagram, held as the packed transition tables of the
form, for catastrophicity and delay-freeness, which read only its
weight-0 edges.
"""

import pathlib

from convcode import (
    build,
    classify,
    controller_form,
    delay_free_check,
    realization_check,
    state_sequence,
    zero_weight_cycle_exists,
)
from convcode.cli import parse_gm
from convcode.polyalg import poly
from convcode.statediag import dot_chunks

CODES = pathlib.Path(__file__).resolve().parent / "codes"


def show_matrix(name, rows):
    print(f"  {name} =")
    for row in rows:
        print("      " + " ".join(str(c) for c in row))


def main():
    for fname in ("memory3.gm", "f16.gm"):
        g = parse_gm((CODES / fname).read_text())
        info = g.info
        print(f"== {fname}: {g} over {g.field!r}")
        print(
            f"  row degrees {info.row_degrees}, constraint length {info.delta}, "
            f"basic={info.is_basic}, minimal={info.is_minimal}"
        )
        cf = controller_form(g)
        for name, mat in (("A", cf.A), ("B", cf.B), ("C", cf.C), ("D", cf.D)):
            show_matrix(name, mat)
        print(f"  series expansion reproduces the matrix: {realization_check(cf)}")
        print()

    g = parse_gm((CODES / "memory3.gm").read_text())
    cf = controller_form(g)
    print("== running the register on u = 1 (impulse)")
    states, outputs = state_sequence(cf, [poly([1])])
    for t, (x, v) in enumerate(zip(states, outputs)):
        print(f"  t={t}: state {x} emits {v}")
    print(f"  final state {states[-1]}")
    print()

    print("== codeword classification (state returns to zero <=> split point)")
    for coeffs, label in (
        ([1], "impulse"),
        ([1, 0, 0, 0, 1], "impulse + re-entry after the memory drains"),
        ([1, 0, 0, 0, 0, 1], "impulse + re-entry one step too late"),
    ):
        c = classify(cf, [poly(coeffs)])
        print(f"  u = {coeffs} ({label}): {c.kind}, splits at {list(c.concat_times)}")
    print()

    sd = build(cf)  # the packed transition tables of the form; edges are views
    print(f"== state diagram: {sd.num_states} states, "
          f"{sum(len(gp) for gp in sd.edges_by_source)} edges")
    # both screens read only the weight-0 edges, looked up in the tables
    print(f"  delay-free: {delay_free_check(sd)}")
    print(f"  zero-weight cycle (catastrophic): {zero_weight_cycle_exists(sd)}")
    print("  Graphviz snippet:")
    for line in "".join(dot_chunks(sd)).splitlines()[:6]:
        print("    " + line)
    print("    ...")


if __name__ == "__main__":
    main()
