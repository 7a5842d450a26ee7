"""What the adjacency matrix knows about a code.

Conjugating by a zero-fixing state permutation is the only freedom in the
adjacency matrix of a minimal encoder, so matrices of two encoders of the
same code always match up to such a permutation; the dimension and the
row-degree multiset can be read back off the matrix alone; and for
one-dimensional binary codes the matrix pins the code down to column
permutation and rescaling.  The classic pair [1, z, 1+z] / [z, z, 1+z]
shows the adjacency matrix separating codes that share a weight
distribution.
"""

import pathlib
import random

from convcode import (
    code_adjacency,
    codes_equal,
    gen_adj_equal,
    monomial_equiv,
    omega_series,
    phi_series,
    recover_dimension,
    recover_forney,
)
from convcode.cli import parse_gm
from convcode.invariance import apply_witness
from convcode.polyalg import pm_mul, pm
from convcode.spectrum import format_series

CODES = pathlib.Path(__file__).resolve().parent / "codes"


def main():
    g1 = parse_gm((CODES / "g1.gm").read_text())
    g2 = parse_gm((CODES / "g2.gm").read_text())
    lam1, lam2 = code_adjacency(g1), code_adjacency(g2)
    om1 = omega_series(phi_series(lam1, 6))
    om2 = omega_series(phi_series(lam2, 6))
    print(f"== {g1}  vs  {g2}")
    print(f"  same code: {codes_equal(g1, g2)}")
    print(f"  atomic distribution 1: {format_series(om1)}")
    print(f"  atomic distribution 2: {format_series(om2)}")
    print(f"  distributions equal: {om1 == om2}")
    print(f"  adjacency matrices conjugate: {gen_adj_equal(lam1, lam2)}")
    print(f"  monomial witness: {monomial_equiv(g1, g2)}")
    print()

    print("== two encoders of one code: matrices conjugate by a 0-fixing permutation")
    g = parse_gm((CODES / "mixed_rows.gm").read_text())
    u = pm(g.field, [[[1], [0]], [[0, 1], [1]]])  # row2 += z * row1
    h = pm_mul(u, g)
    lam_g, lam_h = code_adjacency(g), code_adjacency(h)
    wit = gen_adj_equal(lam_g, lam_h)
    print(f"  transformed encoder: {h}")
    print(f"  witness permutation: {list(wit)}")
    print(f"  conjugation verified: {apply_witness(lam_g, wit) == lam_h}")
    print()

    print("== reading invariants back off the adjacency matrix alone")
    for fname in ("memory3.gm", "mixed_rows.gm", "g1.gm"):
        g = parse_gm((CODES / fname).read_text())
        lam = code_adjacency(g)
        print(
            f"  {fname}: dimension {recover_dimension(lam)}, "
            f"row degrees {list(recover_forney(lam))}"
        )
    print()

    print("== planted column scrambles are always found (1-D binary, n = 3)")
    rng = random.Random(7)
    base = parse_gm((CODES / "g1.gm").read_text())
    for _ in range(3):
        perm = rng.sample(range(3), 3)
        scrambled = pm(base.field, [[base.entry(0, j) for j in perm]])
        wit = monomial_equiv(base, scrambled)
        print(f"  columns {perm}: witness {wit}")


if __name__ == "__main__":
    main()
