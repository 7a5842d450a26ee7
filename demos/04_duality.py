"""Dual codes and the closed-form transform for two-state diagrams.

The atomic weight distribution does not determine the dual's: the bundled
pair g1/g2 shares a distribution while their duals' distributions split
at length 1.  For binary codes with a single memory cell the extended
adjacency matrix of the dual is a closed-form function of the primal one,
which this demo checks against duals computed directly.
"""

import pathlib
import random

from convcode import (
    code_adjacency,
    dual_basis,
    extend,
    macwilliams_delta1,
    minimize,
    omega_series,
    phi_series,
    pm,
)
from convcode.cli import format_gm, parse_gm
from convcode.galois import field_make
from convcode.spectrum import format_series

CODES = pathlib.Path(__file__).resolve().parent / "codes"


def random_unit_memory_code(rng, fld, n_max=5):
    """Binary code with a one-dimensional state space, by rejection."""
    while True:
        n = rng.randint(2, n_max)
        k = rng.randint(1, n - 1)
        rows = [
            [[rng.randrange(2), rng.randrange(2)] for _ in range(n)]
            for _ in range(k)
        ]
        try:
            g = pm(fld, rows)
            info = g.info
        except ValueError:
            continue
        if not info.is_basic:
            continue
        g, _ = minimize(g)
        if g.info.delta == 1:
            return g


def main():
    for fname in ("g1.gm", "g2.gm"):
        g = parse_gm((CODES / fname).read_text())
        h = dual_basis(g)
        print(f"== {fname}: {g}")
        print("  dual basis:")
        for line in format_gm(h).splitlines():
            print("    " + line)
        om = omega_series(phi_series(code_adjacency(h), 5))
        print(f"  dual atomic distribution: {format_series(om)}")
        transformed = macwilliams_delta1(extend(code_adjacency(g)), g.n, g.k)
        direct = extend(code_adjacency(h))
        print(f"  closed-form transform equals the dual's matrix: {transformed == direct}")
        print()

    print("== transform is involutive and matches direct duals on random codes")
    f2 = field_make(2)
    rng = random.Random(42)
    checked = 0
    for _ in range(20):
        g = random_unit_memory_code(rng, f2)
        gam = extend(code_adjacency(g))
        fwd = macwilliams_delta1(gam, g.n, g.k)
        assert fwd == extend(code_adjacency(dual_basis(g)))
        assert macwilliams_delta1(fwd, g.n, g.n - g.k) == gam
        checked += 1
    print(f"  verified on {checked} random codes with one memory cell")


if __name__ == "__main__":
    main()
