import hashlib
import itertools
import math
import pathlib
import random
import sys
import time
from collections import Counter

import pytest

from convcode import (
    adjacency,
    build,
    codes_equal,
    controller_form,
    extend,
    gen_adj_equal,
    macwilliams_delta1,
    minimize,
    monomial_equiv,
    pm,
    recover_dimension,
    recover_forney,
    verify_shift_permutation_lemma,
)
from convcode import invariance, polyalg, spectrum, statediag
from convcode.cli import parse_gm
from convcode.errors import InternalError, LimitError
from convcode.galois import field_make
from convcode.invariance import _cell_graphs, _refined_colors, apply_monomial, apply_witness
from convcode.polyalg import pm_mul
from convcode.spectrum import AdjMatrix, WeightEnum
from convcode.statediag import state_index, state_vector

import genutil
from genutil import weight_preserving_equiv_check

ROOT = pathlib.Path(__file__).resolve().parent.parent


def f5_pair():
    """(z, 1+2z) and (z, 2+z) over F5: conjugate Lambda, no monomial map."""
    return tuple(parse_gm((ROOT / "demos" / "codes" / f"f5_{x}.gm").read_text()) for x in "ab")


def lam_of(g, **kw):
    return adjacency(build(controller_form(g, **kw)))


def test_planted_conjugation_witness(g213):
    lam = lam_of(g213)
    rng = random.Random(9)
    for _ in range(10):
        perm = [0] + rng.sample(range(1, 8), 7)
        conj = apply_witness(lam, perm)
        wit = gen_adj_equal(lam, conj)
        assert wit is not None and wit[0] == 0
        assert apply_witness(lam, wit) == conj


def test_smallest_witness_is_lexicographic_least(g213):
    lam = lam_of(g213)
    wit = gen_adj_equal(lam, lam)
    assert wit == tuple(range(8))


def test_witness_reverification_is_not_an_assert(g213, monkeypatch):
    lam = lam_of(g213)
    # the search compares interned terms(); only the identity test `a == b`
    # and the final re-check call `spectrum.conjugates`
    monkeypatch.setattr(spectrum, "conjugates", lambda a, b, pi: False)
    with pytest.raises(InternalError, match="re-verification"):
        gen_adj_equal(lam, lam)


# ---------------------------------------------------------------------------
# dense reference: refinement and search over all s^2 cells; the sparse
# implementation must return the same colors and the same witness
# ---------------------------------------------------------------------------


def dense_terms(m):
    """terms() of every cell of the dense view, zero cells included."""
    return [[e.terms() for e in row] for row in m.entries]


def dense_refined_colors(a, b):
    s = a.size

    def signature(e, i, colors):
        out = tuple(sorted((e[i][j], colors[j]) for j in range(s)))
        inn = tuple(sorted((e[j][i], colors[j]) for j in range(s)))
        return (colors[i], out, inn)

    ea, eb = dense_terms(a), dense_terms(b)
    col_a = [0 if i else -1 for i in range(s)]
    col_b = list(col_a)
    while True:
        sig_ids = {}
        new_a = []
        new_b = []
        for e, colors, target in ((ea, col_a, new_a), (eb, col_b, new_b)):
            for i in range(s):
                sig = signature(e, i, colors)
                target.append(sig_ids.setdefault(sig, len(sig_ids)))
        if sorted(new_a) != sorted(new_b):
            return None
        if new_a == col_a and new_b == col_b:
            return col_a, col_b
        col_a, col_b = new_a, new_b


def dense_gen_adj_equal(a, b, refined=False):
    s = a.size
    if refined is False:
        refined = dense_refined_colors(a, b)
    if refined is None:
        return None
    col_a, col_b = refined
    candidates = [[j for j in range(s) if col_b[j] == col_a[i]] for i in range(s)]
    if any(not c for c in candidates):
        return None
    mapping = [-1] * s
    used = [False] * s
    ea, eb = dense_terms(a), dense_terms(b)

    def feasible(i, j):
        for i2 in range(i + 1):
            j2 = j if i2 == i else mapping[i2]
            if ea[i][i2] != eb[j][j2]:
                return False
            if ea[i2][i] != eb[j2][j]:
                return False
        return True

    def search(i):
        if i == s:
            return True
        for j in candidates[i]:
            if not used[j] and feasible(i, j):
                mapping[i] = j
                used[j] = True
                if search(i + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    if not search(0):
        return None
    pi = tuple(mapping)
    ea, eb = a.entries, b.entries
    assert all(ea[i][j] == eb[pi[i]][pi[j]] for i in range(s) for j in range(s))
    return pi


def reference_pairs():
    """Seeded (a, b) pairs: conjugate, identical and different-code."""
    rng = random.Random(2024)
    pairs = []
    for fld in (field_make(2), field_make(3), field_make(2, 2)):
        pool = {}
        for _ in range(24):
            g = genutil.random_minimal_code(rng, fld, n_max=3, k_max=2, gamma_max=3)
            lam = lam_of(g)
            pool.setdefault((lam.size, lam.n), []).append(lam)
            h, _ = genutil.elementary_ops(rng, g, 4)
            perm = [0] + rng.sample(range(1, lam.size), lam.size - 1)
            pairs += [(lam, lam), (lam, lam_of(h)), (lam, apply_witness(lam, perm))]
        for group in pool.values():
            pairs += [(a, b) for a in group for b in group if a is not b][:20]
    return pairs


def minimal_f4_k2_gamma4(rng):
    """A minimal F4 code with k = 2, n = 3 and gamma = 4: 256 states."""
    f4 = field_make(2, 2)
    while True:
        g = genutil.random_minimal_code(rng, f4, n_max=3, k_max=2, gamma_min=4, gamma_max=4)
        if (g.k, g.n) == (2, 3):
            return g


def states_256_pairs():
    """A planted conjugate, a row-transformed and column-monomial image,
    and a different code, each against one 256-state F4 code."""
    rng = random.Random(256)
    g = minimal_f4_k2_gamma4(rng)
    lam = lam_of(g)
    perm = [0] + rng.sample(range(1, 256), 255)
    h, _ = genutil.elementary_ops(rng, g, 6)
    cols = rng.sample(range(3), 3)
    h = apply_monomial(h, cols, [rng.choice(list(g.field.units())) for _ in cols])
    other = minimal_f4_k2_gamma4(rng)
    return [
        (lam, apply_witness(lam, perm)),
        (lam, lam_of(h)),
        (lam, lam_of(other)),
    ]


def cycles_matrix(s, cycles, chords=()):
    """State 0 has an edge W to and an edge W^2 from every other state;
    the cycles and chords are edges W + 2W^3 among the others."""
    cells = [[WeightEnum.zero()] * s for _ in range(s)]
    for i in range(1, s):
        cells[0][i] = WeightEnum({1: 1})
        cells[i][0] = WeightEnum({2: 1})
    edges = [(x, y) for cyc in cycles for x, y in zip(cyc, cyc[1:] + cyc[:1])]
    for x, y in edges + list(chords):
        cells[x][y] = WeightEnum({1: 1, 3: 2})
    return genutil.adj_from_dense(cells, q=2, n=3)


def cycle_pairs():
    """Pairs whose stable colorings agree but which have no witness: one
    directed cycle through the 2m states other than 0 against two cycles
    of m each, and the reverse.  Every state but 0 keeps one color, so
    only the search can tell them apart."""
    pairs = []
    for m in (3, 4):
        s = 2 * m + 1
        one = cycles_matrix(s, [list(range(1, s))])
        two = cycles_matrix(s, [list(range(1, m + 1)), list(range(m + 1, s))])
        pairs += [(one, two), (two, one)]
    return pairs


MIXED_SHAPES = (
    (3, 1, (0, 2)), (3, 1, (1, 2)), (3, 1, (0, 1, 2)), (2, 2, (0, 2)), (2, 2, (1, 2)), (2, 2, (0, 3)),
    (5, 1, (0, 2)), (5, 1, (0, 1, 1)), (2, 3, (0, 1)), (2, 3, (0, 2)),
)  # (p, m, row degrees) with n = k + 1: at most 64 states


def mixed_degree_pairs():
    """Seeded (kind, g, h) pairs of codes whose rows have more than one
    degree, 0 among them, over F3, F4, F5 and F8: each code against a row
    transform of its coefficient-wise a -> a^p image ("frobenius", the
    identity map over a prime field), whose Lambda are conjugate, and
    against another code of its degrees ("other")."""
    rng = random.Random(41)
    pairs = []
    for p, m, degrees in MIXED_SHAPES:
        fld = field_make(p, m)
        for _ in range(2):
            g = genutil.code_with_degrees(rng, fld, degrees)
            frobenius = pm(fld, [[[genutil.field_pow(fld, c, p) for c in e] for e in row] for row in g.rows])
            pairs.append(("frobenius", g, genutil.elementary_ops(rng, frobenius, 3)[0]))
            pairs.append(("other", g, genutil.code_with_degrees(rng, fld, degrees)))
    return pairs


def test_sparse_search_matches_dense_reference():
    pairs = reference_pairs()
    kinds = {"found": 0, "none": 0, "k2": 0}
    for a, b in pairs:
        assert _refined_colors(_cell_graphs(a, b)) == dense_refined_colors(a, b)
        wit = gen_adj_equal(a, b)
        assert wit == dense_gen_adj_equal(a, b)
        kinds["found" if wit is not None else "none"] += 1
        kinds["k2"] += recover_dimension(a) == 2
    assert len(pairs) >= 200
    assert min(kinds.values()) >= 20, kinds
    # a hexagon against itself plus one chord, forward, then backward: one
    # extra cell, which the dense rows see in one direction alone
    hexagon = [list(range(1, 7))]
    chords = [
        (cycles_matrix(7, hexagon), cycles_matrix(7, hexagon, [chord]))
        for chord in ((1, 3), (3, 1))
    ]
    found = []
    for a, b in states_256_pairs() + cycle_pairs() + chords:
        colors = _refined_colors(_cell_graphs(a, b))
        assert colors == dense_refined_colors(a, b)
        wit = gen_adj_equal(a, b)
        assert wit == dense_gen_adj_equal(a, b, colors)
        found.append(wit is not None)
        if a.size < 256 and (a, b) not in chords:
            assert colors is not None and sorted(colors[0]) == sorted(colors[1])
    assert found == [True, True, False] + [False] * 6
    # codes of mixed degrees, where the F_q^* orbits hand code_witness the
    # root classes and the search individualises below them
    mixed = Counter()
    for kind, g, h in mixed_degree_pairs():
        a, b = lam_of(g), lam_of(h)
        wit = gen_adj_equal(a, b)
        assert wit == dense_gen_adj_equal(a, b) == invariance.code_witness(g, h)
        mixed[kind, "none" if wit is None else "identity" if wit == tuple(range(a.size)) else "moved"] += 1
    assert mixed == {("frobenius", "identity"): 4, ("frobenius", "moved"): 16, ("other", "none"): 20}, mixed


def counted_graphs(a, b):
    """`_cell_graphs(a, b)` with each state's neighbour list counting how
    often it is read; the count is the one-item list returned alongside."""
    reads = [0]

    class Counted(list):
        def __iter__(self):
            reads[0] += 1
            return super().__iter__()

    graphs = [([Counted(nb) for nb in nbrs], keys) for nbrs, keys in _cell_graphs(a, b)]
    return graphs, reads


def test_refinement_reads_each_representative_list_once_a_round():
    # a round signs each representative from its own neighbour list alone:
    # the 4 rounds over 2 x 256 states read 2,048 lists, and with the 86
    # F4^* orbits of the row-transformed pair 2 x 86 lists a round, 688
    pairs = states_256_pairs()
    for a, b in pairs[:2]:
        graphs, reads = counted_graphs(a, b)
        assert _refined_colors(graphs) == dense_refined_colors(a, b)
        assert reads[0] == 4 * 2 * 256, reads[0]
    a, b = pairs[1]
    orbits = statediag._orbits(field_make(2, 2), 4)
    assert len(orbits[1]) == 86
    graphs, reads = counted_graphs(a, b)
    assert _refined_colors(graphs, orbits) == dense_refined_colors(a, b)
    assert reads[0] == 4 * 2 * 86, reads[0]


def random_digraph_pairs(count):
    """Seeded pairs of dense matrices on 2..14 states over 1-4 distinct
    enumerators at density 0.1-0.6: a planted conjugate, the same with one
    cell relabelled, and an unrelated matrix, in turn."""
    rng = random.Random(1971)
    pairs = []
    for n in range(count):
        s = rng.randint(2, 14)
        pool = [WeightEnum({1 + u: 1}) for u in range(rng.randint(1, 4))]
        density = rng.uniform(0.1, 0.6)

        def grid():
            return [[rng.choice(pool) if rng.random() < density else WeightEnum.zero()
                     for _ in range(s)] for _ in range(s)]

        cells = grid()
        if n % 3 == 2:
            other = grid()
        else:
            perm = [0] + rng.sample(range(1, s), s - 1)
            other = [[None] * s for _ in range(s)]
            for i, j in itertools.product(range(s), repeat=2):
                other[perm[i]][perm[j]] = cells[i][j]
            if n % 3 == 1:
                i, j = rng.randrange(s), rng.randrange(s)
                other[i][j] = rng.choice([e for e in pool + [WeightEnum.zero()] if e != other[i][j]])
        pairs.append(tuple(genutil.adj_from_dense(m, q=2, n=3) for m in (cells, other)))
    return pairs


def test_refinement_is_exact_on_random_digraphs():
    # multi-way splits and classes of equal size, beyond code graphs
    found = []
    for a, b in random_digraph_pairs(1200):
        assert _refined_colors(_cell_graphs(a, b)) == dense_refined_colors(a, b)
        wit = gen_adj_equal(a, b)
        assert wit == dense_gen_adj_equal(a, b)
        found.append(wit is not None)
    assert 300 <= found.count(False) <= 900, found.count(False)


def witness_digest_pairs():
    """Seeded (kind, a, b) pairs: k = 1 F2 and F4 codes against their
    row-scaled, column-monomial images ("same", whose Lambda agree cell for
    cell) and against planted conjugates, different codes of one shape
    ("other"), and 256-state F4 k = 2 codes against row-transformed images
    ("moved", whose Lambda differ)."""
    rng = random.Random(21)
    pairs = []
    pool = {}
    for fld in (field_make(2), field_make(2, 2)):
        for _ in range(12):
            g = genutil.random_minimal_code(
                rng, fld, n_max=3, k_max=1, gamma_min=2, gamma_max=6 if fld.q == 2 else 3
            )
            lam = lam_of(g)
            h, _ = genutil.elementary_ops(rng, g, 2)  # k = 1: row scalings
            cols = rng.sample(range(g.n), g.n)
            h = apply_monomial(h, cols, [rng.choice(fld.units()) for _ in cols])
            perm = [0] + rng.sample(range(1, lam.size), lam.size - 1)
            pairs += [("same", lam, lam_of(h)), ("planted", lam, apply_witness(lam, perm))]
            pool.setdefault((lam.q, lam.size, lam.n), []).append(lam)
    for group in pool.values():
        pairs += [("other", a, b) for a, b in zip(group, group[1:])]
    for _ in range(4):
        g = minimal_f4_k2_gamma4(rng)
        h, _ = genutil.elementary_ops(rng, g, 6)
        pairs.append(("moved", lam_of(g), lam_of(h)))
    return pairs


def test_witness_digests_are_pinned():
    # the witnesses, None included, of a fixed corpus: a faster route to
    # any of them must return the same lexicographically least one
    pairs = witness_digest_pairs()
    assert all((a == b) == (kind == "same") for kind, a, b in pairs if kind in ("same", "moved"))
    results = [gen_adj_equal(a, b) for _, a, b in pairs]
    assert all(w is not None for (kind, _, _), w in zip(pairs, results) if kind != "other")
    assert None in results and len(pairs) == 63
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "55ca55ff3974abef603b7c8992f05070706fd7218515964135fe0412f465cdee"


def monomial_pin_pairs():
    """Binary k = 1 codes with n = 5, 6 and 7, and F3 and F4 codes with
    k <= 2 and n = 3, 4, each against a row-transformed, column-monomial
    image ("image") and against another code of its shape ("other").  Half
    are non-basic, a basic code times 1 + z, so the search runs for them."""
    rng = random.Random(35)

    def code(fld, k, n, factor):
        while True:
            g = genutil.random_minimal_code(rng, fld, n_max=n, k_max=k, gamma_max=3)
            if (g.k, g.n) == (k, n):
                return pm(fld, [[polyalg.poly_mul(fld, factor, e) for e in row] for row in g.rows])

    def image(g):
        h = genutil.elementary_ops(rng, g, 4)[0] if g.info.is_minimal else g
        perm = rng.sample(range(g.n), g.n)
        return apply_monomial(h, perm, [rng.choice(g.field.units()) for _ in perm])

    shapes = [(field_make(2), 1, n) for n in (5, 6, 7)]
    shapes += [(fld, k, n) for fld in (field_make(3), field_make(2, 2)) for n in (3, 4) for k in (1, 2)]
    pairs = []
    for fld, k, n in shapes:
        for factor in ((1,), (1, 1)):
            g = code(fld, k, n, factor)
            pairs += [("image", g, image(g)), ("other", g, code(fld, k, n, factor))]
    return pairs


def test_monomial_witnesses_are_pinned():
    # the witnesses, None included, of a fixed corpus: they guard the Hermite
    # forms inside the search, and a faster route for n >= 6 must print the
    # same witnesses
    pairs = monomial_pin_pairs()
    results = [monomial_equiv(g, h) for _, g, h in pairs]
    for (kind, g, h), w in zip(pairs, results):
        assert (w is None) == (kind == "other")
        if w is not None:
            mapped = apply_monomial(g, *w)
            assert polyalg.hermite_form(mapped) == polyalg.hermite_form(h)
    assert len(pairs) == 44 and sum(not g.info.is_basic for _, g, _ in pairs) == 22
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "66c666705dd67c3a00b9be004a5c5f5148517280f3ce135f485f3cd1f3c6cb83"


def retabled(m, order, twins=False):
    """m with its cell table listed in `order`; with `twins`, every entry is
    listed again as a copy of its own, and the odd rows use the copies."""
    cells = [m.cells[t] for t in order]
    new_id = {t: u for u, t in enumerate(order)}
    shift = len(cells) if twins else 0
    if twins:
        cells += [WeightEnum(dict(e.terms())) for e in cells]
    rows = [[(j, new_id[t] + shift * (i % 2)) for j, t in row] for i, row in enumerate(m.rows)]
    return AdjMatrix(rows, cells, q=m.q, n=m.n, extended=m.extended)


def identity_path_matrices(g213):
    f4 = field_make(2, 2)
    g = genutil.random_minimal_code(random.Random(64), f4, n_max=3, k_max=1, gamma_min=3)
    return [lam_of(g213), extend(lam_of(g213)), lam_of(g)]


def test_identity_is_certified_before_any_refinement(g213, monkeypatch):
    # Lambda equal cell for cell, whatever the order of the cell tables and
    # however often an enumerator repeats: the identity, with no search
    def refuse(graphs):
        raise RuntimeError("the search ran")

    monkeypatch.setattr(invariance, "_refined_colors", refuse)
    checked = 0
    for lam in identity_path_matrices(g213):
        ids = range(len(lam.cells))
        for a, b in (
            (lam, retabled(lam, ids[::-1])),
            (retabled(lam, ids, twins=True), lam),
            (lam, retabled(lam, ids[::-1], twins=True)),
            (retabled(lam, ids, twins=True), retabled(lam, ids[::-1], twins=True)),
        ):
            assert a == b and a.cells != b.cells
            assert gen_adj_equal(a, b) == gen_adj_equal(b, a) == tuple(range(lam.size))
            checked += 1
    assert checked == 12


def test_identity_refused_on_one_cell_of_the_last_row(g213):
    # the pair agrees up to the last cell, so only the identity check's last
    # row sees the difference; the search then decides as the dense one does
    for lam in identity_path_matrices(g213):
        j, t = lam.rows[-1][-1]
        other = next(u for u, e in enumerate(lam.cells) if e != lam.cells[t])
        fresh = lam.cells[t] + WeightEnum({lam.n: 1})
        for u, cells in ((other, lam.cells), (len(lam.cells), lam.cells + (fresh,))):
            rows = lam.rows[:-1] + (lam.rows[-1][:-1] + ((j, u),),)
            b = AdjMatrix(rows, cells, q=lam.q, n=lam.n, extended=lam.extended)
            identity = tuple(range(lam.size))
            assert not spectrum.conjugates(lam, b, identity)
            assert not spectrum.conjugates(b, lam, identity)
            assert gen_adj_equal(lam, b) == dense_gen_adj_equal(lam, b)
            assert gen_adj_equal(b, lam) == dense_gen_adj_equal(b, lam)


def retabled_conjugate_pairs(g213):
    """Planted conjugates between copies of one matrix whose cell tables
    differ in order and in repetition: each identity-path matrix, a
    256-state F4 k = 2 matrix and its extension, with the table listed
    twice (`twins`) against a reversed-table copy conjugated by a seeded
    zero-fixing permutation, and the other way round."""
    rng = random.Random(22)
    big = lam_of(minimal_f4_k2_gamma4(rng))
    pairs = []
    for lam in identity_path_matrices(g213) + [big, extend(big)]:
        ids = range(len(lam.cells))
        twins, reverse = retabled(lam, ids, twins=True), retabled(lam, ids[::-1])
        perm = [0] + rng.sample(range(1, lam.size), lam.size - 1)
        pairs += [(twins, apply_witness(reverse, perm)), (reverse, apply_witness(twins, perm))]
    return pairs


def test_search_matches_dense_reference_on_retabled_conjugates(g213):
    # ids local to each table must resolve to one joint id per enumerator,
    # however the tables order and repeat their entries
    pairs = retabled_conjugate_pairs(g213)
    assert len(pairs) == 10 and sum(a.size == 256 for a, _ in pairs) == 4
    for a, b in pairs:
        assert not spectrum.conjugates(a, b, tuple(range(a.size)))
        assert _refined_colors(_cell_graphs(a, b)) == dense_refined_colors(a, b)
        wit = gen_adj_equal(a, b)
        assert wit is not None and wit == dense_gen_adj_equal(a, b)


def test_search_hands_classes_to_the_root_refinement_alone(g1, g2, g213, monkeypatch):
    # the orbits are automorphisms of both matrices only until a state is
    # individualised: each search refines first with the classes it was
    # given, or none, and unbounded, then only from individualised start
    # colors without classes, drawing its rounds from the search's budget;
    # the identity path refines nothing
    refined = invariance._refined_colors
    calls = []

    def spied(graphs, classes=None, start=None, rounds=None):
        calls.append((classes is not None, start is not None, rounds is not None))
        return refined(graphs, classes, start, rounds)

    monkeypatch.setattr(invariance, "_refined_colors", spied)
    lists = Counter()
    for kind, g, h in mixed_degree_pairs():
        calls.clear()
        invariance.code_witness(g, h)
        if lam_of(g) == lam_of(h):
            assert calls == []
        else:
            assert calls[0] == (True, False, False) and set(calls[1:]) <= {(False, True, True)}
        lists[kind, len(calls) > 1] += 1
    for a, b in retabled_conjugate_pairs(g213) + cycle_pairs() + [(lam_of(g1), lam_of(g2))]:
        calls.clear()
        gen_adj_equal(a, b)
        assert calls[:1] == [(False, False, False)] and set(calls[1:]) <= {(False, True, True)}
        lists["plain", len(calls) > 1] += 1
    for lam in identity_path_matrices(g213):
        calls.clear()
        twins = retabled(lam, range(len(lam.cells))[::-1], twins=True)
        assert gen_adj_equal(lam, twins) == tuple(range(lam.size)) and calls == []
    assert lists["frobenius", True] >= 10 and lists["plain", True] >= 4, lists


def test_conjugation_check_pins_the_zero_state():
    # swapping the two states maps a matrix of four equal cells onto itself,
    # but a witness must fix state 0
    one = WeightEnum({1: 1})
    m = genutil.adj_from_dense([[one, one], [one, one]], q=2, n=2)
    assert spectrum.conjugates(m, m, (0, 1))
    assert not spectrum.conjugates(m, m, (1, 0))


def test_search_depth_does_not_grow_with_the_states():
    g = minimal_f4_k2_gamma4(random.Random(5))
    lam = lam_of(g)
    perm = [0] + random.Random(6).sample(range(1, 256), 255)
    conj = apply_witness(lam, perm)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        wit = gen_adj_equal(lam, conj)
    finally:
        sys.setrecursionlimit(limit)
    assert wit is not None and apply_witness(lam, wit) == conj


# ---------------------------------------------------------------------------
# one state signed per F_q^* orbit: code_witness hands the search the
# register's orbits, which must give the colors of signing every state
# ---------------------------------------------------------------------------


CROSS_FIELDS = ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4))


def largest_delta(q, k):
    """The largest delta of at most 256 states and 4096 edges."""
    top = 0
    while q ** (top + k + 1) <= 4096 and q ** (top + 1) <= 256:
        top += 1
    return top


def code_of_shape(rng, fld, k, delta=None):
    """A seeded minimal code over fld with k rows and n = 3, of constraint
    length delta when it is set, else of 1 to `largest_delta`."""
    top = largest_delta(fld.q, k)
    while True:
        g = genutil.random_matrix(rng, fld, k, 3, rng.randint(1, -(-top // k)))
        try:
            if not g.info.is_basic:
                continue
        except ValueError:  # rank deficient
            continue
        g, _ = minimize(g)
        if 1 <= g.info.delta <= top and delta in (None, g.info.delta):
            return g


def cross_field_pairs():
    """Seeded (kind, g, h) pairs over F3, F4, F5, F7, F8, F9 and F16, with
    k = 1 and k = 2 and n = 3, a third of the codes of the largest delta:
    each code against a row-transformed image ("image"), minimal and of
    the same delta, and against a different code of the same k and delta
    ("other")."""
    rng = random.Random(33)
    pairs = []
    for p, m in CROSS_FIELDS:
        fld = field_make(p, m)
        for k in (1, 2):
            for i in range(6):
                g = code_of_shape(rng, fld, k, None if i % 3 else largest_delta(fld.q, k))
                h, _ = genutil.elementary_ops(rng, g, 4)
                pairs.append(("image", g, h))
                pairs.append(("other", g, code_of_shape(rng, fld, k, g.info.delta)))
    return pairs


def test_orbit_route_matches_every_state_across_fields(monkeypatch):
    # signing one state per orbit gives the very colors of signing every
    # state, so code_witness's witness is gen_adj_equal's on the same Lambda,
    # and monomial_equiv answers as it does with the every-state route
    pairs = cross_field_pairs()
    kinds = Counter()
    answers = []
    for kind, g, h in pairs:
        assert h.info.delta == g.info.delta and (g.k, g.n) == (h.k, h.n)
        a, b = lam_of(g), lam_of(h)
        graphs = _cell_graphs(a, b)
        orbits = statediag._orbits(g.field, g.info.delta)
        assert _refined_colors(graphs, orbits) == _refined_colors(graphs)
        wit = invariance.code_witness(g, h)
        assert wit == gen_adj_equal(a, b)
        kinds[kind, "none" if wit is None else "identity" if wit == tuple(range(a.size)) else "moved"] += 1
        kinds["256 states"] += a.size == 256
        answers.append(monomial_equiv(g, h))
    every_state = lambda g, h: gen_adj_equal(lam_of(g), lam_of(h))
    monkeypatch.setattr(invariance, "code_witness", every_state)
    assert answers == [monomial_equiv(g, h) for _, g, h in pairs]
    assert all(w is not None for (kind, _, _), w in zip(pairs, answers) if kind == "image")
    assert len(pairs) == 168 and kinds["image", "none"] == 0
    assert kinds["image", "moved"] >= 25 and kinds["other", "none"] >= 60, kinds
    assert kinds["256 states"] >= 20, kinds


def identity_code_pairs():
    """64-state F4 codes with k = 1, n = 3 against row-scaled,
    column-permuted and rescaled images, whose Lambda agree cell for cell."""
    rng = random.Random(64)
    f4 = field_make(2, 2)
    pairs = []
    while len(pairs) < 8:
        g = genutil.random_minimal_code(rng, f4, n_max=3, k_max=1, gamma_min=3, gamma_max=3)
        if g.n == 3:
            h, _ = genutil.elementary_ops(rng, g, 2)
            cols = rng.sample(range(3), 3)
            pairs.append((g, apply_monomial(h, cols, [rng.choice(f4.units()) for _ in cols])))
    return pairs


def test_identity_is_certified_before_the_orbits_are_made(monkeypatch):
    # the orbits are made only once the identity is refused, so the pairs
    # certified by the identity pay nothing for them
    def refuse(fld, gamma):
        raise RuntimeError("the orbits were made")

    monkeypatch.setattr(statediag, "_orbits", refuse)
    for g, h in identity_code_pairs():
        assert lam_of(g) == lam_of(h)
        assert invariance.code_witness(g, h) == tuple(range(64))


def test_shifted_pair_not_conjugate(g1, g2):
    assert gen_adj_equal(lam_of(g1), lam_of(g2)) is None


def test_dimension_mismatch_raises(g1, g213):
    with pytest.raises(ValueError):
        gen_adj_equal(lam_of(g1), lam_of(g213))


def unimodular_cases(f2, f3):
    # one code/transform pair per elementary transformation class
    g_f2 = pm(f2, [[[1], [0, 1], [0]], [[0], [1], [0, 0, 1]]])  # indices (1, 2)
    g_f3 = pm(f3, [[[1], [0, 1], [0]], [[0], [1], [0, 1]]])  # indices (1, 1)
    swap = pm(f2, [[[0], [1]], [[1], [0]]])
    scale = pm(f3, [[[2], [0]], [[0], [1]]])
    const_add = pm(f2, [[[1], [0]], [[1], [1]]])  # row2 += row1 (deg 1 <= 2)
    z_add = pm(f2, [[[1], [0]], [[0, 1], [1]]])  # row2 += z*row1
    return [
        (g_f2, swap),
        (g_f3, scale),
        (g_f2, const_add),
        (g_f2, z_add),
    ]


def test_unimodular_transform_classes(f2, f3):
    for g, u in unimodular_cases(f2, f3):
        h = pm_mul(u, g)
        assert codes_equal(g, h)
        lam_g, lam_h = lam_of(g), lam_of(h)
        wit = gen_adj_equal(lam_g, lam_h)
        assert wit is not None
        assert apply_witness(lam_g, wit) == lam_h


def test_monomial_transform_leaves_adjacency_unchanged(f2, g_mixed, g1):
    # column permutation + rescaling preserves every edge weight, so under
    # the fixed state ordering the matrices agree entry for entry
    rng = random.Random(99)
    for g in (g_mixed, g1):
        for _ in range(4):
            perm = rng.sample(range(g.n), g.n)
            h = apply_monomial(g, perm, [1] * g.n)
            assert lam_of(h) == lam_of(g)


def test_search_size_guard(g1, g2, monkeypatch):
    # the bound is checked once the identity is refused, before the search
    monkeypatch.setattr(invariance, "SEARCH_STATES", 1)
    assert gen_adj_equal(lam_of(g1), lam_of(g1)) == tuple(range(lam_of(g1).size))
    with pytest.raises(LimitError):
        gen_adj_equal(lam_of(g1), lam_of(g2))


def test_unimodular_random_products(f2, f3):
    rng = random.Random(77)
    for fld in (f2, f3):
        for _ in range(10):
            g = genutil.random_minimal_code(rng, fld, k_max=2, gamma_max=3)
            h, _ = genutil.elementary_ops(rng, g, 6)
            wit = gen_adj_equal(lam_of(g), lam_of(h))
            assert wit is not None


def test_recover_dimension(g1, g_mixed, g213):
    assert recover_dimension(lam_of(g1)) == 1
    assert recover_dimension(lam_of(g_mixed)) == 2
    assert recover_dimension(lam_of(g213)) == 1
    corrupt = genutil.adj_from_dense(
        [[WeightEnum.zero(), WeightEnum({2: 2})],
         [WeightEnum({2: 1}), WeightEnum({2: 1})]],
        q=2, n=3,
    )  # extended row-0 count becomes 3
    with pytest.raises(ValueError):
        recover_dimension(corrupt)


def test_recover_forney(g1, g_mixed, g213):
    assert recover_forney(lam_of(g1)) == (1,)
    assert recover_forney(lam_of(g_mixed)) == (0, 1)
    assert recover_forney(lam_of(g213)) == (3,)
    # the support equals the nonzero pattern of Gamma^r only for nonnegative counts
    negative = genutil.adj_from_dense(
        [[WeightEnum.zero(), WeightEnum({1: 2, 3: -1})],
         [WeightEnum({2: 1}), WeightEnum({1: 1})]],
        q=2, n=3,
    )
    with pytest.raises(ValueError, match="nonnegative"):
        recover_forney(negative)


def test_recover_matches_encoder_on_random_codes(f2, f3):
    rng = random.Random(55)
    for fld in (f2, f3):
        for _ in range(8):
            g = genutil.random_minimal_code(rng, fld, k_max=2, gamma_max=3)
            lam = lam_of(g)
            from convcode import encoder_info
            info = encoder_info(g)
            assert recover_dimension(lam) == recover_dimension(extend(lam)) == g.k
            indices = tuple(sorted(info.row_degrees))
            assert recover_forney(lam) == recover_forney(extend(lam)) == indices
            assert genutil.reference_forney(lam) == indices


def test_monomial_equiv_planted(f2, f3, g_mixed):
    rng = random.Random(13)
    for _ in range(5):
        perm = rng.sample(range(3), 3)
        scale = [1, 1, 1]
        h = apply_monomial(g_mixed, perm, scale)
        wit = monomial_equiv(g_mixed, h)
        assert wit is not None
        assert codes_equal(apply_monomial(g_mixed, wit[0], wit[1]), h)
    # row-transformed, column-monomial images of minimal codes: the Lambda
    # check before the search must let every one of them through
    for fld in (f2, f3):
        for _ in range(4):
            g = genutil.random_minimal_code(rng, fld, n_max=3, k_max=2, gamma_max=3)
            h, _ = genutil.elementary_ops(rng, g, 4)
            perm = rng.sample(range(g.n), g.n)
            h = apply_monomial(h, perm, [rng.choice(list(fld.units())) for _ in perm])
            wit = monomial_equiv(g, h)
            assert wit is not None
            assert codes_equal(apply_monomial(g, wit[0], wit[1]), h)


def test_monomial_equiv_negative(g1, g2, monkeypatch):
    forms = []
    hermite_form = polyalg.hermite_form
    monkeypatch.setattr(polyalg, "hermite_form", lambda m: forms.append(m) or hermite_form(m))
    assert monomial_equiv(g1, g2) is None
    # Lambda differ, so no candidate reaches its Hermite form
    assert forms == [g2]


def test_monomial_equiv_budget(g16):
    with pytest.raises(LimitError):
        monomial_equiv(g16, g16, budget=10)


def test_monomial_equiv_fixes_the_first_scale(monkeypatch):
    # c G' = (cI) G' has G''s Hermite form, so the matching scalings are closed
    # under a global unit and the least has scale[0] == 1.  The F5 pair's
    # Lambda are conjugate, so its search runs to the end: h's form and then
    # n! (q-1)^(n-1) = 8 candidates
    g, h = f5_pair()
    forms = []
    hermite_form = polyalg.hermite_form
    monkeypatch.setattr(polyalg, "hermite_form", lambda m: forms.append(m) or hermite_form(m))
    assert monomial_equiv(g, h) is None
    assert len(forms) <= 1 + 2 * 4


def test_monomial_equiv_matches_the_full_scale_reference():
    rng = random.Random(26)
    found = []
    for fld in (field_make(3), field_make(2, 2), field_make(5)):
        for _ in range(12):
            g = genutil.random_minimal_code(rng, fld, n_max=3, k_max=2, gamma_max=2)
            h, _ = genutil.elementary_ops(rng, g, 3)
            other = genutil.random_minimal_code(rng, fld, n_max=3, k_max=2, gamma_max=2)
            if rng.random() < 0.3 and (other.k, other.n) == (g.k, g.n):
                h = other
            perm = rng.sample(range(g.n), g.n)
            h = apply_monomial(h, perm, [rng.choice(fld.units()) for _ in perm])
            wit = monomial_equiv(g, h)
            assert wit == genutil.reference_monomial_equiv(g, h)
            found.append(wit is not None and wit[1] != (1,) * g.n)
    assert 0 < sum(found) < len(found)


def test_weight_preserving_check(f2, f3):
    m = ((1, 0, 1), (0, 1, 1))
    assert weight_preserving_equiv_check(f2, m, ((1, 1, 0), (1, 0, 1)))  # cols swapped
    assert not weight_preserving_equiv_check(f2, ((1, 0),), ((1, 1),))
    m3 = ((1, 2, 0), (0, 1, 2))
    scaled = tuple(tuple(f3.mul(2, row[j]) if j == 0 else row[j] for j in range(3)) for row in m3)
    assert weight_preserving_equiv_check(f3, m3, scaled)


def constant_monomial_witness(fld, m1, m2):
    """Column permutation/rescaling with m1 P R == m2 exactly, or None."""
    n = len(m1[0])
    cols1 = [tuple(row[j] for row in m1) for j in range(n)]
    cols2 = [tuple(row[j] for row in m2) for j in range(n)]
    for perm in itertools.permutations(range(n)):
        scale = []
        for j in range(n):
            src = cols1[perm[j]]
            dst = cols2[j]
            choice = next(
                (c for c in fld.units() if tuple(fld.mul(c, x) for x in src) == dst),
                None,
            )
            if choice is None:
                break
            scale.append(choice)
        else:
            return perm, tuple(scale)
    return None


def test_weight_preserving_implies_monomial_witness(f2, f3, g_mixed):
    # hypothesis check followed by the exhaustive conclusion search
    rng = random.Random(19)
    for fld in (f2, f3):
        for _ in range(10):
            k, n = rng.randint(1, 3), rng.randint(2, 4)
            m = tuple(tuple(rng.randrange(fld.q) for _ in range(n)) for _ in range(k))
            perm = rng.sample(range(n), n)
            scale = [rng.choice(list(fld.units())) for _ in range(n)]
            m2 = tuple(
                tuple(fld.mul(scale[j], row[perm[j]]) for j in range(n)) for row in m
            )
            assert weight_preserving_equiv_check(fld, m, m2)
            wit = constant_monomial_witness(fld, m, m2)
            assert wit is not None
            p, s = wit
            applied = tuple(
                tuple(fld.mul(s[j], row[p[j]]) for j in range(n)) for row in m
            )
            assert applied == m2
    # stacked (C; D) of monomially equivalent encoders is weight preserving
    cf = controller_form(g_mixed)
    h = apply_monomial(g_mixed, (2, 0, 1), (1, 1, 1))
    cf2 = controller_form(h)
    stacked = cf.C + cf.D
    stacked2 = cf2.C + cf2.D
    assert weight_preserving_equiv_check(f2, stacked, stacked2)


def test_macwilliams_classic_pair(g1, g2):
    for g, expected in (
        (g1, (({0: 1, 3: 1}, {1: 1, 2: 1}), ({1: 1, 2: 1}, {1: 1, 2: 1}))),
        (g2, (({0: 1, 2: 1}, {1: 2}), ({2: 2}, {1: 1, 3: 1}))),
    ):
        gam = extend(lam_of(g))
        out = macwilliams_delta1(gam)
        assert tuple(tuple(dict(e.terms()) for e in row) for row in out.entries) == expected
        assert out.entries == genutil.reference_macwilliams(gam, g.n, g.k).entries
        from convcode import dual_basis
        dual_gamma = extend(lam_of(dual_basis(g)))
        assert out == dual_gamma


def test_macwilliams_involution(f2):
    rng = random.Random(37)
    for _ in range(15):
        g = genutil.random_minimal_code(
            rng, f2, n_max=5, k_max=4, gamma_min=1, gamma_max=1
        )
        gam = extend(lam_of(g))
        fwd = macwilliams_delta1(gam)
        back = macwilliams_delta1(fwd)
        assert back == gam
        # n and k come from Gamma, and they are the ones the code has
        assert fwd.entries == genutil.reference_macwilliams(gam, g.n, g.k).entries
        assert back.entries == genutil.reference_macwilliams(fwd, g.n, g.n - g.k).entries


def test_macwilliams_guards(g213, g1, f3):
    with pytest.raises(ValueError):
        macwilliams_delta1(extend(lam_of(g213)))  # 8 states
    with pytest.raises(ValueError):
        macwilliams_delta1(lam_of(g1))  # not extended
    fake = genutil.adj_from_dense(
        [[WeightEnum.one(), WeightEnum({1: 1})],
         [WeightEnum({1: 1}), WeightEnum({1: 1})]],
        q=3, n=2, extended=True,
    )
    with pytest.raises(ValueError):
        macwilliams_delta1(fake)  # non-binary
    corrupt = genutil.adj_from_dense(
        [[WeightEnum({0: 1, 1: 1}), WeightEnum({2: 1})],
         [WeightEnum({2: 1}), WeightEnum({2: 1})]],
        q=2, n=3, extended=True,
    )
    with pytest.raises(ValueError, match="count 3 is not a power of q = 2"):
        macwilliams_delta1(corrupt)  # its first row gives no dimension k
    corrupt = genutil.adj_from_dense(
        [[WeightEnum({0: 1}), WeightEnum({2: 1})],
         [WeightEnum({2: 1}), WeightEnum({1: 1})]],
        q=2, n=3, extended=True,
    )
    with pytest.raises(ValueError, match="does not clear"):
        macwilliams_delta1(corrupt)


def test_shift_permutation_lemma():
    for gamma in (2, 3):
        assert verify_shift_permutation_lemma(gamma) == genutil.reference_shift_permutation_lemma(gamma)
    for gamma in range(2, 9):
        assert verify_shift_permutation_lemma(gamma)
    for gamma in (9, 10**12):
        with pytest.raises(LimitError):
            verify_shift_permutation_lemma(gamma)
    with pytest.raises(ValueError):
        verify_shift_permutation_lemma(1)


def alphabet_permutation(q, gamma, pi):
    """sigma with pi applying sigma to every register cell, or None."""
    sigma = pi[:q]  # state c is the register (0, ..., 0, c)
    image = [state_index(q, [sigma[d] for d in state_vector(q, gamma, x)]) for x in range(q**gamma)]
    return sigma if tuple(image) == pi else None


def test_k1_witnesses_are_alphabet_permutations():
    # for k = 1 the support of Lambda is the shift graph, so every witness
    # between two codes of one shape applies one sigma to every register cell
    rng = random.Random(1)
    pairs = [f5_pair()]
    for fld in (field_make(3), field_make(2, 2), field_make(5)):
        codes = [
            genutil.random_minimal_code(rng, fld, n_max=2 + i % 2, k_max=1, gamma_max=1 + i % 2)
            for i in range(10)
        ]
        pairs += [
            (g, h) for g, h in itertools.combinations_with_replacement(codes, 2)
            if (g.n, g.info.delta) == (h.n, h.info.delta)
        ]
    moved = 0
    for g, h in pairs:
        a, b = lam_of(g), lam_of(h)
        found = list(invariance._witnesses(a, b))
        for pi in found:
            sigma = alphabet_permutation(g.field.q, g.info.delta, pi)
            assert sigma is not None and sigma[0] == 0
        # the identity, when it is a witness, is the least of all
        assert gen_adj_equal(a, b) == (found[0] if found else None)
        moved += bool(found) and found[0] != tuple(range(a.size))
    assert len(pairs) > 60 and moved > 1


def shift_graph(q, gamma):
    """x -> (u, x[0..gamma-2]) with the zero loop dropped, states packed
    first coordinate most significant."""
    top = q ** (gamma - 1)
    rows = [[(x // q + u * top, 0) for u in range(q)] for x in range(q**gamma)]
    rows[0] = rows[0][1:]
    return AdjMatrix(rows, [WeightEnum.one()], q=q, n=1)


@pytest.mark.parametrize("q, gamma", [(2, 1), (2, 5), (3, 1), (3, 4), (4, 2), (4, 3), (5, 2), (5, 3)])
def test_shift_graph_automorphisms_are_the_alphabet_permutations(q, gamma):
    # (q-1)! zero-fixing automorphisms, listed in strictly ascending order;
    # refinement alone leaves the F_q^* orbits, so the search individualises
    shift = shift_graph(q, gamma)
    found = list(invariance._witnesses(shift, shift))
    assert found == sorted(set(found)) and all(apply_witness(shift, pi) == shift for pi in found)
    sigmas = {alphabet_permutation(q, gamma, pi) for pi in found}
    assert sigmas == {(0, *rest) for rest in itertools.permutations(range(1, q))}
    assert len(found) == math.factorial(q - 1)


def test_search_refuses_a_large_group_at_the_work_bound():
    # a support with many automorphisms, every cell of an F3 Lambda with row
    # degrees (2, 1) made one enumerator, is refused once the states that
    # the refinements below the root sign, both matrices' 27 a round, pass
    # SEARCH_WORK: after about 19,400 refinements of one round each, about
    # 3 s on a 2-CPU Xeon host, where the search that placed states one at a
    # time took 9.6 s
    lam = lam_of(genutil.code_with_degrees(random.Random(1), field_make(3), (2, 1)))
    support = AdjMatrix([[(j, 0) for j, _ in row] for row in lam.rows], [WeightEnum.one()], q=3, n=lam.n)
    start = time.perf_counter()
    with pytest.raises(LimitError, match="^1048626 states signed by the search exceed the bound 1048576$"):
        list(invariance._witnesses(support, support))
    assert time.perf_counter() - start < 6.0


def test_search_bound_does_not_depend_on_density(monkeypatch):
    # the Lambda of an F16 code with row degrees (1, 1) is dense, 256 states
    # each reaching every state, and has the 15 scalings x -> lambda x as
    # zero-fixing automorphisms; the search lists the first 5 in ascending
    # order through 6 refinements, where a bound that charged each node the
    # list entries of a round, 4 x 65,535 here, refused the fifth node
    f16 = field_make(2, 4)
    lam = lam_of(genutil.code_with_degrees(random.Random(0), f16, (1, 1)))
    assert all(len(row) == 256 - (not x) for x, row in enumerate(lam.rows))
    refined, calls = invariance._refined_colors, []
    monkeypatch.setattr(invariance, "_refined_colors", lambda *args, **kw: calls.append(1) or refined(*args, **kw))
    found = list(itertools.islice(invariance._witnesses(lam, lam), 5))
    assert found == sorted(set(found)) and all(apply_witness(lam, pi) == lam for pi in found)
    scalings = {tuple(state_index(16, [f16.mul(c, x) for x in state_vector(16, 2, i)]) for i in range(256))
                for c in f16.units()}
    assert len(found) == 5 and set(found) <= scalings and len(calls) == 6


def k1_route_pairs():
    """Seeded (kind, g, h) pairs of k = 1 codes over F2, F3, F4 and F5 with
    delta <= 3: each code against a row-scaled, column-monomial image
    ("image") and against another code of its shape ("other"), the F5 pair
    ("f5"), and F4 codes against their coefficient-wise Frobenius images
    ("frobenius"), whose Lambda are conjugate by a -> a^2 on every cell."""
    rng = random.Random(36)
    pairs = [("f5", *f5_pair())]
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1)):
        fld = field_make(p, m)
        code = lambda: genutil.random_minimal_code(rng, fld, n_max=3, k_max=1, gamma_max=3)
        for _ in range(8):
            g = code()
            scaled = pm(fld, [[polyalg.poly_scale(fld, rng.choice(fld.units()), e) for e in g.rows[0]]])
            cols = rng.sample(range(g.n), g.n)
            pairs.append(("image", g, apply_monomial(scaled, cols, [rng.choice(fld.units()) for _ in cols])))
            other = code()
            while (other.n, other.info.delta) != (g.n, g.info.delta):
                other = code()
            pairs.append(("other", g, other))
            if fld.q == 4:
                pairs.append(("frobenius", g, pm(fld, [[[fld.mul(c, c) for c in e] for e in g.rows[0]]])))
    return pairs


EQUAL_DEGREE_SHAPES = (
    (2, 1, 2, 1), (2, 1, 2, 2), (2, 1, 2, 3), (3, 1, 2, 1), (3, 1, 2, 2), (2, 2, 2, 1), (2, 2, 2, 2),
    (2, 3, 2, 1), (2, 2, 1, 3), (5, 1, 1, 3), (7, 1, 1, 2), (2, 3, 1, 2), (2, 4, 1, 2),
)  # (p, m, k, row degree) with n = 3: at most 256 states


def equal_degree_code(rng, fld, k, degree):
    """A seeded minimal code over fld, n = 3, whose k rows all have `degree`."""
    while True:
        g = genutil.random_matrix(rng, fld, k, 3, degree)
        try:
            if not g.info.is_basic:
                continue
        except ValueError:  # rank deficient
            continue
        g, _ = minimize(g)
        if g.info.row_degrees == (degree,) * k:
            return g


def equal_degree_pairs():
    """Seeded (kind, g, h) pairs of codes whose rows all have one degree:
    each code against a row-transformed, column-monomial image ("image"),
    against another code of its shape ("other") and, over F4 and F8,
    against its coefficient-wise a -> a^2 image ("frobenius"); and the F5
    pair ("f5")."""
    rng = random.Random(38)
    pairs = [("f5", *f5_pair())]
    for p, m, k, degree in EQUAL_DEGREE_SHAPES:
        fld = field_make(p, m)
        for _ in range(3):
            g = equal_degree_code(rng, fld, k, degree)
            h, _ = genutil.elementary_ops(rng, g, 4)
            cols = rng.sample(range(3), 3)
            pairs.append(("image", g, apply_monomial(h, cols, [rng.choice(fld.units()) for _ in cols])))
            pairs.append(("other", g, equal_degree_code(rng, fld, k, degree)))
            if fld.q in (4, 8):
                frobenius = [[[fld.mul(c, c) for c in e] for e in row] for row in g.rows]
                pairs.append(("frobenius", g, pm(fld, frobenius)))
    return pairs


def test_equal_degree_witnesses_are_pinned():
    # code_witness's answers, None included, on codes whose rows share one
    # degree: a route that searches fewer states must return the same
    # lexicographically least witnesses
    pairs = equal_degree_pairs()
    results = [invariance.code_witness(g, h) for _, g, h in pairs]
    assert all(w is not None for (kind, _, _), w in zip(pairs, results) if kind != "other")
    kinds = Counter(
        (kind, "none" if w is None else "identity" if w == tuple(range(len(w))) else "moved")
        for (kind, _, _), w in zip(pairs, results)
    )
    assert len(pairs) == 94 and kinds["other", "none"] >= 30, kinds
    assert kinds["image", "moved"] >= 15 and kinds["frobenius", "moved"] >= 15, kinds
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "29311bd9269ba62bdbcdc283384358b0882dca12acea576371d8a5de499534d8"


def test_alphabet_route_matches_the_orbit_search():
    # every witness between two codes whose rows share one degree is an
    # alphabet map, so the candidates of the alphabet search give the
    # answer of the orbit search over the q^delta states of Lambda
    pairs = equal_degree_pairs() + k1_route_pairs()
    assert all(len(set(g.info.row_degrees + h.info.row_degrees)) == 1 for _, g, h in pairs)
    routed = [invariance.code_witness(g, h) for _, g, h in pairs]
    searched = [
        gen_adj_equal(lam_of(g), lam_of(h), lambda: statediag._orbits(g.field, g.info.delta))
        for _, g, h in pairs
    ]
    assert routed == searched
    kinds = Counter(
        (kind, g.k, "none" if w is None else "identity" if w == tuple(range(len(w))) else "moved")
        for (kind, g, _), w in zip(pairs, routed)
    )
    assert all(w is not None for (kind, _, _), w in zip(pairs, routed) if kind != "other")
    assert len(pairs) == 94 + 73, kinds
    assert kinds["other", 1, "none"] >= 40 and kinds["other", 2, "none"] >= 15, kinds
    assert kinds["image", 2, "moved"] >= 15 and kinds["frobenius", 1, "moved"] >= 10, kinds


def test_alphabet_route_runs_no_search_over_the_register(monkeypatch):
    # for codes whose rows share one degree the cell graphs, the refinement
    # and the search see the q^k letters alone, never the q^delta states of
    # Lambda, and each code's diagram is built once; an F4 pair with indices
    # (1, 2) still searches Lambda
    sizes, built = [], []

    def spy(owner, name, record):
        inner = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kw: record(args) or inner(*args, **kw))

    spy(invariance, "_cell_graphs", lambda args: sizes.append(args[0].size))
    spy(invariance, "_refined_colors", lambda args: sizes.append(len(args[0][0][0])))
    spy(invariance, "_witnesses", lambda args: sizes.append(args[0].size))
    spy(statediag, "build", built.append)
    rng = random.Random(37)
    shapes = [(2, 1, (3,)), (3, 1, (2,)), (2, 2, (2,)), (5, 1, (2,)), (7, 1, (2,)), (2, 4, (2,)),
              (2, 1, (2, 2)), (2, 2, (2, 2)), (2, 3, (2, 2)), (2, 2, (1, 2))]
    for p, m, degrees in shapes:
        fld = field_make(p, m)
        for _ in range(3):
            g = genutil.code_with_degrees(rng, fld, degrees)
            h = genutil.code_with_degrees(rng, fld, degrees)
            while lam_of(g) == lam_of(h):  # the identity would answer
                h = genutil.code_with_degrees(rng, fld, degrees)
            sizes.clear()
            built.clear()
            invariance.code_witness(g, h)
            assert len(built) == 2 and sizes, (fld.q, degrees)
            letters = fld.q ** len(degrees)
            if len(set(degrees)) == 1:
                assert max(sizes) == letters < fld.q ** sum(degrees), (fld.q, degrees)
            else:
                assert sizes == [fld.q ** sum(degrees)] * 3, (fld.q, degrees)


def test_alphabet_route_answers_the_f16_frobenius_pair():
    # a 256-state k = 1 F16 code against its coefficient-wise a -> a^2 image:
    # the orbit search over the states of Lambda did not end within 600 s on
    # a 2-CPU Xeon host, the search over the 16 letters takes milliseconds;
    # the least witness applies a -> a^2 to both register cells
    f16 = field_make(2, 4)
    g = pm(f16, [[[11, 10, 11], [13, 10, 6], [13, 6, 10]]])
    h = pm(f16, [[[f16.mul(c, c) for c in e] for e in row] for row in g.rows])
    start = time.perf_counter()
    wit = invariance.code_witness(g, h)
    assert time.perf_counter() - start < 1.0
    assert wit == tuple(statediag._cellwise([f16.mul(c, c) for c in range(16)], 2, 16))
    assert apply_witness(lam_of(g), wit) == lam_of(h)


PLACEMENT_SHAPES = (
    (2, 1, (3,)), (2, 1, (1, 1)), (2, 1, (2, 2)), (2, 1, (1, 1, 1)), (3, 1, (2,)), (2, 2, (2,)),
    (2, 2, (3,)), (5, 1, (2,)), (7, 1, (1,)), (7, 1, (2,)),
)  # (p, m, row degrees) with q^k <= 8 and n = k + 1


def test_placements_match_the_brute_force_filter_and_the_listing_of_m():
    # on seeded pairs with at most 8 letters, each code against itself, a
    # row-transformed, column-monomial image, its coefficient-wise a -> a^e
    # image for a unit exponent e other than 1 (a -> a^2 over F4, which
    # conjugates Lambda; a -> a^3 and a -> a^5 over F5 and F7, which pass
    # the pair tables and fail on Lambda) and another code of its shape:
    # `_placements` lists exactly the sigma, sigma(0) = 0, that a filter
    # over every permutation accepts on the pair tables made off the
    # coefficients of g and h, in the same order, and code_witness gives
    # the first pi_sigma that `_carries` certifies among the maps of the
    # alphabet matrices M that `_witnesses` lists
    rng = random.Random(51)
    kinds = Counter()
    for p, m, degrees in PLACEMENT_SHAPES:
        fld = field_make(p, m)
        exponent = next(e for e in range(2, fld.q) if math.gcd(e, fld.q - 1) == 1) if fld.q > 3 else 1
        for _ in range(2):
            g = genutil.code_with_degrees(rng, fld, degrees)
            image, _ = genutil.elementary_ops(rng, g, 3)
            cols = rng.sample(range(g.n), g.n)
            image = apply_monomial(image, cols, [rng.choice(fld.units()) for _ in cols])
            power = pm(fld, [[[genutil.field_pow(fld, c, exponent) for c in e] for e in row] for row in g.rows])
            for kind, h in (("self", g), ("image", image), ("power", power),
                            ("other", genutil.code_with_degrees(rng, fld, degrees))):
                sd_g, sd_h = build(controller_form(g)), build(controller_form(h))
                w_g, w_h = statediag._edge_weights(sd_g), statediag._edge_weights(sd_h)
                last, lift = statediag._letters(sd_g)
                cells = [WeightEnum({w: 1}) for w in range(g.n + 1)]
                mat_g, mat_h = (AdjMatrix([[*enumerate(w[x])][not x :] for x in last], cells, q=fld.q, n=g.n)
                                for w in (w_g, w_h))
                orbits = statediag._orbits(fld, g.k)
                colors = _refined_colors(_cell_graphs(mat_g, mat_h), orbits)
                listed = [] if colors is None else list(invariance._placements(
                    statediag._pair_table(sd_g, w_g), statediag._pair_table(sd_g, w_h), colors))
                ref_g, ref_h = genutil.pair_weights(g), genutil.pair_weights(h)
                letters = fld.q**g.k
                filtered = [
                    sigma for sigma in ((0, *rest) for rest in itertools.permutations(range(1, letters)))
                    if all([ref_h[st][sigma[a]][sigma[b]] for b in range(letters)] == ref_g[st][a]
                           for st in ref_g for a in range(letters))
                ]
                assert listed == filtered, (fld.q, degrees, kind)
                old = next((pi for sigma in invariance._witnesses(mat_g, mat_h, orbits) for pi in [lift(sigma)]
                            if invariance._carries(w_g, w_h, pi, sigma)), None)
                assert invariance.code_witness(g, h) == old, (fld.q, degrees, kind)
                kinds[kind, len(listed) > 1, old is not None] += 1
    assert kinds["self", True, True] >= 5 and kinds["power", True, False] >= 2, kinds


EDGE_WEIGHT_SHAPES = (
    (2, 1, 1, 3), (2, 1, 2, 2), (3, 1, 1, 2), (3, 1, 2, 1), (2, 2, 1, 2), (2, 2, 2, 1), (5, 1, 1, 2),
    (5, 1, 2, 1), (7, 1, 1, 1), (7, 1, 2, 1), (2, 3, 1, 1), (2, 3, 2, 1), (3, 2, 1, 1), (3, 2, 2, 1),
)  # (p, m, k, row degree) with n = 3 over F2, F3, F4, F5, F7, F8 and F9


def test_edge_weights_are_the_cells_of_lambda():
    # when every row has one degree m >= 1, every edge (x, u) != (0, 0) has
    # a destination of its own in row x, so Lambda is the alphabet route's
    # rows of edge weights: Lambda[x][xA + uB] == W^w[x][u], and no row
    # holds another cell
    rng = random.Random(39)
    for p, m, k, degree in EDGE_WEIGHT_SHAPES:
        fld = field_make(p, m)
        for _ in range(2):
            sd = build(controller_form(equal_degree_code(rng, fld, k, degree)))
            lam, w = adjacency(sd), statediag._edge_weights(sd)
            xa, ub = sd.xa, sd.ub
            letters = len(ub)
            assert len(w) == lam.size and {len(row) for row in w} == {letters} and w[0][0] == 0
            for x, row in enumerate(lam.rows):
                cells = {j: lam.cells[t] for j, t in row}
                edges = {xa[x] + ub[u]: WeightEnum({w[x][u]: 1}) for u in range(not x, letters)}
                assert cells == edges, (fld.q, k, degree, x)


def test_alphabet_route_builds_no_lambda(monkeypatch):
    # on codes whose rows share one degree code_witness reads each code's
    # diagram, built once, and neither builds Lambda nor re-checks a
    # witness on it; a pair with indices (1, 2) still compares both Lambda
    calls = Counter()

    def spy(owner, name):
        inner = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kw: calls.update([name]) or inner(*args, **kw))

    for owner, name in ((spectrum, "adjacency"), (spectrum, "conjugates"), (statediag, "build")):
        spy(owner, name)
    for kind, g, h in equal_degree_pairs():
        calls.clear()
        invariance.code_witness(g, h)
        assert calls == Counter(build=2), kind
    rng = random.Random(39)
    f4 = field_make(2, 2)
    for _ in range(3):
        g, h = (genutil.code_with_degrees(rng, f4, (1, 2)) for _ in "gh")
        calls.clear()
        invariance.code_witness(g, h)
        assert calls["adjacency"] == calls["build"] == 2 and calls["conjugates"] >= 1


def changed_edge(w, x, u, n):
    """The rows w with the weight of edge (x, u) moved to another weight of
    F_q^n for state x alone: a row that other states share stays theirs."""
    return [*w[:x], (*w[x][:u], (w[x][u] + 1) % (n + 1), *w[x][u + 1 :]), *w[x + 1 :]]


def test_certification_refuses_a_changed_edge_weight(monkeypatch):
    # negative control of the alphabet route's check: each witness that
    # moves states passes `_carries` on the two codes' rows and is refused
    # once the weight of one edge of either table changes, also when it
    # changes for one state of a row that other states share, and so
    # code_witness gives another answer when one edge of h's table changes
    rng = random.Random(40)
    moved = shared = 0
    for kind, g, h in equal_degree_pairs():
        pi = invariance.code_witness(g, h)
        if pi is None or pi == tuple(range(len(pi))):
            continue
        sd_g, sd_h = (build(controller_form(f)) for f in (g, h))
        w_g, w_h = statediag._edge_weights(sd_g), statediag._edge_weights(sd_h)
        letter = {first: d for d, first in enumerate(sd_g.ub)}
        sigma = [letter[pi[first]] for first in sd_g.ub]
        letters = len(sigma)
        assert invariance._carries(w_g, w_h, pi, sigma), kind
        edges = {divmod(at, letters) for at in {0, len(w_g) * letters - 1, *rng.sample(range(len(w_g) * letters), 8)}}
        for w in (w_g, w_h):
            sharing = Counter(map(id, w))
            states = [x for x, row in enumerate(w) if sharing[id(row)] > 1]
            if states:
                edges.add((rng.choice(states), rng.randrange(letters)))
                shared += 1
        for x, u in edges:
            assert not invariance._carries(changed_edge(w_g, x, u, g.n), w_h, pi, sigma), (kind, x, u)
            assert not invariance._carries(w_g, changed_edge(w_h, x, u, g.n), pi, sigma), (kind, x, u)
        x, u = rng.randrange(len(w_h)), rng.randrange(letters)
        tables = iter([w_g, changed_edge(w_h, x, u, g.n)])
        monkeypatch.setattr(statediag, "_edge_weights", lambda sd: next(tables))
        assert invariance.code_witness(g, h) != pi, (kind, x, u)
        monkeypatch.undo()
        moved += 1
    assert moved >= 30 and shared >= 20, (moved, shared)


def test_carries_matches_the_per_edge_reference(monkeypatch):
    # every pi_sigma the alphabet route lists on seeded pairs over F2 to F9
    # gets the same answer from `_carries` and from the per-edge flat
    # formula, on the two codes' rows and on them swapped, and so does each
    # with one edge of either table changed, which both refuse when the
    # unchanged tables passed
    rng = random.Random(43)
    calls = []
    inner = invariance._carries
    monkeypatch.setattr(invariance, "_carries", lambda *args: calls.append(args) or inner(*args))
    for p, m, k, degree in EDGE_WEIGHT_SHAPES:
        fld = field_make(p, m)
        for _ in range(2):
            g = equal_degree_code(rng, fld, k, degree)
            h, _ = genutil.elementary_ops(rng, g, 4)
            cols = rng.sample(range(3), 3)
            image = apply_monomial(h, cols, [rng.choice(fld.units()) for _ in cols])
            frobenius = pm(fld, [[[genutil.field_pow(fld, c, p) for c in e] for e in row] for row in g.rows])
            for other in (image, frobenius, equal_degree_code(rng, fld, k, degree)):
                invariance.code_witness(g, other)
    verdicts = Counter()
    for w_g, w_h, pi, sigma in calls:
        for w_a, w_b in ((w_g, w_h), (w_h, w_g)):
            verdict = inner(w_a, w_b, pi, sigma)
            assert verdict == genutil.carries(w_a, w_b, pi, sigma)
            verdicts[verdict] += 1
            for _ in range(3):
                x, u = rng.randrange(len(w_a)), rng.randrange(len(sigma))
                for pair in ((changed_edge(w_a, x, u, 3), w_b), (w_a, changed_edge(w_b, x, u, 3))):
                    changed = inner(*pair, pi, sigma)
                    assert changed == genutil.carries(*pair, pi, sigma) and not (verdict and changed)
    assert verdicts[True] >= 10 and verdicts[False] >= 10, verdicts


def test_edge_weights_weigh_each_distinct_xc_once():
    # the rows cost (distinct xC) x q^k weight lookups, not q^delta x q^k,
    # and states with one xC share one row object; the seeded codes cover
    # x -> xC one-to-one and not, the 256-state F4 k = 2 shape among them
    rng = random.Random(43)
    kinds = Counter()
    for p, m, k, degree in (*EDGE_WEIGHT_SHAPES, (2, 2, 2, 2)):
        fld = field_make(p, m)
        for _ in range(2):
            sd = build(controller_form(equal_degree_code(rng, fld, k, degree)))
            xc, ud = sd.xc, sd.ud
            inner, looked = statediag._weigher(fld.q, sd.n), []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(statediag, "_weigher", lambda q, n: lambda v: looked.append(v) or inner(v))
                w = statediag._edge_weights(sd)
            assert len(looked) == len(set(xc)) * len(ud) <= fld.q ** (sd.n + k), (fld.q, k, degree)
            rows = {}
            assert all(rows.setdefault(c, row) is row for c, row in zip(xc, w)), (fld.q, k, degree)
            assert len(set(map(id, w))) == len(rows)
            kinds[len(rows) < len(xc)] += 1
    assert kinds[True] and kinds[False], kinds


def test_lift_matches_the_cellwise_reference():
    # over F2 to F9, `_letters` gives the states last(c) and lifts each
    # sigma to the reference pi_sigma: a zero-fixing permutation mapping
    # every edge (x, u) onto (pi_sigma x, sigma u), which ascends as sigma
    # does
    rng = random.Random(47)
    checked = 0
    for p, m, k, degree in EDGE_WEIGHT_SHAPES:
        fld = field_make(p, m)
        sd = build(controller_form(equal_degree_code(rng, fld, k, degree)))
        letters, s = len(sd.ub), sd.num_states
        last, lift = statediag._letters(sd)
        expected = list(sd.ub)  # last(c) = cBA^(m-1)
        for _ in range(sd.gamma // sd.k - 1):
            expected = [sd.xa[x] for x in expected]
        assert last == expected, (fld.q, k, degree)
        identity = tuple(range(letters))
        assert lift(identity) == tuple(range(s)) == genutil.lifted(sd, identity)
        sigmas = sorted({(0, *rng.sample(range(1, letters), letters - 1)) for _ in range(4)})
        pis = [lift(sigma) for sigma in sigmas]
        assert pis == sorted(pis), (fld.q, k, degree)
        for sigma, pi in zip(sigmas, pis):
            assert pi == genutil.lifted(sd, sigma) and sorted(pi) == list(range(s)) and pi[0] == 0
            assert all(pi[sd.xa[x] + sd.ub[u]] == sd.xa[pi[x]] + sd.ub[sigma[u]]
                       for x in range(s) for u in range(letters)), (fld.q, k, degree, sigma)
            assert [pi[c] for c in last] == [last[sigma[c]] for c in range(letters)]
            checked += 1
    assert checked >= 30, checked


def test_one_weight_table_per_field_and_length(monkeypatch):
    # the weight table of a (q, n), a `_cellwise` sum table, is built once
    # in the process: two code_witness calls on the alphabet route and the
    # edge views of a diagram of that (q, n) build it once between them
    statediag._weigher.cache_clear()
    inner, built = statediag._cellwise, []
    monkeypatch.setattr(statediag, "_cellwise",
                        lambda digits, cells, base: (base == 1 and built.append(len(digits))) or inner(digits, cells, base))
    rng = random.Random(48)
    f4 = field_make(2, 2)
    g, h = (equal_degree_code(rng, f4, 1, 2) for _ in "gh")
    for _ in range(2):
        invariance.code_witness(g, h)
    sd = build(controller_form(g))
    list(sd.edges_by_source)
    list(statediag.labelled_transitions(sd, str, lambda v, w: w))
    assert built == [4]


def test_recover_forney_refuses_a_destination_outside_the_states():
    # a destination past the last state, or below 0, names no state; the
    # matrix is refused as an input error, not an IndexError or a wrapped
    # index
    w = [WeightEnum({1: 1})]
    for bad in (2, 5, -1):
        rows = [[(1, 0)], [(0, 0), (bad, 0)]]
        with pytest.raises(ValueError, match="destinations must be states"):
            recover_forney(AdjMatrix(rows, w, q=2, n=3))


def forney_pairs():
    """Seeded pairs of minimal codes of one shape and one constraint length
    whose Forney indices differ, of at most 256 states."""
    rng = random.Random(39)
    shapes = [(2, 1, (1, 2), (0, 3)), (2, 1, (2, 2), (1, 3)), (2, 1, (1, 1, 1), (0, 1, 2)),
              (3, 1, (1, 1), (0, 2)), (2, 2, (1, 2), (0, 3)), (2, 2, (2, 2), (1, 3)), (2, 3, (1, 1), (0, 2))]
    pairs = []
    for p, m, mine, theirs in shapes:
        fld = field_make(p, m)
        for _ in range(3):
            pairs.append(tuple(genutil.code_with_degrees(rng, fld, degrees) for degrees in (mine, theirs)))
    return pairs


def test_unlike_forney_indices_are_refused_before_lambda(monkeypatch):
    # Lambda fixes the Forney indices, so code_witness refuses unlike ones
    # before either diagram is built, and the orbit search over Lambda
    # agrees that no witness exists
    pairs = forney_pairs()
    searched = [
        gen_adj_equal(lam_of(g), lam_of(h), lambda: statediag._orbits(g.field, g.info.delta))
        for g, h in pairs
    ]
    assert len(pairs) == 21 and searched == [None] * 21
    monkeypatch.setattr(statediag, "build", _refused)
    for g, h in pairs:
        assert g.info.delta == h.info.delta and (g.k, g.n) == (h.k, h.n)
        assert invariance.code_witness(g, h) is None
        assert invariance.code_witness(h, g) is None


def _refused(*args, **kwargs):
    raise AssertionError("a diagram was built")


def sorting_conjugates(a, b, pi):
    """The reference of `spectrum.conjugates`: every row of a, mapped by pi and
    sorted, equals b's row pi(i) as (destination, joint id) pairs."""
    first = {}
    ids_a = [first.setdefault(e.terms(), t) for t, e in enumerate(a.cells)]
    ids_b = [first.get(e.terms(), -1) for e in b.cells]
    return pi[0] == 0 and all(
        sorted([(pi[j], ids_a[t]) for j, t in row]) == [(j, ids_b[u]) for j, u in b.rows[p]]
        for row, p in zip(a.rows, pi)
    )


def test_lookup_reverification_matches_the_sorting_reference(g213):
    # conjugate pairs whose cell tables list equal enumerators in another
    # order or twice, and k = 1 pairs, each with its witness and with
    # adversarial permutations: pi(0) != 0, one transposition away from the
    # witness, and b with one extra nonzero cell in a row
    rng = random.Random(39)
    pairs = retabled_conjugate_pairs(g213)
    pairs += [(lam_of(g), lam_of(h)) for kind, g, h in k1_route_pairs()[::3] if kind != "other"]
    cases = []
    for a, b in pairs:
        wit = gen_adj_equal(a, b)
        s = a.size
        cases.append(("witness", a, b, wit))
        cases.append(("zero moved", a, b, (wit[1], wit[0], *wit[2:])))
        i, j = rng.sample(range(1, s), 2)
        moved = list(wit)
        moved[i], moved[j] = moved[j], moved[i]
        cases.append(("transposed", a, b, tuple(moved)))
        r = rng.randrange(s)
        free = sorted(set(range(s)) - {j for j, _ in b.rows[r]})
        if free:
            extra = sorted(b.rows[r] + ((rng.choice(free), rng.randrange(len(b.cells))),))
            rows = b.rows[:r] + (extra,) + b.rows[r + 1:]
            cases.append(("extra cell", a, AdjMatrix(rows, b.cells, q=b.q, n=b.n, extended=b.extended), wit))
    answers = [spectrum.conjugates(a, b, pi) for _, a, b, pi in cases]
    assert answers == [sorting_conjugates(a, b, pi) for _, a, b, pi in cases]
    by_kind = Counter((kind, answer) for (kind, *_), answer in zip(cases, answers))
    assert by_kind["witness", True] == len(pairs) == 27, by_kind
    assert by_kind["zero moved", True] == by_kind["extra cell", True] == 0, by_kind
    assert by_kind["transposed", False] >= 20 and by_kind["extra cell", False] >= 20, by_kind


def test_macwilliams_refuses_a_weight_above_n_and_a_negative_count(f2):
    # Gamma of [1, z, 1 + z] is [[1, W^2], [W^2, W^2]]; the transform checks
    # every entry against n and every count it yields
    w2 = WeightEnum({2: 1})
    gam = extend(invariance.code_adjacency(pm(f2, [[[1], [0, 1], [1, 1]]])))
    assert [[gam.cells[t] for _, t in row] for row in gam.rows] == [[WeightEnum.one(), w2], [w2, w2]]
    # every count of a first row sums to 2^k, so k = 1 is read before the
    # refusal: [[1, W^4], [W^4, W^4]], and [[1, W^2], [W^2, -7]]
    cells = [WeightEnum({4: 1}), WeightEnum.one()]
    with pytest.raises(ValueError, match="entry weight exceeds the block length"):
        macwilliams_delta1(AdjMatrix(gam.rows, cells, q=2, n=3, extended=True))
    rows = [[(0, 0), (1, 1)], [(0, 1), (1, 2)]]
    cells = [WeightEnum.one(), w2, WeightEnum({0: -7})]
    with pytest.raises(ValueError, match="transform yields a negative count"):
        macwilliams_delta1(AdjMatrix(rows, cells, q=2, n=3, extended=True))


def test_recover_forney_refuses_inconsistent_reachability():
    # malformed matrices whose cells pass the count check: state 0 reaches
    # 2 of 4 states; reaches 1 and then all 8 at once, ranks 1 and 3 with
    # k = 1, which no row-degree multiset gives; and an extended matrix
    # without the zero self-loop, whose first row reaches more states
    # than its counts allow (rank 1 > k = 0)
    w = [WeightEnum({1: 1})]
    cases = (
        ([[(1, 0)], [(0, 0)], [(0, 0)], [(0, 0)]], False, "stable rank differs from the state-space dimension"),
        ([[(1, 0)], [(j, 0) for j in range(2, 8)], *[[]] * 6], False,
         "recovered degrees do not sum to the state dimension"),
        ([[(1, 0)], [(0, 0)]], True, "inconsistent reachability counts"),
    )
    for rows, extended, message in cases:
        with pytest.raises(ValueError, match=message):
            recover_forney(AdjMatrix(rows, w, q=2, n=3, extended=extended))
