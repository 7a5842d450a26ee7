import pathlib
import random
import sys

import pytest

from convcode import (
    WeightEnum,
    adjacency,
    build,
    controller_form,
    delay_free_check,
    pm,
    zero_weight_cycle_exists,
)
from convcode.cli import parse_gm
from convcode.errors import LimitError
from convcode.galois import FieldSpec, field_make
from convcode.polyalg import encoder_info, k_minors, poly_add, poly_gcd, poly_mul, shift, vec_mat
from convcode import statediag
from convcode.statediag import dot_chunks, state_index, state_vector

import genutil


def test_state_packing_big_endian():
    assert state_index(2, (1, 0, 0)) == 4
    assert state_index(2, (0, 1, 1)) == 3
    assert state_vector(2, 3, 5) == (1, 0, 1)
    for idx in range(27):
        assert state_index(3, state_vector(3, 3, idx)) == idx


def test_eight_state_diagram(g213):
    sd = build(controller_form(g213))
    groups = tuple(sd.edges_by_source)
    assert sd.num_states == 8
    assert sum(len(g) for g in groups) == 15
    assert len(groups[0]) == 1
    assert groups[0][0] == (4, 2)  # (dst, weight)
    edge = next(genutil.edges(sd))
    assert edge.u == (1,) and edge.v == (1, 1) and edge.weight == 2
    assert edge.dst == 4  # state (1, 0, 0)
    for i in range(1, 8):
        assert len(groups[i]) == 2


def test_two_state_diagram(g1):
    sd = build(controller_form(g1))
    assert sd.num_states == 2
    edges = {(e.src, e.dst, e.u, e.weight) for e in genutil.edges(sd)}
    assert edges == {
        (0, 1, (1,), 2),
        (1, 0, (0,), 2),
        (1, 1, (1,), 2),
    }


def test_parallel_edges_iff_zero_degree_row(g_mixed, g213):
    sd = build(controller_form(g_mixed))
    groups = tuple(sd.edges_by_source)
    assert len(groups[0]) == 3
    assert len(groups[1]) == 4
    pairs = [(e.src, e.dst) for e in genutil.edges(sd)]
    assert len(pairs) != len(set(pairs))  # some gamma_i = 0: parallel edges
    sd213 = build(controller_form(g213))
    pairs = [(e.src, e.dst) for e in genutil.edges(sd213)]
    assert len(pairs) == len(set(pairs))  # all degrees positive: none


def test_edges_satisfy_recursion(g213, g_mixed):
    for g in (g213, g_mixed):
        cf = controller_form(g)
        sd = build(cf)
        fld = cf.field
        q = fld.q
        for e in genutil.edges(sd):
            x = state_vector(q, cf.gamma, e.src)
            nxt = tuple(
                fld.add(a, b)
                for a, b in zip(vec_mat(fld, x, cf.A), vec_mat(fld, e.u, cf.B))
            )
            out = tuple(
                fld.add(a, b)
                for a, b in zip(vec_mat(fld, x, cf.C), vec_mat(fld, e.u, cf.D))
            )
            assert state_index(q, nxt) == e.dst
            assert out == e.v
            assert sum(1 for c in out if c) == e.weight


def test_zero_weight_cycle_flags_catastrophic(f2, g213):
    assert not zero_weight_cycle_exists(build(controller_form(g213)))
    bad = pm(f2, [[[1, 1], [1, 1]]])
    assert zero_weight_cycle_exists(build(controller_form(bad, require_minimal=False)))


def test_zero_label_cycle_never_exists(f2, f3, g213, g_mixed, g1):
    rng = random.Random(101)
    diagrams = [build(controller_form(g)) for g in (g213, g_mixed, g1)]
    diagrams.append(
        build(controller_form(pm(f2, [[[1, 1], [1, 1]]]), require_minimal=False))
    )
    for fld in (f2, f3):
        for _ in range(5):
            g = genutil.random_nonbasic_fullrank(rng, fld)
            diagrams.append(build(controller_form(g, require_minimal=False)))
    for sd in diagrams:
        assert not genutil.zero_label_cycle_exists(sd)


def test_planted_zero_weight_cycle_is_detected(g213, monkeypatch):
    # mutation check: zeroing the weight of a self-loop must flip the verdict,
    # so the loop joins the weight-0 successor lists the verdict reads
    sd = build(controller_form(g213))
    assert not zero_weight_cycle_exists(sd)
    succ = statediag.zero_weight_edges(sd)
    i = next(i for i, g in enumerate(sd.edges_by_source) for dst, w in g if i == dst and w > 0)
    assert i not in succ.get(i, [])
    succ.setdefault(i, []).append(i)
    monkeypatch.setattr(statediag, "zero_weight_edges", lambda _: succ)
    assert zero_weight_cycle_exists(sd)


def test_delay_free(f2, g213, g_mixed, monkeypatch):
    # the screen reads the uD table alone, not the weight-0 successor lists
    def refused(sd):
        raise AssertionError("zero_weight_edges was called")

    monkeypatch.setattr(statediag, "zero_weight_edges", refused)
    assert delay_free_check(build(controller_form(g213)))
    assert delay_free_check(build(controller_form(g_mixed)))
    gz = pm(f2, [[[0, 1], [0, 1]]])  # G(0) = 0
    assert not delay_free_check(build(controller_form(gz, require_minimal=False)))


def test_build_ceiling(g213):
    with pytest.raises(LimitError):
        build(controller_form(g213), max_states=4)


def test_dot_export(g1, g213):
    sd = build(controller_form(g1))
    text = "".join(dot_chunks(sd))
    assert text == "".join(dot_chunks(sd))  # byte stable
    assert text.startswith("digraph state_diagram {")
    assert text.count("->") == 3
    assert '0 [label="0"]' in text and '1 [label="1"]' in text
    assert '1 -> 0 [label="0|011 (2)"];' in text

    sd8 = build(controller_form(g213))
    assert "".join(dot_chunks(sd8)).count("->") == 15


def test_edges_json(g1):
    sd = build(controller_form(g1))
    payload = genutil.edges_json(sd)
    assert payload[0] == {"from": 0, "to": 1, "u": [1], "v": [1, 0, 1], "w": 2}
    assert len(payload) == 3


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3)],
                         ids=["F2", "F3", "F4", "F5", "F8"])
def test_edge_view_matches_stored_pairs(p, m):
    # genutil.edges and edges_by_source both replay the tables; grouped by source
    # the labelled edges must give back exactly the (dst, weight) pairs
    fld = field_make(p, m)
    rng = random.Random(600 + 10 * p + m)
    forms = [controller_form(pm(fld, [[[1], [1], [0]], [[0], [1], [1]]]))]  # gamma = 0
    for _ in range(4):
        g = genutil.random_minimal_code(rng, fld, n_max=3, gamma_max=2)
        forms.append(controller_form(g))
    for _ in range(3):  # one row above F3 keeps the relaxed register small
        g = genutil.random_nonbasic_fullrank(rng, fld, n_max=3, k_max=2 if fld.q < 4 else 1)
        forms.append(controller_form(g, require_minimal=False))
    gz = pm(fld, [[[0, 1], [0, 1, 1]]])  # G(0) = 0: not delay-free
    forms.append(controller_form(gz, require_minimal=False))
    diagrams = [build(cf) for cf in forms]
    for sd in diagrams:
        rebuilt = [[] for _ in range(sd.num_states)]
        for e in genutil.edges(sd):
            assert e.weight == sum(1 for c in e.v if c)
            rebuilt[e.src].append((e.dst, e.weight))
        assert tuple(map(tuple, rebuilt)) == tuple(sd.edges_by_source)
        assert all(
            type(d) is int and type(w) is int
            for group in sd.edges_by_source
            for d, w in group
        )
    assert diagrams[0].num_states == 1
    assert any(not delay_free_check(sd) for sd in diagrams)
    assert any(zero_weight_cycle_exists(sd) for sd in diagrams)


def test_labels_stay_right_when_sources_are_left_unread(g213, g16):
    # each source's outputs are held for it, so a consumer that leaves the
    # first source's label iterators unread, and every other source's
    # after it, still reads the labels of the rest as genutil.edges does
    for g in (g213, g16):
        sd = build(controller_form(g))
        read = []
        for src, dsts, us, vws in statediag.labelled_transitions(sd, tuple, lambda v, w: (v, w)):
            if src % 2:
                read += [genutil.Edge(src, dst, u, v, w) for dst, u, (v, w) in zip(dsts, us, vws)]
        assert read == [e for e in genutil.edges(sd) if e.src % 2]
        assert len({e.src for e in read}) == sd.num_states // 2 >= 4


@pytest.mark.parametrize("p, m", [(3, 2), (3, 3)], ids=["F9", "F27"])
def test_vector_add_matches_elementwise_field_add(p, m):
    # packed vectors of length 1..4, summed element by element with fld.add
    fld = field_make(p, m)
    add = statediag._vector_add(fld)
    rng = random.Random(50 + fld.q)
    for length in range(1, 5):
        for _ in range(300):
            x = [rng.randrange(fld.q) for _ in range(length)]
            y = [rng.randrange(fld.q) for _ in range(length)]
            want = state_index(fld.q, map(fld.add, x, y))
            assert add(state_index(fld.q, x), state_index(fld.q, y)) == want


@pytest.mark.parametrize("p, m", genutil.REFERENCE_FIELDS,
                         ids=[f"F{p**m}" for p, m in genutil.REFERENCE_FIELDS])
def test_packed_transitions_match_reference(p, m):
    # the packed tables must give the tuple arithmetic's diagram exactly:
    # stored (dst, weight) pairs and every (src, dst, u, v, weight) label;
    # the weight-0 successor lists are those pairs filtered, in input order,
    # kept for the states that have one, in state order
    fld = field_make(p, m)
    kinds = genutil.reference_corpus(fld, random.Random(700 + 10 * p + m), per_kind=1 if fld.q > 16 else 2)
    assert all(kinds.values())
    forms = [cf for group in kinds.values() for cf in group]
    if fld.q == 256:  # wt(v) over F_256^n with n >= 3 is read from digit chunks
        assert any(fld.q**cf.n > 1 << 16 for cf in forms)
    catastrophic = 0
    for cf in forms:
        sd = build(cf)
        pairs, labelled = genutil.reference_diagram(cf)
        assert tuple(sd.edges_by_source) == pairs
        assert list(genutil.edges(sd)) == labelled
        zero = statediag.zero_weight_edges(sd)
        dense = [[d for d, w in g if not w] for g in sd.edges_by_source]
        assert zero == {x: d for x, d in enumerate(dense) if d}
        assert list(zero) == sorted(zero)
        assert delay_free_check(sd) == (0 not in zero)
        catastrophic += zero_weight_cycle_exists(sd)
    assert catastrophic


def test_build_does_no_field_arithmetic_per_edge(monkeypatch):
    # the paper's F16 example has about 1M edges; field arithmetic goes only
    # into the (gamma + k) * m basis images, O((gamma + k) * m * (gamma + n))
    path = pathlib.Path(__file__).resolve().parent.parent / "demos" / "codes" / "f16.gm"
    cf = controller_form(parse_gm(path.read_text()))
    calls = {"add": 0, "mul": 0}
    for op in calls:
        def counted(self, a, b, _op=op, _orig=getattr(FieldSpec, op)):
            calls[_op] += 1
            return _orig(self, a, b)
        monkeypatch.setattr(FieldSpec, op, counted)
    sd = build(cf)
    assert sum(map(len, sd.edges_by_source)) == 16**5 - 1
    assert 0 < calls["add"] + calls["mul"] < 10**4
    # the orbit quotient expands 1 + (16^3 - 1) / 15 sources; its orbit ids
    # cost one generator search and a digit table, not a field call per state
    calls.update(add=0, mul=0)
    sd = build(cf, lumped=True)
    assert sd.num_states == 274 and sum(map(len, sd.edges_by_source)) == 274 * 16**2 - 1
    assert 0 < calls["add"] + calls["mul"] < 10**4


@pytest.mark.parametrize("lumped", [False, True], ids=["full", "lumped"])
def test_build_replays_no_transition(monkeypatch, lumped):
    # the diagram is its tables: build weighs no output and replays no edge,
    # even for the 1M transitions of the F16 example
    path = pathlib.Path(__file__).resolve().parent.parent / "demos" / "codes" / "f16.gm"
    cf = controller_form(parse_gm(path.read_text()))

    def refused(*args):
        raise AssertionError("an edge view was read")

    monkeypatch.setattr(statediag, "_blocks", refused)
    monkeypatch.setattr(statediag, "_weigher", refused)
    sd = build(cf, lumped=lumped)
    assert sd.num_states == (274 if lumped else 4096) and sd.lumped == lumped
    assert len(sd.xa) == len(sd.xc) == 4096 and len(sd.ub) == len(sd.ud) == 256


@pytest.mark.parametrize("p, m", genutil.QUOTIENT_FIELDS[1:],
                         ids=[f"F{p**m}" for p, m in genutil.QUOTIENT_FIELDS[1:]])
def test_orbits_lump_lambda_equitably(p, m):
    # orbit ids are checked against FieldSpec scaling, and on the full Lambda
    # every member of an orbit has the lumped row of its representative in Q
    fld = field_make(p, m)
    for cf in genutil.quotient_corpus(fld, random.Random(900 + 10 * p + m)):
        orbit, reps = statediag._orbits(fld, cf.gamma)
        s = fld.q**cf.gamma
        assert len(orbit) == s and len(reps) == 1 + (s - 1) // (fld.q - 1)
        assert [orbit[r] for r in reps] == list(range(len(reps)))
        for o, r in enumerate(reps):
            vec = state_vector(fld.q, cf.gamma, r)
            assert o == 0 or next(d for d in vec if d) == 1
        for x in range(s):
            vec = state_vector(fld.q, cf.gamma, x)
            for lam in fld.units():
                y = state_index(fld.q, tuple(fld.mul(lam, d) for d in vec))
                assert orbit[y] == orbit[x] and reps[orbit[x]] <= y
        quotient = build(cf, lumped=True)
        if quotient.lumped:  # its edges are not labelled by packed states
            with pytest.raises(ValueError, match="no labelled edges"):
                next(genutil.edges(quotient))
        q_lam, full = adjacency(quotient), adjacency(build(cf))
        for x, row in enumerate(full.rows):
            lumped = {}
            for j, t in row:
                lumped[orbit[j]] = lumped.get(orbit[j], WeightEnum.zero()) + full.cells[t]
            assert sorted(lumped.items()) == [(o, q_lam.cells[t]) for o, t in q_lam.rows[orbit[x]]]


def catastrophic_by_minors(g):
    """Massey & Sain (1968): a full-rank G is catastrophic exactly when the
    gcd of its maximal minors is not a power of z; poly_gcd's is monic."""
    gcd = ()
    for minor in k_minors(g):
        gcd = poly_gcd(g.field, gcd, minor)
    return any(gcd[:-1])


def test_zero_weight_cycle_iff_minors_share_a_non_monomial_factor():
    # random full-rank matrices of gamma <= 4, with the screen's relaxed form:
    # every third has a row times z (not delay-free if the row was), every
    # third a row times c + z, c != 0, which every maximal minor then shares,
    # and with two rows the rest add z times row 0 to row 1
    rng = random.Random(1968)
    seen = dict.fromkeys(["catastrophic", "non-basic", "basic, not minimal", "not delay-free"], 0)
    total = 0
    for fld in (field_make(2), field_make(3), field_make(2, 2), field_make(5), field_make(2, 3)):
        made = 0
        while made < 72:
            k = rng.randint(1, 2)
            n = rng.randint(k + 1, 3)
            rows = [[genutil.random_poly(rng, fld, rng.randint(0, 2)) for _ in range(n)] for _ in range(k)]
            factor = [None, (0, 1), (rng.randrange(1, fld.q), 1)][made % 3]
            if factor:
                i = rng.randrange(k)
                rows[i] = [poly_mul(fld, factor, e) for e in rows[i]]
            elif k == 2:  # z times row 0 added to row 1 keeps the minors
                rows[1] = [poly_add(fld, e, shift(f, 1)) for e, f in zip(rows[1], rows[0])]
            g = pm(fld, rows)
            try:
                info = encoder_info(g)
            except ValueError:  # rank deficient
                continue
            if sum(info.row_degrees) > 4:
                continue
            made += 1
            sd = build(controller_form(g, require_minimal=False))
            assert zero_weight_cycle_exists(sd) == catastrophic_by_minors(g)
            seen["catastrophic"] += catastrophic_by_minors(g)
            seen["non-basic"] += not info.is_basic
            seen["basic, not minimal"] += info.is_basic and not info.is_minimal
            seen["not delay-free"] += not delay_free_check(sd)
        total += made
    assert seen["catastrophic"] * 3 >= total
    assert min(seen.values()) >= 10, seen


def _with_edges(succ, planted):
    """The weight-0 successor dict `succ` with the edges (x, y) of `planted`
    added, keys ascending as `zero_weight_edges` gives them."""
    out = {x: list(dsts) for x, dsts in succ.items()}
    for x, y in planted:
        out.setdefault(x, []).append(y)
    return dict(sorted(out.items()))


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (2, 8)],
                         ids=["F2", "F3", "F4", "F9", "F16", "F256"])
def test_sparse_peel_matches_a_dense_peel(p, m, monkeypatch):
    # the screen peels only the states a weight-0 edge leaves, in reverse;
    # the reference peels every state forward, over the weight-0 edges of
    # the tuple arithmetic's diagram, and Massey & Sain's minors decide too
    fld = field_make(p, m)
    rng = random.Random(1962 + 10 * p + m)
    budget = max(1 << 12, fld.q**2)
    forms = [cf for group in genutil.reference_corpus(fld, rng, per_kind=1).values() for cf in group]
    catastrophic = 0
    while catastrophic < 2:  # a row times c + z, c != 0, a factor of every maximal minor
        k = rng.randint(1, 2)
        n = rng.randint(k + 1, 3)
        rows = [[genutil.random_poly(rng, fld, rng.randint(0, 1)) for _ in range(n)] for _ in range(k)]
        factor = (rng.randrange(1, fld.q), 1)
        rows = [[poly_mul(fld, factor, e) for e in rows[0]], *rows[1:]]
        try:
            cf = controller_form(pm(fld, rows), require_minimal=False)
        except ValueError:  # rank deficient
            continue
        if fld.q ** (cf.gamma + k) <= budget:
            forms.append(cf)
            catastrophic += 1
    seen = dict.fromkeys(["catastrophic", "not delay-free", "planted"], 0)
    for cf in forms:
        sd = build(cf)
        dense = [[d for d, w in g if not w] for g in genutil.reference_diagram(cf)[0]]
        succ = statediag.zero_weight_edges(sd)
        assert succ == {x: d for x, d in enumerate(dense) if d}
        verdict = zero_weight_cycle_exists(sd)
        assert verdict == genutil.dense_cycle_exists(dense) == catastrophic_by_minors(cf.generator)
        seen["catastrophic"] += verdict
        seen["not delay-free"] += 0 in succ
        entered = {d for dsts in dense for d in dsts}
        bare = [x for x in range(1, sd.num_states) if x not in succ and x not in entered]  # no weight-0 edge
        if verdict or len(bare) < 2:
            continue
        a, b = bare[:2]
        plants = [
            ([(a, a)], True),  # a self-loop
            ([(a, b), (b, a)], True),  # a 2-cycle between states that had no weight-0 edge
            ([(0, a), (a, b), (b, a)], True),  # a cycle reachable only from state 0
            ([(0, a), (a, b)], False),  # a path, no cycle
        ]
        for planted, cyclic in plants:
            mutated = _with_edges(succ, planted)
            monkeypatch.setattr(statediag, "zero_weight_edges", lambda _: mutated)
            assert zero_weight_cycle_exists(sd) is cyclic
            assert genutil.dense_cycle_exists([mutated.get(x, []) for x in range(sd.num_states)]) is cyclic
            monkeypatch.undo()
        seen["planted"] += 1
    assert seen["catastrophic"] >= 2 and seen["not delay-free"] and seen["planted"], seen


def test_screen_work_is_per_input_and_weight_zero_edge():
    # no timing: the Python line events of the two screen functions (their
    # comprehensions included) on the paper's F16 example, 4096 states, 256
    # inputs and 255 weight-0 edges, stay below a bound in the inputs and
    # those edges, itself below the states, so no Python loop runs per state
    path = pathlib.Path(__file__).resolve().parent.parent / "demos" / "codes" / "f16.gm"
    sd = build(controller_form(parse_gm(path.read_text())))
    edges = sum(map(len, statediag.zero_weight_edges(sd).values()))

    def nested(code):
        yield code
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                yield from nested(const)

    screen = {c for f in (statediag.zero_weight_edges, zero_weight_cycle_exists) for c in nested(f.__code__)}
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count if frame.f_code in screen else None)
    try:
        assert not zero_weight_cycle_exists(sd)
    finally:
        sys.settrace(before)
    bound = 50 + 2 * len(sd.ud) + 10 * edges
    assert (len(sd.ud), edges) == (256, 255) and bound < sd.num_states
    assert 0 < lines < bound
