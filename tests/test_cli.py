import errno
import hashlib
import io
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import genutil
import jsonschema
import pytest

from convcode import cli, encoder, field_make, invariance, oracle, polyalg, spectrum, statediag
from convcode.cli import JSON_SCHEMAS, format_gm, main, parse_gm
from convcode.errors import LimitError, ParseError

CODES = pathlib.Path(__file__).resolve().parent.parent / "demos" / "codes"

MEMORY3 = str(CODES / "memory3.gm")
MIXED = str(CODES / "mixed_rows.gm")
G1 = str(CODES / "g1.gm")
G2 = str(CODES / "g2.gm")
F16 = str(CODES / "f16.gm")
BLOCK = str(CODES / "block.gm")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv, "--json")
    return rc, json.loads(out), err


def validate(payload, name):
    jsonschema.validate(payload, JSON_SCHEMAS[name])


def test_round_trip_all_bundled_codes():
    for path in sorted(CODES.glob("*.gm")):
        g = parse_gm(path.read_text())
        assert parse_gm(format_gm(g)) == g


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="line 3"):
        parse_gm("field p=2 m=1\nk=1 n=2\n1 1\n")  # one entry, expected two
    with pytest.raises(ParseError, match="row 0 entry 1"):
        parse_gm("field p=2 m=1\nk=1 n=2\n1 ; 2\n")  # coefficient out of range
    with pytest.raises(ParseError, match="reducible"):
        parse_gm("field p=2 m=2 modulus=6\nk=1 n=1\n1\n")
    with pytest.raises(ParseError):
        parse_gm("k=1 n=1\n1\n")
    # integers are an optional '-' and ASCII digits: int() alone would read
    # a sign, digit-group underscores and non-ASCII decimal digits
    for text, where in [
        ("field p=+2 m=1\nk=1 n=2\n1 ; 1\n", "line 1: p must be an integer, got '+2'"),
        ("field p=2 m=\uff12\nk=1 n=2\n1 ; 1\n", "line 1: m must be an integer, got '\uff12'"),
        ("field p=2 m=1\nk=+1 n=0_2\n1 ; 1\n", "line 2: k must be an integer, got '+1'"),
        ("field p=2 m=1\nk=1 n=0_2\n1 ; 1\n", "line 2: n must be an integer, got '0_2'"),
        ("field p=2 m=1\nk=1 n=2\n1 \u0661 ; 1 1\n", "line 3: row 0 entry 0 coefficient"),
        ("field p=2 m=4 modulus=19\nk=1 n=2\n1 1_1 ; 1 1\n", "line 3: row 0 entry 0 coefficient"),
        ("field p=2 m=4 modulus=19\nk=1 n=2\n1 - ; 1 1\n", "line 3: row 0 entry 0 coefficient"),
    ]:
        with pytest.raises(ParseError, match=f"^{re.escape(where)}"):
            parse_gm(text)
    # a negative value is still read, and refused for its range
    with pytest.raises(ParseError, match="coefficient -1 out of range 0..1"):
        parse_gm("field p=2 m=1\nk=1 n=2\n1 -1 ; 1\n")
    with pytest.raises(ParseError, match="k and n must be positive"):
        parse_gm("field p=2 m=1\nk=-1 n=2\n1 ; 1\n")


def test_element_encoding_discipline():
    # over F16 the generator is the integer 2; writing 4 selects its square
    base = "field p=2 m=4 modulus=19\nk=1 n=1\n{}\n"
    a_poly = parse_gm(base.format("2 2 1"))
    other = parse_gm(base.format("4 2 1"))
    assert a_poly.entry(0, 0) == (2, 2, 1)
    assert other.entry(0, 0) == (4, 2, 1)
    assert a_poly != other
    with pytest.raises(ParseError, match="out of range"):
        parse_gm(base.format("16 2 1"))


def test_info_text(capsys):
    rc, out, _ = run(capsys, "info", MEMORY3)
    assert rc == 0
    assert out.strip() == "n=2 k=1 delta=3 indices=[3] basic=yes minimal=yes memory=3"


def test_info_json_schema(capsys):
    rc, payload, _ = run_json(capsys, "info", MIXED)
    assert rc == 0
    validate(payload, "info")
    assert payload["indices"] == [0, 1] and payload["minimal"]


def test_ccf(capsys):
    rc, payload, _ = run_json(capsys, "ccf", MEMORY3)
    assert rc == 0
    validate(payload, "ccf")
    assert payload["B"] == [[1, 0, 0]]
    # a block code has the empty register
    rc, payload, _ = run_json(capsys, "ccf", BLOCK)
    assert rc == 0
    validate(payload, "ccf")
    assert payload["A"] == [] and payload["B"] == [[], []] and payload["C"] == []
    assert payload["block_degrees"] == [0, 0]


def test_ccf_text_shows_empty_matrices(capsys):
    # the empty register prints as [] and a zero-width row as a bracketed
    # blank, so no line of the text form is empty or only spaces
    rc, out, err = run(capsys, "ccf", BLOCK)
    assert (rc, err) == (0, "")
    assert out.splitlines()[:5] == ["A = []", "B =", "  []", "  []", "C = []"]
    assert all(line.strip() for line in out.splitlines())
    rc, out, _ = run(capsys, "ccf", G1)
    assert out.splitlines()[:2] == ["A =", "  0"]


def test_diagram(capsys):
    rc, payload, _ = run_json(capsys, "diagram", MEMORY3)
    assert rc == 0
    validate(payload, "diagram")
    assert payload["states"] == 8 and len(payload["edges"]) == 15
    assert payload["delay_free"] and not payload["zero_weight_cycle"]
    rc, out, _ = run(capsys, "diagram", G1, "--dot")
    assert rc == 0 and out.startswith("digraph")
    rc, out, _ = run(capsys, "diagram", BLOCK)
    assert rc == 0
    assert out.splitlines()[:3] == ["states: 1", "edges: 3", "delay-free: yes"]


def test_block_code_answers(capsys):
    # gamma = 0: Lambda = [[E]] with E the block code's weight enumerator
    assert run(capsys, "adjacency", BLOCK) == (0, "[3W^2]\n", "")
    assert run(capsys, "recover", BLOCK) == (0, "k=2 indices=[0, 0]\n", "")
    rc, out, err = run(capsys, "macwilliams", BLOCK)
    assert rc == 2 and out == ""
    assert err == "error: the closed-form transform needs constraint length 1\n"


def test_adjacency(capsys):
    rc, payload, _ = run_json(capsys, "adjacency", MIXED)
    assert rc == 0
    validate(payload, "adjacency")
    assert payload["entries"] == [
        [{"2": 1}, {"1": 2}],
        [{"2": 2}, {"1": 1, "3": 1}],
    ]


def test_spectrum_json_matches_distribution(capsys):
    rc, payload, _ = run_json(capsys, "spectrum", MEMORY3, "--trunc", "12")
    assert rc == 0
    validate(payload, "series")
    omega = {row["l"]: row["terms"] for row in payload["omega"]}
    assert omega[5] == {"6": 1}
    assert omega[4] == {"7": 1}
    low = {a: c for a, c in omega[9].items() if int(a) <= 9}
    assert low == {"8": 2, "9": 1}
    assert omega[11].get("9") == 3


def test_spectrum_block_code(capsys):
    rc, payload, _ = run_json(capsys, "spectrum", BLOCK, "--trunc", "4")
    assert rc == 0
    omega = {row["l"]: row["terms"] for row in payload["omega"]}
    assert omega[1] == {"2": 3} and omega[2] == {}


def test_distances(capsys):
    rc, payload, _ = run_json(capsys, "distances", MEMORY3, "--trunc", "26")
    assert rc == 0
    validate(payload, "distances")
    assert payload["free_distance"] == 6 and payload["certified"]
    assert payload["extended_row"][:5] == [None, None, None, 7, 6]
    assert min(d for d in payload["active_burst"] if d is not None) == 6


def test_distances_undetermined(capsys):
    rc, _, err = run(capsys, "distances", MEMORY3, "--trunc", "1")
    assert rc == 3 and "undetermined" in err


def test_dual(capsys):
    rc, out, _ = run(capsys, "dual", G2)
    assert rc == 0
    h = parse_gm(out)
    from convcode import codes_equal, pm, field_make
    expected = pm(field_make(2), [[[1], [1], [0]], [[1, 1], [0], [0, 1]]])
    assert codes_equal(h, expected)
    rc, payload, _ = run_json(capsys, "dual", G1)
    validate(payload, "gm")


def test_macwilliams(capsys):
    rc, payload, _ = run_json(capsys, "macwilliams", G1)
    assert rc == 0
    validate(payload, "adjacency")
    assert payload["extended"]
    assert payload["entries"][0][0] == {"0": 1, "3": 1}
    rc, _, err = run(capsys, "macwilliams", MEMORY3)
    assert rc == 2 and "constraint length 1" in err


def test_equal(capsys):
    rc, out, _ = run(capsys, "equal", G1, G2)
    assert rc == 1
    assert "codes differ" in out
    assert "generalized adjacency matrices differ" in out
    rc, out, _ = run(capsys, "equal", G1, G1)
    assert rc == 0 and "codes are equal" in out
    rc, payload, _ = run_json(capsys, "equal", G1, G2)
    assert rc == 1
    validate(payload, "witness")
    assert payload["found"] is False


def test_equal_block_codes(capsys, tmp_path):
    # k=1 n=3 block codes: one state, so Lambda = [[E]] and the only
    # permutation is [0]
    paths = {}
    for name, row in (("a", "1 ; 1 ; 0"), ("b", "1 ; 0 ; 1"), ("c", "1 ; 1 ; 1")):
        paths[name] = tmp_path / f"{name}.gm"
        paths[name].write_text(f"field p=2 m=1\nk=1 n=3\n{row}\n")
    rc, out, _ = run(capsys, "equal", str(paths["a"]), str(paths["b"]))
    assert rc == 1
    assert out == (
        "codes differ; generalized adjacency matrices coincide "
        "(state permutation [0])\n"
    )
    rc, out, _ = run(capsys, "equal", str(paths["a"]), str(paths["c"]))
    assert rc == 1
    assert out == "codes differ; generalized adjacency matrices differ\n"


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["equal", G1, G2], 2),
        (["spectrum", MEMORY3], 1),
        (["distances", MEMORY3], 1),
        (["oracle", G1, "--trunc", "4"], 1),
        (["mono-equiv", G1, G2], 2),
        (["dual", G1], 3),  # G, the kernel basis and the reduced basis
    ],
)
def test_encoder_info_once_per_matrix(capsys, monkeypatch, argv, calls):
    seen = []
    encoder_info = polyalg.encoder_info
    monkeypatch.setattr(polyalg, "encoder_info", lambda g: seen.append(g) or encoder_info(g))
    main(argv)
    capsys.readouterr()
    assert len(seen) == calls


def test_mono_equiv(capsys):
    rc, payload, _ = run_json(capsys, "mono-equiv", G1, G2)
    assert rc == 1
    validate(payload, "witness")
    rc, payload, _ = run_json(capsys, "mono-equiv", G1, G1)
    assert rc == 0 and payload["found"]
    validate(payload, "witness")


def test_mono_equiv_refuses_rank_deficiency_in_either_order(capsys, tmp_path):
    # rows 2 = 2 * row 1 over F3; the other matrix is minimal
    deficient = tmp_path / "deficient.gm"
    deficient.write_text("field p=3 m=1\nk=2 n=5\n1 1 ; 1 ; 2 ; 0 1 ; 1\n2 2 ; 2 ; 1 ; 0 2 ; 2\n")
    minimal = tmp_path / "minimal.gm"
    minimal.write_text("field p=3 m=1\nk=2 n=5\n1 1 ; 1 ; 0 ; 1 ; 2\n0 ; 1 ; 1 1 ; 2 ; 1\n")
    for pair in ((deficient, minimal), (minimal, deficient)):
        rc, out, err = run(capsys, "mono-equiv", *map(str, pair))
        assert (rc, out, err) == (2, "", "error: matrix is rank deficient over F(z)\n")


def test_recover(capsys):
    rc, out, _ = run(capsys, "recover", MEMORY3)
    assert rc == 0 and out.strip() == "k=1 indices=[3]"
    rc, payload, _ = run_json(capsys, "recover", MIXED)
    validate(payload, "recover")
    assert payload == {
        "schema": "convcode.recover/1", "k": 2, "indices": [0, 1],
    }


def test_oracle_command(capsys):
    rc, payload, _ = run_json(capsys, "oracle", G1, "--trunc", "5")
    assert rc == 0
    validate(payload, "oracle")
    atomic = {row["l"]: row["terms"] for row in payload["atomic"]}
    assert atomic[2] == {"4": 1}
    molecular = {row["l"]: row["terms"] for row in payload["molecular"]}
    assert molecular[4] == {"8": 2}
    assert payload["gap_bound_ok"]


def test_oracle_budget_exit(capsys):
    rc, _, err = run(capsys, "oracle", MEMORY3, "--trunc", "11", "--budget", "4")
    assert rc == 3 and "budget" in err


def test_budget_defaults_are_the_library_defaults():
    # mono-equiv's --budget is the default of invariance.monomial_equiv, and
    # oracle's is the default of oracle.survey; both are 2^24
    parser = cli._build_parser()
    mono = parser.parse_args(["mono-equiv", G1, G2]).budget
    survey = parser.parse_args(["oracle", G1]).budget
    assert mono == invariance.monomial_equiv.__kwdefaults__["budget"] == 1 << 24
    assert survey == oracle.survey.__kwdefaults__["budget"] == 1 << 24


def test_lemma_a1(capsys):
    rc, out, _ = run(capsys, "lemma-a1", "2")
    assert rc == 0 and "identity" in out
    rc, payload, _ = run_json(capsys, "lemma-a1", "3")
    assert rc == 0
    validate(payload, "lemma")
    rc, _, err = run(capsys, "lemma-a1", "1")
    assert rc == 2


def test_missing_file(capsys):
    rc, _, err = run(capsys, "info", "no_such_file.gm")
    assert rc == 2 and "cannot read" in err


def test_json_outputs_byte_stable(capsys):
    first = run(capsys, "spectrum", MEMORY3, "--trunc", "10", "--json")
    second = run(capsys, "spectrum", MEMORY3, "--trunc", "10", "--json")
    assert first == second
    first = run(capsys, "diagram", G1, "--dot")
    second = run(capsys, "diagram", G1, "--dot")
    assert first == second


def test_json_schemas_are_unchanged():
    # the shipped schema contract, pinned in both key orders: sorted for its
    # content and insertion order for what json.dumps prints without sort_keys
    assert hashlib.sha256(json.dumps(JSON_SCHEMAS, sort_keys=True).encode()).hexdigest() == (
        "f26208114a3a468e8989b60b84e3de90c813dec04bc2908392bd01102897216c"
    )
    assert hashlib.sha256(json.dumps(JSON_SCHEMAS).encode()).hexdigest() == (
        "ea9d2225c78096ba3d35053f1cad90267f95f6c416b833c2a1563a9e3a5d17f0"
    )


def test_f16_pipeline(capsys):
    rc, out, _ = run(capsys, "info", F16)
    assert rc == 0
    assert "delta=3" in out and "minimal=yes" in out
    rc, payload, _ = run_json(capsys, "ccf", F16)
    assert payload["C"] == [[2, 2, 2], [1, 7, 6], [1, 6, 7]]


class _HashingStdout(io.StringIO):
    """A stdout that keeps only the sha256, the byte count and the largest
    single write of what is written."""

    def __init__(self):
        super().__init__()
        self.sha, self.size, self.largest = hashlib.sha256(), 0, 0

    def write(self, text):
        data = text.encode()
        self.sha.update(data)
        self.size += len(data)
        self.largest = max(self.largest, len(data))
        return len(text)


def _hashed(capsys, monkeypatch, *argv) -> _HashingStdout:
    """The f16 outputs of 43-191 MB are hashed as they are written and never
    held; each must stay streamed, no single write above 1 MB."""
    out = _HashingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    rc = main(list(argv))
    monkeypatch.undo()
    assert (rc, capsys.readouterr().err) == (0, "")
    assert out.largest <= 1 << 20
    return out


def test_f16_adjacency_text_is_unchanged(capsys, monkeypatch):
    # the 52 MB dense rendering of the 4096-state Lambda is too large for the
    # golden record, so its digest stands in for it
    out = _hashed(capsys, monkeypatch, "adjacency", F16)
    assert out.sha.hexdigest() == (
        "78c047e75a3d14efea14234edf4d1e47e6a7213e0f95c2b5024472289b0ca3c0"
    )


def test_f16_dot_labelled_edges_are_unchanged(capsys, monkeypatch):
    # the 43 MB DOT text labels all 1,048,575 edges
    out = _hashed(capsys, monkeypatch, "diagram", F16, "--dot", "--force")
    assert out.size == 43_442_608
    assert out.sha.hexdigest() == (
        "88098cb343cbf1e263a01e51c0d8ad8269339939bbf83790cfa9c13947bb38e7"
    )


@pytest.mark.parametrize("argv, size, digest", [
    (("adjacency", F16, "--json"), 190_890_078,
     "39f1c8c81b42c837e2a432764c8143223be5e408755fd4194d43dafd76cf40a4"),
    (("diagram", F16, "--json", "--force"), 170_218_465,
     "390f90638b617c6971827eb722e8a5dfd6722da8bfe17d2f3a9beb6b4d9152c1"),
], ids=["adjacency", "diagram"])
def test_f16_json_outputs_are_unchanged(capsys, monkeypatch, argv, size, digest):
    # Lambda and the labelled diagram of 4096 states run to 170-190 MB of JSON
    out = _hashed(capsys, monkeypatch, *argv)
    assert (out.size, out.sha.hexdigest()) == (size, digest)


@pytest.mark.parametrize("argv", [
    ("spectrum", MEMORY3), ("adjacency", MEMORY3), ("macwilliams", G1), ("diagram", MEMORY3),
    ("diagram", G1, "--dot", "--json"),
], ids=["spectrum", "adjacency", "macwilliams", "diagram", "dot-json"])
def test_text_mode_renders_no_json(capsys, monkeypatch, argv):
    # the JSON of the series, Lambda and the labelled edges grows with the
    # code; text mode renders none of it, and --dot with --json is refused
    # as an input error before the file is read
    if "--dot" in argv:
        monkeypatch.setattr(cli, "_load", _refused)
        assert run(capsys, *argv) == (2, "", "error: --dot and --json cannot be combined\n")
        return
    expected = run(capsys, *argv)
    for name in ("_text", "_terms_text", "_write_json"):
        monkeypatch.setattr(cli, name, _refused)
    assert run(capsys, *argv) == expected and expected[0] == 0 and expected[1]


@pytest.mark.parametrize("argv", [
    ("spectrum", MEMORY3), ("adjacency", MEMORY3), ("macwilliams", G1), ("diagram", MEMORY3),
], ids=["spectrum", "adjacency", "macwilliams", "diagram"])
def test_json_mode_renders_no_text(capsys, monkeypatch, argv):
    # the text of the series, Lambda and the DOT grows with the code; --json
    # renders none of it
    expected = run(capsys, *argv, "--json")
    monkeypatch.setattr(spectrum, "format_series", _refused)
    monkeypatch.setattr(spectrum.AdjMatrix, "lines", _refused)
    monkeypatch.setattr(statediag, "dot_chunks", _refused)
    assert run(capsys, *argv, "--json") == expected and expected[0] == 0 and expected[1]


def test_f16_diagram_text_builds_no_edge_list(capsys, monkeypatch):
    # the text screens read the weight-0 edges off the transition tables and
    # enumerate none of the 1M transitions
    def refused(*args, **kwargs):
        raise AssertionError("statediag._blocks was called")

    monkeypatch.setattr(statediag, "_blocks", refused)
    expected = "states: 4096\nedges: 1048575\ndelay-free: yes\nzero-weight cycle: no\n"
    assert run(capsys, "diagram", F16) == (0, expected, "")
    assert run(capsys, "diagram", F16, "--max-states", "100") == (
        3, "", "limit: state space of size 4096 exceeds the ceiling 100\n"
    )


@pytest.mark.parametrize("mode", [(), ("--json",), ("--dot",)], ids=["text", "json", "dot"])
def test_diagram_builds_the_tables_once(capsys, monkeypatch, mode):
    # build fills the four tables of the form once, and the screens and the
    # edge views all read them: no second table, no table of the screens' own
    calls = {"build": 0, "_linear_table": 0}
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(statediag, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(statediag, name, counted)
    rc, out, err = run(capsys, "diagram", MEMORY3, *mode)
    assert (rc, err) == (0, "") and out
    assert calls == {"build": 1, "_linear_table": 4}


def test_f16_equal_refuses_before_building_lambda(capsys, monkeypatch, tmp_path):
    # 4096 states exceed the search bound; the refusal comes from the
    # constraint length alone, before either diagram is built
    def refused(*args, **kwargs):
        raise AssertionError("statediag.build was called")

    g = parse_gm(pathlib.Path(F16).read_text())
    permuted = tmp_path / "f16_permuted.gm"
    permuted.write_text(format_gm(invariance.apply_monomial(g, (1, 0, 2), (1, 1, 1))))
    monkeypatch.setattr(statediag, "build", refused)
    assert run(capsys, "equal", F16, str(permuted)) == (
        3, "", "limit: conjugation search over 4096 states exceeds the bound 256\n"
    )


def test_equal_answers_equal_degree_pairs_past_the_search_bound(capsys, tmp_path):
    # when every row has one degree the search runs over the q^k letters,
    # so 4096-state pairs are answered, not refused: a binary memory-12 code
    # against its column swap, and an F4 code with indices (3, 3) against a
    # row-transformed, column-monomial image, whose witness moves states
    rng = random.Random(12)
    binary = parse_gm("field p=2 m=1\nk=1 n=2\n1 0 1 0 0 0 0 0 0 0 0 1 1 ; 1 1 0 0 0 0 1 1 0 1 1 0 1\n")
    f4 = genutil.code_with_degrees(rng, field_make(2, 2), (3, 3))
    image, _ = genutil.elementary_ops(rng, f4, 4)
    pairs = {
        "binary": (binary, invariance.apply_monomial(binary, (1, 0), (1, 1))),
        "f4": (f4, invariance.apply_monomial(image, (2, 0, 1), (1, 2, 3))),
    }
    for name, (g, h) in pairs.items():
        assert g.info.is_minimal and g.field.q ** g.info.delta == 4096
        paths = [tmp_path / f"{name}_{x}.gm" for x in "gh"]
        for path, code in zip(paths, (g, h)):
            path.write_text(format_gm(code))
        start = time.perf_counter()
        rc, payload, err = run_json(capsys, "equal", *map(str, paths))
        assert time.perf_counter() - start < 2.0, name
        assert (rc, err, payload["found"]) == (1, "", False), name
        pi = payload["perm"]
        assert invariance.apply_witness(invariance.code_adjacency(g), pi) == invariance.code_adjacency(h)
        assert (pi == list(range(4096))) == (name == "binary"), name


def test_equal_bounds_the_work_of_the_alphabet_route(capsys, monkeypatch, tmp_path):
    # (1 + z + z^2, z + z^3) over F16 against (1 + z + z^2, a z + z^3): M
    # sees only G_0 = (1, 0) and G_3 = (0, 1), so every sigma passes M, but
    # the edges with two nonzero letters refuse every placement, and `equal`
    # answers "differ" where the listing of M's maps stopped at SEARCH_WORK;
    # mono-equiv falls back to its column search.  An F16 memory-3 code
    # against its coefficient-wise a -> a^7 image passes those edges under
    # sigma = a -> a^7 and the 14 scalings of it, which `_carries` refuses:
    # 15 maps of 4,096 states under SEARCH_WORK, so with the bound patched
    # to 20,000 `equal` stops at the fifth.  A binary memory-17 code is
    # refused by WITNESS_ENTRIES before either diagram is built
    paths = []
    for name, a in (("g", 1), ("h", 2)):
        paths.append(tmp_path / f"{name}.gm")
        paths[-1].write_text(f"field p=2 m=4 modulus=19\nk=1 n=2\n1 1 1 ; 0 {a} 0 1\n")
    for argv, expected in (
        (["equal"], (1, "codes differ; generalized adjacency matrices differ\n", "")),
        (["mono-equiv"], (1, "codes are not monomially equivalent\n", "")),
    ):
        start = time.perf_counter()
        assert run(capsys, *argv, *map(str, paths)) == expected
        assert time.perf_counter() - start < 0.5, argv
    powers = []
    for name, rows in (("g", "7 4 11 15 ; 2 0 15 8"), ("h", "7 9 3 10 ; 11 0 10 12")):
        powers.append(tmp_path / f"power_{name}.gm")
        powers[-1].write_text(f"field p=2 m=4 modulus=19\nk=1 n=2\n{rows}\n")
    assert run(capsys, "equal", *map(str, powers)) == (1, "codes differ; generalized adjacency matrices differ\n", "")
    monkeypatch.setattr(invariance, "SEARCH_WORK", 20000)
    assert run(capsys, "equal", *map(str, powers)) == (
        3, "", "limit: 20480 states of refused maps exceed the bound 20000\n"
    )
    monkeypatch.undo()
    deep = _deep_code(tmp_path, 17)
    swapped = tmp_path / "swapped.gm"
    swapped.write_text(format_gm(invariance.apply_monomial(parse_gm(pathlib.Path(deep).read_text()), (1, 0), (1, 1))))
    monkeypatch.setattr(statediag, "build", _refused)
    assert run(capsys, "equal", deep, str(swapped)) == (
        3, "", "limit: 2097152 adjacency entries, 16 a state at least, exceed the bound 1048576\n"
    )


def test_equal_answers_the_mixed_degree_frobenius_pair(tmp_path):
    # an F16 code with row degrees (0, 2), 256 states, against its
    # coefficient-wise a -> a^2 image: refinement alone finds only the F16^*
    # orbits here, so the search individualises states and refines again;
    # the witness `equal` prints is checked on both Lambda, and mono-equiv
    # finds no column map
    f16 = field_make(2, 4)
    g = genutil.code_with_degrees(random.Random(7), f16, (0, 2))
    h = polyalg.pm(f16, [[[f16.mul(c, c) for c in e] for e in row] for row in g.rows])
    paths = [tmp_path / "g.gm", tmp_path / "h.gm"]
    for path, code in zip(paths, (g, h)):
        path.write_text(format_gm(code))
    env = {**os.environ, "PYTHONPATH": str(CODES.parent.parent / "src")}
    outputs = {}
    for command in ("equal", "mono-equiv"):
        proc = subprocess.run([sys.executable, "-m", "convcode", command, *map(str, paths)],
                              env=env, capture_output=True, text=True, timeout=5)
        outputs[command] = proc.returncode, proc.stdout, proc.stderr
    assert outputs["mono-equiv"] == (1, "codes are not monomially equivalent\n", "")
    rc, out, err = outputs["equal"]
    coincide = r"codes differ; generalized adjacency matrices coincide \(state permutation (\[[\d, ]+\])\)\n"
    found = re.fullmatch(coincide, out)
    assert (rc, err) == (1, "") and found, out
    pi = json.loads(found.group(1))
    lam_g, lam_h = invariance.code_adjacency(g), invariance.code_adjacency(h)
    assert pi[0] == 0 and sorted(pi) == list(range(256)) and pi != list(range(256))
    assert invariance.apply_witness(lam_g, pi) == lam_h



def test_equal_answers_a_dense_256_letter_frobenius_pair(capsys, tmp_path):
    # an F16 code with row degrees (1, 1) against its row-transformed
    # coefficient-wise a -> a^2 image: the alphabet matrix M holds all 256
    # letters, each row reaching every letter, so the search's bound must
    # not shrink with the list entries of a round; the witness `equal`
    # prints is checked on both Lambda
    f16 = field_make(2, 4)
    rng = random.Random(5)
    g = genutil.code_with_degrees(rng, f16, (1, 1))
    h, _ = genutil.elementary_ops(rng, g, 4)
    h = polyalg.pm(f16, [[[f16.mul(c, c) for c in e] for e in row] for row in h.rows])
    paths = [tmp_path / "g.gm", tmp_path / "h.gm"]
    for path, code in zip(paths, (g, h)):
        path.write_text(format_gm(code))
    rc, out, err = run(capsys, "equal", *map(str, paths))
    coincide = r"codes differ; generalized adjacency matrices coincide \(state permutation (\[[\d, ]+\])\)\n"
    found = re.fullmatch(coincide, out)
    assert (rc, err) == (1, "") and found, out
    pi = json.loads(found.group(1))
    assert pi[0] == 0 and sorted(pi) == list(range(256)) and pi != list(range(256))
    assert invariance.apply_witness(invariance.code_adjacency(g), pi) == invariance.code_adjacency(h)


def test_equal_answers_the_delta_2_alphabet_pair_by_placements(capsys, monkeypatch):
    # (1 + z + z^2, z + z^2) over F16 against (1 + z + z^2, a z + z^2): M
    # sees only G_0 = (1, 0) and G_2 = (1, 1), so every sigma passes M, but
    # no placement of sigma(1) passes the edges with two nonzero letters,
    # and `equal` answers "differ" where the listing of M's maps stopped at
    # SEARCH_WORK.  The orbit route over the 256 states of both Lambda finds
    # no witness either, and Phi differs at T = 6.  The placements compare
    # 30 letters in all, so with SEARCH_WORK patched to 20 `equal` stops
    paths = [str(CODES / "d2a.gm"), str(CODES / "d2b.gm")]
    for argv, expected in (
        (["equal"], (1, "codes differ; generalized adjacency matrices differ\n", "")),
        (["mono-equiv"], (1, "codes are not monomially equivalent\n", "")),
    ):
        start = time.perf_counter()
        assert run(capsys, *argv, *paths) == expected
        assert time.perf_counter() - start < 0.5, argv
    g, h = (parse_gm(pathlib.Path(path).read_text()) for path in paths)
    assert invariance.gen_adj_equal(invariance.code_adjacency(g), invariance.code_adjacency(h)) is None
    phi_g, phi_h = (spectrum.phi_series(invariance.code_adjacency(c, lumped=True), 6) for c in (g, h))
    assert phi_g.coeffs != phi_h.coeffs
    monkeypatch.setattr(invariance, "SEARCH_WORK", 20)
    assert run(capsys, "equal", *paths) == (3, "", "limit: 22 letters compared by placements exceed the bound 20\n")


def test_equal_answers_the_delta_2_frobenius_pair_with_a_witness(capsys):
    # (1 + z + z^2, a z + z^2) over F16 against (1 + z + z^2, a^2 z + z^2),
    # conjugate by a -> a^2 on both register cells: the placements reach
    # the Frobenius map, which `_carries` certifies, where the listing of
    # M's maps stopped at SEARCH_WORK; the witness is checked on both Lambda
    # and mono-equiv finds no column map
    paths = [str(CODES / "d2b.gm"), str(CODES / "d2c.gm")]
    g, h = (parse_gm(pathlib.Path(path).read_text()) for path in paths)
    start = time.perf_counter()
    pi = invariance.code_witness(g, h)
    assert time.perf_counter() - start < 0.2
    f16 = g.field
    assert pi == tuple(statediag._cellwise([f16.mul(c, c) for c in range(16)], 2, 16))
    assert invariance.apply_witness(invariance.code_adjacency(g), pi) == invariance.code_adjacency(h)
    rc, payload, err = run_json(capsys, "equal", *paths)
    assert (rc, err, payload["found"], payload["perm"]) == (1, "", False, list(pi))
    assert run(capsys, "mono-equiv", *paths) == (1, "codes are not monomially equivalent\n", "")


def _deep_code(tmp_path, delta):
    # binary k = 1, n = 2: (1 + z^delta, 1), minimal with constraint length
    # delta; the gcd of its minors takes one step, so g.info is cheap
    path = tmp_path / f"deep{delta}.gm"
    path.write_text(f"field p=2 m=1\nk=1 n=2\n1{' 0' * (delta - 1)} 1 ; 1\n")
    return str(path)


def _refused(*args, **kwargs):
    raise AssertionError("the refused work was started")


def _assert_fast_limit(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (3, "") and err.startswith("limit: ") and err.count("\n") == 1
    assert "int string" not in err
    return err


@pytest.mark.parametrize(
    "case",
    ["mono-equiv-wide", "oracle-trunc-1e5", "lemma-64", "lemma-1e11", "oracle-delta-2001"],
)
def test_counts_past_printable_ints_are_refused_fast(capsys, monkeypatch, tmp_path, case):
    # each count (2000!, 2^99997, 2^64, 2^(10^11), 2^6011) exceeds its bound;
    # the refusal names it without printing an int of more than 4300 digits
    if case == "mono-equiv-wide":
        wide = tmp_path / "wide.gm"
        wide.write_text("field p=2 m=1\nk=1 n=2000\n" + " ; ".join(["1"] * 2000) + "\n")
        argv = ["mono-equiv", str(wide), str(wide)]
    elif case == "oracle-trunc-1e5":
        argv = ["oracle", MEMORY3, "--trunc", "100000"]
    elif case.startswith("lemma"):
        argv = ["lemma-a1", {"lemma-64": "64", "lemma-1e11": "100000000000"}[case]]
    else:
        # the budget is checked before the right inverse is searched for
        monkeypatch.setattr(polyalg, "right_inverse", _refused)
        argv = ["oracle", _deep_code(tmp_path, 2001)]
    err = _assert_fast_limit(capsys, argv)
    if case.startswith("lemma"):
        count = "18446744073709551616" if case == "lemma-64" else "more than 2^14000"
        assert err == f"limit: conjugation search over {count} states exceeds the bound 256\n"


def test_oracle_budget_check_builds_no_huge_power():
    # 2^(10^12) would be built by the check itself: under a 1 GB address space
    # that ends in a MemoryError traceback, exit 1, the code of a negative answer
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    env = {**os.environ, "PYTHONPATH": str(CODES.parent.parent / "src")}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "convcode", "oracle", MEMORY3, "--trunc", "1000000000000"],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("limit: ") and proc.stderr.count("\n") == 1
    assert elapsed < 1.0  # a fresh interpreter and the import, then one check


@pytest.mark.parametrize("command", ["spectrum", "distances"])
@pytest.mark.parametrize("trunc", ["100000", "1000000000000"])
def test_series_truncation_is_bounded_before_packing(command, trunc):
    # Phi's packed state vector would need 1.6e11 or 1.6e25 bits: under a
    # 1 GB address space the packing ends in a MemoryError traceback, exit 1
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    env = {**os.environ, "PYTHONPATH": str(CODES.parent.parent / "src")}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "convcode", command, MEMORY3, "--trunc", trunc],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("limit: a packed series of ")
    assert proc.stderr.endswith(f" bits exceeds the ceiling {spectrum.SERIES_BITS}\n")
    assert proc.stderr.count("\n") == 1
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["spectrum", "distances"])
def test_atomic_series_work_is_bounded_before_packing(command):
    # at T = 1000 Phi's vector stays far below SERIES_BITS, but Omega's
    # T^2/2 products, T^2 (n*T + 1) b operand bits with b = T + bitlen(T)
    # + 1, would take minutes: refused before anything is packed
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    env = {**os.environ, "PYTHONPATH": str(CODES.parent.parent / "src")}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "convcode", command, MEMORY3, "--trunc", "1000"],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    elapsed = time.perf_counter() - start
    count = 1000 * 1000 * (2 * 1000 + 1) * (1000 + 10 + 1)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (f"limit: Omega's products of {count} operand bits exceed "
                           f"the ceiling {spectrum.OMEGA_BITS}\n")
    assert elapsed < 1.0


def test_atomic_series_ceiling_admits_memory3_up_to_212(capsys):
    lam = invariance.code_adjacency(parse_gm(pathlib.Path(MEMORY3).read_text()), lumped=True)
    assert spectrum.phi_series(lam, 212).trunc == 212
    with pytest.raises(LimitError, match="Omega's products of 4300708986 operand bits"):
        spectrum.phi_series(lam, 213)
    rc, out, err = run(capsys, "distances", MEMORY3, "--trunc", "200")
    lines = out.splitlines()
    assert (rc, err, lines[0]) == (0, "", "free distance: 6 (certified)")
    assert len(lines[1].split()) == len(lines[2].split()) == 3 + 200  # a distance per degree


@pytest.mark.parametrize("mode", ["--json", "--dot"])
def test_diagram_rendering_guard_comes_before_the_controller_form(
    capsys, monkeypatch, tmp_path, mode
):
    # 9^6 = 531,441 states pass the state ceiling, but their 387,420,488
    # edges would run to tens of GB of text
    path = tmp_path / "f9.gm"
    path.write_text(
        "field p=3 m=2\nk=3 n=4\n2 3 7 ; 0 ; 3 1 2 ; 8 7\n"
        "8 5 6 ; 7 ; 6 5 ; 3 6 1\n5 ; 0 ; 0 ; 7 0 7\n"
    )
    monkeypatch.setattr(encoder, "controller_form", _refused)
    err = _assert_fast_limit(capsys, ["diagram", str(path), mode])
    assert err == "limit: 531441 vertices exceed the rendering guard 4096\n"


def test_adjacency_rendering_guard_comes_before_the_diagram(capsys, monkeypatch, tmp_path):
    # the binary memory-16 code: its 65,536 states pass the state ceiling
    # and its 131,071 entries the adjacency bound, but its dense text runs
    # to 12.9 GB; --force lifts the guard and goes on to build the diagram
    path = tmp_path / "memory16.gm"
    path.write_text(
        "field p=2 m=1\nk=1 n=2\n1 1 0 1 0 1 0 0 1 1 0 0 1 1 0 1 1 ; "
        "1 0 1 0 0 1 1 1 0 0 0 1 1 1 0 0 1\n"
    )
    monkeypatch.setattr(statediag, "build", _refused)
    for flags in ([], ["--json"]):
        err = _assert_fast_limit(capsys, ["adjacency", str(path), *flags])
        assert err == "limit: 65536 vertices exceed the rendering guard 4096\n"
    with pytest.raises(AssertionError, match="refused work"):
        main(["adjacency", str(path), "--force"])


@pytest.mark.parametrize("argv", [["adjacency"], ["recover"], ["spectrum", "--trunc", "4"]],
                         ids=["adjacency", "recover", "spectrum"])
def test_adjacency_entries_are_bounded_before_the_controller_form(monkeypatch, tmp_path, argv):
    # 9^6 = 531,441 states pass the state ceiling, but Lambda would tally
    # 531,441 x 9^3 edges, and the series' orbit quotient 66,431 x 9^3; under
    # a 1 GB address space each call ran past 20 s without an answer
    resource = pytest.importorskip("resource")
    path = tmp_path / "f9.gm"
    path.write_text(
        "field p=3 m=2\nk=3 n=4\n2 3 7 ; 0 ; 3 1 2 ; 8 7\n"
        "8 5 6 ; 7 ; 6 5 ; 3 6 1\n5 ; 0 ; 0 ; 7 0 7\n"
    )
    sources = 66431 if argv[0] == "spectrum" else 531441
    expected = (f"limit: {sources * 729} adjacency entries exceed the ceiling "
                f"{invariance.ADJACENCY_ENTRIES}\n")
    monkeypatch.setattr(encoder, "controller_form", _refused)
    with pytest.raises(LimitError, match=re.escape(expected[7:-1])):
        invariance.code_adjacency(parse_gm(path.read_text()), lumped=argv[0] == "spectrum")
    limit = 1 << 30
    env = {**os.environ, "PYTHONPATH": str(CODES.parent.parent / "src")}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "convcode", argv[0], str(path), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", expected)
    assert elapsed < 1.0


@pytest.mark.parametrize("command", ["spectrum", "adjacency", "distances", "recover", "diagram"])
def test_oversize_state_space_is_refused_before_the_controller_form(
    capsys, monkeypatch, tmp_path, command
):
    # 2^15001 states: the count is read off g.info, before the 15001 x 15001
    # matrix A of the controller form exists
    monkeypatch.setattr(encoder, "controller_form", _refused)
    err = _assert_fast_limit(capsys, [command, _deep_code(tmp_path, 15001)])
    assert err == (
        "limit: state space of size more than 2^14000 exceeds the ceiling "
        f"{statediag.DEFAULT_STATE_CEILING}\n"
    )


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_closed_stdout_exits_141_quietly(capsys, monkeypatch):
    # exit 1 is a negative decision, so a reader that went away gets 128 + SIGPIPE;
    # the --json writers of Lambda and of the diagram write in several chunks
    env = {**os.environ, "PYTHONPATH": str(CODES.parent.parent / "src")}
    for argv in (["spectrum", MEMORY3, "--trunc", "40"], ["adjacency", MEMORY3, "--json"],
                 ["diagram", MEMORY3, "--json"]):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        rc = main(argv)
        monkeypatch.undo()
        assert (rc, capsys.readouterr().err) == (141, "")
        # a real pipe closed before the first write: no traceback at interpreter exit
        proc = subprocess.Popen([sys.executable, "-m", "convcode", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")


def _writer_codes():
    """(name, g): every bundled code but f16 (its Lambda and diagram are pinned
    by digest), then seeded codes over F2 to F16."""
    codes = [(p.stem, parse_gm(p.read_text())) for p in sorted(CODES.glob("*.gm")) if p.stem != "f16"]
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)):
        rng = random.Random(1800 + 10 * p + m)
        fld = field_make(p, m)
        for i in range(2):
            g = genutil.random_minimal_code(rng, fld, n_max=3, k_max=2, gamma_max=2)
            codes.append((f"F{fld.q}-{i}", g))
    return codes


def _written(capsys, write, *args) -> str:
    write(*args)
    return capsys.readouterr().out


def _series_text(capsys, trunc, omega, phi) -> str:
    return _written(capsys, cli._write_json, "series", {
        "trunc": trunc, "omega": cli._series_chunks(omega), "phi": cli._series_chunks(phi),
    })


def _adjacency_text(capsys, lam) -> str:
    _, payload, _ = cli._adjacency_result(lam)
    return _written(capsys, cli._write_json, "adjacency", payload)


def test_json_writers_print_what_json_dumps_prints(capsys, tmp_path):
    # each streamed writer must give, byte for byte, the text of json.dumps on
    # the payload dicts it replaced, kept in genutil as references; every
    # other payload, the text of json.dumps on what it parses back to
    dumps = lambda payload: json.dumps(payload, sort_keys=True, indent=2) + "\n"
    for name, g in _writer_codes():
        path, image = tmp_path / f"{name}.gm", tmp_path / f"{name}-image.gm"
        path.write_text(format_gm(g))
        perm = [*range(1, g.n), 0]
        scale = [1 + (j + 1) % (g.field.q - 1) for j in range(g.n)]  # not all 1 where q > 2
        image.write_text(format_gm(invariance.apply_monomial(g, perm, scale)))
        calls = [[command, str(path)] for command in ("info", "ccf", "distances", "dual", "recover")]
        calls += [["oracle", str(path), "--trunc", "2"],
                  ["equal", str(path), str(image)], ["mono-equiv", str(path), str(image)]]
        for argv in calls:
            rc, out, err = run(capsys, *argv, "--json")
            assert (rc in (0, 1), err) == (True, ""), (name, argv)
            assert out == dumps(json.loads(out)), (name, argv)
        lam = invariance.code_adjacency(g)
        matrices = [lam, spectrum.extend(lam)]
        if g.info.delta == 1 and g.field.q == 2:
            matrices.append(invariance.macwilliams_delta1(spectrum.extend(lam)))
        for mat in matrices:
            assert _adjacency_text(capsys, mat) == dumps(genutil.adjacency_json(mat)), name
        sd = statediag.build(encoder.controller_form(g))
        assert _written(capsys, cli._write_json, "diagram", {
            "states": sd.num_states, "edges": cli._edges_chunks(sd),
            "delay_free": True, "zero_weight_cycle": False,
        }) == dumps({
            "schema": "convcode.diagram/1", "states": sd.num_states,
            "edges": genutil.edges_json(sd), "delay_free": True, "zero_weight_cycle": False,
        }), name
        phi = spectrum.phi_series(invariance.code_adjacency(g, lumped=True), 12)
        omega = spectrum.omega_series(phi)
        assert _series_text(capsys, 12, omega, phi) == dumps({
            "schema": "convcode.series/1", "trunc": 12,
            "omega": genutil.series_json(omega), "phi": genutil.series_json(phi),
        }), name


def test_json_writers_order_weights_as_strings(capsys):
    # JSON keys sort as strings, so weight 10 comes before weight 2, and an
    # empty coefficient or cell is {}
    W = spectrum.WeightEnum
    cells = [W({2: 1, 10: 3, 11: 1}), W(), W({0: 1, 100: 7, 9: 2, 1: 5})]
    series = spectrum.LSeries(2, [W(), cells[0], cells[2]])
    text = _series_text(capsys, 2, series, series)
    assert text == json.dumps({
        "schema": "convcode.series/1", "trunc": 2,
        "omega": genutil.series_json(series), "phi": genutil.series_json(series),
    }, sort_keys=True, indent=2) + "\n"
    assert text.index('"10": 3') < text.index('"11": 1') < text.index('"2": 1')
    assert '"terms": {}' in text
    lam = genutil.adj_from_dense([cells, cells[::-1], [W()] * 3], q=2, n=12)
    assert _adjacency_text(capsys, lam) == json.dumps(
        genutil.adjacency_json(lam), sort_keys=True, indent=2) + "\n"
    assert "".join(cli._block([[], iter(["1"]), [], ["2", "3"]], 0)) == "[\n  1,\n  2,\n  3\n]"
    assert ["".join(cli._block([[]], d, b)) for d, b in ((0, "[]"), (3, "{}"))] == ["[]", "{}"]


def test_series_writer_matches_json_dumps_at_any_weight_count_and_truncation(capsys):
    # each {"l", "terms"} object is made in one join; it must match json.dumps
    # where weights reach 10 ("10" sorts before "2"), where a coefficient is
    # zero ("terms": {}), at T = 1, and where counts pass 2^64
    W = spectrum.WeightEnum
    cases = [(invariance.code_adjacency(parse_gm(pathlib.Path(path).read_text()), lumped=True), trunc)
             for path in (MEMORY3, G1) for trunc in (1, 12)]
    cases.append((invariance.code_adjacency(polyalg.pm(field_make(2, 4), [[[1], [1]]])), 20))
    cases.append((spectrum.AdjMatrix([[(0, 0)]], [W({3: 1 << 40, 12: 5})], q=2, n=12), 3))
    texts = []
    for lam, trunc in cases:
        phi = spectrum.phi_series(lam, trunc)
        omega = spectrum.omega_series(phi)
        texts.append(_series_text(capsys, trunc, omega, phi))
        assert texts[-1] == json.dumps({
            "schema": "convcode.series/1", "trunc": trunc,
            "omega": genutil.series_json(omega), "phi": genutil.series_json(phi),
        }, sort_keys=True, indent=2) + "\n", trunc
    assert '"terms": {}' in texts[0] and '"trunc": 1' in texts[0]
    assert re.search(r'"1\d": \d+,\n {8}"[2-9]": ', texts[1])  # a key of 10 or more, then 2 to 9
    assert '"40": 332525673007965087890625' in texts[4]  # 15^20 > 2^64
    assert f'"9": {1 << 120}' in texts[5]  # (2^40 W^3)^3


def test_f16_series_expand_only_orbit_representatives(capsys, monkeypatch):
    # spectrum and distances read Phi from the F_16^* orbit quotient: the
    # 1 + (16^3 - 1) / 15 smallest orbit members, not all 4096 states
    sources = []
    blocks = statediag._blocks

    def counted(sd, *args):
        for item in blocks(sd, *args):
            sources.extend(item[0])
            yield item

    monkeypatch.setattr(statediag, "_blocks", counted)
    rc, out, _ = run(capsys, "spectrum", F16)
    assert rc == 0 and out.startswith("Omega = ")
    assert len(sources) == 274 and sources == sorted(set(sources))


def test_cached_parser_matches_fresh_parsers(capsys, monkeypatch):
    # main() builds its parser once per process; calls that differ in command
    # and flags must print what a parser built for each call prints
    sequence = [("spectrum", MEMORY3, "--json"), ("spectrum", MEMORY3),
                ("diagram", G1, "--dot"), ("spectrum", G1, "--trunc", "4")]
    cached = [run(capsys, *argv) for argv in sequence]
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert cached == [run(capsys, *argv) for argv in sequence]
    # importing the CLI builds nothing
    probe = "import convcode.cli as c; print(c._build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(CODES.parent.parent / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "0\n"


@pytest.mark.parametrize(
    "field_line",
    [
        "field p=1 m=2 modulus=5",  # the modulus digit loop never ends for p = 1
        "field p=100000000000000000000000000319 m=1",  # trial division on a 30-digit prime
        "field p=2 m=100000000",  # 2^(10^8) would be computed and printed
        "field p=2 m=2 modulus=-7",  # negative encodings never reach zero
        "field p=2 m=2 modulos=7",  # a misspelt key would leave the default modulus
        "field p=2 m=1 p=3",  # a repeated key would be read as its last value
    ],
    ids=["p-one", "p-huge-prime", "m-huge", "modulus-negative", "key-unknown", "key-repeated"],
)
def test_field_line_bounds_refuse_fast(capsys, tmp_path, field_line):
    path = tmp_path / "bad.gm"
    path.write_text(f"{field_line}\nk=1 n=2\n1 ; 1\n")
    start = time.perf_counter()
    rc, _, err = run(capsys, "info", str(path))
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and "line 1: field" in err
    assert "int string" not in err


def test_info_refuses_long_entries_fast(capsys, tmp_path):
    # the minors and the gcd chain cost about the square of the entries'
    # lengths: unrefused, four binary entries of degree 8000 (k = 2, 64 KB)
    # take about 33 s and two of degree 5000 (k = 1, 20 KB) 12 s on a
    # shared 2-CPU host
    rng = random.Random(3)
    for k, degree in ((2, 8000), (1, 5000)):
        entry = lambda: " ".join(str(rng.randrange(2)) for _ in range(degree)) + " 1"
        path = tmp_path / f"long{k}.gm"
        path.write_text(f"field p=2 m=1\nk={k} n=2\n"
                        + "".join(f"{entry()} ; {entry()}\n" for _ in range(k)))
        assert _assert_fast_limit(capsys, ["info", str(path)]) == (
            f"limit: maximal minors of {2 * (degree + 1) ** 2} coefficient products "
            "exceed the ceiling 4194304\n"
        )


@pytest.mark.parametrize("size_line, key", [("k=1 n=2 x=1", "x"), ("k=1 n=2 n=3", "n")])
def test_size_line_refuses_unknown_and_repeated_keys(capsys, tmp_path, size_line, key):
    path = tmp_path / "bad.gm"
    path.write_text(f"field p=2 m=1\n{size_line}\n1 ; 1\n")
    rc, out, err = run(capsys, "info", str(path))
    assert (rc, out) == (2, "") and "line 2: size line" in err and f"{key!r}" in err


def test_info_refuses_oversized_minor_expansion_fast(capsys, tmp_path):
    # encoder_info expands C(n, k) cofactor determinants of k! terms each:
    # 6 x 18 has 13,366,080 terms (about 46 s), 5 x 15 has 360,360
    rng = random.Random(1)
    for k, n, rc_expected in ((6, 18, 3), (5, 15, 0)):
        rows = [" ; ".join(f"{rng.randrange(2)} {rng.randrange(2)}" for _ in range(n)) for _ in range(k)]
        path = tmp_path / f"r{k}x{n}.gm"
        path.write_text(f"field p=2 m=1\nk={k} n={n}\n" + "\n".join(rows) + "\n")
        start = time.perf_counter()
        rc, out, err = run(capsys, "info", str(path))
        assert rc == rc_expected
        if rc:
            assert time.perf_counter() - start < 0.5 and out == ""
            assert err == "limit: maximal minors of 13366080 terms exceed the ceiling 1048576\n"
        else:
            assert out.startswith(f"n={n} k={k} ") and err == ""


def _overstated_degrees(path):
    # g.info is a cached property, so the instance's dict holds its value:
    # each row degree one too many, and the oracle's register criterion sees
    # every input linger a step longer than its splitting search does
    g = parse_gm(pathlib.Path(path).read_text())
    g.__dict__["info"] = g.info._replace(
        row_degrees=tuple(d + 1 for d in g.info.row_degrees)
    )
    return g


@pytest.mark.parametrize(
    "argv, owner, target, planted",
    [
        (["info", G1], polyalg, "mat_rank", lambda fld, m: -1),  # row-reducedness cross-check
        (["dual", G1], polyalg, "pm_is_zero", lambda m: False),  # G * H^T = 0 certificate
        # the packing of a word's steps, then the row degrees the register reads
        (["oracle", MIXED, "--trunc", "5"], oracle, "state_index",
         lambda q, vec: statediag.state_index(q, vec) % 2),
        (["oracle", MEMORY3, "--trunc", "9"], cli, "_load", _overstated_degrees),
    ],
    ids=["encoder-info", "dual-basis", "oracle", "oracle-register"],
)
def test_failed_certificate_exits_4(capsys, monkeypatch, argv, owner, target, planted):
    monkeypatch.setattr(owner, target, planted)
    rc, out, err = run(capsys, *argv)
    assert rc == 4 and out == ""
    assert err.startswith("internal error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["info", MEMORY3, "--seed", "0"],
        ["spectrum", MEMORY3, "--seed", "0"],
        ["lemma-a1", "2", "--seed", "0"],
        ["info", MEMORY3, "--trunc", "5"],
        ["equal", G1, G2, "--trunc", "5"],
        ["info", MEMORY3, "--budget", "5"],
        ["spectrum", MEMORY3, "--budget", "5"],
        ["equal", G1, G2, "--budget", "5"],
    ],
    ids=[
        "seed-info", "seed-spectrum", "seed-lemma-a1", "trunc-info", "trunc-equal",
        "budget-info", "budget-spectrum", "budget-equal",
    ],
)
def test_removed_options_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", BLOCK, "--trunc", "0"],
        ["spectrum", BLOCK, "--trunc", "-3"],
        ["distances", BLOCK, "--trunc", "0"],
    ],
    ids=["spectrum-zero", "spectrum-negative", "distances-zero"],
)
def test_block_code_truncation_is_checked(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert "truncation must be >= 1" in err


@pytest.mark.parametrize(
    "command, message",
    [
        ("spectrum", "the weight distribution requires a minimal generator matrix"),
        ("distances", "distance profiles require a minimal generator matrix"),
        ("oracle", "the codeword oracle requires a minimal generator matrix"),
    ],
    ids=["spectrum", "distances", "oracle"],
)
def test_truncation_below_one_is_refused_alike(capsys, tmp_path, command, message):
    # the three commands that take --trunc refuse 0 with one message, and a
    # non-minimal file for the file before its truncation is read
    assert run(capsys, command, G1, "--trunc", "0") == (2, "", "error: truncation must be >= 1\n")
    path = tmp_path / "nonminimal.gm"
    path.write_text("field p=2 m=1\nk=1 n=2\n1 1 ; 1 1\n")
    assert run(capsys, command, str(path), "--trunc", "0") == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["oracle", G1, "--budget", "-5"], "budget"),
        (["oracle", G1, "--budget", "0"], "budget"),
        (["mono-equiv", G1, G2, "--budget", "0"], "budget"),
        (["diagram", MEMORY3, "--max-states", "-1"], "state ceiling"),
        (["diagram", MEMORY3, "--max-states", "0"], "state ceiling"),
    ],
    ids=["oracle-negative", "oracle-zero", "mono-equiv-zero", "diagram-negative", "diagram-zero"],
)
def test_ceilings_below_one_are_input_errors(capsys, argv, name):
    # a ceiling below 1 is refused as --trunc is, not reported as a count
    # that exceeds it
    assert run(capsys, *argv) == (2, "", f"error: {name} must be >= 1\n")
    argv[-1] = "1"
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (3, "") and err.startswith("limit: ")


def test_distances_refuses_nonminimal(capsys, tmp_path):
    path = tmp_path / "nonminimal.gm"
    path.write_text("field p=2 m=1\nk=1 n=2\n1 1 ; 1 1\n")
    rc, _, err = run(capsys, "distances", str(path))
    assert rc == 2
    assert "distance profiles require a minimal generator matrix" in err


@pytest.mark.parametrize(
    "command, message",
    [
        ("spectrum", "the weight distribution requires a minimal generator matrix"),
        ("distances", "distance profiles require a minimal generator matrix"),
    ],
    ids=["spectrum", "distances"],
)
def test_basic_nonminimal_block_code_is_refused(capsys, tmp_path, command, message):
    # delta = 0 and basic, but row degrees (1, 0): not minimal
    path = tmp_path / "basic_nonminimal.gm"
    path.write_text("field p=2 m=1\nk=2 n=2\n1 ; 0 1\n0 ; 1\n")
    rc, out, err = run(capsys, command, str(path))
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"
