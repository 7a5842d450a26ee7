"""Command line front end and the .gm generator-matrix file format.

File format (UTF-8, '#' starts a comment, blank lines ignored):

    field p=2 m=4 modulus=19      # modulus omitted for prime fields
    k=2 n=3
    2 2 1 ; 12 2 7 ; 14 2 6      # row: n entries separated by ';'
    1 1 ; 7 6 ; 6 7              # entry: coefficients, low degree first

Coefficients are field elements encoded as integers 0..q-1 (base-p digit
encoding of the polynomial basis).  Exit codes: 0 success, 1 negative
decision (codes differ, no witness), 2 input error, 3 budget or limit
exceeded, 4 internal error (a result failed its own re-check), 141 stdout
closed by its reader (128 + SIGPIPE).  Each subcommand returns its exit code,
its --json payload and its text; main() alone writes one of the two.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain, repeat
from typing import Iterable, Iterator, Optional, Sequence

from . import encoder, invariance, oracle, polyalg, spectrum, statediag
from .errors import InternalError, LimitError, ParseError, check_limit
from .galois import check_field, field_make
from .polyalg import PolyMatrix

SCHEMA_VERSION = 1


def _schema_id(name: str) -> str:
    return f"convcode.{name}/{SCHEMA_VERSION}"


def _object(properties: dict, optional: Sequence[str] = ()) -> dict:
    """An object schema that requires every member but the optional ones."""
    required = [key for key in properties if key not in optional]
    return dict(type="object", required=required, properties=properties)


def _array(items: Optional[dict] = None) -> dict:
    return {"type": "array"} if items is None else {"type": "array", "items": items}


_INT = {"type": "integer"}
_INTS = _array(_INT)
_BOOL = {"type": "boolean"}
_INT_OR_NULL = {"type": ["integer", "null"]}
_TERMS = {
    "type": "object",
    "patternProperties": {"^[0-9]+$": _INT},
    "additionalProperties": False,
}
_SERIES = _array(_object({"l": _INT, "terms": _TERMS}))
_SERIES_REF = {"$ref": "#/$defs/series"}


def _payload(name: str, properties: dict, optional: Sequence[str] = ()) -> dict:
    """The schema of payload `name`: its "schema" member first, then
    `properties`, and the series definition when a member refers to it."""
    schema = _object({"schema": {"const": _schema_id(name)}, **properties}, optional)
    if _SERIES_REF in properties.values():
        schema["$defs"] = {"series": _SERIES}
    return schema


JSON_SCHEMAS = {
    "info": _payload("info", {
        "n": _INT,
        "k": _INT,
        "delta": _INT,
        "indices": _INTS,
        "basic": _BOOL,
        "minimal": _BOOL,
        "memory": _INT,
    }),
    "ccf": _payload("ccf", {
        "A": _array(),
        "B": _array(),
        "C": _array(),
        "D": _array(),
        "block_degrees": _INTS,
    }),
    "diagram": _payload("diagram", {
        "states": _INT,
        "edges": _array(_object({
            "from": _INT,
            "to": _INT,
            "u": _INTS,
            "v": _INTS,
            "w": _INT,
        })),
        "delay_free": _BOOL,
        "zero_weight_cycle": _BOOL,
    }),
    "adjacency": _payload("adjacency", {
        "size": _INT,
        "q": _INT,
        "n": _INT,
        "extended": _BOOL,
        "entries": _array(_array(_TERMS)),
    }),
    "series": _payload("series", {
        "trunc": _INT,
        "omega": _SERIES_REF,
        "phi": _SERIES_REF,
    }),
    "distances": _payload("distances", {
        "free_distance": _INT_OR_NULL,
        "certified": _BOOL,
        "extended_row": _array(_INT_OR_NULL),
        "active_burst": _array(_INT_OR_NULL),
    }),
    "witness": _payload("witness", {
        "found": _BOOL,
        "perm": _INTS,
        "scale": _INTS,
    }, optional=("perm", "scale")),
    "recover": _payload("recover", {
        "k": _INT,
        "indices": _INTS,
    }),
    "oracle": _payload("oracle", {
        "l_max": _INT,
        "atomic": _SERIES_REF,
        "molecular": _SERIES_REF,
        "gap_bound_ok": _BOOL,
    }),
    "gm": _payload("gm", {
        "field": _object({
            "p": _INT,
            "m": _INT,
            "modulus": _INT_OR_NULL,
        }, optional=("modulus",)),
        "k": _INT,
        "n": _INT,
        "rows": _array(_array(_INTS)),
    }),
    "lemma": _payload("lemma", {
        "gamma": _INT,
        "holds": _BOOL,
    }),
}


# ---------------------------------------------------------------------------
# .gm parsing and printing
# ---------------------------------------------------------------------------


def _kv_tokens(tokens: list[str], lineno: int, line: str, known: tuple[str, ...]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(f"line {lineno}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key not in known or key in out:
            problem = "repeats the" if key in out else "has an unknown"
            raise ParseError(f"line {lineno}: {line} line {problem} key {key!r}")
        out[key] = val
    return out


def _int(value: str, what: str, lineno: int) -> int:
    digits = value.removeprefix("-")  # int() alone also reads '+1', '0_2' and non-ASCII digits
    try:
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError
        return int(value)
    except ValueError:
        raise ParseError(f"line {lineno}: {what} must be an integer, got {value!r}") from None


def parse_gm(text: str) -> PolyMatrix:
    """Parse the generator-matrix format; errors carry line context."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            lines.append((lineno, content))
    if len(lines) < 3:
        raise ParseError("file needs a field line, a size line and k matrix rows")
    lineno, head = lines[0]
    tokens = head.split()
    if not tokens or tokens[0] != "field":
        raise ParseError(f"line {lineno}: expected 'field p=<p> m=<m> [modulus=<enc>]'")
    kv = _kv_tokens(tokens[1:], lineno, "field", ("p", "m", "modulus"))
    if "p" not in kv or "m" not in kv:
        raise ParseError(f"line {lineno}: field line needs p= and m=")
    p = _int(kv["p"], "p", lineno)
    m = _int(kv["m"], "m", lineno)
    enc = _int(kv["modulus"], "modulus", lineno) if "modulus" in kv else None
    try:
        check_field(p, m)  # bounds p before the digit loop below runs
        modulus = None
        if enc is not None:
            if enc < 0:
                raise ValueError(f"field modulus={enc} must be nonnegative")
            modulus = []
            while enc:
                enc, d = divmod(enc, p)
                modulus.append(d)
        fld = field_make(p, m, modulus)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None

    lineno, size = lines[1]
    kv = _kv_tokens(size.split(), lineno, "size", ("k", "n"))
    if "k" not in kv or "n" not in kv:
        raise ParseError(f"line {lineno}: expected 'k=<k> n=<n>'")
    k = _int(kv["k"], "k", lineno)
    n = _int(kv["n"], "n", lineno)
    if k < 1 or n < 1:
        raise ParseError(f"line {lineno}: k and n must be positive")

    body = lines[2:]
    if len(body) != k:
        raise ParseError(f"expected {k} matrix rows, found {len(body)}")
    rows = []
    for r, (lineno, content) in enumerate(body):
        entries = [e.strip() for e in content.split(";")]
        if len(entries) != n:
            raise ParseError(
                f"line {lineno}: row {r} has {len(entries)} entries, expected {n}"
            )
        row = []
        for c, entry in enumerate(entries):
            if not entry:
                raise ParseError(f"line {lineno}: row {r} entry {c} is empty")
            coeffs = []
            for tok in entry.split():
                val = _int(tok, f"row {r} entry {c} coefficient", lineno)
                if not 0 <= val < fld.q:
                    raise ParseError(
                        f"line {lineno}: row {r} entry {c}: coefficient {val} "
                        f"out of range 0..{fld.q - 1}"
                    )
                coeffs.append(val)
            row.append(coeffs)
        rows.append(row)
    return polyalg.pm(fld, rows)


def format_gm(g: PolyMatrix) -> str:
    """Render a matrix in the .gm format; parse(format(g)) == g."""
    fld = g.field
    head = f"field p={fld.p} m={fld.m}"
    if fld.m > 1:
        head += f" modulus={fld.modulus_encoding}"
    lines = [head, f"k={g.k} n={g.n}"]
    for row in g.rows:
        lines.append(" ; ".join(" ".join(str(c) for c in e) or "0" for e in row))
    return "\n".join(lines) + "\n"


def _load(path: str) -> PolyMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    try:
        return parse_gm(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None


# Every --json payload is written as json.dumps(..., sort_keys=True, indent=2)
# would print it; the members that grow with the code are written in chunks,
# each straight from the table that holds it.


def _block(members: Iterable, depth: int, brackets: str = "[]") -> Iterator[str]:
    """A JSON array, or an object with brackets "{}", nested `depth` deep, in
    chunks laid out as by json.dumps(..., indent=2).

    Each of `members` is either a list of the texts of consecutive members,
    each at depth + 1 ('"key": value' in an object), written as one chunk,
    or an iterator of the chunks of one member.
    """
    pad = "\n" + "  " * (depth + 1)
    lead = brackets[0] + pad
    for run in members:
        if isinstance(run, list):
            if not run:
                continue
            yield lead + ("," + pad).join(run)
        else:
            yield lead
            yield from run
        lead = "," + pad
    yield brackets if lead[0] == brackets[0] else "\n" + "  " * depth + brackets[1]


def _text(members: list[str], depth: int, brackets: str = "[]") -> str:
    if not members:
        return brackets
    pad = "\n" + "  " * (depth + 1)  # the one chunk _block makes of `members`
    return brackets[0] + pad + ("," + pad).join(members) + pad[:-2] + brackets[1]


def _write_json(name: str, payload: dict) -> None:
    """Print the schema `name` object whose other members are `payload`, as
    json.dumps(..., sort_keys=True, indent=2) would: an iterator value is the
    chunks of its text at depth 1; any other is dumped and re-indented at its
    newlines, which is exact as no JSON string holds one."""
    payload = {"schema": _schema_id(name), **payload}
    sys.stdout.writelines(_block((
        chain([f'"{key}": '], value) if isinstance(value, Iterator)
        else [f'"{key}": ' + json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")]
        for key, value in sorted(payload.items())
    ), 0, "{}"))
    sys.stdout.write("\n")


def _terms_text(e: spectrum.WeightEnum, depth: int) -> str:
    """The object {str(weight): count} of `e`.  Its keys sort as strings,
    "10" before "2", and so do its members, as '"' sorts below every digit."""
    return _text(sorted([f'"{a}": {c}' for a, c in e.terms()]), depth, "{}")


def _series_chunks(ls: spectrum.LSeries) -> Iterator[str]:
    yield from _block([[
        f'{{\n      "l": {l},\n      "terms": {_terms_text(e, 3)}\n    }}'
        for l, e in enumerate(ls.coeffs)  # as _text(..., 2, "{}") lays it out, with no call
    ]], 1)


def _adjacency_result(lam: spectrum.AdjMatrix) -> tuple:
    """(0, payload, text) of Lambda, a row at a time, each distinct cell rendered once."""
    def entries():
        cells = [_terms_text(e, 3) for e in lam.cells]
        yield from _block(([_text(row, 2)] for row in lam.dense(cells, "{}")), 1)

    def text():
        for line in lam.lines():
            yield line + "\n"

    return 0, {
        "size": lam.size,
        "q": lam.q,
        "n": lam.n,
        "extended": lam.extended,
        "entries": entries(),
    }, text()


def _edges_chunks(sd: statediag.StateDiagram) -> Iterator[str]:
    """The labelled edges as JSON objects, one chunk per source."""
    vector = lambda vec: _text([str(d) for d in vec], 3)
    v_and_w = lambda vec, w: f'{vector(vec)},\n      "w": {w}'
    sources = (
        [f'{{\n      "from": {src},\n      "to": {dst},\n      "u": {u},\n      "v": {v}\n    }}'
         for dst, u, v in zip(dsts, us, vs)]
        for src, dsts, us, vs in statediag.labelled_transitions(sd, vector, v_and_w)
    )
    return _block(sources, 1)


def _at_least_one(value: int, name: str) -> int:
    """An option's value, refused as an input error below 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return value


def _trunc(args, g: PolyMatrix) -> int:
    """--trunc, or the default for g; an input error below 1."""
    trunc = spectrum.default_truncation(g.info.delta) if args.trunc is None else args.trunc
    return _at_least_one(trunc, "truncation")


def _series_pair(args, needs: str):
    """(g, trunc, omega, phi) for the file in args.

    Every code, a block code (delta = 0, one state) included, goes through
    the state diagram; `needs` opens the refusal, as in _require_minimal.
    """
    g = _require_minimal(_load(args.file), needs)
    trunc = _trunc(args, g)
    phi = spectrum.phi_series(invariance.code_adjacency(g, lumped=True), trunc)
    return g, trunc, spectrum.omega_series(phi), phi


def _require_minimal(g: PolyMatrix, needs: str) -> PolyMatrix:
    """g, refused when not minimal; `needs` opens the message, e.g. "... requires"."""
    if not g.info.is_minimal:
        raise ValueError(f"{needs} a minimal generator matrix")
    return g


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, payload, text) and main writes one
# ---------------------------------------------------------------------------


def _cmd_info(args) -> tuple:
    g = _load(args.file)
    info = g.info
    return 0, {
        "n": g.n,
        "k": g.k,
        "delta": info.delta,
        "indices": sorted(info.row_degrees),
        "basic": info.is_basic,
        "minimal": info.is_minimal,
        "memory": info.memory,
    }, [
        f"n={g.n} k={g.k} delta={info.delta} "
        f"indices={sorted(info.row_degrees)} basic={'yes' if info.is_basic else 'no'} "
        f"minimal={'yes' if info.is_minimal else 'no'} memory={info.memory}\n"
    ]


def _cmd_ccf(args) -> tuple:
    g = _require_minimal(_load(args.file), "the controller canonical form requires")
    cf = encoder.controller_form(g)
    mats = {"A": cf.A, "B": cf.B, "C": cf.C, "D": cf.D}
    text = []
    for name, mat in mats.items():
        text.append(f"{name} =\n" if mat else f"{name} = []\n")  # a block code's register is empty
        text += ["  " + (" ".join(str(c) for c in row) or "[]") + "\n" for row in mat]
    text.append(f"block degrees: {list(cf.block_degrees)}\n")
    return 0, {**mats, "block_degrees": cf.block_degrees}, text


def _check_rendering(args, q: int, gamma: int) -> None:
    """The guard on printing every state of q^gamma, before the controller
    form; --force lifts it."""
    if not args.force:
        check_limit(statediag.DEFAULT_DOT_CEILING,
                    "{count} vertices exceed the rendering guard {bound}", repeat(q, gamma))


def _cmd_diagram(args) -> tuple:
    if args.dot and args.json:
        raise ValueError("--dot and --json cannot be combined")
    g = _load(args.file)  # may be non-minimal: gamma is the sum of its row degrees
    q, gamma = g.field.q, sum(g.info.row_degrees)
    statediag.check_states(q, gamma, _at_least_one(args.max_states, "state ceiling"))
    if args.dot or args.json:
        _check_rendering(args, q, gamma)
    cf = encoder.controller_form(g, require_minimal=False)
    sd = statediag.build(cf, max_states=args.max_states)
    if args.dot:
        return 0, None, statediag.dot_chunks(sd)
    delay_free = statediag.delay_free_check(sd)
    zero_cycle = statediag.zero_weight_cycle_exists(sd)
    return 0, {
        "states": sd.num_states,
        "edges": _edges_chunks(sd),
        "delay_free": delay_free,
        "zero_weight_cycle": zero_cycle,
    }, [
        f"states: {sd.num_states}\n",
        # every state has q^k transitions, and (0, 0) is left out
        f"edges: {sd.num_states * cf.field.q**cf.k - 1}\n",
        f"delay-free: {'yes' if delay_free else 'no'}\n",
        f"zero-weight cycle: {'yes' if zero_cycle else 'no'}\n",
    ]


def _cmd_adjacency(args) -> tuple:
    g = _require_minimal(_load(args.file), "the adjacency matrix requires")
    invariance.check_adjacency(g)  # a matrix too large to build is refused as such
    _check_rendering(args, g.field.q, g.info.delta)
    return _adjacency_result(invariance.code_adjacency(g))


def _cmd_spectrum(args) -> tuple:
    _, trunc, omega, phi = _series_pair(args, "the weight distribution requires")
    return 0, {
        "trunc": trunc,
        "omega": _series_chunks(omega),
        "phi": _series_chunks(phi),
    }, (
        f"{name} = {spectrum.format_series(ls)} + O(L^{trunc + 1})\n"
        for name, ls in (("Omega", omega), ("Phi  ", phi))
    )


def _cmd_distances(args) -> tuple:
    g, trunc, omega, phi = _series_pair(args, "distance profiles require")
    _, mhat = polyalg.right_inverse(g)
    fd = spectrum.free_distance(omega, atomic_gap=g.info.memory + mhat)
    row_d = spectrum.extended_row_distances(omega)
    burst_d = spectrum.active_burst_distances(phi)
    cert = "certified" if fd.certified else f"upper bound at truncation {trunc}"
    fmt = lambda ds: " ".join("inf" if d is None else str(d) for d in ds)
    return 0, {
        "free_distance": fd.value,
        "certified": fd.certified,
        "extended_row": list(row_d),
        "active_burst": list(burst_d),
    }, [
        f"free distance: {fd.value} ({cert})\n",
        f"extended row distances: {fmt(row_d)}\n",
        f"active burst distances: {fmt(burst_d)}\n",
    ]


def _cmd_dual(args) -> tuple:
    h = polyalg.dual_basis(_load(args.file))
    fld = h.field
    return 0, {
        "field": {"p": fld.p, "m": fld.m, "modulus": fld.modulus_encoding},
        "k": h.k,
        "n": h.n,
        "rows": [[list(e) for e in row] for row in h.rows],
    }, [format_gm(h)]


def _cmd_macwilliams(args) -> tuple:
    g = _require_minimal(_load(args.file), "the duality transform requires")
    if g.info.delta != 1:
        raise ValueError("the closed-form transform needs constraint length 1")
    lam = spectrum.extend(invariance.code_adjacency(g))
    return _adjacency_result(invariance.macwilliams_delta1(lam))


def _cmd_equal(args) -> tuple:
    g = _load(args.file)
    h = _load(args.file2)
    polyalg.check_same_shape(g, h)
    info_g, info_h = g.info, h.info  # either rank deficiency before codes_equal's basic check
    same = polyalg.codes_equal(g, h)
    witness = None
    verdicts = ["codes are equal" if same else "codes differ"]
    if not same and info_g.is_minimal and info_h.is_minimal and info_g.delta == info_h.delta:
        witness = invariance.code_witness(g, h)
        verdicts.append(
            "generalized adjacency matrices differ" if witness is None
            else f"generalized adjacency matrices coincide (state permutation {list(witness)})"
        )
    return 0 if same else 1, {
        "found": same,
        **({"perm": list(witness)} if witness else {}),
    }, ["; ".join(verdicts) + "\n"]


def _cmd_mono_equiv(args) -> tuple:
    g = _load(args.file)
    h = _load(args.file2)
    witness = invariance.monomial_equiv(g, h, budget=_at_least_one(args.budget, "budget"))
    if witness is None:
        return 1, {"found": False}, ["codes are not monomially equivalent\n"]
    perm, scale = map(list, witness)
    return 0, {
        "found": True,
        "perm": perm,
        "scale": scale,
    }, [f"monomial witness: perm={perm} scale={scale}\n"]


def _cmd_recover(args) -> tuple:
    g = _require_minimal(_load(args.file), "invariant recovery requires")
    lam = invariance.code_adjacency(g)
    k = invariance.recover_dimension(lam)
    indices = list(invariance.recover_forney(lam))
    return 0, {
        "k": k,
        "indices": indices,
    }, [f"k={k} indices={indices}\n"]


def _cmd_oracle(args) -> tuple:
    g = _require_minimal(_load(args.file), "the codeword oracle requires")
    l_max = _trunc(args, g)
    result = oracle.survey(g, l_max, budget=_at_least_one(args.budget, "budget"))

    def table_json(table):
        by_l: dict[int, dict[str, int]] = {}
        for (l, a), c in sorted(table.items()):
            by_l.setdefault(l, {})[str(a)] = c
        return [{"l": l, "terms": by_l[l]} for l in sorted(by_l)]

    def table_text(table):
        terms = " + ".join(f"{c if c > 1 else ''}L^{l}W^{a}" for (l, a), c in sorted(table.items()))
        return terms or "0"

    return 0, {
        "l_max": l_max,
        "atomic": table_json(result.atomic),
        "molecular": table_json(result.molecular),
        "gap_bound_ok": result.gap_bound_ok,
    }, [
        f"inputs enumerated: {result.words}\n",
        f"atomic: {table_text(result.atomic)}\n",
        f"molecular: {table_text(result.molecular)}\n",
        f"zero-run bound respected: {'yes' if result.gap_bound_ok else 'no'}\n",
    ]


def _cmd_lemma_a1(args) -> tuple:
    holds = invariance.verify_shift_permutation_lemma(args.gamma)
    verdict = ("only the identity map satisfies the shift condition" if holds
               else "a non-identity map satisfies the condition")
    return 0 if holds else 1, {
        "gamma": args.gamma,
        "holds": holds,
    }, [f"gamma={args.gamma}: {verdict}\n"]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


_JSON = ("--json", {"action": "store_true", "help": "machine-readable output"})
_GM = (("file", {"help": "generator matrix file (.gm)"}), _JSON)
_GM_PAIR = (_GM[0], ("file2", {"help": "second generator matrix file (.gm)"}), _JSON)
_TRUNC = ("--trunc", {"type": int, "help": "series truncation order (default 4*delta + 8)"})
_FORCE = ("--force", {"action": "store_true", "help": "override the rendering size guard"})
_BUDGET = {"type": int, "help": "evaluation/search budget"}

# name, handler, schema of its --json payload, help, positionals and options
_COMMANDS = (
    ("info", _cmd_info, "info", "row degrees, constraint length, basic/minimal flags", _GM),
    ("ccf", _cmd_ccf, "ccf", "controller canonical form (A, B, C, D)", _GM),
    ("diagram", _cmd_diagram, "diagram", "state diagram, catastrophicity diagnostics",
     [*_GM, _FORCE, ("--dot", {"action": "store_true", "help": "emit Graphviz text"}),
      ("--max-states", {"type": int, "default": statediag.DEFAULT_STATE_CEILING,
                        "help": "state space ceiling"})]),
    ("adjacency", _cmd_adjacency, "adjacency", "adjacency matrix of the state diagram",
     [*_GM, _FORCE]),
    ("spectrum", _cmd_spectrum, "series", "weight distribution series Omega and Phi",
     [*_GM, _TRUNC]),
    ("distances", _cmd_distances, "distances", "free distance and distance profiles",
     [*_GM, _TRUNC]),
    ("dual", _cmd_dual, "gm", "minimal generator matrix of the dual code", _GM),
    ("macwilliams", _cmd_macwilliams, "adjacency", "dual adjacency matrix (binary, delta=1)", _GM),
    ("equal", _cmd_equal, "witness", "decide code equality (exit 1 when codes differ)", _GM_PAIR),
    ("mono-equiv", _cmd_mono_equiv, "witness", "search a monomial equivalence witness",
     [*_GM_PAIR, ("--budget", {**_BUDGET, "default": invariance.DEFAULT_BUDGET})]),
    ("recover", _cmd_recover, "recover", "recover k and row degrees from the adjacency matrix",
     _GM),
    ("oracle", _cmd_oracle, "oracle", "brute-force atomic/molecular tallies",
     [*_GM, ("--budget", {**_BUDGET, "default": oracle.DEFAULT_BUDGET}), _TRUNC]),
    ("lemma-a1", _cmd_lemma_a1, "lemma", "exhaustively verify the shift-rigidity lemma",
     [("gamma", {"type": int, "help": "register length (2 to 8)"}),
      ("--json", {"action": "store_true"})]),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call of main()."""
    parser = argparse.ArgumentParser(
        prog="convcode",
        description="Analysis of convolutional codes over small finite fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, schema, help_text, arguments in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            sp.add_argument(flag, **options)
        sp.set_defaults(_run=handler, _schema=schema)
    return parser


def _silence_stdout() -> None:
    """Point the stdout descriptor at os.devnull, so the final flush of what
    is still buffered raises nothing."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # an in-process stream has no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc, payload, text = args._run(args)
        if args.json:
            _write_json(args._schema, payload)
        else:
            sys.stdout.writelines(text)
        sys.stdout.flush()  # a closed pipe must surface here, not at interpreter exit
        return rc
    except BrokenPipeError:
        _silence_stdout()
        return 141
    except LimitError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
