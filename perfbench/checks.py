"""Output checks, the planted-fault self-test and the output digest.

Every check reads the captured stdout of one CLI call and returns a list of
(check name, message) failures, empty when the output is right.  The
expected values come from the benchmark's own arithmetic (`codes`, `gf`)
or, for the low orders of the weight series, from `convcode.oracle`, the
program's brute-force enumerator that shares no code with the series path.
The checks run after the timed passes.
"""

from __future__ import annotations

import hashlib
import json

import codes

Failure = tuple[str, str]


# -- truncated series in L with {weight: count} coefficients -------------------


def _series(entries: list[dict]) -> list[dict[int, int]]:
    return [{int(a): c for a, c in e["terms"].items() if c} for e in entries]


def _mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for x, c in a.items():
        for y, d in b.items():
            out[x + y] = out.get(x + y, 0) + c * d
    return out


def series_identity(phi: list[dict], omega: list[dict], trunc: int) -> str | None:
    """Phi * (1 - Omega) must be 1 up to L^trunc."""
    one_minus = [{a: -c for a, c in t.items()} for t in omega]
    one_minus[0] = {**one_minus[0], 0: one_minus[0].get(0, 0) + 1}
    for l in range(trunc + 1):
        acc: dict[int, int] = {}
        for i in range(l + 1):
            for a, c in _mul(phi[i], one_minus[l - i]).items():
                acc[a] = acc.get(a, 0) + c
        acc = {a: c for a, c in acc.items() if c}
        if acc != ({0: 1} if l == 0 else {}):
            return f"Phi*(1-Omega) has coefficient {acc} at L^{l}"
    return None


def _table(series: list[dict], length: int) -> dict:
    return {(l, a): c for l in range(1, length + 1) for a, c in series[l].items()}


# -- per-workload checks -------------------------------------------------------------


def check_spectrum(item, rc: int, out: str, oracle_tables, phi_coeffs) -> list[Failure]:
    """`oracle_tables(item)` gives (atomic, molecular) up to the item's
    oracle length, {(l, weight): count}; `phi_coeffs(item)` gives every
    coefficient of Phi up to the truncation, from the register-simulated
    adjacency matrix in `codes`."""
    if rc != item.expect_rc:
        return [("exit-code", f"exit {rc}, expected {item.expect_rc}")]
    try:
        doc = json.loads(out)
        phi, omega = _series(doc["phi"]), _series(doc["omega"])
        trunc = doc["trunc"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [("format", f"unreadable series JSON: {exc!r}")]
    if doc.get("schema") != "convcode.series/1" or trunc != item.facts["trunc"]:
        return [("format", f"schema {doc.get('schema')} trunc {trunc}")]
    if len(phi) != trunc + 1 or len(omega) != trunc + 1:
        return [("format", "series length differs from trunc + 1")]
    fails: list[Failure] = []
    err = series_identity(phi, omega, trunc)
    if err:
        fails.append(("series-identity", err))
    want = phi_coeffs(item)
    wrong = next((l for l in range(trunc + 1) if phi[l] != want[l]), None)
    if wrong is not None:
        fails.append(("phi", f"Phi at L^{wrong} is {phi[wrong]}, expected {want[wrong]}"))
    length = item.facts["oracle_length"]
    atomic, molecular = oracle_tables(item)
    if _table(omega, length) != atomic or _table(phi, length) != molecular:
        fails.append(("oracle", f"series differ from the oracle tallies up to L^{length}"))
    return fails


def parse_diagram(out: str) -> dict:
    fields = {}
    for line in out.splitlines():
        key, _, val = line.partition(":")
        fields[key.strip()] = val.strip()
    yes = {"yes": True, "no": False}
    return {
        "states": int(fields["states"]),
        "edges": int(fields["edges"]),
        "delay_free": yes[fields["delay-free"]],
        "zero_weight_cycle": yes[fields["zero-weight cycle"]],
    }


def check_diagram(item, rc: int, out: str) -> list[Failure]:
    if rc != item.expect_rc:
        return [("exit-code", f"exit {rc}, expected {item.expect_rc}")]
    try:
        got = parse_diagram(out)
    except (KeyError, ValueError) as exc:
        return [("format", f"unreadable diagram summary: {exc!r}")]
    return [
        (key, f"{key} {got[key]}, expected {want}")
        for key, want in item.facts.items()
        if got[key] != want
    ]


def verify_witness(perm, adj_a: dict, adj_b: dict, size: int) -> str | None:
    """perm conjugates A into B: a zero-fixing bijection with
    B[perm[i]][perm[j]] == A[i][j] for every entry."""
    if sorted(perm) != list(range(size)) or perm[0] != 0:
        return "witness is not a zero-fixing permutation of the states"
    if len(adj_a) != len(adj_b):
        return "adjacency matrices have different numbers of nonzero entries"
    for (i, j), cell in adj_a.items():
        if adj_b.get((perm[i], perm[j])) != cell:
            return f"entry ({i}, {j}) is not carried to ({perm[i]}, {perm[j]})"
    return None


def check_equal(item, rc: int, out: str, adjacencies) -> list[Failure]:
    """`adjacencies(item)` gives both codes' adjacency dicts."""
    if rc != item.expect_rc:
        return [("exit-code", f"exit {rc}, expected {item.expect_rc}")]
    try:
        doc = json.loads(out)
        found, perm = doc["found"], doc.get("perm")
    except (ValueError, KeyError, TypeError) as exc:
        return [("format", f"unreadable witness JSON: {exc!r}")]
    if doc.get("schema") != "convcode.witness/1" or found:
        return [("format", f"schema {doc.get('schema')} found {found}")]
    if not item.facts["positive"]:
        return [("negative-has-witness", "a witness was reported for codes whose Phi differ")] if perm else []
    if perm is None:
        return [("positive-no-witness", "no witness for conjugate adjacency matrices")]
    err = verify_witness(perm, *adjacencies(item), item.facts["states"])
    return [("witness", err)] if err else []


# -- digest of all outputs ---------------------------------------------------------


def digest(items, results) -> str:
    h = hashlib.sha256()
    for item, (rc, out) in zip(items, results):
        h.update(f"{item.name}\t{rc}\n{out}\n".encode())
    return h.hexdigest()


# -- planted-fault self-test ---------------------------------------------------------


def _bump(out: str, l: int, series=("phi",)) -> str:
    """One coefficient at L^l raised by one in each named series."""
    doc = json.loads(out)
    key = next(iter(doc["phi"][l]["terms"]), "0")
    for name in series:
        terms = doc[name][l]["terms"]
        terms[key] = terms.get(key, 0) + 1
    return json.dumps(doc)


def _flip(out: str, key: str) -> str:
    lines = []
    for line in out.splitlines():
        if line.startswith(key + ":"):
            val = line.split(":")[1].strip()
            if val in ("yes", "no"):
                line = f"{key}: {'no' if val == 'yes' else 'yes'}"
            else:
                line = f"{key}: {int(val) + 1}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _with_perm(out: str, perm) -> str:
    doc = json.loads(out)
    if perm is None:
        doc.pop("perm", None)
    else:
        doc["perm"] = perm
    return json.dumps(doc)


def _wrong_witness(perm, adj_a, adj_b, size):
    """The witness composed with the first transposition that breaks it."""
    for i in range(1, size):
        for j in range(i + 1, size):
            bad = list(perm)
            bad[i], bad[j] = bad[j], bad[i]
            if verify_witness(bad, adj_a, adj_b, size):
                return bad
    return None


def planted_faults(workload: str, items, results, check) -> list[tuple[str, bool]]:
    """Feed `check(item, rc, out)` one corrupted output per check and report,
    for each check name, whether it fired."""
    cases = []  # (expected check name, item, rc, corrupted out)
    first = items[0]
    rc0, out0 = results[0]
    cases.append(("exit-code", first, rc0 + 2, out0))
    if workload == "spectrum-batch":
        item, (rc, out) = first, results[0]
        trunc = item.facts["trunc"]
        cases.append(("series-identity", item, rc, _bump(out, trunc)))
        cases.append(("oracle", item, rc, _bump(out, item.facts["oracle_length"])))
        # at the top order, Phi and Omega raised together still satisfy
        # Phi*(1-Omega) = 1: only the independent Phi can see it
        cases.append(("phi", item, rc, _bump(out, trunc, ("phi", "omega"))))
    elif workload == "diagram-screen":
        for key, text in (("states", "states"), ("edges", "edges"),
                          ("delay_free", "delay-free"), ("zero_weight_cycle", "zero-weight cycle")):
            cases.append((key, first, rc0, _flip(out0, text)))
    else:
        pos = next(i for i, it in enumerate(items) if it.facts["positive"])
        neg = next(i for i, it in enumerate(items) if not it.facts["positive"])
        item, (rc, out) = items[pos], results[pos]
        perm = json.loads(out).get("perm")
        if perm is not None:
            a, b = (codes.adjacency(c) for c in item.facts["codes"])
            bad = _wrong_witness(perm, a, b, item.facts["states"])
            if bad is not None:
                cases.append(("witness", item, rc, _with_perm(out, bad)))
        cases.append(("positive-no-witness", item, rc, _with_perm(out, None)))
        item, (rc, out) = items[neg], results[neg]
        ident = list(range(item.facts["states"]))
        cases.append(("negative-has-witness", item, rc, _with_perm(out, ident)))
    report = []
    for name, item, rc, out in cases:
        fired = any(f[0] == name for f in check(item, rc, out))
        report.append((name, fired))
    expected_names = {
        "spectrum-batch": {"exit-code", "series-identity", "oracle", "phi"},
        "diagram-screen": {"exit-code", "states", "edges", "delay_free", "zero_weight_cycle"},
        "equal-pairs": {"exit-code", "witness", "positive-no-witness", "negative-has-witness"},
    }[workload]
    missing = expected_names - {name for name, _ in report}
    report += [(name, False) for name in sorted(missing)]
    corrupted = list(results)
    corrupted[0] = (rc0, out0 + " ")
    report.append(("digest", digest(items, corrupted) != digest(items, results)))
    return report
