"""Recorded CLI outputs on the bundled codes, compared byte for byte.

`golden/cli.json` holds argv (paths relative to the repository root), exit
code, stdout and stderr of every call in `calls()`.  A refactor must
reproduce them exactly.  After a deliberate output change, re-record with

    PYTHONPATH=src python tests/test_golden_cli.py

which prints the argv of every record whose rc, stdout or stderr changed,
and of every record added or removed, then the count.  With `--check` it
replays the records without pytest, prints the same lines, writes nothing
and exits 1 if any record moved.
"""

import contextlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

from convcode.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli.json"
SMALL = ["block", "g1", "g2", "memory3", "mixed_rows"]
PER_CODE = ["info", "ccf", "diagram", "adjacency", "spectrum", "distances",
            "dual", "macwilliams", "recover"]


def calls() -> list[list[str]]:
    paths = [f"demos/codes/{name}.gm" for name in SMALL]
    out = []
    for path in paths:
        for command in PER_CODE:
            out += [[command, path], [command, path, "--json"]]
        out += [["diagram", path, "--dot"],
                ["oracle", path, "--trunc", "6"],
                ["oracle", path, "--trunc", "6", "--json"]]
    for a, b in itertools.product(paths, repeat=2):
        out += [["equal", a, b], ["equal", a, b, "--json"],
                ["mono-equiv", a, b], ["mono-equiv", a, b, "--json"]]
    out += [["lemma-a1", "2"], ["lemma-a1", "3", "--json"],
            ["info", "demos/codes/f16.gm"], ["ccf", "demos/codes/f16.gm"],
            ["spectrum", "demos/codes/f16.gm"], ["spectrum", "demos/codes/f16.gm", "--json"],
            ["distances", "demos/codes/f16.gm", "--json"],
            ["diagram", "demos/codes/f16.gm"],
            ["diagram", "demos/codes/f16.gm", "--max-states", "100"],
            ["recover", "demos/codes/f16.gm"], ["recover", "demos/codes/f16.gm", "--json"]]
    # over F5, Lambda is not a complete invariant: conjugate Lambdas, no monomial map
    f5 = ["demos/codes/f5_a.gm", "demos/codes/f5_b.gm"]
    out += [["equal", *f5], ["equal", *f5, "--json"],
            ["mono-equiv", *f5], ["mono-equiv", *f5, "--json"]]
    out += [["lemma-a1", "8"], ["lemma-a1", "9", "--json"]]
    # flag combinations that pick what is written: --dot with --json is
    # refused, --force lifts the rendering guard in both modes
    g1, g2 = "demos/codes/g1.gm", "demos/codes/g2.gm"
    out += [["diagram", g1, "--dot", "--json"], ["diagram", g1, "--json", "--force"],
            ["adjacency", g1, "--force"], ["adjacency", g1, "--json", "--force"]]
    # one refusal of each kind, in both modes
    for argv in (["spectrum", g1, "--trunc", "0"], ["lemma-a1", "1"],
                 ["mono-equiv", g1, g2, "--budget", "1"]):
        out += [argv, [*argv, "--json"]]
    # the delta = 2 pair, whose Lambda differ, and the delta = 2 Frobenius
    # pair, conjugate by a -> a^2, over F16; and a diagram over odd p
    d2a, d2b, d2c = (f"demos/codes/d2{x}.gm" for x in "abc")
    for a, b in ((d2a, d2b), (d2b, d2c)):
        out += [["equal", a, b], ["equal", a, b, "--json"]]
    out += [["diagram", "demos/codes/f3.gm"]]
    # the orbit search's witness, on the F16 pair with row degrees (0, 2),
    # and the chunked weight table of a binary code with n = 17, kept under
    # tests/codes
    f02a, f02b = "demos/codes/f16_02a.gm", "demos/codes/f16_02b.gm"
    out += [["equal", f02a, f02b], ["equal", f02a, f02b, "--json"], ["mono-equiv", f02a, f02b]]
    out += [["spectrum", "tests/codes/n17.gm"]]
    return out


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_outputs_match_recording(monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == calls()
    for expected in recorded:
        assert run(expected["argv"]) == expected


def test_records_replay_unchanged_without_asserts():
    # no result may depend on `assert`: every record replays under python -O
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-O", "tests/test_golden_cli.py", "--check"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.endswith(" records moved\n") and proc.stdout.startswith("0 of ")


if __name__ == "__main__":
    os.chdir(ROOT)
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []
    before = {json.dumps(r["argv"]): r for r in old}
    records = [run(argv) for argv in calls()]
    after = {json.dumps(r["argv"]): r for r in records}
    moved = [f"added   {key}" if key not in before else f"changed {key}"
             for key, record in after.items() if before.get(key) != record]
    moved += [f"removed {key}" for key in before if key not in after]
    for line in moved:
        print(line)
    if sys.argv[1:] == ["--check"]:
        print(f"{len(moved)} of {len(records)} records moved")
        raise SystemExit(1 if moved else 0)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(moved)} records moved; recorded {len(records)} calls to {GOLDEN.relative_to(ROOT)}")
