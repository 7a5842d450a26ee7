"""Seeded fuzz test of .gm parsing and the CLI: mutants of the bundled codes
must end in exit 0-3, with one `error:` or `limit:` line on a refusal."""

import pathlib
import random
import time

from convcode.cli import main

CODES = pathlib.Path(__file__).resolve().parent.parent / "demos" / "codes"

# a sign, a name, a count past 64 bits, int()'s own spellings, a non-ASCII
# digit, an entry separator and keys that repeat one on the field or size line
ADVERSARIAL = ["-1", "q", str(2**64), "+1", "0_1", "\u0663", ";", "p=2", "k=1"]

COMMANDS = [
    ["info"],
    ["ccf"],
    ["diagram"],
    ["adjacency"],
    ["spectrum", "--trunc", "3"],
    ["distances", "--trunc", "3"],
    ["recover"],
    ["dual"],
    ["macwilliams"],
    ["oracle", "--trunc", "3", "--budget", "4096"],
    ["equal"],
    ["mono-equiv"],
]
MUTANTS = 400
CALL_SECONDS = 30.0


def _mutate(rng: random.Random, text: str) -> str:
    """One to three edits: a token dropped, inserted from ADVERSARIAL or
    replaced by one of ADVERSARIAL or of the text, or a line dropped or
    repeated."""
    lines = [line.split() for line in text.splitlines()]
    tokens = ADVERSARIAL + text.split()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        kind = rng.choice(["replace", "drop", "insert", "drop-line", "repeat-line"])
        if kind == "drop-line" and len(lines) > 1:
            del lines[i]
        elif kind == "repeat-line":
            lines.insert(i, list(line))
        elif kind == "insert" or not line:
            line.insert(rng.randint(0, len(line)), rng.choice(ADVERSARIAL))
        elif kind == "replace":
            line[rng.randrange(len(line))] = rng.choice(tokens)
        else:
            del line[rng.randrange(len(line))]
    return "".join(" ".join(line) + "\n" for line in lines)


def test_mutated_codes_end_in_a_handled_exit(capsys, tmp_path):
    rng = random.Random(2032)
    seeds = sorted(CODES.glob("*.gm"))
    slowest = (0.0, "", "")
    for m in range(MUTANTS):
        seed = seeds[m % len(seeds)]
        path = tmp_path / f"mutant{m}.gm"
        path.write_text(_mutate(rng, seed.read_text()), encoding="utf-8")
        for command in COMMANDS:
            files = [str(path), str(seed)] if command[0] in ("equal", "mono-equiv") else [str(path)]
            argv = [command[0], *files, *command[1:]]
            start = time.perf_counter()
            rc = main(argv)
            elapsed = time.perf_counter() - start
            err = capsys.readouterr().err
            assert rc in (0, 1, 2, 3), (argv, path.read_text(), err)
            if rc >= 2:
                assert err.startswith(("error: ", "limit: ")) and err.count("\n") == 1, (argv, err)
            assert elapsed < CALL_SECONDS, (argv, path.read_text())
            slowest = max(slowest, (elapsed, seed.name, " ".join(command)), key=lambda s: s[0])
    print(f"slowest call: {slowest[2]} on a {slowest[1]} mutant, {slowest[0]:.2f} s")
