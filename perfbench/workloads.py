"""The three workloads: seeded corpora of CLI calls with their expected results.

Each workload is a list of shape classes with fixed item counts, plus fixed
anchor items.  Every item in a class has the same (field, k, n, row
degrees), so items in a class cost about the same and the class counts fix
where the median and p90 land.  `build(name, seed, workdir)` writes the
`.gm` files and returns the items in a seeded shuffled order; the expected
values each check compares against are computed here, by the benchmark's
own arithmetic, before anything is timed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field as dc_field

import codes
from codes import Code, Shape


@dataclass
class Item:
    name: str  # unique within the corpus
    cls: str  # shape class or "anchor"
    argv: list[str]
    expect_rc: int
    facts: dict = dc_field(default_factory=dict)  # what the checks compare against


@dataclass(frozen=True)
class ShapeClass:
    name: str
    count: int
    shape: Shape


# -- fixed anchor codes (the bundled demo codes and two classic binary codes) --

ANCHORS = {
    "memory3": "field p=2 m=1\nk=1 n=2\n1 1 1 1 ; 1 0 1 1\n",
    "g1": "field p=2 m=1\nk=1 n=3\n1 ; 0 1 ; 1 1\n",
    "g2": "field p=2 m=1\nk=1 n=3\n0 1 ; 0 1 ; 1 1\n",
    "mixed_rows": "field p=2 m=1\nk=2 n=3\n1 ; 1 ; 0\n0 ; 1 1 ; 0 1\n",
    "oct171_133": codes.from_octal("171", "133").gm(),
    "oct561_753": codes.from_octal("561", "753").gm(),
    "oct133_171": codes.from_octal("133", "171").gm(),
    "oct753_561": codes.from_octal("753", "561").gm(),
}


def parse_anchor(text: str) -> Code:
    """Read back one of the binary anchor texts above."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = [
        [codes.trim([int(c) for c in e.split()]) for e in ln.split(";")]
        for ln in lines[2:]
    ]
    return Code(codes.field(1), rows)


SPECTRUM = [
    ShapeClass("small", 20, Shape(1, 1, 2, (5,))),
    ShapeClass("medium", 60, Shape(2, 1, 3, (3,))),
    ShapeClass("large", 20, Shape(2, 1, 3, (4,))),
]
SPECTRUM_ANCHORS = ["memory3", "g1", "g2", "mixed_rows", "oct171_133", "oct561_753"]

DIAGRAM = [
    ShapeClass("f8-2x3-g2", 48, Shape(3, 2, 3, (1, 1))),
    ShapeClass("f16-1x3-g2", 96, Shape(4, 1, 3, (2,))),
    ShapeClass("f4-2x3-g4", 60, Shape(2, 2, 3, (2, 2))),
    ShapeClass("f256-1x2-g1", 24, Shape(8, 1, 2, (1,))),
    ShapeClass("f16-2x3-g2", 12, Shape(4, 2, 3, (1, 1))),
]

EQUAL = [
    ShapeClass("neg-64", 20, Shape(2, 1, 3, (3,))),
    ShapeClass("pos-64", 40, Shape(2, 1, 3, (3,))),
    ShapeClass("pos-256", 20, Shape(2, 2, 3, (2, 2))),
]
EQUAL_ANCHORS = [
    ("g1", "g2", False),
    ("oct171_133", "oct133_171", True),
    ("oct561_753", "oct753_561", True),
]

CLASSES = {"spectrum-batch": SPECTRUM, "diagram-screen": DIAGRAM, "equal-pairs": EQUAL}

ORACLE_WORDS = 256  # input words the oracle may enumerate per spectrum item


def _write(workdir: str, name: str, code: Code) -> str:
    path = os.path.join(workdir, name + ".gm")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(code.gm())
    return path


def _oracle_length(code: Code, trunc: int) -> int:
    """Longest length whose oracle enumeration stays within ORACLE_WORDS."""
    q = code.field.q
    degs = code.row_degrees()
    length = max(degs) + 1
    while length < trunc:
        words = 1
        for d in degs:
            words *= q ** max(length + 1 - d, 0)
        if words > ORACLE_WORDS:
            break
        length += 1
    return length


def _spectrum_item(workdir: str, name: str, cls: str, code: Code) -> Item:
    gamma = sum(code.row_degrees())
    trunc = 4 * gamma + 8
    path = _write(workdir, name, code)
    facts = {
        "gm": code.gm(),
        "code": code,
        "trunc": trunc,
        "oracle_length": _oracle_length(code, trunc),
        "states": code.field.q**gamma,
    }
    return Item(name, cls, ["spectrum", path, "--json"], 0, facts)


def _diagram_item(workdir: str, name: str, cls: str, code: Code) -> Item:
    path = _write(workdir, name, code)
    q, gamma = code.field.q, sum(code.row_degrees())
    facts = {
        "states": q**gamma,
        "edges": q ** (gamma + code.k) - 1,
        "delay_free": codes.delay_free(code),
        "zero_weight_cycle": codes.catastrophic(code),
    }
    return Item(name, cls, ["diagram", path], 0, facts)


def _equal_item(workdir: str, name: str, cls: str, a: Code, b: Code, positive: bool) -> Item:
    pa = _write(workdir, name + "-a", a)
    pb = _write(workdir, name + "-b", b)
    facts = {"positive": positive, "codes": (a, b), "states": a.field.q ** sum(a.row_degrees())}
    return Item(name, cls, ["equal", pa, pb, "--json"], 1, facts)


def _positive_pair(rng: random.Random, shape: Shape) -> tuple[Code, Code]:
    """A minimal code and a row-transformed, column-monomial image of it that
    generates a different code, so the CLI reaches the adjacency search."""
    while True:
        a = codes.random_minimal(rng, shape)
        b = codes.column_monomial(rng, codes.row_transform(rng, a))
        if codes.code_key(a) != codes.code_key(b):
            return a, b


def _negative_pair(rng: random.Random, shape: Shape) -> tuple[Code, Code]:
    """Two minimal codes of one shape whose weight series Phi differ."""
    while True:
        a = codes.random_minimal(rng, shape)
        b = codes.random_minimal(rng, shape)
        trunc = 2 * shape.gamma + 4
        phis = [codes.phi_coeffs(codes.adjacency(c), trunc) for c in (a, b)]
        if phis[0] != phis[1]:
            return a, b


def build(workload: str, seed: int, workdir: str) -> list[Item]:
    rng = random.Random(f"{workload}/{seed}")
    os.makedirs(workdir, exist_ok=True)
    items: list[Item] = []
    for sc in CLASSES[workload]:
        for i in range(sc.count):
            name = f"{sc.name}-{i:03d}"
            if workload == "spectrum-batch":
                items.append(_spectrum_item(workdir, name, sc.name, codes.random_minimal(rng, sc.shape)))
            elif workload == "diagram-screen":
                items.append(_diagram_item(workdir, name, sc.name, codes.random_full_rank(rng, sc.shape)))
            elif sc.name.startswith("pos"):
                items.append(_equal_item(workdir, name, sc.name, *_positive_pair(rng, sc.shape), True))
            else:
                items.append(_equal_item(workdir, name, sc.name, *_negative_pair(rng, sc.shape), False))
    if workload == "spectrum-batch":
        for key in SPECTRUM_ANCHORS:
            items.append(_spectrum_item(workdir, "anchor-" + key, "anchor", parse_anchor(ANCHORS[key])))
    elif workload == "equal-pairs":
        for ka, kb, positive in EQUAL_ANCHORS:
            a, b = parse_anchor(ANCHORS[ka]), parse_anchor(ANCHORS[kb])
            items.append(_equal_item(workdir, f"anchor-{ka}-{kb}", "anchor", a, b, positive))
    rng.shuffle(items)
    return items
