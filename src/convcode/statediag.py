"""Explicit state diagram over the register state space F_q^gamma.

States are indexed 0..q^gamma-1 by reading the state vector as a base-q
number, first register coordinate most significant; index 0 is the zero
state.  Every vertex has q^k outgoing edges except vertex 0, which lacks
the all-zero transition and has q^k - 1.

A diagram is the packed tables of its form, the fields xa, xc (per
state) and ub, ud (per input) with the vector sum `add`; no edge is
stored, and no other module reads the four tables.  Inputs u and outputs
v are packed like states.  Since F_q = F_p^m with base-p element digits,
a packed vector is a base-p number and x -> xA is F_p-linear, so `build`
fills each table by a prefix recursion over the F_p basis from
(gamma + k) * m images, each a matrix row times a power of p, in
O(q^gamma + q^k).  An edge is two vector sums, dst = xA + uB and
v = xC + uD, and a table lookup of wt(v).  A shifts each register block
and B writes the block's first cell, so xA and uB occupy disjoint cells
and dst is their integer sum; v is an XOR over F_{2^m}, else the field's
addition table per element.  `_blocks` is the one enumeration of the
edges: per run of sources, one destination tuple per xA, made in C-level
passes (xA repeated once per input plus uB cycled), and a stream of the
run's outputs xC + uD.  `spectrum.adjacency` reads every run whole, for
Lambda and Q alike; the edge views, `edges_by_source` (for the demos,
the benchmark's counters and the tests) and `labelled_transitions` (for
the DOT text and the JSON edge list, each label made once), read the runs
source by source, each source's outputs taken off the stream and held;
all weigh outputs through `_weigher`, which builds each table once.

The alphabet route of `invariance.code_witness`, for codes whose k rows
share one degree m, reads `_edge_weights`, `_pair_table`, whose row
multisets are the letters' classes, and `_letters`.  The register holds
m columns of letters of F_q^k: first(d) = dB holds d alone in the first
column, last(c) = cBA^(m-1) c alone in the last.  `_letters` lifts
sigma, sigma(0) = 0, to pi_sigma, sigma applied to every column.
last(c) ascends with the packed letter, and a state below last(c) holds
only letters below c, so pi_sigma ascends as sigma does.

The code is F_q-linear and wt(lambda v) = wt(v), so for every lambda != 0
the map x -> lambda x (edge (x, u) -> (lambda x, lambda u)) is a
weight-preserving automorphism of the diagram.  Its orbits partition the
states equitably, with {0} a block of its own, so the lumped matrix Q
(one row per orbit, its representative's edges tallied by destination
orbit) has (Q^l)_{0,0} = (Lambda^l)_{0,0}.  `build(cf, lumped=True)`
keeps the orbit map, and its edges leave only the representatives, 0 and
the states whose first nonzero coordinate is 1 (the smallest member of
each orbit in index order): about q^gamma / (q - 1) sources, not q^gamma.
The same orbits, from the one `_orbits`, serve Q and the conjugation
search over the states: `invariance.code_witness` hands them to
`gen_adj_equal`, whose root refinement signs one state per orbit.

The catastrophicity and delay-freeness screens read only the weight-0
edges, the transitions (x, u) != (0, 0) with xC = -uD, looked up in the
tables, not the q^(gamma + k) of every edge: one C-level scan of the
q^gamma states finds those with a weight-0 edge, and the Python work is
per input and per weight-0 edge.  A cycle among them is found by peeling
off, in reverse, the states whose weight-0 edges all lead to peeled ones
or to states with none, linear in those states and edges, with no stack.
"""

from __future__ import annotations

import functools
import operator
from itertools import chain, compress, cycle, islice, product, repeat, starmap
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import polyalg
from .encoder import ControllerForm
from .errors import InternalError, check_limit
from .galois import FieldSpec

DEFAULT_STATE_CEILING = 1 << 20
DEFAULT_DOT_CEILING = 4096


def state_index(q: int, vec) -> int:
    idx = 0
    for d in vec:
        idx = idx * q + d
    return idx


def state_vector(q: int, gamma: int, index: int) -> tuple[int, ...]:
    out = [0] * gamma
    for i in range(gamma - 1, -1, -1):
        index, out[i] = divmod(index, q)
    return tuple(out)


class StateDiagram(NamedTuple):
    """A diagram as its form's tables, (add, xa, xc, ub, ud) from `build`;
    a lumped one also keeps the orbit id of every packed state and the
    representative of every orbit.  Edges are views replayed on every read."""

    field: FieldSpec
    gamma: int
    k: int
    n: int
    num_states: int
    form: ControllerForm
    add: Callable[[int, int], int]
    xa: list[int]
    xc: list[int]
    ub: list[int]
    ud: list[int]
    orbit: Optional[list[int]]
    reps: Optional[list[int]]

    @property
    def lumped(self) -> bool:
        """True for the orbit quotient of a diagram, which has fewer states."""
        return self.num_states < self.field.q**self.gamma

    @property
    def spread(self) -> bool:
        """No two inputs share uB, so a full diagram's sources have distinct destinations."""
        return all(map(operator.lt, self.ub, self.ub[1:]))

    @property
    def edges_by_source(self) -> Iterator[tuple[tuple[int, int], ...]]:
        """One tuple of (dst, weight) pairs per source, in input order; the
        destinations of a lumped diagram are orbit ids."""
        weight = _weigher(self.field.q, self.n)
        for _, rows, outputs in _blocks(self, 1024):
            for dsts in rows:
                yield tuple(zip(dsts, map(weight, islice(outputs, len(dsts)))))


def _vector_add(fld: FieldSpec) -> Callable[[int, int], int]:
    """Sum of two packed vectors over F_q, element by element off the field's
    addition table; the one place that depends on p."""
    if fld.p == 2:
        return operator.xor
    q, sums = fld.q, fld.add_table

    def add(x: int, y: int) -> int:
        out, scale = 0, 1
        while x or y:
            x, a = divmod(x, q)
            y, b = divmod(y, q)
            out += sums[a * q + b] * scale
            scale *= q
        return out

    return add


def _linear_table(
    fld: FieldSpec, mat: tuple[tuple[int, ...], ...], add: Callable[[int, int], int]
) -> list[int]:
    """Packed xM for every packed x in F_q^rows, rows = len(M), in index order.

    Index digit j (base p, least significant first) is the basis vector
    p^(j mod m) at coordinate rows - 1 - j // m, so its image is that row
    of M times p^(j mod m); each digit multiplies the table by p, appending
    the previous entries shifted by 1..p-1 times its image.
    """
    q, p, m, rows = fld.q, fld.p, fld.m, len(mat)
    table = [0]
    for j in range(rows * m):
        scale = p ** (j % m)
        image = state_index(q, [fld.mul(scale, e) for e in mat[rows - 1 - j // m]])
        steps = [image]
        while len(steps) < p - 1:
            steps.append(add(steps[-1], image))
        table = table + [add(x, s) for s in steps for x in table]
    return table


def _cellwise(digits: Sequence[int], cells: int, base: int) -> list[int]:
    """For every packed x of F_q^cells, q = len(digits), in index order, the
    digits[c] of its cells c read as a base-`base` number, filled digit by
    digit: x with c -> digits[c] applied to every cell when base == q, the
    sum of its digits[c] when base == 1."""
    table = [0]
    for _ in range(cells):
        table = [x * base + d for x in table for d in digits]
    return table


@functools.cache
def _weigher(q: int, n: int) -> Callable[[int], int]:
    """wt(v) for a packed vector v of F_q^n, from a table of digit chunks; a
    single lookup when q^n <= 2^16.  Cached, it holds one weigher and table
    of at most 2^16 entries per (q, n) the process asks for."""
    width = n
    while q**width > 1 << 16:
        width -= 1
    table = _cellwise([0] + [1] * (q - 1), width, 1)
    if width == n:
        return table.__getitem__
    size = q**width

    def weight(v: int) -> int:
        w = 0
        while v:
            v, low = divmod(v, size)
            w += table[low]
        return w

    return weight


def _orbits(fld: FieldSpec, gamma: int) -> tuple[list[int], list[int]]:
    """(orbit id of every packed state, smallest member of every orbit) of F_q^*.

    Walks the cycles of x -> alpha x for alpha = `fld.generator`, read
    off a `_cellwise` table; scanning in index order meets each orbit
    first at its smallest member.  Orbit 0 is {0}.
    """
    times = [fld.mul(fld.generator, d) for d in range(fld.q)]
    scaled = _cellwise(times, gamma, fld.q)
    orbit, reps = [0] * len(scaled), [0]
    for start in range(1, len(scaled)):
        if not orbit[start]:
            x = start
            while not orbit[x]:
                orbit[x] = len(reps)
                x = scaled[x]
            reps.append(start)
    return orbit, reps


def _blocks(sd: StateDiagram, size: int,
            scale: int = 1) -> Iterator[tuple[Sequence[int], list[tuple], Iterator[int]]]:
    """(sources, dsts, outputs) per run of at most `size` sources, in order,
    over every transition but (0, 0): the one enumeration of the edges.

    The sources are every packed state, or a lumped diagram's orbit
    representatives.  `dsts` holds each source's destinations xA + uB in
    input order (orbit ids if lumped) times `scale`, one tuple per xA,
    shared by its sources and made in C-level passes, xA repeated once per
    input plus uB cycled; `outputs` streams the run's outputs xC + uD.
    """
    xa, xc, ub, ud = sd.xa, sd.xc, sd.ub, sd.ud
    sources = range(len(xa)) if sd.reps is None else sd.reps
    if sd.reps is not None:  # xA and xC per source
        xa, xc = list(map(xa.__getitem__, sources)), list(map(xc.__getitem__, sources))
    each = lambda table: chain.from_iterable(map(repeat, table, repeat(len(ub))))
    starts = list(set(xa))
    dsts = map(operator.add, each(starts), cycle(ub))  # xA and uB occupy disjoint cells
    if sd.orbit is not None:
        dsts = map(sd.orbit.__getitem__, dsts)
    rows = dict(zip(starts, zip(*[map(scale.__mul__, dsts)] * len(ub))))
    for lo in range(0, len(sources), size):
        block = list(map(rows.__getitem__, xa[lo:lo + size]))
        outputs = map(sd.add, each(xc[lo:lo + size]), cycle(ud))
        if not lo:  # the zero state, where (0, 0) is left out
            block[0] = block[0][1:]
            next(outputs)
        yield sources[lo:lo + size], block, outputs


def _edge_weights(sd: StateDiagram) -> list[tuple[int, ...]]:
    """The row (wt(xC + uD) for every input u) of every state x, (0, 0)
    among them, weighed by the `_weigher` of sd's q and n.  States with
    one xC share one row, and the at most min(q^delta, q^n) rows are made
    in one C-level pass over the distinct xC, q^k weights each.  x -> xC
    is linear, so states share an xC only when one besides 0 maps to 0;
    else the rows are made in state order and no dict is built."""
    distinct = dict.fromkeys(sd.xc) if sd.xc.count(0) > 1 else sd.xc
    rows = list(zip(*[map(_weigher(sd.field.q, sd.n), starmap(sd.add, product(distinct, sd.ud)))] * len(sd.ud)))
    return rows if distinct is sd.xc else list(map(dict(zip(distinct, rows)).__getitem__, sd.xc))


def _letters(sd: StateDiagram) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """lift(sigma) = pi_sigma of a code whose k rows have one degree m (see
    the module docstring)."""
    letters, m = len(sd.ub), sd.gamma // sd.k
    fill = [0]  # the states by their letters d_1 .. d_m, last column first, in `_cellwise` order
    for _ in range(m):
        fill = [a + u for a in map(sd.xa.__getitem__, fill) for u in sd.ub]
    where = sorted(range(len(fill)), key=fill.__getitem__)  # the fill position of every state
    return lambda sigma: tuple(map(fill.__getitem__, map(_cellwise(sigma, m, letters).__getitem__, where)))


def _pair_table(sd: StateDiagram, w: list[tuple]) -> list[tuple[tuple[int, ...], ...]]:
    """The weight of every edge whose letters are 0 but at two positions,
    among the input and the register columns 1..m of a code whose k rows
    have one degree m, off the rows w of `_edge_weights`: t[b][a] holds,
    per pair of positions, that of the edge with b at the later position
    and a at the earlier, then that with a and b swapped.  The state with
    a alone in column i is first(a)A^(i-1), one with letters in two columns
    the integer sum of two such, as columns occupy disjoint cells, and the
    swaps are C-level transposes."""
    columns = [sd.ub]
    for _ in range(1, sd.gamma // sd.k):
        columns.append(list(map(sd.xa.__getitem__, columns[-1])))
    tables = [list(map(w.__getitem__, high)) for high in columns]  # the input and a column
    letters, first = len(sd.ub), operator.itemgetter(0)
    for j, high in enumerate(columns):
        for low in columns[:j]:  # the states high[b] + low[a], in rows of b
            sums = map(operator.add, chain.from_iterable(map(repeat, high, repeat(letters))), cycle(low))
            tables.append(list(zip(*[map(first, map(w.__getitem__, sums))] * letters)))
    tables += [list(zip(*table)) for table in tables]
    return [tuple(zip(*rows)) for rows in zip(*tables)]


def labelled_transitions(
    sd: StateDiagram, u_label: Callable[[tuple[int, ...]], object],
    v_label: Callable[[tuple[int, ...], int], object],
) -> Iterator[tuple[int, tuple[int, ...], Iterator, Iterator]]:
    """(src, dsts, u labels, v labels) per source, the edges in the order of
    edges_by_source; the labels are u_label(u) and v_label(v, wt(v)) of the
    input and output vectors, each made once per packed u and v; a source's
    outputs are held for it, so labels left unread leave the rest right."""
    if sd.lumped:
        raise ValueError("the lumped diagram has no labelled edges")
    q, n = sd.field.q, sd.n
    us = [u_label(state_vector(q, sd.k, u)) for u in range(q**sd.k)]
    vs = functools.cache(lambda v: v_label(state_vector(q, n, v), _weigher(q, n)(v)))
    for sources, rows, outputs in _blocks(sd, 1024):
        for src, dsts in zip(sources, rows):
            held = tuple(islice(outputs, len(dsts)))
            yield src, dsts, islice(us, not src, None), map(vs, held)


def check_states(q: int, gamma: int, max_states: int = DEFAULT_STATE_CEILING) -> int:
    """q^gamma, the states of a register of gamma cells; LimitError above `max_states`."""
    return check_limit(max_states, "state space of size {count} exceeds the ceiling {bound}",
                       repeat(q, gamma))


def build(
    cf: ControllerForm, *, max_states: int = DEFAULT_STATE_CEILING, lumped: bool = False
) -> StateDiagram:
    """The diagram of q^gamma states, as the tables of `cf`; LimitError above
    `max_states` states, before any table is filled.

    With `lumped` the diagram is the F_q^* orbit quotient: vertex o is the
    o-th orbit in order of its smallest member, and its edges are that
    member's, with destinations replaced by their orbit.  Over F_2 every
    orbit is one state and the full diagram is built.
    """
    fld = cf.field
    s = check_states(fld.q, cf.gamma, max_states)
    orbit, reps = _orbits(fld, cf.gamma) if lumped and fld.q > 2 else (None, None)
    add = _vector_add(fld)
    xa, xc, ub, ud = (_linear_table(fld, mat, add) for mat in (cf.A, cf.C, cf.B, cf.D))
    return StateDiagram(
        field=fld, gamma=cf.gamma, k=cf.k, n=cf.n, num_states=s if reps is None else len(reps),
        form=cf, add=add, xa=xa, xc=xc, ub=ub, ud=ud, orbit=orbit, reps=reps,
    )


def zero_weight_edges(sd: StateDiagram) -> dict[int, list[int]]:
    """Destinations of the weight-0 edges per state that has one, keys
    ascending, each list in input order; (0, 0) is left out.

    These are the transitions with xC + uD = 0.  The inputs are grouped by
    packed -uD once (over odd p, uD at the packed -u, a `_cellwise` table
    of the field's negation), and one C-level scan of xC finds the states
    whose xC has a group: Python work per input and per weight-0 edge.
    Destinations are the integer sums xA + uB, as in `_blocks`.
    """
    fld, xa, xc, ub, ud = sd.field, sd.xa, sd.xc, sd.ub, sd.ud
    if fld.p != 2:
        ud = list(map(ud.__getitem__, _cellwise(list(map(fld.neg, range(fld.q))), sd.k, fld.q)))
    by_output: dict[int, list[int]] = {}
    for u, v in enumerate(ud):
        by_output.setdefault(v, []).append(u)
    found = compress(range(len(xc)), map(by_output.__contains__, xc))
    succ = {x: [xa[x] + ub[u] for u in by_output[xc[x]]] for x in found}
    del succ[0][0]  # (0, 0), the first input of the group of 0, which state 0 always takes
    if not succ[0]:
        del succ[0]
    return succ


def zero_weight_cycle_exists(sd: StateDiagram) -> bool:
    """Directed cycle using only weight-0 edges; flags catastrophic encoders.

    Only states with a weight-0 edge can lie on one.  They are peeled off
    in reverse (Kahn, 1962): a state goes once its every weight-0 edge
    leads to a peeled state or to one with none, so the states never
    peeled, self-loops included, are those on or upstream of a cycle.
    With the lookup, one C-level scan of the q^gamma states and Python
    work per input and per weight-0 edge.
    """
    succ = zero_weight_edges(sd)
    entering: dict[int, list[int]] = {x: [] for x in succ}  # the reversed subgraph
    waiting = dict.fromkeys(succ, 0)  # per state, its edges to states not yet peeled
    for x, dsts in succ.items():
        for dst in filter(entering.__contains__, dsts):
            entering[dst].append(x)
            waiting[x] += 1
    peeled = [x for x, count in waiting.items() if not count]
    for x in peeled:  # grows while it is read
        for src in entering[x]:
            waiting[src] -= 1
            if not waiting[src]:
                peeled.append(src)
    return len(peeled) < len(succ)


def delay_free_check(sd: StateDiagram) -> bool:
    """True iff no weight-0 edge leaves the zero state.

    Those edges are the inputs u != 0 with uD = 0, read off the uD table
    alone in O(q^k).  Equivalent to G(0) having full row rank; both
    criteria are evaluated and must agree.
    """
    edge_clean = 0 not in sd.ud[1:]
    rank_full = polyalg.mat_rank(sd.field, sd.form.D) == sd.k
    if edge_clean != rank_full:
        raise InternalError("delay-free criteria disagree: edges vs rank of G(0)")
    return edge_clean


def _label(vec: tuple[int, ...], q: int) -> str:
    if q <= 10:
        return "".join(str(d) for d in vec)
    return ",".join(str(d) for d in vec)


def dot_chunks(sd: StateDiagram) -> Iterator[str]:
    """Graphviz text in chunks: the head and the vertices, one chunk of edge
    lines per source, labelled "u|v (weight)", and the closing brace.  The
    size guard is the CLI's: `diagram` checks DEFAULT_DOT_CEILING before the
    controller form, the one guard on DOT and JSON alike."""
    q = sd.field.q
    yield "digraph state_diagram {\n  rankdir=LR;\n" + "".join(
        f'  {i} [label="{_label(state_vector(q, sd.gamma, i), q)}"];\n'
        for i in range(sd.num_states)
    )
    u_label = lambda u: _label(u, q)
    v_label = lambda v, w: f"{_label(v, q)} ({w})"
    for src, dsts, us, vs in labelled_transitions(sd, u_label, v_label):
        yield "".join([f'  {src} -> {dst} [label="{u}|{v}"];\n' for dst, u, v in zip(dsts, us, vs)])
    yield "}\n"
