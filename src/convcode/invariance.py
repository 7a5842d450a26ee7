"""Code invariants carried by the adjacency matrix.

`code_adjacency` is the one route from a generator matrix to Lambda.

Two adjacency matrices represent the same generalized invariant when one
is the conjugate of the other by a permutation of the states that fixes
the zero state.  One search, individualisation and refinement (McKay and
Piperno, J. Symb. Comput. 2014), lists every witness in lexicographic
order: iterated in/out enumerator-multiset color refinement, then, one
state of each matrix at a time, a fresh color and refinement again, until
the coloring is discrete and names the witness.  `gen_adj_equal` tries
the identity, the least witness whenever the two matrices agree cell for
cell (a == b), then the search's first, and certifies either by
`spectrum.conjugates`.  The refinement reads the rows plus one transpose
per matrix (`_cell_graphs`), and a round signs each state from its own
neighbour list.  The search keeps its nodes on an explicit stack and
stops once the states its refinements sign below the root pass
SEARCH_WORK; each signature reads at most 2s list entries, s at most
SEARCH_STATES, so the bound does not depend on how dense the matrices are.

The Lambda of a linear code has x -> lambda x, lambda in F_q^*, as a
zero-fixing automorphism, so for two codes the root refinement signs one
state per orbit, its smallest member, and copies its color to the rest.
Each round's coloring is a function of the previous coloring and the two
matrices, so by induction it is invariant under every zero-fixing
automorphism of both, and its colors are constant on orbits.  First-seen
ids run in index order and a representative is its orbit's smallest
member, so even the color ids come out the same.  An individualised state
is not fixed by those maps, so below the root every state is signed.

When every row of G has one degree m >= 1 (every k = 1 code among them),
the register holds m columns of letters of F_q^k and input u enters the
first column as the others shift on, so the support of Lambda is the de
Bruijn graph on F_q^k with m columns, a line digraph, whose arcs with one
head share their successors.  So its zero-fixing automorphisms, which
hold every witness, each apply one permutation sigma of F_q^k, sigma(0)
= 0, to every column; Lemma A.1 is the case q = 2, k = 1.  Each cell of
Lambda is then W^wt(xC + uD) of one edge (x, u), which pi_sigma maps to
(pi_sigma x, sigma u), so conjugation by pi_sigma is wt_h(pi_sigma x,
sigma u) = wt_g(x, u) on every edge: `code_witness` searches the q^k
letters for sigma, certifies pi_sigma on the edge weights and builds no
Lambda.  It places sigma(1), sigma(2), ... in turn, each trying in
increasing order its class, the multiset of its row of the pair tables,
while every edge whose nonzero letters, at most two, are placed weighs
the same in g and, under sigma, in h; a witness keeps the classes and
passes, and pi_sigma ascends as sigma does, so the first sigma certified
is the least witness.  `statediag` packs it all: `_pair_table` zips
those edges' weights into one table of tuples, `_letters` lifts sigma to
pi_sigma, and `_edge_weights` holds one row of q^k weights per distinct
xC, so pi_sigma is certified a state at a time, h's row at pi_sigma x,
read in sigma order, against g's row at x.

On top of that sit: `code_witness`, the one comparison of two codes'
Lambda, which alone hands the orbit search the F_q^* orbits; recovery of
the code dimension and row degrees from the matrix alone; the monomial
equivalence of generator matrices, which refuses a minimal pair through
`code_witness`; the closed-form dual transform for binary codes with
unit constraint length; and Lemma A.1 as a count of the shift graph's
automorphisms.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from typing import Callable, Optional, Sequence

from . import encoder, polyalg, spectrum, statediag
from .errors import InternalError, LimitError, check_limit
from .polyalg import PolyMatrix
from .spectrum import AdjMatrix, WeightEnum

PermWitness = tuple  # index array pi with pi[0] == 0
MonomialWitness = tuple  # (column permutation, column scalars)

SEARCH_STATES = 256  # bound on the states of the conjugation search
SEARCH_WORK = 1 << 20  # bound on the states a search signs below its root, letters placements compare, refused maps' states
# the alphabet route holds a row reference a state and one row of q^k weights per distinct xC
WITNESS_ENTRIES = 1 << 20  # bound on the alphabet route's states times max(q^k, 16)
DEFAULT_BUDGET = 1 << 24  # bound on the candidates of the monomial_equiv search
ADJACENCY_ENTRIES = 1 << 24  # bound on the edges tallied into Lambda, 16x the F16 example


def check_adjacency(g: PolyMatrix, *, lumped: bool = False) -> None:
    """LimitError above the state ceiling, or when the sources times q^k
    edges each pass ADJACENCY_ENTRIES; the sources are the q^gamma states,
    or the (q^gamma - 1) / (q - 1) + 1 orbits of Q with `lumped`."""
    q, k = g.field.q, g.k
    states = statediag.check_states(q, g.info.delta)
    sources = (states - 1) // (q - 1) + 1 if lumped else states
    check_limit(ADJACENCY_ENTRIES, "{count} adjacency entries exceed the ceiling {bound}",
                [sources, *itertools.repeat(q, k)])


def code_adjacency(g: PolyMatrix, *, lumped: bool = False) -> AdjMatrix:
    """Adjacency matrix of the state diagram of g's controller canonical form.

    The one route from G to Lambda; g must be minimal.  `lumped` gives the
    matrix Q of the F_q^* orbit quotient instead, which has the same
    (Q^l)_{0,0} and serves only the series.  `check_adjacency` runs first.
    """
    return spectrum.adjacency(_code_diagram(g, lumped))


def _code_diagram(g: PolyMatrix, lumped: bool = False) -> statediag.StateDiagram:
    """g's diagram after `check_adjacency`: the one build of a code, for
    `code_adjacency` and for `code_witness`'s alphabet route."""
    check_adjacency(g, lumped=lumped)
    return statediag.build(encoder.controller_form(g), lumped=lumped)


# ---------------------------------------------------------------------------
# conjugation equivalence of adjacency matrices
# ---------------------------------------------------------------------------


def _cell_graphs(a: AdjMatrix, b: AdjMatrix):
    """(neighbours, keys) of each matrix, read off its rows as they are.

    neighbours[i] is state i's row, its own (j, t) pairs, followed by its
    column, one (j, t + L) per nonzero cell t = mat[j][i], with L the length
    of the matrix's cell table: the one transpose, made in one pass over
    the rows.  keys[t] of a local id t < 2L is (2u + d)(s + 1) + 1, where
    d is 1 on a column entry and u the entry's enumerator, interned on its
    exact terms() once per table entry with ids shared by `a` and `b`.
    So two cells share a key exactly when their enumerators and directions
    agree, and a key plus a color from -1 to s - 1 is one int per pair.
    """
    ids: dict[tuple, int] = {}
    m = a.size + 1
    graphs = []
    for mat in (a, b):
        joint = [ids.setdefault(e.terms(), len(ids)) for e in mat.cells]
        shift = len(joint)
        nbrs = [list(row) for row in mat.rows]
        for i, row in enumerate(mat.rows):
            for j, t in row:
                nbrs[j].append((i, t + shift))
        keys = [2 * u * m + 1 for u in joint]
        graphs.append((nbrs, keys + [k + m for k in keys]))
    return graphs


def _refined_colors(graphs, classes=None, start=None, rounds=None):
    """Stable joint color refinement of `_cell_graphs(a, b)`; None when
    histograms separate.

    Each round, a state r signs itself with its color and the sorted ints
    keys[t] + color(j) over the entries (j, t) of its own list, its nonzero
    row and column cells only.  A round runs only when both matrices share
    one color histogram, which fixes the colors of a row's zero cells from
    its nonzero ones, so the sparse signatures split the states exactly as
    the dense rows would.  First-seen signature ids, a's states before b's,
    are the colors of the next round.  A state's signature holds its color,
    so a round only splits classes, and a round that splits none ends the
    refinement: the next would name the same classes by the same ids.

    `classes`, (class of every state, least member of every class in
    increasing order), partitions the states into orbits of zero-fixing
    automorphisms of both matrices; only the least members are signed, and
    the rest of each class takes its color, the very colors of signing
    every state (see the module docstring).  Without `classes` every state
    is signed.  `start`, the colors of a and b to refine, each from -1 to
    s - 1, defaults to state 0 pinned at -1 and the rest at 0.  `rounds`,
    if given, is drawn from once before each round, so it can bound them.
    """
    s = len(graphs[0][0])
    cls, reps = classes or (range(s), range(s))
    pinned = [0 if i else -1 for i in range(s)]
    col_a, col_b = start or (pinned, pinned)
    count = len(set(col_a) | set(col_b))
    for _ in rounds or itertools.count():
        sig_ids: dict[tuple, int] = {}
        new = []
        for (nbrs, keys), colors in zip(graphs, (col_a, col_b)):
            ids = [sig_ids.setdefault((colors[r], *sorted([keys[t] + colors[j] for j, t in nbrs[r]])),
                                      len(sig_ids)) for r in reps]
            new.append(list(map(ids.__getitem__, cls)))
        new_a, new_b = new
        if sorted(new_a) != sorted(new_b):
            return None
        if len(sig_ids) == count:
            return new_a, new_b
        col_a, col_b, count = new_a, new_b, len(sig_ids)


def check_search_size(q: int, gamma: int = 1) -> None:
    """LimitError when a conjugation search over q^gamma states exceeds SEARCH_STATES."""
    check_limit(SEARCH_STATES, "conjugation search over {count} states exceeds the bound {bound}",
                itertools.repeat(q, gamma))


def _witnesses(a: AdjMatrix, b: AdjMatrix, classes=None):
    """Every zero-fixing permutation pi with b[pi(i)][pi(j)] == a[i][j], in
    lexicographic order, by individualisation and refinement (McKay and
    Piperno): at a node, the least state i of `a` in a color class of
    several, and each candidate j of `b` in that class in increasing order,
    take a fresh color and are refined again; a discrete stable coloring is
    a leaf, and pi maps each state of `a` to the state of `b` of its color.
    The states below i are singletons, so leaves come in lexicographic
    order; a witness carries each coloring of `a` onto that of `b` on the
    path that gives i and pi(i) the fresh color, so it is exactly one
    leaf.  `classes` goes to the root refinement alone.  Below the root,
    each round signs the 2s states of both matrices; LimitError once they
    pass SEARCH_WORK."""
    s = a.size
    graphs = _cell_graphs(a, b)
    template = "{count} states signed by the search exceed the bound {bound}"
    rounds = (check_limit(SEARCH_WORK, template, [signed]) for signed in itertools.count(2 * s, 2 * s))

    def children(col_a, col_b):
        """The refined colorings with i and each candidate j individualised:
        the fresh color is the count of colors, at most s - 1, so it packs
        with the keys of `_cell_graphs`."""
        sizes = Counter(col_a)
        i = next(i for i, c in enumerate(col_a) if sizes[c] > 1)
        fresh = len(sizes)
        start_a = col_a[:i] + [fresh] + col_a[i + 1 :]
        for j, c in enumerate(col_b):
            if c == col_a[i]:
                yield _refined_colors(graphs, start=(start_a, col_b[:j] + [fresh] + col_b[j + 1 :]), rounds=rounds)

    stack = [iter([_refined_colors(graphs, classes)])]  # per node, the iterator of its children
    while stack:
        node = next(stack[-1], False)
        if node is False:
            stack.pop()
        elif node and len(set(node[0])) < s:
            stack.append(children(*node))
        elif node:
            where = dict(zip(node[1], range(s)))
            yield tuple(map(where.__getitem__, node[0]))


def gen_adj_equal(
    a: AdjMatrix, b: AdjMatrix, classes: Optional[Callable[[], object]] = None
) -> Optional[PermWitness]:
    """The least zero-fixing permutation pi with b[pi(i)][pi(j)] == a[i][j],
    or None: the identity if a == b, else the first of `_witnesses` over at
    most SEARCH_STATES states, certified by `spectrum.conjugates`.
    `classes`, called only once the identity is refused, gives the orbits
    of zero-fixing automorphisms shared by a and b, as `_refined_colors`
    takes them; without it the refinement signs every state."""
    if (a.size, a.q, a.n, a.extended) != (b.size, b.q, b.n, b.extended):
        raise ValueError("adjacency matrices have mismatched dimensions")
    if a == b:
        return tuple(range(a.size))
    check_search_size(a.size)
    for pi in _witnesses(a, b, classes and classes()):
        if not spectrum.conjugates(a, b, pi):
            raise InternalError("conjugation witness failed re-verification")
        return pi
    return None


def _carries(w_g: list[tuple], w_h: list[tuple], pi: Sequence[int], sigma: Sequence[int]) -> bool:
    """Whether w_h[pi(x)][sigma(u)] == w_g[x][u] for every state x and input
    u: h's row at pi(x), read in sigma order, against g's row at x, a row
    at a time up to the first difference, with no table permuted."""
    return all(map(operator.eq, map(operator.itemgetter(*sigma), map(w_h.__getitem__, pi)), w_g))


def _placements(table_g: list[tuple], table_h: list[tuple]):
    """Every sigma, sigma(0) = 0, with table_h[sigma b][sigma a] ==
    table_g[b][a] for all letters a, b, in lexicographic order: sigma(c) =
    d, each c in turn and each d of its class in increasing order, stands
    when g's row c up to letter c is h's row d read at sigma(0..c).  Such a
    sigma keeps each letter's class, the multiset of its row, so none is
    listed when the classes' histograms differ.  LimitError once the
    letters that placements compare pass SEARCH_WORK."""
    ids: dict[tuple, int] = {}
    colors_g, colors_h = ([ids.setdefault(tuple(sorted(row)), len(ids)) for row in table]
                          for table in (table_g, table_h))
    if sorted(colors_g) != sorted(colors_h):
        return
    members: dict[int, list[int]] = {}
    for d, color in enumerate(colors_h):
        members.setdefault(color, []).append(d)
    candidates = list(map(members.__getitem__, colors_g))
    rows_g = [row[: c + 1] for c, row in enumerate(table_g)]
    sigma, stack, compared = [0], [iter(candidates[1])], 0  # per letter placed, its untried candidates
    while stack:
        d = next(stack[-1], None)
        if d is None:
            stack.pop()
            sigma.pop()
        elif d not in sigma:
            c = len(sigma)
            compared = check_limit(SEARCH_WORK, "{count} letters compared by placements exceed the bound {bound}",
                                   [compared + c + 1])
            sigma.append(d)
            if rows_g[c] != operator.itemgetter(*sigma)(table_h[d]):
                sigma.pop()
            elif c + 1 < len(rows_g):
                stack.append(iter(candidates[c + 1]))
            else:
                yield tuple(sigma)
                sigma.pop()


def _alphabet_witness(sd_g: statediag.StateDiagram, sd_h: statediag.StateDiagram) -> Optional[PermWitness]:
    """The least witness of two codes whose k rows have one degree m, or
    None, off their `statediag._edge_weights` rows: the identity if they
    agree, else the first pi_sigma that `_carries` certifies among the
    sigma that `_placements` lists on their `statediag._pair_table`.
    pi_sigma maps the edge of letters a and b in two positions to that of
    sigma(a) and sigma(b), so a witness passes the tables.  LimitError once
    the refused pass SEARCH_WORK states in all."""
    w_g, w_h = statediag._edge_weights(sd_g), statediag._edge_weights(sd_h)
    if w_g == w_h:
        return tuple(range(sd_g.num_states))
    table_g, table_h = (statediag._pair_table(sd_g, w) for w in (w_g, w_h))  # A and B are those of both codes
    lift = statediag._letters(sd_g)
    refused = 0  # states of the refused pi_sigma so far
    for sigma in _placements(table_g, table_h):
        pi = lift(sigma)
        if _carries(w_g, w_h, pi, sigma):
            return pi
        refused += len(pi)
        check_limit(SEARCH_WORK, "{count} states of refused maps exceed the bound {bound}", [refused])
    return None


def code_witness(g: PolyMatrix, h: PolyMatrix) -> Optional[PermWitness]:
    """The least witness that the Lambda of g and h, minimal matrices of one
    constraint length, are conjugate, or None: the one comparison of two
    codes' Lambda.  Its conjugacy class is a code invariant and fixes the
    Forney indices, so unlike ones are refused first.  When every row has
    one degree m >= 1 `_alphabet_witness` answers, else `gen_adj_equal` on
    both Lambda, with the orbits of x -> lambda x, lambda in F_q^*,
    zero-fixing automorphisms of both.  LimitError, before either diagram
    is built, past SEARCH_STATES states, q^k letters or q^delta states, or
    past WITNESS_ENTRIES on the alphabet route (a state counts 16 at least)."""
    polyalg.check_same_shape(g, h)
    fld, delta, degrees = g.field, g.info.delta, g.info.row_degrees
    if sorted(degrees) != sorted(h.info.row_degrees):
        return None
    alphabet = delta and len(set(degrees)) == 1
    check_search_size(fld.q, g.k if alphabet else delta)  # F_q^k holds the letters, F_q^delta the states
    if alphabet:
        check_limit(WITNESS_ENTRIES, "{count} adjacency entries, 16 a state at least, exceed the bound {bound}",
                    [*itertools.repeat(fld.q, delta), max(fld.q**g.k, 16)])
        return _alphabet_witness(_code_diagram(g), _code_diagram(h))
    return gen_adj_equal(code_adjacency(g), code_adjacency(h), lambda: statediag._orbits(fld, delta))


def apply_witness(a: AdjMatrix, pi: Sequence[int]) -> AdjMatrix:
    """Conjugate by the permutation: entry (i, j) moves to (pi[i], pi[j])."""
    rows = [()] * a.size
    for i, row in enumerate(a.rows):
        rows[pi[i]] = sorted((pi[j], t) for j, t in row)
    return AdjMatrix(rows, a.cells, q=a.q, n=a.n, extended=a.extended)


# ---------------------------------------------------------------------------
# dimension and row-degree recovery
# ---------------------------------------------------------------------------


def _power_of(q: int, value: int) -> int:
    e = 0
    while q**e < value:
        e += 1
    if q**e != value:
        raise ValueError(f"count {value} is not a power of q = {q}")
    return e


def recover_dimension(lam: AdjMatrix) -> int:
    """k from the first row of the extended matrix: its counts sum to q^k."""
    total = sum(lam.cells[t].count() for _, t in lam.rows[0]) + (not lam.extended)
    return _power_of(lam.q, total)


def recover_forney(lam: AdjMatrix) -> tuple[int, ...]:
    """Row-degree multiset of any minimal encoder, from the matrix alone.

    The number of nonzero entries in the first row of Gamma^r equals
    q^(rho_{r-1}) where rho_r is the rank of the stacked reachability
    matrix; the differences of consecutive rho values count the degrees
    exceeding each threshold.  Counts are nonnegative and Gamma has the
    zero self-loop, so that support is the set of states reached from 0
    in at most r steps, grown here one layer of the sparse rows at a time.
    A layer that reaches a new state raises the rank, so the ranks rise
    strictly within 0..gamma, the walk stops within gamma + 2 layers and
    every rank difference is positive.
    """
    q = lam.q
    gamma = _power_of(q, lam.size)
    k = recover_dimension(lam)
    if not all(e and e.is_nonnegative() for e in lam.cells):
        raise ValueError("adjacency cells must be nonzero with nonnegative counts")
    if not all(0 <= j < lam.size for row in lam.rows for j, _ in row):
        raise ValueError("adjacency destinations must be states of the matrix")
    rhos, reached, layer = [], {0}, {0}
    while layer:  # a rank per layer that reaches a new state, and the first
        layer = {j for i in layer for j, _ in lam.rows[i]} - reached
        reached |= layer
        if layer or not rhos:
            rhos.append(_power_of(q, len(reached)))
    if rhos[-1] != gamma:
        raise ValueError("stable rank differs from the state-space dimension")
    exceed = [rhos[0]] + [rhos[r] - rhos[r - 1] for r in range(1, len(rhos))] + [0]
    if rhos[0] > k:
        raise ValueError("inconsistent reachability counts")
    indices = [0] * (k - rhos[0])
    for t in range(1, len(exceed)):
        indices.extend([t] * (exceed[t - 1] - exceed[t]))
    if sum(indices) != gamma:
        raise ValueError("recovered degrees do not sum to the state dimension")
    return tuple(sorted(indices))


# ---------------------------------------------------------------------------
# monomial equivalence
# ---------------------------------------------------------------------------


def apply_monomial(g: PolyMatrix, perm: Sequence[int], scale: Sequence[int]) -> PolyMatrix:
    """Column j of the result is scale[j] times column perm[j] of g."""
    fld = g.field
    rows = tuple(
        tuple(polyalg.poly_scale(fld, scale[j], row[perm[j]]) for j in range(g.n))
        for row in g.rows
    )
    return PolyMatrix(fld, rows)


def monomial_equiv(
    g: PolyMatrix, h: PolyMatrix, *, budget: int = DEFAULT_BUDGET
) -> Optional[MonomialWitness]:
    """Exhaustive search for a column permutation and rescaling mapping the
    code of g onto the code of h; returns the lexicographically first
    witness (permutations in lex order, scalings in value order).  A global
    unit c keeps the code, as c G = (cI) G, so scale[0] is 1.  A column
    permutation and rescaling keeps every edge weight and so Lambda, and a
    minimal pair whose Lambda `code_witness` finds not conjugate, unequal
    row degrees first, before any limit, is answered None before the search.
    A rank-deficient g or h raises ValueError."""
    polyalg.check_same_shape(g, h)
    fld = g.field
    n = g.n
    candidates = itertools.chain(range(1, n + 1), itertools.repeat(fld.q - 1, n - 1))
    check_limit(budget, "{count} candidates exceed the search budget {bound}", candidates)
    target = polyalg.hermite_form(h)
    info_g, info_h = g.info, h.info  # raises on a rank-deficient g, so g's images have full rank
    if info_g.is_minimal and info_h.is_minimal:
        try:
            if code_witness(g, h) is None:
                return None
        except LimitError:  # a refused Lambda leaves the decision to the search
            pass
    for perm in itertools.permutations(range(n)):
        for rest in itertools.product(fld.units(), repeat=n - 1):
            scale = (1, *rest)
            if polyalg.hermite_form(apply_monomial(g, perm, scale)) == target:
                return perm, scale
    return None


# ---------------------------------------------------------------------------
# duality transform for binary unit-constraint-length codes
# ---------------------------------------------------------------------------


def macwilliams_delta1(gam: AdjMatrix) -> AdjMatrix:
    """Extended adjacency matrix of the dual of a binary code with a
    two-state diagram:

        Gamma_dual = 2^(-k-1) (1+W)^n M^T |_{W <- (1-W)/(1+W)},
        M = [[1,1],[1,-1]] Gamma [[1,1],[1,-1]],

    with Gamma's n and k read off its first row (`recover_dimension`), so
    the result transforms back alone.  Carried out in exact integer
    arithmetic; the final division must be exact and the result's
    coefficients nonnegative, otherwise the input was not a valid extended
    adjacency matrix.
    """
    if gam.q != 2:
        raise ValueError("the transform applies to binary codes only")
    if gam.size != 2:
        raise ValueError("the transform applies to two-state diagrams only")
    if not gam.extended:
        raise ValueError("pass the extended matrix (zero self-loop included)")
    n, k = gam.n, recover_dimension(gam)
    zero = WeightEnum.zero()
    e = [[gam.cells[row[j]] if j in row else zero for j in (0, 1)] for row in map(dict, gam.rows)]
    srows = ((e[0][0] + e[1][0], e[0][1] + e[1][1]),
             (e[0][0] - e[1][0], e[0][1] - e[1][1]))
    m = ((srows[0][0] + srows[0][1], srows[0][0] - srows[0][1]),
         (srows[1][0] + srows[1][1], srows[1][0] - srows[1][1]))
    mt = ((m[0][0], m[1][0]), (m[0][1], m[1][1]))

    # coefficient lists of (1-W)^a (1+W)^(n-a) for each exponent a
    mix = []
    for a in range(n + 1):
        c = [1]
        for _ in range(a):
            c = [x - y for x, y in zip(c + [0], [0] + c)]
        for _ in range(n - a):
            c = [x + y for x, y in zip(c + [0], [0] + c)]
        mix.append(c)

    denom = 1 << (k + 1)
    out_rows, cells = [], []
    for row in mt:
        out_row = []
        for j, entry in enumerate(row):
            acc = [0] * (n + 1)
            for alpha, cnt in entry.terms():
                if alpha > n:
                    raise ValueError("entry weight exceeds the block length")
                for i, c in enumerate(mix[alpha]):
                    acc[i] += cnt * c
            terms = {}
            for i, c in enumerate(acc):
                if c % denom:
                    raise ValueError("transform does not clear: invalid input matrix")
                c //= denom
                if c < 0:
                    raise ValueError("transform yields a negative count: invalid input")
                if c:
                    terms[i] = c
            if terms:
                out_row.append((j, len(cells)))
                cells.append(WeightEnum(terms))
        out_rows.append(out_row)
    return AdjMatrix(out_rows, cells, q=2, n=n, extended=True)


# ---------------------------------------------------------------------------
# rigidity of shift-compatible zero-fixing bijections on F_2^gamma
# ---------------------------------------------------------------------------


def verify_shift_permutation_lemma(gamma: int) -> bool:
    """Whether the identity is the only zero-fixing bijection pi of F_2^gamma
    with pi(u, X[0..gamma-2])[1..gamma-1] == pi(X)[0..gamma-2] for all X, u.

    Such a pi maps each edge X -> (u, X[0..gamma-2]) of the finite shift
    graph onto an edge, so it is one of the graph's zero-fixing
    automorphisms, which `_witnesses` lists."""
    if gamma < 2:
        raise ValueError("the lemma needs gamma >= 2")
    check_search_size(2, gamma)
    top = 2 ** (gamma - 1)
    rows = [[(x // 2 + u * top, 0) for u in (0, 1)] for x in range(2**gamma)]
    rows[0] = rows[0][1:]  # the zero self-loop
    shift = AdjMatrix(rows, [WeightEnum.one()], q=2, n=1)
    return list(itertools.islice(_witnesses(shift, shift), 2)) == [tuple(range(2**gamma))]
