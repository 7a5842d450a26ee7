"""Explicit state diagram over the register state space F_q^gamma.

States are indexed 0..q^gamma-1 by reading the state vector as a base-q
number, first register coordinate most significant; index 0 is the zero
state.  Every vertex has q^k outgoing edges except vertex 0, which lacks
the all-zero transition and has q^k - 1.  Edges are stored as (destination,
weight) pairs; the labelled `Edge`s for DOT and JSON are rebuilt on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from . import polyalg
from .encoder import ControllerForm
from .errors import InternalError, LimitError
from .galois import FieldSpec

DEFAULT_STATE_CEILING = 1 << 20
DEFAULT_DOT_CEILING = 4096


class Edge(NamedTuple):
    src: int
    dst: int
    u: tuple[int, ...]
    v: tuple[int, ...]
    weight: int


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


@dataclass(frozen=True)
class StateDiagram:
    field: FieldSpec
    gamma: int
    k: int
    n: int
    num_states: int
    edges_by_source: tuple[tuple[tuple[int, int], ...], ...]  # (dst, weight) pairs
    form: ControllerForm

    def edges(self) -> Iterator[Edge]:
        """Labelled edges rebuilt from the form, in the order of edges_by_source."""
        for src, u, dst, v in _transitions(self.form):
            yield Edge(src, dst, u, v, len(v) - v.count(0))


def _transitions(cf: ControllerForm) -> Iterator[tuple[int, tuple, int, tuple]]:
    """(src, u, dst, v) for all transitions (X, u) except (0, 0), by source index."""
    fld = cf.field
    q = fld.q
    # product() yields F_q^r in index order: its i-th vector is state_vector(q, r, i)
    inputs = [
        (uvec, polyalg.vec_mat(fld, uvec, cf.B), polyalg.vec_mat(fld, uvec, cf.D))
        for uvec in itertools.product(range(q), repeat=cf.k)
    ]
    for i, xvec in enumerate(itertools.product(range(q), repeat=cf.gamma)):
        xa = polyalg.vec_mat(fld, xvec, cf.A)
        xc = polyalg.vec_mat(fld, xvec, cf.C) or (0,) * cf.n  # () for gamma = 0
        for uvec, ub, ud in inputs:
            if i == 0 and not any(uvec):
                continue
            dst = state_index(q, tuple(fld.add(a, b) for a, b in zip(xa, ub)))
            yield i, uvec, dst, tuple(fld.add(a, b) for a, b in zip(xc, ud))


def build(cf: ControllerForm, *, max_states: int = DEFAULT_STATE_CEILING) -> StateDiagram:
    """Tabulate every transition except (0, 0) as (dst, output weight)."""
    s = cf.field.q**cf.gamma
    if s > max_states:
        raise LimitError(f"state space of size {s} exceeds the ceiling {max_states}")
    groups = [[] for _ in range(s)]
    for src, _, dst, v in _transitions(cf):
        groups[src].append((dst, len(v) - v.count(0)))
    return StateDiagram(
        field=cf.field,
        gamma=cf.gamma,
        k=cf.k,
        n=cf.n,
        num_states=s,
        edges_by_source=tuple(map(tuple, groups)),
        form=cf,
    )


def _has_cycle(succ: list[list[int]]) -> bool:
    """Directed cycle detection on successor lists."""
    color = [0] * len(succ)  # 0 white, 1 on stack, 2 done
    for start in range(len(succ)):
        if color[start]:
            continue
        stack = [(start, iter(succ[start]))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if color[nxt] == 1:
                    return True
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                color[node] = 2
                stack.pop()
    return False


def zero_weight_cycle_exists(sd: StateDiagram) -> bool:
    """Directed cycle using only weight-0 edges; flags catastrophic encoders."""
    return _has_cycle([[d for d, w in group if not w] for group in sd.edges_by_source])


def delay_free_check(sd: StateDiagram) -> bool:
    """True iff no weight-0 edge leaves the zero state.

    Equivalent to G(0) having full row rank; both criteria are evaluated
    and must agree.
    """
    edge_clean = all(w for _, w in sd.edges_by_source[0])
    rank_full = polyalg.mat_rank(sd.field, sd.form.D) == sd.k
    if edge_clean != rank_full:
        raise InternalError("delay-free criteria disagree: edges vs rank of G(0)")
    return edge_clean


def _label(vec: tuple[int, ...], q: int) -> str:
    if q <= 10:
        return "".join(str(d) for d in vec)
    return ",".join(str(d) for d in vec)


def export_dot(
    sd: StateDiagram,
    *,
    max_render: int = DEFAULT_DOT_CEILING,
    force: bool = False,
) -> str:
    """Graphviz text; edge labels are "u|v (weight)"."""
    if sd.num_states > max_render and not force:
        raise LimitError(
            f"{sd.num_states} vertices exceed the rendering guard {max_render}"
        )
    q = sd.field.q
    lines = ["digraph state_diagram {", "  rankdir=LR;"]
    for i in range(sd.num_states):
        lines.append(f'  {i} [label="{_label(state_vector(q, sd.gamma, i), q)}"];')
    for e in sd.edges():
        lines.append(
            f'  {e.src} -> {e.dst} [label="{_label(e.u, q)}|{_label(e.v, q)} ({e.weight})"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def edges_json(sd: StateDiagram) -> list[dict]:
    return [
        {"from": e.src, "to": e.dst, "u": list(e.u), "v": list(e.v), "w": e.weight}
        for e in sd.edges()
    ]
