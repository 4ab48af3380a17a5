"""Shift maps between the separation universes of a bipartite graph.

Three kinds of map connect the universes:

* side-to-side majority shifts (ties land on both sides, so the image of a
  partition need not be a partition),
* the tie-broken partition shift (ties go to the first component, which is
  why it generally does not commute with inversion),
* side-to-edge (``(A,B) -> (E(A), E(B))``) and edge-to-side majority shifts.

:func:`universe_map` picks the map for a pair of universes.  The local
single-edge moves at the bottom rewrite an edge separation without changing
(or while only enlarging) its side shift and without increasing its order;
iterating them normalizes an edge separation towards the shape
``(E(A), E(B))``.
"""

from __future__ import annotations

from typing import Callable

from . import _kernels
from .bigraph import BipartiteGraph
from .errors import NotAPartition, PreconditionViolated, SideMismatch
from .orders import universe_context
from .separations import Sep

_OTHER = {"x": "y", "y": "x", "bx": "by", "by": "bx"}


def shift_side(g: BipartiteGraph, s: Sep, side: str) -> Sep:
    """Majority shift of a separation of ``side`` to the other side.

    A vertex of the other side goes to the first component when it has at
    least as many neighbours in ``s.a`` as in ``s.b``, to the second when at
    most as many; ties (including isolated vertices) land in both.  Commutes
    with inversion.
    """
    if side not in ("x", "y"):
        raise SideMismatch(f"side must be 'x' or 'y', got {side!r}")
    masks, ground, _ = universe_context(g, side)
    a, b = s
    ground.check(a)
    ground.check(b)
    c, d = _kernels.shift2(masks, a, b)
    return Sep(c, d)


def shift_partition(g: BipartiteGraph, s: Sep, side: str) -> Sep:
    """Tie-broken shift of an oriented partition; ties go to the first side.

    The result is always a partition, but the map need not commute with
    inversion: both orientations of a partition can shift to the same
    oriented partition when ties occur.
    """
    if side not in ("x", "y"):
        raise SideMismatch(f"side must be 'x' or 'y', got {side!r}")
    masks, ground, _ = universe_context(g, side)
    a, b = s
    ground.check(a)
    ground.check(b)
    if a & b:
        raise NotAPartition("partition shift requires disjoint sides")
    c, d = _kernels.shift2(masks, a, b, partition_ties=True)
    return Sep(c, d)


def sep_to_edges(g: BipartiteGraph, s: Sep, side: str) -> Sep:
    """(A,B) -> (E(A), E(B)): incident-edge sets of the two sides."""
    if side not in ("x", "y"):
        raise SideMismatch(f"side must be 'x' or 'y', got {side!r}")
    _, ground, _ = universe_context(g, side)
    inc = g.inc_x if side == "x" else g.inc_y  # no universe context holds these
    a, b = s
    ground.check(a)
    ground.check(b)
    ea = eb = 0
    for i in range(ground.n):
        if a >> i & 1:
            ea |= inc[i]
        if b >> i & 1:
            eb |= inc[i]
    return Sep(ea, eb)


def edges_to_side(g: BipartiteGraph, s: Sep, target: str) -> Sep:
    """Majority shift of an edge separation to a vertex side.

    A target vertex goes to the first component when at least as many of its
    incident edges lie in ``s.a`` as in ``s.b``; ties (and isolated vertices)
    land in both sides.
    """
    if target not in ("x", "y"):
        raise SideMismatch(f"target must be 'x' or 'y', got {target!r}")
    a, b = s
    g.edges.check(a)
    g.edges.check(b)
    inc = g.inc_x if target == "x" else g.inc_y
    c, d = _kernels.shift2(inc, a, b)
    return Sep(c, d)


def universe_map(g: BipartiteGraph, source: str, dest: str) -> Callable[[Sep], Sep]:
    """The canonical single-separation map from ``source`` to ``dest``.

    This is the one place where a pair of universes picks its shift.
    """
    if (source, dest) in (("x", "y"), ("y", "x")):
        return lambda s: shift_side(g, s, source)
    if (source, dest) in (("bx", "by"), ("by", "bx")):
        return lambda s: shift_partition(g, s, source[1])
    if source in ("x", "y") and dest == "e":
        return lambda s: sep_to_edges(g, s, source)
    if source == "e" and dest in ("x", "y"):
        return lambda s: edges_to_side(g, s, dest)
    raise SideMismatch(f"no canonical map from {source!r} to {dest!r}")


# -- local edge moves ------------------------------------------------------


def _edge_index(g: BipartiteGraph, e) -> int:
    if isinstance(e, int):
        if not 0 <= e < g.n_edges:
            raise SideMismatch(f"edge index {e} out of range")
        return e
    try:
        return g.edges.index[e]
    except KeyError:
        raise SideMismatch(f"unknown edge {e!r}") from None


def move_edge_over(g: BipartiteGraph, s: Sep, e) -> Sep:
    """Move one edge fully into the first side: (C,D) -> (C∪{e}, D\\{e}).

    Requires the X-endpoint of ``e`` to strictly prefer the first side
    (strictly more incident edges in ``s.a`` than in ``s.b``); then the move
    does not increase the edge order and leaves the side shift unchanged.
    """
    a, b = s
    ei = _edge_index(g, e)
    xi, _ = g.endpoints[ei]
    inc = g.inc_x[xi]
    if (inc & a).bit_count() <= (inc & b).bit_count():
        raise PreconditionViolated(
            "X-endpoint does not strictly prefer the first side"
        )
    return Sep(a | (1 << ei), b & ~(1 << ei))


def move_edge_to_middle(g: BipartiteGraph, s: Sep, e) -> Sep:
    """Add one edge to the first side: (C,D) -> (C∪{e}, D).

    Requires the X-endpoint of ``e`` to weakly prefer the first side; the
    move does not increase the edge order, and the side shift can only grow
    in the separation order.
    """
    a, b = s
    ei = _edge_index(g, e)
    xi, _ = g.endpoints[ei]
    inc = g.inc_x[xi]
    if (inc & a).bit_count() < (inc & b).bit_count():
        raise PreconditionViolated("X-endpoint does not weakly prefer the first side")
    return Sep(a | (1 << ei), b)


def normalize_edge_sep(g: BipartiteGraph, s: Sep) -> Sep:
    """Rewrite an edge separation towards the shape (E(A), E(B)).

    Greedy fixpoint of :func:`move_edge_over` and its mirror: afterwards
    every edge whose X-endpoint strictly prefers one side lies strictly
    inside that side.  The side shift is preserved and the order never
    increases.  Terminates because each move strictly shrinks the number of
    misplaced edges (the shift, hence the set of strict-preference
    endpoints, never changes).
    """
    c_side, d_side = edges_to_side(g, s, "x")
    strict_c = c_side & ~d_side
    strict_d = d_side & ~c_side
    a, b = s
    changed = True
    while changed:
        changed = False
        for ei, (xi, _) in enumerate(g.endpoints):
            bit = 1 << ei
            x_bit = 1 << xi
            if strict_c & x_bit and b & bit:
                a, b = a | bit, b & ~bit
                changed = True
            elif strict_d & x_bit and a & bit:
                a, b = a & ~bit, b | bit
                changed = True
    return Sep(a, b)
