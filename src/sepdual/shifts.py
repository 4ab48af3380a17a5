"""Shift maps between the separation universes of a bipartite graph.

Every map is one majority rule over the incidence relation of the graph:
each destination element has a mask over the source ground set (its
neighbours, its incident edges, or an edge's endpoint on the source side),
and it goes to the first component when its mask meets ``s.a`` in at least
as many elements as ``s.b``, to the second when in at most as many.  Ties
land on both sides, except in the partition shift, which gives them to the
first (so the image of a partition is a partition, but the map need not
commute with inversion).  An edge's mask is a single bit, so the side-to-edge
shift is (A, B) -> (E(A), E(B)); an edge whose endpoint lies in neither side
ties and lands on both.  ``_PAIRS`` is the one table of masks, grounds and
tie rules, by (source, dest); :func:`universe_map` binds an entry once.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from . import _kernels
from .bigraph import BipartiteGraph
from .errors import NotAPartition, SideMismatch
from .separations import Sep

_OTHER = {"x": "y", "y": "x", "bx": "by", "by": "bx"}

#: (source, dest) -> graph -> (per dest element its mask over the source
#: ground, the source ground, whether ties go to the first side only)
_PAIRS = {
    ("x", "y"): lambda g: (g.adj_y, g.x, False),
    ("y", "x"): lambda g: (g.adj_x, g.y, False),
    ("bx", "by"): lambda g: (g.adj_y, g.x, True),
    ("by", "bx"): lambda g: (g.adj_x, g.y, True),
    ("e", "x"): lambda g: (g.inc_x, g.edges, False),
    ("e", "y"): lambda g: (g.inc_y, g.edges, False),
    ("x", "e"): lambda g: ([1 << v for v, _ in g.endpoints], g.x, False),
    ("y", "e"): lambda g: ([1 << v for _, v in g.endpoints], g.y, False),
}


def _shift(masks, ground, ties: bool, s: Sep) -> Sep:
    """The majority shift of ``s`` through ``masks``; see the module docstring."""
    a, b = s
    ground.check(a)
    ground.check(b)
    if ties and a & b:
        raise NotAPartition("partition shift requires disjoint sides")
    c, d = _kernels.shift2(masks, a, b, ties)
    return Sep(c, d)


#: each public shift's table entry by its side argument alone: building a
#: (source, dest) key per call makes a single shift about 4% slower
_SIDE = {v: _PAIRS[v, _OTHER[v]] for v in ("x", "y")}
_PARTITION = {v: _PAIRS["b" + v, "b" + _OTHER[v]] for v in ("x", "y")}
_TO_EDGES = {v: _PAIRS[v, "e"] for v in ("x", "y")}
_FROM_EDGES = {v: _PAIRS["e", v] for v in ("x", "y")}


def shift_side(g: BipartiteGraph, s: Sep, side: str) -> Sep:
    """Majority shift of a separation of ``side`` to the other side; ties
    (isolated vertices too) land in both, so it commutes with inversion."""
    pair = _SIDE.get(side)
    if pair is None:
        raise SideMismatch(f"side must be 'x' or 'y', got {side!r}")
    masks, ground, ties = pair(g)
    return _shift(masks, ground, ties, s)


def shift_partition(g: BipartiteGraph, s: Sep, side: str) -> Sep:
    """Tie-broken shift of an oriented partition; ties go to the first side,
    so both orientations of a partition can shift to the same partition."""
    pair = _PARTITION.get(side)
    if pair is None:
        raise SideMismatch(f"side must be 'x' or 'y', got {side!r}")
    masks, ground, ties = pair(g)
    return _shift(masks, ground, ties, s)


def sep_to_edges(g: BipartiteGraph, s: Sep, side: str) -> Sep:
    """(A,B) -> (E(A), E(B)): the majority shift over each edge's endpoint."""
    pair = _TO_EDGES.get(side)
    if pair is None:
        raise SideMismatch(f"side must be 'x' or 'y', got {side!r}")
    masks, ground, ties = pair(g)
    return _shift(masks, ground, ties, s)


def edges_to_side(g: BipartiteGraph, s: Sep, target: str) -> Sep:
    """Majority shift of an edge separation to a vertex side, over each
    vertex's incident edges; ties (isolated vertices too) land in both."""
    pair = _FROM_EDGES.get(target)
    if pair is None:
        raise SideMismatch(f"target must be 'x' or 'y', got {target!r}")
    masks, ground, ties = pair(g)
    return _shift(masks, ground, ties, s)


def universe_map(g: BipartiteGraph, source: str, dest: str) -> Callable[[Sep], Sep]:
    """The canonical single-separation map from ``source`` to ``dest``, with
    its masks bound once."""
    pair = _PAIRS.get((source, dest))
    if pair is None:
        raise SideMismatch(f"no canonical map from {source!r} to {dest!r}")
    return partial(_shift, *pair(g))

