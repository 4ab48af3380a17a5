"""Order functions on the three separation universes, in exact half-integers.

The order of a separation measures how evenly it splits the neighbourhood
of each vertex on the opposite side:

* side order (universe "x" or "y"):
  sum over opposite vertices v of  min(|N(v)∩A|, |N(v)∩B|) - |N(v)∩A∩B|/2
* edge order (universe "e"): the same sum over *all* vertices, with N(v)
  replaced by the incident edge set E(v)
* partition order (universes "bx"/"by"): sum of min(|N(v)∩A|, |N(v)∩B|)
  over partitions only; it coincides with the side order there, because the
  middle term vanishes on partitions.

All values lie in ½ℕ and are stored exactly as doubled integers; no floating
point is involved anywhere, so threshold comparisons ("order < k") are exact.
"""

from __future__ import annotations

from . import _kernels
from .bigraph import BipartiteGraph
from .errors import CoverViolation, NotAPartition, SideMismatch
from .separations import Sep

UNIVERSES = ("x", "y", "e", "bx", "by")


class HalfInt:
    """A value in ½ℕ stored as its doubled integer."""

    __slots__ = ("doubled",)

    def __init__(self, doubled: int):
        if not isinstance(doubled, int):
            raise TypeError("HalfInt stores a doubled integer")
        if doubled < 0:
            raise ValueError("order values are non-negative")
        self.doubled = doubled

    @classmethod
    def whole(cls, n: int) -> "HalfInt":
        return cls(2 * n)

    def __add__(self, other):
        return HalfInt(self.doubled + as_halfint(other).doubled)

    def __mul__(self, factor: int):
        return HalfInt(self.doubled * factor)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            return self.doubled == _doubled(other)
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self.doubled < _doubled(other)

    def __le__(self, other):
        return self.doubled <= _doubled(other)

    def __gt__(self, other):
        return self.doubled > _doubled(other)

    def __ge__(self, other):
        return self.doubled >= _doubled(other)

    def __hash__(self):
        # equal to the hash of the int a whole value compares equal to
        d = self.doubled
        return hash(d >> 1) if d & 1 == 0 else hash(("HalfInt", d))

    def __float__(self):
        return self.doubled / 2

    def __str__(self):
        return str(self.doubled // 2) if self.doubled % 2 == 0 else f"{self.doubled}/2"

    def __repr__(self):
        return f"HalfInt({self.doubled})"


def _doubled(v) -> int:
    """Twice the value of a HalfInt or of an int of either sign, so that a
    comparison with a negative int is answered rather than refused."""
    if isinstance(v, HalfInt):
        return v.doubled
    if isinstance(v, int):
        return 2 * v
    raise TypeError(f"cannot interpret {v!r} as a half-integer")


def as_halfint(v) -> HalfInt:
    """Coerce an int (whole units) or HalfInt to HalfInt."""
    return v if isinstance(v, HalfInt) else HalfInt(_doubled(v))


def universe_context(g: BipartiteGraph, universe: str):
    """(masks, ground, partitions_only) triple backing an order universe."""
    if universe in ("x", "bx"):
        return g.adj_y, g.x, universe == "bx"
    if universe in ("y", "by"):
        return g.adj_x, g.y, universe == "by"
    if universe == "e":
        return g.inc_x + g.inc_y, g.edges, False
    raise ValueError(f"unknown universe {universe!r}; expected one of {UNIVERSES}")


def _validate(ground, s: Sep) -> tuple[int, int]:
    """The sides of ``s``, checked against ``ground``."""
    a, b = s
    ground.check(a)
    ground.check(b)
    if a | b != ground.full:
        raise CoverViolation("separation sides do not cover the ground set")
    return a, b


def order_of(g: BipartiteGraph, universe: str, s: Sep) -> HalfInt:
    """Order of ``s`` under the given universe's order function.

    A partition universe ("bx"/"by") rejects a separation whose sides meet.
    """
    masks, ground, partitions_only = universe_context(g, universe)
    a, b = _validate(ground, s)
    if partitions_only and a & b:
        raise NotAPartition("partition order requires disjoint sides")
    return HalfInt(_kernels.order2(masks, a, b))


def order_side_edge_form(g: BipartiteGraph, s: Sep, side: str) -> HalfInt:
    """Side order recomputed through edge counts across the majority shift.

    Independent route to the same value as ``order_of(g, side, s)``:
    |E(C,B)| + |E(D,A)| - |E(C∩D, all)|/2 - |E(opposite, A∩B)|/2
    - |E(C∩D, A∩B)|/2, where (C,D) is the shift of (A,B).  The last term is
    needed for exact equality: a tied vertex appears in both of the first
    two counts, so its middle neighbours would otherwise enter one half too
    often.  Used as a built-in cross-check.
    """
    if side not in ("x", "y"):
        raise SideMismatch(f"side must be 'x' or 'y', got {side!r}")
    masks, ground, _ = universe_context(g, side)
    a, b = _validate(ground, s)
    c, d = _kernels.shift2(masks, a, b)
    ab = a & b
    e_c_b = e_d_a = e_mid = e_ab = e_tied_mid = 0
    bit = 1
    for m in masks:
        if c & bit:
            e_c_b += (m & b).bit_count()
        if d & bit:
            e_d_a += (m & a).bit_count()
        if c & d & bit:
            e_mid += m.bit_count()
            e_tied_mid += (m & ab).bit_count()
        e_ab += (m & ab).bit_count()
        bit <<= 1
    return HalfInt(2 * e_c_b + 2 * e_d_a - e_mid - e_ab - e_tied_mid)

