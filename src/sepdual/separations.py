"""Oriented separations of a finite set, as pairs of bitmasks.

An oriented separation of a ground set ``V`` is an ordered pair ``(a, b)``
of subsets with ``a | b == V``; it is a partition when additionally
``a & b == 0``.  The pair and its inverse ``(b, a)`` form one unoriented
separation, represented throughout by its canonical orientation (the
lexicographically smaller mask pair).

The partial order is ``r <= s  iff  r.a ⊆ s.a and r.b ⊇ s.b``.  Under it the
inversion map is order-reversing, and any two separations have a supremum
``(r.a ∪ s.a, r.b ∩ s.b)`` and infimum ``(r.a ∩ s.a, r.b ∪ s.b)``.
Partitions are closed under both, so they form a universe of their own.

:class:`Sep` names the two sides, but every helper here reads its argument
as a plain pair (``a, b = s``), so any ``(a, b)`` tuple of masks works
wherever a ``Sep`` does; the helpers that return a separation return a
``Sep``.  Bulk storage such as the members of a low-order system keeps plain
pairs.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CoverViolation
from .groundset import GroundSet


class Sep(NamedTuple):
    """An oriented separation: sides as bitmasks over a fixed ground set."""

    a: int
    b: int

    @property
    def middle(self) -> int:
        return self.a & self.b

    def is_partition(self) -> bool:
        return self.a & self.b == 0


def make_sep(ground: GroundSet, a: int, b: int) -> Sep:
    """Validate the cover condition and build a separation over ``ground``."""
    ground.check(a)
    ground.check(b)
    if a | b != ground.full:
        missing = ground.names(ground.full & ~(a | b))
        raise CoverViolation(f"sides do not cover the ground set; missing {missing}")
    return Sep(a, b)


def inverse(s: Sep) -> Sep:
    a, b = s
    return Sep(b, a)


def leq(r: Sep, s: Sep) -> bool:
    """r <= s in the separation order: r.a ⊆ s.a and r.b ⊇ s.b."""
    ra, rb = r
    sa, sb = s
    return ra & ~sa == 0 and sb & ~rb == 0


def sup(r: Sep, s: Sep) -> Sep:
    ra, rb = r
    sa, sb = s
    return Sep(ra | sa, rb & sb)


def inf(r: Sep, s: Sep) -> Sep:
    ra, rb = r
    sa, sb = s
    return Sep(ra & sa, rb | sb)


def canonical(s: Sep) -> Sep:
    """The smaller of the two orientations; idempotent, fixes unoriented identity."""
    a, b = s
    return Sep(a, b) if a <= b else Sep(b, a)


def sep_labels(ground: GroundSet, s: Sep) -> dict:
    """A separation in reports: the labels of each side, ``{"a": ..., "b": ...}``."""
    a, b = s
    return {"a": ground.names(a), "b": ground.names(b)}
