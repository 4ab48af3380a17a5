"""Pure-Python bit kernels.

The three functions below are the hot loops of the whole package: order
evaluation, majority shifts, and the exhaustive scan over all separations
of a small ground set.  ``masks`` is always a sequence of bitmasks over the
same ground as the separation sides ``a`` and ``b`` (neighbourhoods for side
orders, incident-edge sets for edge orders).
"""

from __future__ import annotations


def order2(masks, a: int, b: int) -> int:
    """Doubled order: sum over masks of 2*min(|m∩a|,|m∩b|) - |m∩a∩b|."""
    total = 0
    ab = a & b
    for m in masks:
        ca = (m & a).bit_count()
        cb = (m & b).bit_count()
        total += 2 * (ca if ca < cb else cb) - (m & ab).bit_count()
    return total


def shift2(masks, a: int, b: int, partition_ties: bool = False):
    """Majority shift of (a, b) to the ground set indexing ``masks``.

    Position i lands in the first side when |masks[i] ∩ a| >= |masks[i] ∩ b|
    and in the second when <=; ties therefore land in both sides, unless
    ``partition_ties`` is set, in which case the second side takes only the
    strict minority (ties stay with the first side only).
    """
    c = 0
    d = 0
    bit = 1
    for m in masks:
        ca = (m & a).bit_count()
        cb = (m & b).bit_count()
        if ca >= cb:
            c |= bit
        if (ca < cb) if partition_ties else (ca <= cb):
            d |= bit
        bit <<= 1
    return c, d


def scan_members(masks, n: int, partitions_only: bool = False):
    """All canonical separations of an n-set with their doubled orders.

    Returns a list of ``(order2, a, b)`` with ``a < b`` (one entry per
    unoriented separation; the self-inverse (full, full) is excluded),
    sorted by (order2, a, b).
    """
    out = []
    full = (1 << n) - 1
    if partitions_only:
        for a in range(1 << n):
            b = full ^ a
            if a < b:
                out.append((order2(masks, a, b), a, b))
    else:
        for a in range(1 << n):
            rest = full ^ a
            m = a
            while True:
                b = rest | m
                if a < b:
                    out.append((order2(masks, a, b), a, b))
                if m == 0:
                    break
                m = (m - 1) & a
    out.sort()
    return out
