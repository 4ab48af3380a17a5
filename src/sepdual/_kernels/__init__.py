"""Bit kernels: order evaluation, majority shifts and the exhaustive scan.

The three functions below are the hot loops of the whole package: order
evaluation, majority shifts, and the exhaustive separation scan over a small
ground set.  ``masks`` is always a sequence of bitmasks over the same ground
as the separation sides ``a`` and ``b`` (neighbourhoods for side orders,
incident-edge sets for edge orders).  They are pure Python; the rest of the
package looks them up here.
"""

from __future__ import annotations

BACKEND = "pure"


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

    Returns the sorted keys ``order2 << 2n | a << n | b``, a < b, one per
    unoriented separation but the self-inverse (full, full); key order is
    (order2, a, b) order, and int keys, unlike tuples, sort fast and cost the
    collector nothing.  With ``partitions_only`` only partitions are listed.

    The scan assigns the ground elements from the highest bit down, one
    level per element, and every partial separation carries the doubled
    order of its assigned part, so no separation is scored from scratch.
    Assigning element i changes only the terms of the masks through i,
    counted before i is added:

    * i in both sides: +1 per such mask;
    * i in the first side only: +2 per such mask that meets the first side
      in strictly fewer elements than the second;
    * i in the second side only: the same with the sides swapped.

    ``a < b`` holds exactly when the highest element that is not in both
    sides is in the second side only, so the canonical separations are the
    extensions of the chains "every element above t in both sides, t in the
    second side only", one chain per top element t (for partitions only
    t = n - 1, with nothing above it); none needs an ``a < b`` filter, and
    (full, full), which has no such t, never arises.

    No step is negative, so a partial score is a lower bound on the order
    of every separation that extends it: a search that cuts a branch once
    its score reaches a threshold still yields every member below it.

    The steps at element i depend only on how the partial separation meets
    U_i, the union of the masks through i cut to the elements above i: the
    elements below i are in neither side yet, so m ∩ a = m ∩ U_i ∩ a for
    every mask m through i, and likewise for b.  So each level keeps its
    steps per ``k & (U_i << n | U_i)``, and a node whose restriction to U_i
    was met before costs one dictionary lookup.  On an edge universe every
    element lies in two masks, U_i is small and nearly every node hits.
    """
    through = [[m for m in masks if m >> i & 1] for i in range(n)]
    full = (1 << n) - 1
    s2 = 2 * n
    # a level holds the keys of its partial separations; i is in neither side
    # yet, so adding it to a side and its step to the order is one addition
    level = []
    chain = 0  # doubled order of (high, high), high = the elements above i
    for i in range(n - 1, -1, -1):
        bit = 1 << i
        abit = bit << n
        ms = through[i]
        both = len(ms) << s2 | abit | bit  # i in both sides
        high = full ^ ((bit << 1) - 1)  # the elements above i
        union = 0
        for m in ms:
            union |= m
        union &= high  # U_i
        select = union << n | union
        steps = {}  # k & select -> (step into a only, step into b only)
        nxt = []
        push = nxt.append
        for k in level:
            u = k & select
            step = steps.get(u)
            if step is None:
                a = u >> n
                b = u & full
                da = db = 0
                for m in ms:
                    ca = (m & a).bit_count()
                    cb = (m & b).bit_count()
                    if ca < cb:
                        da += 2
                    elif cb < ca:
                        db += 2
                step = steps[u] = (da << s2 | abit, db << s2 | bit)
            if not partitions_only:
                push(k + both)
            push(k + step[0])
            push(k + step[1])
        if not partitions_only or i == n - 1:
            push(chain << s2 | high << n | high | bit)
            chain += len(ms)
        level = nxt
    level.sort()
    return level
