"""Bit kernels: order evaluation, majority shifts, and the separations of a
small ground set, listed or counted.

The four functions below are the hot loops of the whole package: order
evaluation, majority shifts, the separation scan over a small ground set,
and the count of that scan's members by order.  ``masks`` is always a
sequence of bitmasks over the same ground as the separation sides ``a`` and
``b`` (neighbourhoods for side orders, incident-edge sets for edge orders).
The scan and the count are also compiled: ``scan_members`` runs the C scan
of the extension ``_native`` loads whenever it loads and the keys fit in 63
bits, ``order_counts`` the C count whenever it loads and the ground has at
most 40 elements, and each runs its Python body otherwise;
``sepdual.KERNEL_BACKEND`` names the backend of the scan, the count and the
search walk alike.  ``order2`` and ``shift2`` are pure Python.  They live in
this one flat module, the rest of the package looks them up here, and only
``tangles`` calls the scan and the count.
"""

from __future__ import annotations

from . import _native


def order2(masks, a: int, b: int, total: int) -> int:
    """Doubled order: sum over masks of 2*min(|m∩a|,|m∩b|) - |m∩a∩b|, as
    ``total`` (the sum of |m|) less the imbalances ||m∩a| - |m∩b||.  Exact
    only when a | b holds every mask, so that |m∩a∩b| = |m∩a|+|m∩b|-|m|."""
    for m in masks:
        total -= abs((m & a).bit_count() - (m & b).bit_count())
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


def scan_members(masks, n: int, partitions_only: bool = False, below=None):
    """All canonical separations of an n-set with their doubled orders.

    Returns the sorted keys ``order2 << 2n | a << n | b``, a < b, one per
    unoriented separation but the self-inverse (full, full); key order is
    (order2, a, b) order, and int keys, unlike tuples, sort fast and cost the
    collector nothing.  With ``partitions_only`` only partitions are listed;
    with ``below`` only the separations of doubled order below it, which are
    a prefix of the full list.

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
    of every separation that extends it: the scan drops a partial
    separation once its score reaches ``below`` and still yields every
    member below it.

    The steps at element i depend only on how the partial separation meets
    U_i, the union of the masks through i cut to the elements above i: the
    elements below i are in neither side yet, so m ∩ a = m ∩ U_i ∩ a for
    every mask m through i, and likewise for b.  So each level keeps its
    steps per ``k & (U_i << n | U_i)``, and a node whose restriction to U_i
    was met before costs one dictionary lookup.  On an edge universe every
    element lies in two masks, U_i is small and nearly every node hits.

    The C scan of ``_native`` lists the same keys whenever the extension
    loads and every key fits in 63 bits, ``(sum of |m| + 1) << 2n <= 2**63``;
    it counts each node's steps afresh, with no step cache, and sorts in C.
    Otherwise the Python body below runs, the fallback and the reference.
    """
    keys = _native.scan(masks, n, partitions_only, below)
    if keys is not None:
        return keys
    through = [[m for m in masks if m >> i & 1] for i in range(n)]
    full = (1 << n) - 1
    s2 = 2 * n
    bound = None if below is None else below << s2  # the smallest key dropped
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
        if bound is not None:
            # a filter after the loop leaves the full scan's loop as it is
            nxt = [k for k in nxt if k < bound]
        if (not partitions_only or i == n - 1) and (bound is None or chain < below):
            nxt.append(chain << s2 | high << n | high | bit)
        chain += len(ms)
        level = nxt
    level.sort()
    return level


def order_counts(masks, n: int, partitions_only: bool = False) -> dict[int, int]:
    """The members ``scan_members`` lists, counted by doubled order without
    listing them: ``{order2: count}`` over the orders that occur.

    The count walks the scan's levels, chains and steps, but merges the
    partial separations that no later step can tell apart.  The steps at
    element i read, for each mask through i, only the sign of its
    difference ``|m ∩ a| - |m ∩ b|`` over the assigned elements.  So a
    state is the tuple of these differences over the live masks, those with
    an element assigned and one not; a mask none of whose elements is
    assigned has difference 0, and one whose lowest element is assigned is
    never read again and leaves the state.  A mask with r elements left is
    read r more times and each step moves its difference by at most one, so
    a difference beyond +-r is held at +-r, its sign being settled.  Putting
    i in both sides moves no difference.

    Each state carries the partial scores of the separations it stands for
    as one int, a polynomial in ``2 ** width`` whose coefficient at d counts
    the partial separations of score d; a step of s is a shift by s digits
    and merging two states is an addition.  A coefficient counts partial
    separations, fewer than 3^n, so no digit carries into the next.  The
    states of a level never outnumber the scan's partial separations there.

    The C count of ``_native`` counts the same members whenever the
    extension loads and n <= 40, so that no count reaches 3^40 < 2**64: it
    keeps each state's differences as signed bytes and its partial scores
    as a row of 64-bit counts over the scores the state reaches.
    Otherwise the Python body below runs, the fallback and the reference.
    """
    counts = _native.count(masks, n, partitions_only)
    if counts is not None:
        return counts
    masks = [m for m in masks if m]
    width = (3 ** n).bit_length()
    live = []  # indices into masks of the differences a state holds, in order
    states = {}  # differences -> polynomial of partial scores
    chain = 0
    for i in range(n - 1, -1, -1):
        bit = 1 << i
        lower = bit - 1
        at = {j: p for p, j in enumerate(live)}
        read = [at[j] for j, m in enumerate(masks) if m & bit and j in at]
        nlive = [j for j, m in enumerate(masks) if m >> i and m & lower]
        # per live mask after i: its place in the state (-1: difference 0),
        # whether i is in it, and how many of its elements lie below i
        plan = [(at.get(j, -1), masks[j] & bit != 0, (masks[j] & lower).bit_count())
                for j in nlive]
        both = sum(1 for m in masks if m & bit)
        nxt = {}
        get = nxt.get
        for state, poly in states.items():
            da = db = 0
            for p in read:
                d = state[p]
                if d < 0:
                    da += 2
                elif d > 0:
                    db += 2
            sa, sb, sab = [], [], []
            for p, inside, r in plan:
                d = state[p] if p >= 0 else 0
                if inside:
                    sa.append(d + 1 if d < r else r)
                    sb.append(d - 1 if d > -r else -r)
                    sab.append(d if -r <= d <= r else r if d > 0 else -r)
                else:
                    sa.append(d)
                    sb.append(d)
                    sab.append(d)
            if not partitions_only:
                sab = tuple(sab)
                nxt[sab] = get(sab, 0) + (poly << width * both)
            sa = tuple(sa)
            nxt[sa] = get(sa, 0) + (poly << width * da)
            sb = tuple(sb)
            nxt[sb] = get(sb, 0) + (poly << width * db)
        if not partitions_only or i == n - 1:
            # the chain of top element i: i in the second side only
            start = tuple([-1 if inside else 0 for _, inside, _ in plan])
            nxt[start] = get(start, 0) + (1 << width * chain)
        chain += both
        states = nxt
        live = nlive
    counts = {}
    poly = states.get((), 0)
    digit = (1 << width) - 1
    order = 0
    while poly:
        if poly & digit:
            counts[order] = poly & digit
        poly >>= width
        order += 1
    return counts
