"""Independent brute-force oracles used to derive expected test values.

Everything here works on label sets and Fractions with per-vertex loops,
sharing no code path with the package's bitmask kernels, except
``enumerate_seps``, which lists every separation of a ground set as masks
for the tests to sweep, ``order2_by_definition``, the doubled order of a
mask list by its definition, and ``recursive_search``, the earlier recursive
tangle and profile search, which the iterative one is tested against.
"""

from fractions import Fraction

from sepdual import CapExceeded, Sep
from sepdual.tangles import DEFAULT_PARTITION_CAP, DEFAULT_SEP_CAP


def graph_dicts(g):
    """Adjacency as plain dicts of label sets, via the JSON dump."""
    d = g.to_dict()
    adj_x = {x: set() for x in d["x"]}
    adj_y = {y: set() for y in d["y"]}
    for x, y in d["edges"]:
        adj_x[x].add(y)
        adj_y[y].add(x)
    return d["x"], d["y"], adj_x, adj_y, [tuple(e) for e in d["edges"]]


def sep_sets(ground, s):
    return set(map(str, ground.members(s.a))), set(map(str, ground.members(s.b)))


def order_side_oracle(g, A, B, side="x"):
    """Sum over the opposite side of min counts minus half the middle count."""
    xs, ys, adj_x, adj_y, _ = graph_dicts(g)
    opposite = ys if side == "x" else xs
    adj = adj_y if side == "x" else adj_x
    total = Fraction(0)
    for v in opposite:
        na = len(adj[v] & A)
        nb = len(adj[v] & B)
        total += min(na, nb) - Fraction(len(adj[v] & A & B), 2)
    return total


def order_partition_oracle(g, A, B, side="x"):
    xs, ys, adj_x, adj_y, _ = graph_dicts(g)
    opposite = ys if side == "x" else xs
    adj = adj_y if side == "x" else adj_x
    return sum(min(len(adj[v] & A), len(adj[v] & B)) for v in opposite)


def order_edge_oracle(g, C, D):
    """Same sum over all vertices with incident-edge sets; C, D are sets of
    (x_label, y_label) pairs."""
    xs, ys, adj_x, adj_y, edges = graph_dicts(g)
    total = Fraction(0)
    for v in xs + ys:
        inc = {e for e in edges if v in e}
        na = len(inc & C)
        nb = len(inc & D)
        total += min(na, nb) - Fraction(len(inc & C & D), 2)
    return total


def order2_by_definition(masks, a, b):
    """Doubled order by definition: the sum over masks of
    2*min(|m∩a|, |m∩b|) - |m∩a∩b|, three counts per mask.  Unlike the
    kernel, which reads only the imbalance |m∩a| - |m∩b|, it needs no cover
    of the masks by a | b."""
    total = 0
    ab = a & b
    for m in masks:
        ca = (m & a).bit_count()
        cb = (m & b).bit_count()
        total += 2 * (ca if ca < cb else cb) - (m & ab).bit_count()
    return total


def shift_side_oracle(g, A, B, side="x", ties_first=False):
    xs, ys, adj_x, adj_y, _ = graph_dicts(g)
    dest = ys if side == "x" else xs
    adj = adj_y if side == "x" else adj_x
    c, d = set(), set()
    for v in dest:
        na = len(adj[v] & A)
        nb = len(adj[v] & B)
        if na >= nb:
            c.add(v)
        if (na < nb) if ties_first else (na <= nb):
            d.add(v)
    return c, d


def edges_to_side_oracle(g, C, D, target="x"):
    xs, ys, adj_x, adj_y, edges = graph_dicts(g)
    verts = xs if target == "x" else ys
    pos = 0 if target == "x" else 1
    c, d = set(), set()
    for v in verts:
        inc = {e for e in edges if e[pos] == v}
        na = len(inc & C)
        nb = len(inc & D)
        if na >= nb:
            c.add(v)
        if na <= nb:
            d.add(v)
    return c, d


def all_seps_of(labels):
    """Every oriented separation of a label list, as set pairs (3^n)."""
    labels = list(labels)
    n = len(labels)
    out = []
    for assign in range(3**n):
        a, b = set(), set()
        code = assign
        for lab in labels:
            cell = code % 3
            code //= 3
            if cell == 0:
                a.add(lab)
            elif cell == 1:
                b.add(lab)
            else:
                a.add(lab)
                b.add(lab)
        out.append((a, b))
    return out


def enumerate_seps(ground, mode="all_separations", cap=None):
    """Yield every oriented separation (or partition) of ``ground`` once.

    ``mode`` is ``"all_separations"`` (3**n results) or ``"partitions_only"``
    (2**n results).  Order is deterministic.  Raises ``CapExceeded`` when
    the ground set is larger than the cap.
    """
    n = ground.n
    full = ground.full
    if mode == "partitions_only":
        limit = DEFAULT_PARTITION_CAP if cap is None else cap
        if n > limit:
            raise CapExceeded(f"partition enumeration of {n} elements exceeds cap {limit}")
        for a in range(1 << n):
            yield Sep(a, full ^ a)
    elif mode == "all_separations":
        limit = DEFAULT_SEP_CAP if cap is None else cap
        if n > limit:
            raise CapExceeded(f"separation enumeration of {n} elements exceeds cap {limit}")
        for a in range(1 << n):
            rest = full ^ a
            m = a
            while True:
                yield Sep(a, rest | m)
                if m == 0:
                    break
                m = (m - 1) & a
    else:
        raise ValueError(f"unknown enumeration mode {mode!r}")


def recursive_search(system, kind, m, seeds: tuple[tuple[bool, ...], ...]) -> tuple[tuple[bool, ...], ...]:
    """The reference for ``tangles._search``, with the same arguments and
    results, written as plain recursion on sets of masks: one level per
    member, so only for systems well within the recursion limit.  The
    ``forward`` tuples of the results of ``system``, in search order,
    resumed at member m from ``seeds``, the results of the first m members.

    Search state.  ``chosen`` lists the orientations picked so far as plain
    ``(a, b)`` pairs: each member is tried as itself and as its inverse
    ``(b, a)``, built inline, so the search makes no ``Sep``.  For tangles,
    ``pair_unions`` is the set of ``t.a | u.a`` over chosen multisets {t, u}
    of size at most 2.  For regular profiles, ``picked`` is the set of
    chosen orientations and ``closes`` the set of
    ``inverse(sup(t, u)) = (t.b & u.b, t.a | u.a)`` over chosen multisets
    {t, u}.  Invariant: ``push(s)`` adds s and those of the |chosen| + 1
    entries pairing s with a chosen member or with itself that the set does
    not hold yet, and returns them as a token; ``pop(token)`` removes
    exactly those, so after each ``pop`` the state equals the one before the
    matching ``push`` (pushes and pops nest).  Every test of ``ok_to_add(s)``
    then touches only pairs involving s, O(|chosen|) work on plain masks.
    One order test per chosen t suffices for condition (i) of
    ``check_profile``: inversion reverses the order, so ``inverse(t) <= s``
    and ``inverse(s) <= t`` are the same condition.

    Resume.  Seeds are replayed as pushes without tests, popping back only
    to the first member where a seed differs from the one before, so a
    resume pushes no more than a search from member 0 would.
    """
    members = system.members
    n = len(members)
    full = system.ground.full
    results: list[tuple[bool, ...]] = []
    forward = [True] * n
    chosen: list[tuple[int, int]] = []

    if kind == "tangle":
        # pair_unions holds a|b over all chosen multisets of size <= 2
        pair_unions: set[int] = set()

        def ok_to_add(s: tuple[int, int]) -> bool:
            sa = s[0]
            if sa == full:
                return False
            for u in pair_unions:
                if u | sa == full:
                    return False
            return True

        def push(s: tuple[int, int]) -> set[int]:
            sa = s[0]
            added = {ta | sa for ta, _ in chosen}
            added.add(sa)
            added -= pair_unions
            pair_unions.update(added)
            chosen.append(s)
            return added

        def pop(added: set[int]) -> None:
            pair_unions.difference_update(added)
            chosen.pop()

    else:
        picked: set[tuple[int, int]] = set()
        closes: set[tuple[int, int]] = set()

        def ok_to_add(s: tuple[int, int]) -> bool:
            sa, sb = s
            # s is irregular; the pair {s, s} closes on a chosen
            # separation; a chosen pair closes on s
            if sa == full or (sb, sa) in picked or s in closes:
                return False
            for ta, tb in chosen:
                # leq(inverse(t), s), the same test as leq(inverse(s), t)
                if tb & ~sa == 0 and sb & ~ta == 0:
                    return False
                # the pair {t, s} closes on a chosen separation or on s
                third = (tb & sb, ta | sa)
                if third in picked or third == s:
                    return False
            return True

        def push(s: tuple[int, int]) -> set[tuple[int, int]]:
            sa, sb = s
            added = {(tb & sb, ta | sa) for ta, tb in chosen}
            added.add((sb, sa))
            added -= closes
            closes.update(added)
            picked.add(s)
            chosen.append(s)
            return added

        def pop(added: set[tuple[int, int]]) -> None:
            closes.difference_update(added)
            picked.remove(chosen.pop())

    def rec(i: int) -> None:
        if i == n:
            results.append(tuple(forward))
            return
        member = members[i]
        a, b = member
        for val, s in ((True, member), (False, (b, a))):
            if ok_to_add(s):
                forward[i] = val
                token = push(s)
                rec(i + 1)
                pop(token)

    tokens = []  # push tokens of the replayed seed, one per prefix member
    for seed in seeds:
        d = 0
        while d < len(tokens) and seed[d] == forward[d]:
            d += 1
        while len(tokens) > d:
            pop(tokens.pop())
        for i in range(d, m):
            a, b = member = members[i]
            forward[i] = val = seed[i]
            tokens.append(push(member if val else (b, a)))
        rec(m)
    del rec  # it refers to itself; unbound, the search leaves no cycle behind
    return tuple(results)
