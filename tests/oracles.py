"""Independent brute-force oracles used to derive expected test values.

Everything here works on label sets and Fractions with per-vertex loops,
sharing no code path with the package's bitmask kernels, except
``enumerate_seps``, which lists every separation of a ground set as masks
for the tests to sweep.
"""

from fractions import Fraction

from sepdual import CapExceeded, Sep
from sepdual.separations import DEFAULT_PARTITION_CAP, DEFAULT_SEP_CAP


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
