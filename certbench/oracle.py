"""Set-based reference values for the single-separation queries.

Everything here works on label sets and ``Fraction`` and uses nothing from
sepdual: a graph is the benchmark's own ``(x_labels, y_labels, edges)``
triple, and a separation is a pair of label sets.  Masks produced by the
library are decoded with the benchmark's own label order, which is the order
the graphs were built with.
"""

from __future__ import annotations

from fractions import Fraction


def labels(order, mask: int) -> frozenset:
    return frozenset(lab for i, lab in enumerate(order) if mask >> i & 1)


def neighbourhoods(spec, side: str) -> dict:
    """Opposite vertex -> set of its neighbours on ``side``."""
    xs, ys, edges = spec
    out = {v: set() for v in (ys if side == "x" else xs)}
    for xl, yl in edges:
        if side == "x":
            out[yl].add(xl)
        else:
            out[xl].add(yl)
    return out


def incidences(spec) -> dict:
    """Vertex (either side) -> set of its incident edges."""
    xs, ys, edges = spec
    out = {v: set() for v in (*xs, *ys)}
    for e in edges:
        out[e[0]].add(e)
        out[e[1]].add(e)
    return out


def order(sets: dict, a: frozenset, b: frozenset) -> Fraction:
    """Sum over the sets N of min(|N∩A|, |N∩B|) - |N∩A∩B|/2."""
    total = Fraction(0)
    for n in sets.values():
        total += min(len(n & a), len(n & b)) - Fraction(len(n & a & b), 2)
    return total


def shift(sets: dict, a: frozenset, b: frozenset, partition_ties=False):
    """Majority shift onto the keys of ``sets``; ties land on both sides
    unless ``partition_ties``, in which case they stay with the first."""
    c, d = set(), set()
    for v, n in sets.items():
        ca, cb = len(n & a), len(n & b)
        if ca >= cb:
            c.add(v)
        if (ca < cb) if partition_ties else (ca <= cb):
            d.add(v)
    return frozenset(c), frozenset(d)
