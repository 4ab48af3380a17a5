"""Bipartite incidence graphs: the duality witness between two ground sets.

A graph couples two disjoint label spaces X and Y.  Every vertex carries a
bitmask of its neighbours on the other side, and every edge is itself a
ground-set element (used by the edge-separation universe).  Construction
comes from explicit edge lists, from transaction logs (group/member
incidence records, e.g. purchases and items), or from seeded generators.
"""

from __future__ import annotations

import csv
import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import LabelClash, ParseError, SideMismatch
from .groundset import GroundSet


@dataclass(frozen=True)
class IncidenceRecord:
    """One group/member incidence, e.g. one item inside one purchase."""

    group_id: object
    member_id: object


class BipartiteGraph:
    """Immutable bipartite graph with mask-based adjacency.

    Attributes:
        x, y: the two vertex ground sets.
        adj_x: per X-vertex, mask of its neighbours over Y.
        adj_y: per Y-vertex, mask of its neighbours over X.
        edges: ground set of edges; labels are (x_label, y_label) pairs.
        endpoints: per edge, the (x_index, y_index) pair.
        inc_x, inc_y: per vertex, mask of its incident edges over ``edges``.
    """

    __slots__ = ("x", "y", "adj_x", "adj_y", "edges", "endpoints",
                 "inc_x", "inc_y", "_cache")

    def __init__(self, x_labels: Sequence, y_labels: Sequence,
                 pairs: Iterable[tuple]):
        clash = set(x_labels) & set(y_labels)
        if clash:
            raise LabelClash(f"labels on both sides: {sorted(map(str, clash))}")
        self.x = GroundSet(x_labels)
        self.y = GroundSet(y_labels)

        seen = set()
        edge_list = []
        for xl, yl in pairs:
            if xl in self.y.index or yl in self.x.index:
                raise LabelClash(f"edge ({xl!r}, {yl!r}) crosses label spaces")
            xi = self.x.index.get(xl)
            yi = self.y.index.get(yl)
            if xi is None or yi is None:
                raise SideMismatch(f"edge ({xl!r}, {yl!r}) uses unknown labels")
            if (xi, yi) not in seen:
                seen.add((xi, yi))
                edge_list.append((xi, yi))

        adj_x = [0] * self.x.n
        adj_y = [0] * self.y.n
        inc_x = [0] * self.x.n
        inc_y = [0] * self.y.n
        for e, (xi, yi) in enumerate(edge_list):
            adj_x[xi] |= 1 << yi
            adj_y[yi] |= 1 << xi
            inc_x[xi] |= 1 << e
            inc_y[yi] |= 1 << e
        self.adj_x = tuple(adj_x)
        self.adj_y = tuple(adj_y)
        self.inc_x = tuple(inc_x)
        self.inc_y = tuple(inc_y)
        self.endpoints = tuple(edge_list)
        self.edges = GroundSet(
            (self.x.labels[xi], self.y.labels[yi]) for xi, yi in edge_list
        )
        # one tangles._Universe per universe name, and the systems kept per
        # (name, member count); read and written only by sepdual.tangles
        self._cache = {}

    # -- queries ----------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return self.edges.n

    def side_of(self, label) -> str:
        if label in self.x.index:
            return "x"
        if label in self.y.index:
            return "y"
        raise SideMismatch(f"label {label!r} is on neither side")

    def neighbor_mask(self, label) -> int:
        side = self.side_of(label)
        if side == "x":
            return self.adj_x[self.x.index[label]]
        return self.adj_y[self.y.index[label]]

    def neighbor_count(self, label, mask: int) -> int:
        """|N(v) ∩ mask| with mask over the opposite side."""
        side = self.side_of(label)
        (self.y if side == "x" else self.x).check(mask)
        return (self.neighbor_mask(label) & mask).bit_count()

    def incidence_count(self, label, mask: int) -> int:
        """|E(v) ∩ mask| with mask over the edge ground set."""
        side = self.side_of(label)
        self.edges.check(mask)
        inc = self.inc_x if side == "x" else self.inc_y
        idx = (self.x if side == "x" else self.y).index[label]
        return (inc[idx] & mask).bit_count()

    def degree(self, label) -> int:
        return self.neighbor_mask(label).bit_count()

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "x": list(map(str, self.x.labels)),
            "y": list(map(str, self.y.labels)),
            "edges": [[str(self.x.labels[xi]), str(self.y.labels[yi])]
                      for xi, yi in self.endpoints],
        }

    def dump_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def __repr__(self) -> str:
        return (f"BipartiteGraph(|X|={self.x.n}, |Y|={self.y.n}, "
                f"|E|={self.n_edges})")


def from_edges(pairs: Iterable[tuple], x_labels: Sequence | None = None,
               y_labels: Sequence | None = None) -> BipartiteGraph:
    """Build a graph from (x_label, y_label) pairs.

    Without explicit label lists, vertex order is first-appearance order and
    edges are de-duplicated.  A label used on both sides raises LabelClash.
    """
    pairs = list(pairs)
    if x_labels is None or y_labels is None:
        xs, ys = [], []
        seen_x, seen_y = set(), set()
        for xl, yl in pairs:
            if xl not in seen_x:
                seen_x.add(xl)
                xs.append(xl)
            if yl not in seen_y:
                seen_y.add(yl)
                ys.append(yl)
        x_labels = xs if x_labels is None else x_labels
        y_labels = ys if y_labels is None else y_labels
    return BipartiteGraph(x_labels, y_labels, pairs)


def from_dict(data: dict) -> BipartiteGraph:
    """The graph of a ``to_dict`` dump: lists ``x`` and ``y`` of labels and
    a list ``edges`` of (x label, y label) pairs.  Labels are read through
    ``str``, as ``to_dict`` writes them, so a graph loads exactly when its
    dump does.  Any other shape, or a label repeated on one side, raises
    :class:`ParseError`."""
    if not isinstance(data, dict):
        raise ParseError(f"graph JSON must be an object, got {type(data).__name__}")
    for key in ("x", "y", "edges"):
        value = data.get(key)
        if not isinstance(value, (list, tuple)):
            raise ParseError(f"graph JSON needs a list {key!r}, got "
                             f"{type(value).__name__}")
    sides = {side: list(map(str, data[side])) for side in ("x", "y")}
    for side, labels in sides.items():
        repeated = [lab for lab, n in Counter(labels).items() if n > 1]
        if repeated:
            raise ParseError(f"graph JSON repeats label {repeated[0]!r} on side {side}")
    edges = []
    for e in data["edges"]:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ParseError(f"edge {e!r} is not two labels")
        edges.append((str(e[0]), str(e[1])))
    return BipartiteGraph(sides["x"], sides["y"], edges)


def from_transactions(records: Iterable[IncidenceRecord]) -> BipartiteGraph:
    """X = member labels, Y = group labels, one edge per distinct incidence."""
    pairs = [(r.member_id, r.group_id) for r in records]
    return from_edges(pairs)


def read_transactions_csv(lines: Iterable[str]) -> BipartiteGraph:
    """Parse a two-column CSV with header ``group,member``.

    An empty input yields the empty graph; malformed rows raise
    :class:`ParseError` carrying the 1-based line number (the row's last
    line, when a quoted field spans lines).
    """
    reader = csv.reader(lines)
    records = []
    header_seen = False
    try:
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            fields = [f.strip() for f in row]
            if not header_seen:
                if [f.lower() for f in fields] != ["group", "member"]:
                    raise ParseError("expected header 'group,member'",
                                     line=reader.line_num)
                header_seen = True
                continue
            if len(fields) != 2 or not fields[0] or not fields[1]:
                raise ParseError(f"expected two fields, got {row!r}",
                                 line=reader.line_num)
            records.append(IncidenceRecord(group_id=fields[0], member_id=fields[1]))
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ParseError(str(exc), line=reader.line_num) from None
    return from_transactions(records)


def check_duality_wellformedness(g: BipartiteGraph) -> dict:
    """Report vertex classes whose neighbourhood partitions coincide.

    Two vertices on one side induce the same unoriented partition of the
    other side when their neighbourhoods are identical or complementary.
    Downstream code tolerates such duplicates; the report is informational.
    """
    report = {}
    for side, ground, adj, other in (
        ("x", g.x, g.adj_x, g.y),
        ("y", g.y, g.adj_y, g.x),
    ):
        by_mask: dict[int, list] = {}
        for i, m in enumerate(adj):
            by_mask.setdefault(m, []).append(ground.labels[i])
        identical = [
            [str(l) for l in group]
            for m, group in sorted(by_mask.items())
            if len(group) > 1
        ]
        complementary = []
        for m in sorted(by_mask):
            comp = other.full ^ m
            if comp > m and comp in by_mask:
                complementary.append([
                    [str(l) for l in by_mask[m]],
                    [str(l) for l in by_mask[comp]],
                ])
        report[side] = {"identical": identical, "complementary": complementary}
    return report


def gen_random(nx: int, ny: int, edge_prob: float, seed: int) -> BipartiteGraph:
    """Seeded Bernoulli bipartite graph; deterministic for a fixed seed."""
    rng = random.Random(seed)
    xs = [f"x{i + 1}" for i in range(nx)]
    ys = [f"y{j + 1}" for j in range(ny)]
    pairs = [(xi, yj) for xi in xs for yj in ys if rng.random() < edge_prob]
    return BipartiteGraph(xs, ys, pairs)


def gen_planted(blocks: Sequence[tuple[int, int]], in_prob: float,
                cross_prob: float, seed: int) -> BipartiteGraph:
    """Planted block structure: dense inside blocks, sparse across.

    ``blocks`` lists (nx_i, ny_i) sizes; vertices are labelled sequentially
    (x1.., y1..) block by block, so block membership is recoverable from the
    sizes alone.
    """
    rng = random.Random(seed)
    xs, ys, xb, yb = [], [], [], []
    for bi, (bx, by) in enumerate(blocks):
        for _ in range(bx):
            xs.append(f"x{len(xs) + 1}")
            xb.append(bi)
        for _ in range(by):
            ys.append(f"y{len(ys) + 1}")
            yb.append(bi)
    pairs = []
    for i, xi in enumerate(xs):
        for j, yj in enumerate(ys):
            p = in_prob if xb[i] == yb[j] else cross_prob
            if rng.random() < p:
                pairs.append((xi, yj))
    return BipartiteGraph(xs, ys, pairs)


def block_masks(blocks: Sequence[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """X- and Y-side bitmasks of each planted block, given the sizes."""
    xm, ym = [], []
    xpos = ypos = 0
    for bx, by in blocks:
        xm.append(((1 << bx) - 1) << xpos)
        ym.append(((1 << by) - 1) << ypos)
        xpos += bx
        ypos += by
    return xm, ym
