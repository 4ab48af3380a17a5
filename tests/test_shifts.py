"""Shift maps and their order lemmas."""

import itertools

import pytest

from oracles import (edges_to_side_oracle, enumerate_seps, sep_sets,
                     shift_side_oracle)
from sepdual import (
    NotAPartition,
    Sep,
    SideMismatch,
    edges_to_side,
    from_edges,
    inverse,
    leq,
    order_of,
    sep_to_edges,
    shift_partition,
    shift_side,
)
from sepdual.orders import universe_context
from sepdual.shifts import _PAIRS, universe_map
from sepdual.verify import _set_map, corpus


def test_shift_side_examples(m2, k22):
    assert shift_side(m2, Sep(0b01, 0b10), "x") == Sep(0b01, 0b10)
    # all ties on K22: both vertices land on both sides
    assert shift_side(k22, Sep(0b01, 0b10), "x") == Sep(0b11, 0b11)
    assert shift_side(k22, Sep(0, 0b11), "x") == Sep(0, 0b11)


def test_shift_side_isolated_vertex_goes_middle():
    g = from_edges([("x1", "y1")], x_labels=["x1"], y_labels=["y1", "y2"])
    out = shift_side(g, Sep(0, 1), "x")
    # isolated y2 ties 0 >= 0, so it lands on both sides
    assert out == Sep(0b10, 0b11)


def test_shift_side_matches_oracle(k33, path3):
    for g in (k33, path3):
        for s in enumerate_seps(g.x):
            A, B = sep_sets(g.x, s)
            c, d = shift_side_oracle(g, A, B, "x")
            out = shift_side(g, s, "x")
            assert sep_sets(g.y, out) == (c, d)


def test_shift_side_commutes_with_involution(k33, path3):
    for g in (k33, path3):
        for s in enumerate_seps(g.x):
            assert shift_side(g, inverse(s), "x") == inverse(shift_side(g, s, "x"))


def test_shift_partition_examples(m2, k22):
    assert shift_partition(m2, Sep(0b01, 0b10), "x") == Sep(0b01, 0b10)
    # ties break to the first component
    assert shift_partition(k22, Sep(0b01, 0b10), "x") == Sep(0b11, 0)
    # both orientations shift to the same side: no involution equivariance
    assert shift_partition(k22, Sep(0b10, 0b01), "x") == Sep(0b11, 0)
    with pytest.raises(NotAPartition):
        shift_partition(k22, Sep(0b11, 0b01), "x")


def test_shift_partition_is_partition(k33):
    for s in enumerate_seps(k33.x, "partitions_only"):
        assert shift_partition(k33, s, "x").is_partition()


@pytest.mark.parametrize("shift, side", [
    (shift_side, "bx"), (shift_partition, "e"), (sep_to_edges, "e"),
    (edges_to_side, "e"),
], ids=["shift_side", "shift_partition", "sep_to_edges", "edges_to_side"])
def test_shift_refuses_an_unknown_side(k22, shift, side):
    with pytest.raises(SideMismatch, match=f"must be 'x' or 'y', got {side!r}"):
        shift(k22, Sep(0b01, 0b10), side)


def test_sep_to_edges(m2, k22):
    e = m2.edges
    assert sep_to_edges(m2, Sep(0b01, 0b10), "x") == Sep(
        e.mask([("x1", "y1")]), e.mask([("x2", "y2")]))
    assert sep_to_edges(m2, Sep(m2.x.full, m2.x.full), "x") == Sep(e.full, e.full)
    ek = k22.edges
    out = sep_to_edges(k22, Sep(0b01, 0b10), "x")
    assert out == Sep(ek.mask([("x1", "y1"), ("x1", "y2")]),
                      ek.mask([("x2", "y1"), ("x2", "y2")]))


def test_sep_to_edges_equivariant(k22, path3):
    for g in (k22, path3):
        for s in enumerate_seps(g.x):
            assert sep_to_edges(g, inverse(s), "x") == inverse(sep_to_edges(g, s, "x"))


def test_edges_to_side_examples(m2, k22):
    e = m2.edges
    s = Sep(e.mask([("x1", "y1")]), e.mask([("x2", "y2")]))
    assert edges_to_side(m2, s, "x") == Sep(0b01, 0b10)
    assert edges_to_side(m2, Sep(0, e.full), "x") == Sep(0, m2.x.full)
    ek = k22.edges
    s = Sep(ek.mask([("x1", "y1"), ("x1", "y2")]),
            ek.mask([("x2", "y1"), ("x2", "y2")]))
    assert edges_to_side(k22, s, "x") == Sep(0b01, 0b10)


def test_edges_to_side_matches_oracle(m2, path3):
    for g in (m2, path3):
        for s in enumerate_seps(g.edges):
            C = set(g.edges.members(s.a))
            D = set(g.edges.members(s.b))
            c, d = edges_to_side_oracle(g, C, D, "x")
            assert sep_sets(g.x, edges_to_side(g, s, "x")) == (c, d)


def test_round_trip_no_isolated(m2, k22, path3):
    for g in (m2, k22, path3):
        for s in enumerate_seps(g.x):
            assert edges_to_side(g, sep_to_edges(g, s, "x"), "x") == s


def test_round_trip_isolated_discrepancy():
    g = from_edges([("x1", "y1")], x_labels=["x1", "x2"], y_labels=["y1"])
    s = Sep(0b01, 0b10)  # x2 on the second side only
    back = edges_to_side(g, sep_to_edges(g, s, "x"), "x")
    # the isolated vertex is forced into the middle; nothing else moves
    assert back == Sep(0b11, 0b10)
    diff = (back.a ^ s.a) | (back.b ^ s.b)
    assert diff == g.x.mask(["x2"])


def test_partition_shift_order_never_increases(m2, k22, k33, path3):
    for g in (m2, k22, k33, path3):
        for s in enumerate_seps(g.x, "partitions_only"):
            t = shift_partition(g, s, "x")
            assert order_of(g, "by", t) <= order_of(g, "bx", s)


def test_shift_order_never_increases(m2, k22, k33, path3):
    for g in (m2, k22, k33, path3):
        for side in ("x", "y"):
            ground = g.x if side == "x" else g.y
            other = "y" if side == "x" else "x"
            for s in enumerate_seps(ground):
                shifted = shift_side(g, s, side)
                assert order_of(g, other, shifted) <= order_of(g, side, s)


def test_order_sandwich(m2, k22, k33, path3):
    for g in (m2, k22, k33, path3):
        for s in enumerate_seps(g.x):
            ox2 = order_of(g, "x", s).doubled
            oe2 = order_of(g, "e", sep_to_edges(g, s, "x")).doubled
            assert ox2 <= oe2 <= 2 * ox2


def test_edge_shift_order_never_increases(m2, k22, path3):
    for g in (m2, k22, path3):
        for s in enumerate_seps(g.edges):
            back = edges_to_side(g, s, "x")
            assert order_of(g, "x", back) <= order_of(g, "e", s)


def test_edge_shift_monotone(m2, path3):
    for g in (m2, path3):
        seps = list(enumerate_seps(g.edges))
        for r, s in itertools.product(seps, repeat=2):
            if leq(r, s):
                assert leq(edges_to_side(g, r, "x"), edges_to_side(g, s, "x"))


def test_universe_map_kinds(m2, k22, path3):
    s = Sep(0b01, 0b10)
    for g in (m2, k22):
        assert universe_map(g, "x", "y")(s) == shift_side(g, s, "x")
        assert universe_map(g, "by", "bx")(s) == shift_partition(g, s, "y")
        assert universe_map(g, "x", "e")(s) == sep_to_edges(g, s, "x")
    for t in enumerate_seps(path3.edges):
        assert universe_map(path3, "e", "y")(t) == edges_to_side(path3, t, "y")
    # ties go to both sides on K22, to the first side only for partitions
    assert universe_map(k22, "x", "y")(s) == Sep(0b11, 0b11)
    assert universe_map(k22, "bx", "by")(s) == Sep(0b11, 0)
    for source, dest in (("x", "x"), ("e", "e"), ("bx", "y"), ("e", "bx")):
        with pytest.raises(SideMismatch):
            universe_map(m2, source, dest)
    # the label-counting map has no vote from sides to edges
    with pytest.raises(ValueError, match="no set-based map from 'x' to 'e'"):
        _set_map(m2, "x", "e", s)


def _edges_of(g, side, mask):
    """E(A) from label sets: the edges whose endpoint on ``side`` is in A."""
    ground = universe_context(g, side)[1]
    labels = set(ground.members(mask))
    end = 0 if side == "x" else 1
    return g.edges.mask(e for e in g.edges.labels if e[end] in labels)


def test_every_map_matches_label_set_oracles():
    """Every pair universe_map accepts, on every corpus graph and every
    separation of its source (edge sources on graphs of at most 6 edges)."""
    checked = set()
    for name, g in corpus():
        for source, dest in _PAIRS:
            ground = universe_context(g, source)[1]
            if source == "e" and ground.n > 6:
                continue
            mode = "partitions_only" if source[0] == "b" else "all_separations"
            fn = universe_map(g, source, dest)
            for s in enumerate_seps(ground, mode):
                if dest == "e":
                    want = Sep(_edges_of(g, source, s.a), _edges_of(g, source, s.b))
                else:
                    want = _set_map(g, source, dest, s)
                assert fn(s) == want, (name, source, dest, s)
            checked.add((source, dest))
    assert checked == set(_PAIRS)


def test_sep_to_edges_of_a_non_cover_ties_uncovered_edges(path3):
    # x2 is in neither side, so its edges x2-y1 and x2-y2 tie and land on both
    e = path3.edges
    x1 = e.mask([("x1", "y1")])
    x2 = e.mask([("x2", "y1"), ("x2", "y2")])
    assert sep_to_edges(path3, Sep(0b01, 0), "x") == Sep(x1 | x2, x2)


def test_pull_back_families(m2):
    to_y = universe_map(m2, "x", "y")
    everything = set(enumerate_seps(m2.y))
    assert to_y(Sep(0b01, 0b10)) in everything
    assert to_y(Sep(0b01, 0b10)) not in set()
    one = {Sep(0b01, 0b10)}
    hits = [s for s in enumerate_seps(m2.x, "partitions_only") if to_y(s) in one]
    assert hits == [Sep(0b01, 0b10)]


def test_pull_back_materialize(m2):
    # the preimage of one y-separation, cut below doubled order 1
    to_y = universe_map(m2, "x", "y")
    one = {Sep(0b01, 0b10)}
    low = {s for s in enumerate_seps(m2.x)
           if order_of(m2, "x", s).doubled < 1 and to_y(s) in one}
    assert low == {Sep(0b01, 0b10)}


def test_universe_map_push_forward(m2, k22):
    s = Sep(0b01, 0b10)
    image = {universe_map(m2, "x", "y")(t) for t in (s, inverse(s))}
    assert image == {Sep(0b01, 0b10), Sep(0b10, 0b01)}
    assert universe_map(k22, "x", "y")(s) == Sep(0b11, 0b11)


def test_shift_properties_random():
    import random

    from hypothesis import given, settings
    from hypothesis import strategies as st
    from sepdual import gen_random

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.data())
    def prop(seed, data):
        rng = random.Random(seed)
        g = gen_random(rng.randint(1, 6), rng.randint(1, 6),
                       rng.choice([0.3, 0.6, 0.9]), rng.randint(0, 99))
        full = g.x.full
        a = data.draw(st.integers(min_value=0, max_value=full))
        b = (full ^ a) | data.draw(st.integers(min_value=0, max_value=full))
        s = Sep(a, b)
        assert shift_side(g, inverse(s), "x") == inverse(shift_side(g, s, "x"))
        assert order_of(g, "x", s) == order_of(g, "x", inverse(s))
        shifted = shift_side(g, s, "x")
        assert shifted.a | shifted.b == g.y.full
        assert order_of(g, "y", shifted) <= order_of(g, "x", s)

    prop()
