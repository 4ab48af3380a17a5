"""Order functions: frozen values, symmetry, submodularity, identities."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerate_seps, order_edge_oracle, order_side_oracle, sep_sets
from sepdual import _kernels
from sepdual import (
    CoverViolation,
    HalfInt,
    NotAPartition,
    Sep,
    SideMismatch,
    gen_random,
    inf,
    inverse,
    order_of,
    order_side_edge_form,
    sup,
)


class TestHalfInt:
    def test_formatting(self):
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(4)) == "2"
        assert float(HalfInt(3)) == 1.5

    def test_comparisons(self):
        assert HalfInt(3) < HalfInt(4)
        assert HalfInt(4) == 2
        assert HalfInt(3) < 2
        assert HalfInt.whole(2).doubled == 4

    def test_hash_agrees_with_equality(self):
        # equal values hash equal, so membership works in both directions
        for n in (0, 1, 2, 7, 10**20):
            assert HalfInt.whole(n) == n and hash(HalfInt.whole(n)) == hash(n)
            assert n in {HalfInt.whole(n)} and HalfInt.whole(n) in {n}
            assert {n: "int"}[HalfInt.whole(n)] == "int"
        # a half-integer equals no int and is found only as itself
        assert HalfInt(3) in {HalfInt(3)} and HalfInt(3) not in {1, 2}
        assert 1 not in {HalfInt(3)} and 2 not in {HalfInt(3)}
        assert len({HalfInt(4), 2, HalfInt.whole(2), HalfInt(3)}) == 2

    def test_comparisons_with_negative_ints(self):
        # compared by value; building HalfInt(-2) would raise ValueError
        for v in (HalfInt(0), HalfInt(1), HalfInt(2)):
            assert not v == -1 and v != -1
            assert not v < -1 and not v <= -1 and v > -1 and v >= -1
            assert -1 < v and -1 != v and not -1 == v
        assert HalfInt(1) != 0 and HalfInt(1) > 0 and HalfInt(0) == 0

    def test_arithmetic(self):
        assert (HalfInt(1) * 4).doubled == 4
        assert (HalfInt(1) + HalfInt(2)).doubled == 3

    def test_no_negative(self):
        with pytest.raises(ValueError):
            HalfInt(-1)


def test_order_side_frozen_values(m2, k22, k33):
    # derived from the per-vertex counting oracle
    assert order_of(m2, "x", Sep(0b01, 0b10)) == HalfInt(0)
    assert order_of(k22, "x", Sep(0b01, 0b10)) == HalfInt.whole(2)
    assert order_of(k33, "x", Sep(0, 0b111)) == HalfInt(0)
    assert order_of(k33, "x", Sep(0b001, 0b111)) == HalfInt(3)  # 3/2


def test_order_side_matches_oracle_everywhere(m2, k22, k33, path3):
    for g in (m2, k22, k33, path3):
        for s in enumerate_seps(g.x):
            A, B = sep_sets(g.x, s)
            expected = order_side_oracle(g, A, B, "x")
            assert Fraction(order_of(g, "x", s).doubled, 2) == expected


def test_order_side_symmetry(k33, path3):
    for g in (k33, path3):
        for s in enumerate_seps(g.x):
            assert order_of(g, "x", s) == order_of(g, "x", inverse(s))


def test_edge_form_identity(m2, k22, k33, path3):
    for g in (m2, k22, k33, path3):
        for side in ("x", "y"):
            ground = g.x if side == "x" else g.y
            for s in enumerate_seps(ground):
                assert order_side_edge_form(g, s, side) == order_of(g, side, s)


def test_edge_form_frozen_examples(m2, k22, k33):
    assert order_side_edge_form(m2, Sep(0b01, 0b10), "x") == HalfInt(0)
    assert order_side_edge_form(k22, Sep(0b01, 0b10), "x") == HalfInt.whole(2)
    assert order_side_edge_form(k33, Sep(0, 0b111), "x") == HalfInt(0)


def test_order_edge_values(m2):
    e = m2.edges
    s = Sep(e.mask([("x1", "y1")]), e.mask([("x2", "y2")]))
    assert order_of(m2, "e", s) == HalfInt(0)
    assert order_of(m2, "e", Sep(e.full, e.full)) == HalfInt.whole(m2.n_edges)
    assert order_of(m2, "e", Sep(0, e.full)) == HalfInt(0)


def test_order_edge_matches_oracle(m2, path3):
    for g in (m2, path3):
        for s in enumerate_seps(g.edges):
            C = set(g.edges.members(s.a))
            D = set(g.edges.members(s.b))
            expected = order_edge_oracle(g, C, D)
            assert Fraction(order_of(g, "e", s).doubled, 2) == expected


def test_order_partition(k22, two_blocks):
    assert order_of(k22, "bx", Sep(0b01, 0b10)) == HalfInt.whole(2)
    assert order_of(k22, "bx", Sep(0, k22.x.full)) == HalfInt(0)
    blk = 0b000111
    rest = two_blocks.x.full ^ blk
    assert order_of(two_blocks, "bx", Sep(blk, rest)) == HalfInt(0)
    with pytest.raises(NotAPartition):
        order_of(k22, "bx", Sep(0b01, 0b11))


def test_order_partition_consistent_with_side(k33, path3):
    for g in (k33, path3):
        for s in enumerate_seps(g.x, "partitions_only"):
            assert order_of(g, "bx", s) == order_of(g, "x", s)


def test_maximum_at_top(k33, m2, path3):
    for g in (k33, m2, path3):
        top = order_of(g, "x", Sep(g.x.full, g.x.full))
        for s in enumerate_seps(g.x):
            assert order_of(g, "x", s) <= top


def test_order_of_dispatch(k22):
    assert order_of(k22, "x", Sep(0b01, 0b10)).doubled == 4
    assert order_of(k22, "bx", Sep(0b01, 0b10)).doubled == 4
    assert order_of(k22, "e", Sep(0, k22.edges.full)).doubled == 0


def _submodular_ok(g, side, r, s):
    o = lambda t: order_of(g, side, t).doubled
    if o(sup(r, s)) + o(inf(r, s)) > o(r) + o(s):
        return False
    # corner convention from the proof: cross r with the inverse of s
    si = inverse(s)
    return o(inf(r, si)) + o(sup(r, si)) <= o(r) + o(s)


def test_submodularity_exhaustive_small(m2, k22, path3):
    for g in (m2, k22, path3):
        seps = list(enumerate_seps(g.x))
        for r, s in itertools.product(seps, repeat=2):
            assert _submodular_ok(g, "x", r, s)


def test_edge_submodularity_exhaustive_m2(m2):
    o = lambda t: order_of(m2, "e", t).doubled
    seps = list(enumerate_seps(m2.edges))
    for r, s in itertools.product(seps, repeat=2):
        assert o(sup(r, s)) + o(inf(r, s)) <= o(r) + o(s)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.data())
def test_submodularity_random(seed, data):
    rng = random.Random(seed)
    g = gen_random(rng.randint(2, 6), rng.randint(2, 6), rng.choice([0.4, 0.7]),
                   rng.randint(0, 999))
    full = g.x.full
    draw_mask = lambda: data.draw(st.integers(min_value=0, max_value=full))
    r = Sep(draw_mask(), 0)
    r = Sep(r.a, (full ^ r.a) | draw_mask())
    s = Sep(draw_mask(), 0)
    s = Sep(s.a, (full ^ s.a) | draw_mask())
    assert _submodular_ok(g, "x", r, s)


def test_mask_validation(k22):
    with pytest.raises(SideMismatch):
        order_of(k22, "x", Sep(1 << 9, k22.x.full))


def test_order_of_refuses_sides_that_do_not_cover(k22):
    with pytest.raises(CoverViolation, match="do not cover"):
        order_of(k22, "x", Sep(0b01, 0))


def test_edge_form_refuses_an_unknown_side(k22):
    with pytest.raises(SideMismatch, match="side must be 'x' or 'y', got 'bx'"):
        order_side_edge_form(k22, Sep(0b01, 0b10), "bx")


def test_order2_empty_masks():
    assert _kernels.order2([], 5, 3) == 0
