"""Order functions: frozen values, symmetry, submodularity, identities."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    enumerate_seps,
    order2_by_definition,
    order_edge_oracle,
    order_side_oracle,
    sep_sets,
)
from sepdual import _kernels
from sepdual import (
    BipartiteGraph,
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
from sepdual.orders import UNIVERSES, universe_context
from sepdual.verify import corpus, run_corpus


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
        # another type is unequal, and an order against it is refused
        assert (HalfInt(2) == "a") is False
        with pytest.raises(TypeError, match="cannot interpret 'a'"):
            HalfInt(2) < "a"

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
        with pytest.raises(TypeError, match="stores a doubled integer"):
            HalfInt("a")


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


def test_edge_form_identity_at_queries_size():
    """The edge form equals ``order_of`` at the sizes the queries benchmark
    uses (16-32 vertices a side, 100-400 edges), on separations whose sides
    overlap and on partitions.  The second graph keeps x0, x1 and y0 out of
    every edge, so it has isolated vertices on both sides."""
    rng = random.Random(23)
    graphs = []
    for nx, ny, m, isolated in ((16, 16, 100, False), (16, 32, 100, True),
                                (24, 28, 250, False), (32, 32, 400, False)):
        slots = [s for s in range(nx * ny)
                 if not (isolated and (s // ny < 2 or s % ny == 0))]
        edges = [(f"x{s // ny}", f"y{s % ny}") for s in rng.sample(slots, m)]
        graphs.append(BipartiteGraph([f"x{i}" for i in range(nx)],
                                     [f"y{j}" for j in range(ny)], edges))
    assert 0 in graphs[1].adj_x and 0 in graphs[1].adj_y
    tied = 0
    for g in graphs:
        for side in ("x", "y"):
            full = (g.x if side == "x" else g.y).full
            seps = []
            for overlap in (3, 1):  # about 1 in 8, and 1 in 2, in both sides
                for _ in range(40):
                    first = rng.getrandbits(full.bit_length())
                    both = full
                    for _ in range(overlap):
                        both &= rng.getrandbits(full.bit_length())
                    seps.append(Sep(first | both, (full ^ first) | both))
            for _ in range(40):
                part = rng.getrandbits(full.bit_length())
                seps.append(Sep(part, full ^ part))
            masks = g.adj_y if side == "x" else g.adj_x
            for s in seps:
                want = order_of(g, side, s)
                assert order_side_edge_form(g, s, side) == want
                assert order_side_edge_form(g, inverse(s), side) == want
                tied += sum(m != 0 and (m & s.a).bit_count() == (m & s.b).bit_count()
                            for m in masks)
    # the tie rule is exercised beyond the isolated vertices
    assert tied > 1000


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
    assert _kernels.order2([], 5, 3, 0) == 0


def _covering_seps(rng, n):
    """Separations of an n-set whose sides cover it: overlapping ones, about
    1 in 8 and 1 in 2 elements in both sides, partitions, and the three
    extremes (full, full), (full, 0) and (0, full)."""
    full = (1 << n) - 1
    seps = [(full, full), (full, 0), (0, full)]
    for overlap in (3, 1, None):
        for _ in range(6):
            first = rng.getrandbits(n)
            both = 0
            if overlap is not None:
                both = full
                for _ in range(overlap):
                    both &= rng.getrandbits(n)
            seps.append((first | both, (full ^ first) | both))
    return seps


def test_order2_identity_matches_definition():
    """The kernel's imbalance form equals the three-count definition on
    covering sides: seeded mask lists over n = 0..12 and at queries size
    (16-32 masks over 100-400 elements), with empty masks, elements in no
    mask and repeated masks."""
    rng = random.Random(2024)
    shapes = [(n, rng.randrange(9)) for n in range(13) for _ in range(8)]
    shapes += [(rng.randint(100, 400), rng.randint(16, 32)) for _ in range(16)]
    seen = {"empty": 0, "unused": 0, "repeated": 0}
    for trial, (n, count) in enumerate(shapes):
        masks = [rng.getrandbits(n) for _ in range(count)]
        if trial % 4 == 1 and n >= 100:  # sparse, like incident-edge sets
            masks = [m & rng.getrandbits(n) & rng.getrandbits(n) for m in masks]
        if trial % 4 == 2 and masks:
            masks[rng.randrange(len(masks))] = 0
        if trial % 4 == 3 and masks:
            unused = rng.getrandbits(n)
            masks = [m & ~unused for m in masks]
            masks += masks[: rng.randrange(1, len(masks) + 1)]
        union = 0
        for m in masks:
            union |= m
        seen["empty"] += 0 in masks
        seen["unused"] += union != (1 << n) - 1
        seen["repeated"] += len(set(masks)) < len(masks)
        total = sum(m.bit_count() for m in masks)
        for a, b in _covering_seps(rng, n):
            assert _kernels.order2(masks, a, b, total) == order2_by_definition(
                masks, a, b), (n, masks, a, b)
    assert min(seen.values()) >= 10, seen


def _checked_order2(calls):
    """``_kernels.order2`` behind a check of its precondition: the sides
    cover every mask and ``total`` is the sum of the mask sizes."""
    order2 = _kernels.order2

    def checked(masks, a, b, total):
        assert all(m & ~(a | b) == 0 for m in masks), (a, b)
        assert total == sum(m.bit_count() for m in masks), total
        calls.append(len(masks))
        return order2(masks, a, b, total)

    return checked


def test_order2_callers_meet_the_cover_precondition(monkeypatch):
    """Every caller passes covering sides and the total incidence: a corpus
    run on three graphs, and ``order_of`` on the five universes of a
    queries-size graph.  Non-covering sides are refused before the kernel."""
    calls = []
    monkeypatch.setattr(_kernels, "order2", _checked_order2(calls))
    graphs = dict(corpus())
    run_corpus(graphs=[(name, graphs[name])
                       for name in ("k33", "cycle10", "blocks-2-3")])
    g = gen_random(24, 28, 0.35, 24)
    assert 100 <= g.n_edges <= 400
    rng = random.Random(24)
    before = len(calls)
    for universe in UNIVERSES:
        masks, ground, partitions_only = universe_context(g, universe)
        n, full = ground.n, ground.full
        seps = [(p, full ^ p) for p in (rng.getrandbits(n) for _ in range(6))]
        if not partitions_only:
            seps += _covering_seps(rng, n)
        for a, b in seps:
            assert order_of(g, universe, Sep(a, b)).doubled == order2_by_definition(
                masks, a, b)
        reached = len(calls)
        for a, b in ((full ^ 1, full ^ 1), (full ^ 1, 0), (0, full >> 1)):
            with pytest.raises(CoverViolation):
                order_of(g, universe, Sep(a, b))
        assert len(calls) == reached  # refused before the kernel
    assert len(calls) - before == 2 * 6 + 3 * (6 + 3 + 18)
