"""Separation calculus: construction, involution, order, lattice laws."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import enumerate_seps
from sepdual import (
    CapExceeded,
    CoverViolation,
    GroundSet,
    Sep,
    SepdualError,
    SideMismatch,
    canonical,
    from_edges,
    inf,
    inverse,
    leq,
    make_sep,
    order_of,
    shift_partition,
    shift_side,
    sup,
)
from sepdual.shifts import universe_map

V2 = GroundSet(["v1", "v2"])
V3 = GroundSet(["v1", "v2", "v3"])


def test_make_sep_partition_flag():
    s = make_sep(V2, 0b01, 0b10)
    assert s.is_partition()
    assert s.middle == 0


def test_make_sep_small_separation():
    s = make_sep(V2, 0, V2.full)
    assert s == Sep(0, 3)
    assert s.is_partition()


def test_make_sep_cover_violation():
    with pytest.raises(CoverViolation):
        make_sep(V2, 0b01, 0b01)


def test_make_sep_cover_violation_names_edges_as_reports_do():
    edges = GroundSet([("x1", "y1"), ("x1", "y3")])
    with pytest.raises(CoverViolation, match=r"missing \['x1--y3'\]$"):
        make_sep(edges, 0b01, 0b01)


def test_names_read_back_exactly_as_printed():
    edges = GroundSet([("a--b", "g1"), ("c", "g1"), ("c", "d--g1")])
    for mask in range(edges.full + 1):
        assert edges.named(edges.names(mask)) == mask
    with pytest.raises(SideMismatch, match="'a--b' not in ground set"):
        edges.named(["a--b"])
    with pytest.raises(SideMismatch, match="label 'a--b' not in ground set"):
        edges.mask(["a--b"])
    doubled = GroundSet([("a--b", "g1"), ("a", "b--g1"), ("c", "g1")])
    assert doubled.named(["c--g1"]) == 0b100
    with pytest.raises(SideMismatch, match="'a--b--g1' is printed by 2"):
        doubled.named(["a--b--g1"])


def test_inverse_involution():
    for s in (Sep(0, 3), Sep(1, 2), Sep(0b011, 0b110)):
        assert inverse(inverse(s)) == s
    assert inverse(Sep(0, 3)) == Sep(3, 0)
    assert inverse(Sep(1, 2)) == Sep(2, 1)


def test_leq_examples():
    assert leq(Sep(0, V3.full), Sep(0b011, 0b100))
    assert leq(Sep(0b001, 0b110), Sep(0b011, 0b100))
    assert not leq(Sep(0b001, 0b110), Sep(0b010, 0b101))


def test_sup_inf_examples():
    bottom = Sep(0, V3.full)
    s = Sep(0b011, 0b100)
    assert sup(bottom, s) == s
    assert sup(Sep(0b001, 0b110), Sep(0b010, 0b101)) == Sep(0b011, 0b100)
    assert inf(Sep(0b001, 0b110), Sep(0b010, 0b101)) == Sep(0, 0b111)


def test_enumerate_counts():
    assert len(list(enumerate_seps(GroundSet(["a"])))) == 3
    assert len(list(enumerate_seps(V2, "partitions_only"))) == 4
    assert len(list(enumerate_seps(V3))) == 27


def test_enumerate_unique_and_valid():
    seen = set(enumerate_seps(V3))
    assert len(seen) == 27
    for s in seen:
        assert s.a | s.b == V3.full


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_seps(GroundSet(range(13))))
    with pytest.raises(CapExceeded):
        list(enumerate_seps(GroundSet(range(21)), "partitions_only"))
    # explicit cap overrides the default
    assert len(list(enumerate_seps(GroundSet(range(3)), cap=3))) == 27


def test_canonical_idempotent_and_pairing():
    seps = list(enumerate_seps(V3))
    for s in seps:
        assert canonical(canonical(s)) == canonical(s)
        assert canonical(s) == canonical(inverse(s))
    canon = {canonical(s) for s in seps}
    # (3^n - 1)/2 inverse pairs plus the self-inverse (X, X)
    assert len(canon) == (27 - 1) // 2 + 1
    assert Sep(V3.full, V3.full) in canon


def test_involution_reverses_order_exhaustively():
    seps = list(enumerate_seps(V3))
    for r, s in itertools.product(seps, repeat=2):
        assert leq(r, s) == leq(inverse(s), inverse(r))


def test_lattice_laws_exhaustive_n3():
    seps = list(enumerate_seps(V3))
    full = V3.full
    for r, s in itertools.product(seps, repeat=2):
        assert sup(r, s) == sup(s, r)
        assert inf(r, s) == inf(s, r)
        assert sup(r, s).a | sup(r, s).b == full
        assert inf(r, s).a | inf(r, s).b == full
        # absorption
        assert sup(r, inf(r, s)) == r
        assert inf(r, sup(r, s)) == r
    for r in seps:
        assert sup(r, r) == r and inf(r, r) == r
    trip = seps[::5]
    for r, s, t in itertools.product(trip, repeat=3):
        assert sup(r, sup(s, t)) == sup(sup(r, s), t)
        assert inf(r, inf(s, t)) == inf(inf(r, s), t)


def test_partitions_closed_under_lattice_ops():
    parts = list(enumerate_seps(V3, "partitions_only"))
    for r, s in itertools.product(parts, repeat=2):
        assert sup(r, s).is_partition()
        assert inf(r, s).is_partition()


@st.composite
def sep_pair(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    full = (1 << n) - 1

    def one():
        a = draw(st.integers(min_value=0, max_value=full))
        b = (full ^ a) | draw(st.integers(min_value=0, max_value=full))
        return Sep(a, b)

    return one(), one()


@given(sep_pair())
def test_order_reversal_property(pair):
    r, s = pair
    assert leq(r, s) == leq(inverse(s), inverse(r))


@given(sep_pair())
def test_sup_is_least_upper_bound(pair):
    r, s = pair
    hi = sup(r, s)
    lo = inf(r, s)
    assert leq(r, hi) and leq(s, hi)
    assert leq(lo, r) and leq(lo, s)


def _outcome(fn, *args):
    """The result of ``fn``, or the type of the library error it raises."""
    try:
        return fn(*args)
    except SepdualError as exc:
        return type(exc)


def test_helpers_accept_plain_pairs():
    """A plain (a, b) pair works wherever a Sep does; separations come back as Sep."""
    seps = list(enumerate_seps(V3))
    for s in seps:
        pair = (s[0], s[1])
        assert type(pair) is tuple
        for fn in (inverse, canonical):
            out = fn(pair)
            assert type(out) is Sep and out == fn(s)
        for r in seps:
            rpair = (r[0], r[1])
            assert leq(rpair, pair) == leq(r, s)
            for fn in (sup, inf):
                out = fn(rpair, pair)
                assert type(out) is Sep and out == fn(r, s)

    # three X vertices and three edges, so the same masks serve both grounds
    g = from_edges([("x1", "y1"), ("x2", "y1"), ("x3", "y2")])
    assert g.x.n == g.n_edges == 3
    orders = [lambda s, u=u: order_of(g, u, s) for u in ("x", "bx", "e")]
    shifts = [lambda s: shift_side(g, s, "x"),
              lambda s: shift_partition(g, s, "x")]
    shifts += [universe_map(g, src, dst) for src, dst in (
        ("x", "y"), ("x", "e"), ("bx", "by"), ("e", "x"), ("e", "y"))]
    for s in seps:
        pair = (s[0], s[1])
        for fn in orders:
            assert _outcome(fn, pair) == _outcome(fn, s)
        for fn in shifts:
            out = _outcome(fn, pair)
            assert out == _outcome(fn, s)
            assert type(out) is Sep or issubclass(out, SepdualError)
