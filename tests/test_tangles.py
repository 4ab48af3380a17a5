"""Low-order systems, tangle and profile predicates, exhaustive enumeration."""

import pytest

from sepdual import _kernels
from sepdual import (
    CapExceeded,
    HalfInt,
    Orientation,
    Sep,
    build_system,
    check_profile,
    check_regular,
    check_tangle,
    enumerate_orientations,
    enumerate_tangles,
    gen_planted,
    is_regular_profile,
    restrict,
)


def test_build_system_k33(k33):
    sys1 = build_system(k33, "x", HalfInt(2))  # k = 1
    assert sys1.members == (Sep(0, 0b111),)
    sys3 = build_system(k33, "x", 3)
    assert len(sys3.members) == 4
    assert sys3.orders2 == (0, 3, 3, 3)
    assert {m for m in sys3.members} == {
        Sep(0, 0b111), Sep(0b001, 0b111), Sep(0b010, 0b111), Sep(0b100, 0b111)}


def test_build_system_sorted_and_top_excluded(k33, path3):
    for g in (k33, path3):
        sys = build_system(g, "x", 100)
        assert list(sys.orders2) == sorted(sys.orders2)
        assert Sep(g.x.full, g.x.full) not in sys.members
        for m, o2 in zip(sys.members, sys.orders2):
            assert (m.a, m.b) <= (m.b, m.a)
            assert o2 < 200


def test_build_system_k0_empty(k33):
    assert len(build_system(k33, "x", HalfInt(0))) == 0


def test_build_system_cap():
    g = gen_planted([(7, 7), (7, 7)], 1.0, 0.0, 0)
    with pytest.raises(CapExceeded):
        build_system(g, "x", 1)
    with pytest.raises(CapExceeded):
        build_system(g, "e", 1)
    # partitions allow larger ground sets
    assert build_system(g, "bx", 1) is not None


def test_check_tangle_witnesses(k33):
    sys1 = build_system(k33, "x", HalfInt(2))
    good = Orientation(sys1, (True,))  # chooses (0, X)
    rep = check_tangle(good)
    assert rep.ok and rep.kind == "tangle"
    bad = Orientation(sys1, (False,))  # chooses (X, 0): cosmall
    rep = check_tangle(bad)
    assert not rep.ok
    assert rep.violation == (Sep(0b111, 0), Sep(0b111, 0), Sep(0b111, 0))

    sys3 = build_system(k33, "x", 3)
    allsmall = Orientation(sys3, (True,) * 4)
    rep = check_tangle(allsmall)
    assert not rep.ok
    union = rep.violation[0].a | rep.violation[1].a | rep.violation[2].a
    assert union == k33.x.full


def test_tangle_counts_k33(k33):
    assert len(enumerate_tangles(k33, "x", HalfInt(2))) == 1
    assert len(enumerate_tangles(k33, "x", 3)) == 0


def test_two_block_partition_tangles(two_blocks):
    found = enumerate_tangles(two_blocks, "bx", 1)
    assert len(found) >= 2
    blk1 = two_blocks.x.mask([f"x{i}" for i in (1, 2, 3)])
    blk2 = two_blocks.x.full ^ blk1
    pointed = {o.as_set() & {Sep(blk1, blk2), Sep(blk2, blk1)} != set()
               for o in found}
    assert pointed == {True}


def test_every_tangle_orients_bottom_forward(k33, m2, path3):
    for g in (k33, m2, path3):
        for k2 in (1, 2, 3):
            for o in enumerate_tangles(g, "x", HalfInt(k2)):
                assert Sep(0, g.x.full) in o
                assert check_regular(o)


def test_naive_oracle_agreement(m2, k22, k33, path3):
    for g in (m2, k22, k33, path3):
        for universe in ("x", "y", "bx"):
            for k2 in (1, 2, 3, 4):
                sys = build_system(g, universe, HalfInt(k2))
                if len(sys) > 12:
                    continue
                fast = enumerate_tangles(g, universe, HalfInt(k2), system=sys)
                slow = [o for o in enumerate_orientations(sys)
                        if check_tangle(o).ok]
                assert [o.forward for o in fast] == [o.forward for o in slow]


def test_naive_oracle_agreement_profiles(k22, path3):
    for g in (k22, path3):
        for k2 in (1, 2, 3, 4):
            sys = build_system(g, "x", HalfInt(k2))
            if len(sys) > 12:
                continue
            fast = enumerate_tangles(g, "x", HalfInt(k2),
                                     kind="regular_profile", system=sys)
            slow = [o for o in enumerate_orientations(sys)
                    if is_regular_profile(o)]
            assert [o.forward for o in fast] == [o.forward for o in slow]


def test_profile_engine_matches_naive_across_corpus():
    from sepdual.verify import corpus

    compared = 0
    for name, g in corpus():
        for universe in ("x", "e"):
            if universe == "e" and g.n_edges > 10:
                continue
            for k2 in (1, 2, 3):
                sys = build_system(g, universe, HalfInt(k2))
                if not 0 < len(sys) <= 10:
                    continue
                compared += 1
                fast = enumerate_tangles(g, universe, HalfInt(k2),
                                         kind="regular_profile", system=sys)
                slow = [o for o in enumerate_orientations(sys)
                        if is_regular_profile(o)]
                assert ([o.forward for o in fast]
                        == [o.forward for o in slow]), (name, universe, k2)
    assert compared >= 30


def test_tangles_are_regular_profiles(k33, path3, two_blocks):
    for g, universe in ((k33, "x"), (path3, "x"), (two_blocks, "bx")):
        for k2 in (1, 2, 3):
            for o in enumerate_tangles(g, universe, HalfInt(k2)):
                assert is_regular_profile(o)


def test_restrict(k33):
    sys3 = build_system(k33, "x", 3)
    o = enumerate_tangles(k33, "x", 3, kind="regular_profile")[0]
    assert restrict(o, 3).forward == o.forward
    r0 = restrict(o, HalfInt(0))
    assert len(r0.forward) == 0
    r1 = restrict(o, HalfInt(2))
    assert r1.system.members == (Sep(0, 0b111),)
    assert check_profile(r1).ok


def test_restriction_of_tangle_is_tangle(path3, k22):
    for g in (k22, path3):
        for o in enumerate_tangles(g, "x", HalfInt(4)):
            for k2 in (1, 2, 3):
                assert check_tangle(o.restrict(HalfInt(k2))).ok


def test_profile_checks(k33):
    sys3 = build_system(k33, "x", 3)
    # orient a singleton-cosmall member backwards: (X, {x1}) is not regular
    forward = [not (m == Sep(0b001, 0b111)) for m in sys3.members]
    o = Orientation(sys3, tuple(forward))
    assert not check_regular(o)


def test_profile_consistency_violation(path3):
    # nested partitions on the path: ({x1},{x2}) <= ({x1},{x2}) variants
    sys = build_system(path3, "x", 10)
    idx = {m: i for i, m in enumerate(sys.members)}
    small = Sep(0b01, 0b10)     # ({x1},{x2})
    bigger = Sep(0b01, 0b11)    # ({x1},X) <= ({x1},{x2})? check nesting pair
    assert small in idx and bigger in idx
    forward = [True] * len(sys.members)
    # choose (B1,A1) = inverse(bigger) and (A2,B2) = small with bigger <= small
    forward[idx[bigger]] = False
    o = Orientation(sys, tuple(forward))
    rep = check_profile(o)
    assert not rep.ok


def test_member_cap(two_blocks):
    with pytest.raises(CapExceeded):
        enumerate_tangles(two_blocks, "x", 100, member_cap=5)


def test_orientation_contains(k33):
    sys3 = build_system(k33, "x", 3)
    o = Orientation(sys3, (True,) * 4)
    assert Sep(0, 0b111) in o
    assert Sep(0b111, 0) not in o
    assert Sep(0b011, 0b100) not in o  # not a member at this threshold


def test_dump_deterministic(k33):
    a = enumerate_tangles(k33, "x", HalfInt(2))[0].dump_json()
    b = enumerate_tangles(k33, "x", HalfInt(2))[0].dump_json()
    assert a == b
    assert '"universe": "x"' in a


def test_scan_sorted_and_complete():
    masks = [0b011, 0b110, 0b101]
    got = _kernels.scan_members(masks, 3)
    assert got == sorted(got)
    assert len(got) == (3**3 - 1) // 2
    parts = _kernels.scan_members(masks, 3, True)
    assert len(parts) == 2**3 // 2
