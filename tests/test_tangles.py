"""Low-order systems, tangle and profile predicates, exhaustive enumeration."""

import gc
import random
import sys
import tracemalloc
from itertools import combinations

import pytest

from oracles import (
    all_seps_of,
    enumerate_seps,
    order2_by_definition,
    order_edge_oracle,
    order_partition_oracle,
    order_side_oracle,
    recursive_search,
)
from sepdual import _kernels, tangles
from sepdual import (
    BipartiteGraph,
    CapExceeded,
    GroundSet,
    HalfInt,
    LowOrderSystem,
    Orientation,
    Sep,
    build_system,
    check_profile,
    check_regular,
    check_tangle,
    enumerate_orientations,
    enumerate_tangles,
    from_dict,
    gen_planted,
    gen_random,
    is_regular_profile,
)
from sepdual.orders import UNIVERSES, order_of, universe_context
from sepdual.tangles import DEFAULT_MEMBER_CAP, kept_images, kept_system, max_order2
from sepdual.verify import corpus, even_cycle, run_corpus, run_theorem


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
            a, b = m
            assert (a, b) <= (b, a)
            assert o2 < 200


def test_members_are_untracked_int_pairs():
    g = even_cycle(5)
    assert g.n_edges == 10  # the default edge cap
    sys = build_system(g, "e", 10**6)
    assert len(sys) == (3**10 - 1) // 2
    members = sys.members  # decoded on first read, untracked by the next collection
    gc.collect()
    for m in members:
        assert type(m) is tuple and len(m) == 2
        assert type(m[0]) is int and type(m[1]) is int
        assert not gc.is_tracked(m)
    # one int object per mask, shared by all members
    assert len({id(v) for m in sys.members for v in m}) <= 2**10


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
    with pytest.raises(ValueError, match="one choice per member"):
        Orientation(sys3, (True,) * 3)


def test_tangle_counts_k33(k33):
    assert len(enumerate_tangles(k33, "x", HalfInt(2))) == 1
    assert len(enumerate_tangles(k33, "x", 3)) == 0
    with pytest.raises(ValueError, match="got 'profile'"):
        enumerate_tangles(k33, "x", 3, kind="profile")


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
        for universe in UNIVERSES:
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


def _hand_built_system(rng):
    """A system of 2-6 random distinct canonical members over 2-4 elements,
    top separation excluded, in random order, and its graph; a fresh
    prefix record each time so none carries over between systems."""
    n = rng.randint(2, 4)
    full = (1 << n) - 1
    g = BipartiteGraph(range(n), [], [])
    seps = set()
    for a in range(full + 1):
        for b in range(full + 1):
            if a | b == full and (a, b) <= (b, a) and (a, b) != (full, full):
                seps.add(Sep(a, b))
    members = tuple(rng.sample(sorted(seps), min(len(seps), rng.randint(2, 6))))
    return g, LowOrderSystem.from_members("x", g.x, members)


def test_search_matches_naive_on_hand_built_systems():
    """Random member lists (any subset, any order) reach a pruning clause
    that the scanned systems of the other tests never need: a chosen pair
    closing on the next member."""
    rng = random.Random(20260418)
    for _ in range(3000):
        g, sys = _hand_built_system(rng)
        for kind, ok in (("tangle", lambda o: check_tangle(o).ok),
                         ("regular_profile", is_regular_profile)):
            fast = enumerate_tangles(g, "x", 0, kind=kind, system=sys)
            slow = [o for o in enumerate_orientations(sys) if ok(o)]
            assert ([o.forward for o in fast]
                    == [o.forward for o in slow]), (sys.members, kind)


def test_tangles_are_regular_profiles(k33, path3, two_blocks):
    """Every tangle is a regular profile: on three fixtures and on every
    corpus universe, at every threshold within the member cap, the tangle
    search finds exactly the regular profiles that pass ``check_tangle``,
    in the same order.  So both step kinds of the one walk agree."""
    cases = [(k33, "x"), (path3, "x"), (two_blocks, "bx")]
    cases += [(g, space.name) for _, g, space in _corpus_universes()]
    thresholds = fewer = 0  # thresholds searched; those with a non-tangle profile
    for g, universe in cases:
        cumulative = tangles._Universe.of(g, universe).counts()
        for k2 in range(1, len(cumulative)):
            if cumulative[k2] > DEFAULT_MEMBER_CAP:
                break
            found = enumerate_tangles(g, universe, HalfInt(k2))
            profiles = enumerate_tangles(g, universe, HalfInt(k2), "regular_profile")
            assert all(is_regular_profile(o) for o in found)
            assert ([o.forward for o in found]
                    == [o.forward for o in profiles if check_tangle(o).ok]), (
                        universe, k2)
            thresholds += 1
            fewer += len(found) < len(profiles)
    assert thresholds >= 1000 and fewer >= 100


def test_restrict(k33):
    sys3 = build_system(k33, "x", 3)
    o = enumerate_tangles(k33, "x", 3, kind="regular_profile")[0]
    assert o.system.members == sys3.members
    assert o.restrict(3).forward == o.forward
    r0 = o.restrict(HalfInt(0))
    assert len(r0.forward) == 0
    r1 = o.restrict(HalfInt(2))
    assert r1.system.members == (Sep(0, 0b111),)
    assert check_profile(r1).ok
    # the threshold is a query: S_2 has the same 4 members as S_3 ...
    assert o.restrict(HalfInt(4)) == o and hash(o.restrict(2)) == hash(o)
    # ... and S_{7/2} has more, which an orientation of 4 members cannot give
    assert len(build_system(k33, "x", HalfInt(7))) == 10
    with pytest.raises(ValueError, match="10 members, more than the 4"):
        o.restrict(HalfInt(7))


def test_restriction_of_tangle_is_tangle(path3, k22):
    for g in (k22, path3):
        for o in enumerate_tangles(g, "x", HalfInt(4)):
            for k2 in (1, 2, 3):
                assert check_tangle(o.restrict(HalfInt(k2))).ok


def test_restrictions_are_the_results_of_the_smaller_system():
    """A system is its universe's prefix, so every result at k2 restricts,
    without error, to every j2 whose prefix is no longer, and the restriction
    equals (and hashes like) a result of the search at j2; a longer prefix
    raises."""
    graphs = dict(corpus())
    checked = raised = 0
    for name in ("k33", "cycle8", "blocks-2-3", "random-3x3-p07-s105",
                 "random-4x4-p05-s126"):
        g = graphs[name]
        # every universe within the ground caps
        for universe in [u for u in UNIVERSES if u != "e" or g.n_edges <= 10]:
            top = max_order2(g, universe)
            counts = [len(build_system(g, universe, HalfInt(j2)))
                      for j2 in range(top + 3)]
            for kind in ("tangle", "regular_profile"):
                for k2 in range(1, top + 3):
                    try:
                        found = enumerate_tangles(g, universe, HalfInt(k2), kind)
                    except CapExceeded:
                        continue
                    for j2, count in enumerate(counts):
                        if count > counts[k2]:
                            for o in found:
                                with pytest.raises(ValueError):
                                    o.restrict(HalfInt(j2))
                                raised += 1
                            continue
                        below = enumerate_tangles(g, universe, HalfInt(j2), kind)
                        for o in found:
                            r = o.restrict(HalfInt(j2))
                            same = [t for t in below if t == r]
                            assert len(same) == 1, (name, universe, kind, k2, j2)
                            assert hash(same[0]) == hash(r) and r in set(below)
                            checked += 1
    assert checked >= 1000 and raised >= 100


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
    # no system fits under a negative cap, so it trips on the empty one
    with pytest.raises(CapExceeded, match="over member cap -1"):
        enumerate_tangles(two_blocks, "x", 100, member_cap=-1)


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


def _scan_triples(masks, n, partitions_only=False, below=None):
    """``scan_members`` decoded into (order2, a, b) triples."""
    full = (1 << n) - 1
    return [(k >> 2 * n, k >> n & full, k & full)
            for k in _kernels.scan_members(masks, n, partitions_only, below)]


def _assert_counted_and_bounded(masks, n, partitions_only, expected):
    """``order_counts`` is the histogram of the expected (order2, a, b)
    triples, and the scan below t is the expected list cut at order t, for
    every t from 0 to two past the top order."""
    by_order = {}
    for o, _, _ in expected:
        by_order[o] = by_order.get(o, 0) + 1
    assert _kernels.order_counts(masks, n, partitions_only) == by_order, (
        n, masks, partitions_only)
    top = max(by_order, default=0)
    for t in range(top + 3):
        assert (_scan_triples(masks, n, partitions_only, below=t)
                == [e for e in expected if e[0] < t]), (n, masks, partitions_only, t)


def test_scan_sorted_and_complete():
    masks = [0b011, 0b110, 0b101]
    keys = _kernels.scan_members(masks, 3)
    assert keys == sorted(keys)
    got = _scan_triples(masks, 3)
    assert got == sorted(got)
    assert len(got) == (3**3 - 1) // 2
    parts = _scan_triples(masks, 3, True)
    assert len(parts) == 2**3 // 2


def _scan_by_definition(masks, n, partitions_only):
    mode = "partitions_only" if partitions_only else "all_separations"
    ground = GroundSet(range(n))
    return sorted((order2_by_definition(masks, s.a, s.b), s.a, s.b)
                  for s in enumerate_seps(ground, mode) if s.a < s.b)


def test_scan_matches_definition_on_random_masks():
    """Seeded mask lists over n = 0..8: empty lists, elements in no mask,
    repeated masks, and both modes; the count by order and every bounded
    scan too."""
    rng = random.Random(20211)
    for n in range(9):
        for trial in range(12 if n < 7 else 3):
            full = (1 << n) - 1
            masks = [rng.randrange(full + 1) for _ in range(rng.randrange(6))]
            if trial % 3 == 1 and n:
                unused = 1 << rng.randrange(n)  # an element in no mask
                masks = [m & ~unused for m in masks]
            if trial % 3 == 2 and masks:
                masks += masks[: rng.randrange(1, len(masks) + 1)]
            for partitions_only in (False, True):
                expected = _scan_by_definition(masks, n, partitions_only)
                assert _scan_triples(masks, n, partitions_only) == expected, (
                    n, masks, partitions_only)
                _assert_counted_and_bounded(masks, n, partitions_only, expected)
    # incidence-shaped lists, where the scan's per-level step cache hits: the
    # incident-edge masks of a random bipartite graph with up to 10 edges,
    # so every element lies in exactly two masks
    for trial in range(40):
        nx, ny = rng.randint(1, 4), rng.randint(1, 4)
        pairs = [(x, y) for x in range(nx) for y in range(ny)]
        edges = rng.sample(pairs, min(len(pairs), rng.randint(1, 10)))
        n = len(edges)
        masks = [sum(1 << j for j, e in enumerate(edges) if e[side] == v)
                 for side, count in ((0, nx), (1, ny)) for v in range(count)]
        for partitions_only in (False, True):
            expected = _scan_by_definition(masks, n, partitions_only)
            assert _scan_triples(masks, n, partitions_only) == expected, (
                n, masks, partitions_only)
            _assert_counted_and_bounded(masks, n, partitions_only, expected)


def test_scan_matches_label_set_oracles():
    """One graph with a tie-rich cycle and an isolated vertex, every universe,
    scored by the label-set oracles instead of the mask kernels; the count
    by order and every bounded scan too."""
    g = BipartiteGraph(["x1", "x2", "x3"], ["y1", "y2", "y3", "y4"],
                       [("x1", "y1"), ("x1", "y2"), ("x2", "y2"), ("x2", "y3"),
                        ("x3", "y3"), ("x3", "y1")])
    for universe in UNIVERSES:
        masks, ground, partitions_only = universe_context(g, universe)
        expected = []
        for A, B in all_seps_of(ground.labels):
            if partitions_only:
                if A & B:
                    continue
                o = 2 * order_partition_oracle(g, A, B, universe[1])
            elif universe == "e":
                o = 2 * order_edge_oracle(g, A, B)
            else:
                o = 2 * order_side_oracle(g, A, B, universe)
            a, b = ground.mask(A), ground.mask(B)
            if a < b:
                expected.append((int(o), a, b))
        expected.sort()
        assert _scan_triples(masks, ground.n, partitions_only) == expected
        _assert_counted_and_bounded(masks, ground.n, partitions_only, expected)


def _copy(g):
    return from_dict(g.to_dict())


def _scanned(g, universe):
    """Whether the universe's kept state holds its scan."""
    space = g._cache.get(universe)
    return space is not None and space.keys is not None


def _prefix(system, k):
    """The system of ``system``'s universe at threshold k, read through the
    restriction of an orientation of ``system``."""
    return Orientation(system, (True,) * len(system)).restrict(k).system


def test_systems_are_slices_of_one_scan(m2, k22, k33, path3):
    for g in (m2, k22, k33, path3):
        for universe in UNIVERSES:
            top = max_order2(g, universe)
            largest = build_system(g, universe, HalfInt(top + 2))
            for k2 in range(1, top + 3):
                sys = build_system(g, universe, HalfInt(k2))
                n = len(sys)
                assert n <= len(largest)
                assert all(a is b for a, b in zip(sys.members, largest.members))
                assert sys.orders2 == largest.orders2[:n]
                assert all(o < k2 for o in sys.orders2)
                assert n == len(largest) or largest.orders2[n] >= k2
                sub = _prefix(largest, HalfInt(k2))
                assert sub.members == sys.members
                assert sub.orders2 == sys.orders2


def test_systems_share_member_objects_in_any_read_order(k33, path3):
    """Descending reads slice the decoded prefix, ascending reads extend
    it; either way every system's members are the same pair objects."""
    for g in (k33, path3):
        for universe in UNIVERSES:
            top = max_order2(g, universe)
            down, up = range(top + 2, 0, -1), range(1, top + 3)
            for k2s in ([*down, *up], [*up, *down]):
                fresh = _copy(g)
                read = [build_system(fresh, universe, HalfInt(k2)).members
                        for k2 in k2s]
                longest = max(read, key=len)
                assert len(longest) == len(fresh._cache[universe].keys)
                for members in read:
                    assert all(a is b for a, b in zip(members, longest))


def test_max_order2_of_partition_universes(m2, k22, k33, path3, two_blocks):
    for g in (m2, k22, k33, path3, two_blocks):
        for universe, ground in (("bx", g.x), ("by", g.y)):
            assert max_order2(g, universe) == max(
                order_of(g, universe, s).doubled
                for s in enumerate_seps(ground, "partitions_only"))


def test_max_order2_holds_partition_universes_to_the_ground_cap():
    xs = [f"x{i}" for i in range(30)]
    g = BipartiteGraph(xs, ["y"], [(x, "y") for x in xs])
    with pytest.raises(CapExceeded) as built:
        build_system(g, "bx", 1)
    with pytest.raises(CapExceeded) as top:
        max_order2(g, "bx")
    assert str(top.value) == str(built.value)
    assert not _scanned(g, "bx")
    # the top separation needs no scan, however small the universe
    assert max_order2(g, "x") == 30 and max_order2(g, "y") == 30
    assert not _scanned(g, "x") and not _scanned(g, "y")
    assert max_order2(g, "by") == 0


def test_max_order2_evaluated_once_per_universe(k33, monkeypatch):
    calls = []
    order2 = _kernels.order2
    monkeypatch.setattr(_kernels, "order2",
                        lambda *args: calls.append(args) or order2(*args))
    for universe in UNIVERSES:
        first = max_order2(k33, universe)
        assert max_order2(k33, universe) == first
    assert not calls  # the top separation's order is in closed form
    assert [max_order2(k33, u) for u in ("x", "y", "e")] == [
        k33.n_edges, k33.n_edges, 2 * k33.n_edges]
    assert not any(_scanned(k33, u) for u in ("x", "y", "e"))
    assert all(_scanned(k33, u) for u in ("bx", "by"))


def test_max_order2_matches_definition_across_corpus():
    for name, g in corpus():
        for universe in ("x", "y", "e"):
            masks, ground, _ = universe_context(g, universe)
            full = ground.full
            assert max_order2(g, universe) == order2_by_definition(
                masks, full, full), (name, universe)


def test_search_results_independent_of_call_order(m2, k22, k33, path3):
    """Ascending calls meet levels above an empty prefix, descending calls
    search large systems first; both must match the naive filter."""
    above_empty = 0
    for g in (m2, k22, k33, path3):
        for universe in UNIVERSES:
            for kind in ("tangle", "regular_profile"):
                ok = ((lambda o: check_tangle(o).ok) if kind == "tangle"
                      else is_regular_profile)
                seen = {}
                for k2s in (range(1, 9), range(8, 0, -1)):
                    fresh = _copy(g)
                    empty_below = None
                    for k2 in k2s:
                        sys = build_system(fresh, universe, HalfInt(k2))
                        if len(sys) > DEFAULT_MEMBER_CAP:
                            with pytest.raises(CapExceeded):
                                enumerate_tangles(fresh, universe, HalfInt(k2),
                                                  kind=kind, system=sys)
                            continue
                        got = [o.forward for o in enumerate_tangles(
                            fresh, universe, HalfInt(k2), kind=kind, system=sys)]
                        assert seen.setdefault(k2, got) == got, (universe, kind, k2)
                        if len(sys) <= 12:
                            slow = [o.forward for o in enumerate_orientations(sys)
                                    if ok(o)]
                            assert got == slow, (universe, kind, k2)
                            if empty_below is not None and len(sys) > empty_below:
                                above_empty += 1
                        if not got and empty_below is None:
                            empty_below = len(sys)
    assert above_empty >= 10


def _under_cap(g, universe, cap=DEFAULT_MEMBER_CAP):
    """S_j of ``g``'s universe: its largest system of at most ``cap`` members."""
    space = tangles._Universe.of(g, universe)
    return LowOrderSystem(space, max(c for c in space.counts() if c <= cap))


def test_member_cap_checked_before_empty_prefix(k33):
    """An over-cap system is settled from S_j, the largest system within the
    cap, whatever the record holds: a fresh graph and one whose record holds
    an empty prefix give the same answer.  With cap 5, S_j is k33's 4-member
    x-system, which has no tangle, so S_{7/2} has none either; with cap 1 it
    is the 1-member system, which has one, so the cap trips."""
    fresh = _copy(k33)
    assert len(_under_cap(fresh, "x", 5)) == 4
    assert enumerate_tangles(fresh, "x", HalfInt(7), member_cap=5) == []
    message = "system has 10 members, over member cap 1"
    with pytest.raises(CapExceeded, match=message):
        enumerate_tangles(_copy(k33), "x", HalfInt(7), member_cap=1)
    assert enumerate_tangles(k33, "x", HalfInt(4)) == []
    assert enumerate_tangles(k33, "x", HalfInt(7), member_cap=5) == []
    with pytest.raises(CapExceeded, match=message):
        enumerate_tangles(k33, "x", HalfInt(7), member_cap=1)
    # and the search of all 10 members agrees
    assert enumerate_tangles(_copy(k33), "x", HalfInt(7), member_cap=10) == []


def test_capped_system_is_never_decoded():
    """cycle10's edge system at k2 = 32 trips the member cap, directly and
    as the hypothesis of a theorem: S_j, its first 11 members, has a tangle.
    Neither decodes a member past S_j."""
    g = even_cycle(5)
    with pytest.raises(CapExceeded, match="over member cap 24"):
        enumerate_tangles(g, "e", HalfInt(32))
    assert len(g._cache["e"].pairs) == len(_under_cap(g, "e")) == 11
    g = even_cycle(5)
    case = run_theorem("cor_double_shift_edges", g, 4)  # hypothesis at k2 = 32
    assert case.outcome == "capped" and "over member cap 24" in case.note
    assert len(g._cache["e"].pairs) == 11


def test_empty_prefix_recorded_on_system_graph(m2, k22):
    k = HalfInt(3)
    expected = [o.forward for o in enumerate_tangles(_copy(k22), "e", k)]
    assert len(expected) == 1
    # m2's e-system at this threshold (4 members) has no tangle ...
    assert enumerate_tangles(m2, "e", k) == []
    # ... which says nothing about k22's larger system passed with g=m2
    got = enumerate_tangles(m2, "e", k, system=build_system(k22, "e", k))
    assert [o.forward for o in got] == expected
    # an empty search of m2's system is recorded on m2, not on the g argument
    other = _copy(k22)
    assert enumerate_tangles(other, "e", k, system=build_system(_copy(m2), "e", k)) == []
    assert [o.forward for o in enumerate_tangles(other, "e", k)] == expected


def test_memo_keyed_by_universe_keeps_systems_only_through_kept_system(k33):
    for universe in UNIVERSES:
        for kind in ("tangle", "regular_profile"):
            enumerate_tangles(k33, universe, HalfInt(2), kind=kind)
    assert sorted(k33._cache) == sorted(UNIVERSES)
    # build_system and enumerate_tangles keep no system (the cache holds one
    # entry per universe name only); every search they ran is in its
    # universe's record
    for universe, space in k33._cache.items():
        n = len(build_system(k33, universe, HalfInt(2)))
        assert sorted(space.record) == [(n, "regular_profile"), (n, "tangle")]
    sys = kept_system(k33, "e", 3)
    assert kept_system(k33, "e", 3) is sys
    # a kept system is keyed by its member count: S_{3/2} and S_2 are one
    assert len(sys) == len(build_system(k33, "e", HalfInt(4))) == 10
    assert kept_system(k33, "e", 4) is sys
    assert k33._cache["e", 10] is sys and sys.space is k33._cache["e"]
    assert sorted(map(str, k33._cache)) == sorted([*UNIVERSES, str(("e", 10))])
    assert sys.members == build_system(k33, "e", HalfInt(3)).members
    with pytest.raises(ValueError):
        max_order2(k33, "z")
    assert "z" not in k33._cache


def test_scan_keys_are_an_array_unless_a_key_needs_more_bits(k33, monkeypatch):
    space = tangles._Universe.of(_copy(k33), "e")
    keys = space.listed(space.count_below(10**6))  # every member
    masks, ground, _ = universe_context(k33, "e")
    assert keys.typecode == "q"
    assert list(keys) == _kernels.scan_members(masks, ground.n, False)
    assert len(tangles._Universe.of(_copy(k33), "x").listed(0)) == 13
    wide = [5, 1 << 63]
    monkeypatch.setattr(_kernels, "scan_members", lambda *args: wide)
    assert tangles._Universe.of(_copy(k33), "x").listed(0) is wide


def test_large_universe_is_counted_and_listed_only_as_far_as_read():
    """cycle10's edge universe (29,524 members) after a corpus run: every
    threshold the verifier asks for is counted exactly, but only the members
    its searches read are listed."""
    g = even_cycle(5)
    run_corpus(graphs=[("cycle10", g)])
    space = g._cache["e"]
    assert not space.small
    thresholds = (1, 2, 3, 4, 6, 8, 16, 24, 32)
    counts = [1, 1, 11, 11, 216, 1316, 28188, 29524, 29524]
    # systems are kept per member count, one for each count asked for
    assert {key[1] for key in g._cache
            if isinstance(key, tuple) and key[0] == "e"} == set(counts)
    assert [space.count_below(k2) for k2 in thresholds] == counts
    assert len(space.keys) < 29524
    masks, ground, _ = universe_context(g, "e")
    full = _kernels.scan_members(masks, ground.n)
    assert list(space.keys) == full[:len(space.keys)]


def test_universe_at_the_boundary_is_listed_in_full_on_first_need(monkeypatch):
    """The largest universes of at most ``LIST_MAX`` members (a 6-element
    side, a 10-element partition universe) are scanned whole by their first
    count, without the kernel's count; one element more and they are counted,
    and listed only when read."""
    assert (3**6 - 1) // 2 <= tangles.LIST_MAX < (3**7 - 1) // 2
    assert 2**9 <= tangles.LIST_MAX < 2**10
    monkeypatch.setattr(_kernels, "order_counts", None)
    for nx, universe, size in ((6, "x", 364), (10, "bx", 512)):
        g = gen_random(nx, 4, 0.6, 3)
        build_system(g, universe, HalfInt(1))
        space = g._cache[universe]
        assert space.small and len(space.keys) == size
    monkeypatch.undo()
    for nx, universe, size in ((7, "x", 1093), (11, "bx", 1024)):
        g = gen_random(nx, 4, 0.6, 3)
        space = tangles._Universe.of(g, universe)
        assert space.count_below(10**6) == size and space.keys is None
        members = build_system(g, universe, HalfInt(3)).members
        assert 0 < len(space.keys) < size
        assert members == space.members(len(members))


def test_rising_reads_list_by_doubling():
    """Reads of rising thresholds on a large universe rescan below a
    threshold that at least doubles the keys, or list every member once
    that is past half; every listing is a prefix of the full scan."""
    g = even_cycle(5)
    masks, ground, _ = universe_context(g, "e")
    full = _kernels.scan_members(masks, ground.n)
    space = tangles._Universe.of(g, "e")
    lengths = [0]
    for k2 in range(1, 34):
        count = len(build_system(g, "e", HalfInt(k2)).members)
        keys = space.keys
        assert count <= len(keys) and list(keys) == full[:len(keys)]
        if len(keys) != lengths[-1]:
            assert (len(keys) in space.counts()
                    and (len(keys) >= 2 * lengths[-1] or len(keys) == len(full)))
            assert len(keys) == len(full) or 2 * len(keys) <= len(full)
            lengths.append(len(keys))
    assert lengths[-1] == len(full) and len(lengths) > 3


def test_kept_images_keep_earlier_entries(k33, two_blocks):
    """A longer read extends the table: the entries of a shorter read are
    the same objects, and each is made from the shared member pairs."""
    for g, source, dest in ((k33, "x", "y"), (k33, "e", "x"),
                            (two_blocks, "bx", "by")):
        total = len(build_system(g, source, HalfInt(max_order2(g, source) + 1)))
        short = kept_images(g, source, dest, 3)
        longer = kept_images(g, source, dest, 10)
        whole = kept_images(g, source, dest, total + 5)
        assert (len(short), len(longer), len(whole)) == (3, 10, total) and total > 10
        assert all(a is b for a, b in zip(short, longer))
        assert all(a is b for a, b in zip(longer, whole))
        assert g._cache[source].images[dest] == whole


def test_universe_context_looked_up_once_per_universe(monkeypatch):
    """However many systems, top orders, kept systems and searches are asked
    for, each (graph, universe) looks up its context once, and every system
    holds that universe's one kept object."""
    calls = []
    lookup = tangles.universe_context
    monkeypatch.setattr(tangles, "universe_context",
                        lambda g, u: calls.append((id(g), u)) or lookup(g, u))
    graphs = [gen_random(3, 3, 0.6, seed) for seed in range(2)]
    for g in graphs:
        for universe in UNIVERSES:
            for k2 in range(1, 6):
                systems = [build_system(g, universe, HalfInt(k2)),
                           kept_system(g, universe, k2)]
                systems.append(_prefix(systems[0], HalfInt(k2 - 1)))
                assert all(s.space is g._cache[universe] for s in systems)
                max_order2(g, universe)
                for kind in ("tangle", "regular_profile"):
                    try:
                        found = enumerate_tangles(g, universe, HalfInt(k2), kind)
                    except CapExceeded:
                        continue
                    assert all(o.system.space is g._cache[universe] for o in found)
    assert sorted(calls) == sorted((id(g), u) for g in graphs for u in UNIVERSES)


def test_prefix_record_is_keyed_by_member_count_and_kind(k33, monkeypatch):
    searched = []
    search = tangles._search
    monkeypatch.setattr(tangles, "_search",
                        lambda *args: searched.append(args[1]) or search(*args))
    # S_k over x has 4 members at doubled thresholds 4, 5 and 6
    assert {len(build_system(k33, "x", HalfInt(k2))) for k2 in (4, 5, 6)} == {4}
    for kind in ("tangle", "regular_profile"):
        first = enumerate_tangles(k33, "x", HalfInt(4), kind=kind)
        for k2 in (5, 6):
            sys = build_system(k33, "x", HalfInt(k2))
            hit = enumerate_tangles(k33, "x", HalfInt(k2), kind=kind, system=sys)
            assert [o.forward for o in hit] == [o.forward for o in first]
            assert all(o.system is sys for o in hit)
        # over the cap, S_j (1 member) is searched and recorded under its
        # own count; it has a result, so the cap trips
        with pytest.raises(CapExceeded, match="4 members, over member cap 3"):
            enumerate_tangles(k33, "x", HalfInt(4), kind=kind, member_cap=3)
    assert searched == ["tangle", "tangle", "regular_profile", "regular_profile"]
    record = k33._cache["x"].record
    assert sorted(record) == [(1, "regular_profile"), (1, "tangle"),
                              (4, "regular_profile"), (4, "tangle")]
    assert record[4, "regular_profile"] == tuple(o.forward for o in first)


@pytest.mark.parametrize("seed", range(4))
def test_resumed_search_equals_fresh_search(seed, monkeypatch):
    """Ascending, descending and shuffled thresholds on one graph each: a
    search resumed from what the graph's record holds must list the same
    results in the same order as a search of a fresh copy and, up to 12
    members, as the naive filter.  Over the member cap, a call raises
    exactly when S_j of a fresh copy has a result, and its ``[]`` otherwise
    is the uncapped search of a fresh copy."""
    prefixes = []
    search = tangles._search
    monkeypatch.setattr(tangles, "_search",
                        lambda *args: prefixes.append(args[2]) or search(*args))
    g = gen_random(4, 4, 0.6, seed)
    k2s = list(range(1, 13))
    shuffled = k2s[:]
    random.Random(seed).shuffle(shuffled)
    fresh, naive = {}, {}
    for order in (k2s, k2s[::-1], shuffled):
        shared = _copy(g)
        for universe in UNIVERSES:
            for kind in ("tangle", "regular_profile"):
                for k2 in order:
                    sys = build_system(shared, universe, HalfInt(k2))
                    key = (universe, kind, len(sys))
                    if key not in fresh:
                        h = _copy(g)
                        if len(sys) > DEFAULT_MEMBER_CAP and enumerate_tangles(
                                h, universe, 0, kind, system=_under_cap(h, universe)):
                            fresh[key] = None  # S_j has a result: the cap trips
                        else:
                            fresh[key] = [o.forward for o in enumerate_tangles(
                                _copy(g), universe, HalfInt(k2), kind,
                                member_cap=10**9)]
                    if fresh[key] is None:
                        with pytest.raises(CapExceeded):
                            enumerate_tangles(shared, universe, 0, kind, system=sys)
                        continue
                    got = enumerate_tangles(shared, universe, 0, kind, system=sys)
                    assert all(o.system is sys for o in got)
                    got = [o.forward for o in got]
                    assert got == fresh[key], (order, key)
                    if len(sys) <= 12:
                        ok = ((lambda o: check_tangle(o).ok) if kind == "tangle"
                              else is_regular_profile)
                        if key not in naive:
                            naive[key] = [o.forward for o in
                                          enumerate_orientations(sys) if ok(o)]
                        assert got == naive[key], (order, key)
    over = [v for (_, _, count), v in fresh.items() if count > DEFAULT_MEMBER_CAP]
    assert None in over and [] in over  # both answers over the cap
    assert sum(m > 0 for m in prefixes) >= 20  # resumed from a non-empty prefix


def test_decoding_pools_only_the_masks_it_decodes():
    """A 20-edge universe has 2^20 masks; decoding its 1,751 members of
    order below 7/2 allocates for the masks they use, not for all of them."""
    g = gen_planted([(4, 5)], 1.0, 0.0, 7)
    sys7 = build_system(g, "e", HalfInt(7), cap=20)
    assert (g.n_edges, len(sys7)) == (20, 1751)
    sys7.space.listed(len(sys7))  # the scan is not what is measured
    tracemalloc.start()
    try:
        members = sys7.members
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(members) == 1751
    assert peak < 4 * 2**20, f"decoding peaked at {peak} bytes"
    assert len(sys7.space.pool) <= 2 * 1751


def _deep_system():
    """1,251 canonical members over 25 elements: every separation (a, b)
    with at most 2 elements in a.  Each member (c, full) points to c, since
    its inverse points away from everything, and those cover the at most two
    elements an inverse (b, a) misses: as a tangle's triple (b, {e}, {f}), as
    a profile's corner, since the inverted supremum of (b, a) and ({e},
    full) is the chosen (a, full).  So the one tangle and the one regular
    profile point every member to its small side."""
    ground = GroundSet(range(25))
    full = ground.full
    members, small_first = [], []
    for size in (0, 1, 2):
        for elements in combinations(range(25), size):
            a = sum(1 << e for e in elements)
            for kept in range(1 << size):  # the elements of a that b holds
                b = full ^ a | sum(1 << e for j, e in enumerate(elements)
                                   if kept >> j & 1)
                members.append((a, b) if a <= b else (b, a))
                small_first.append(a <= b)
    return LowOrderSystem.from_members("x", ground, members), tuple(small_first)


@pytest.mark.parametrize("kind", ["tangle", "regular_profile"])
def test_search_deeper_than_the_recursion_limit(kind):
    system, small_first = _deep_system()
    assert len(system) == 1251 > sys.getrecursionlimit()
    found = enumerate_tangles(None, "x", 0, kind, member_cap=len(system),
                              system=system)
    assert [o.forward for o in found] == [small_first]


def test_naive_generator_deeper_than_the_recursion_limit():
    system, _ = _deep_system()
    first = next(enumerate_orientations(system))
    assert first.system is system
    assert first.forward == (True,) * 1251


def test_naive_generator_order():
    """Member 0 varies slowest, and each member is oriented forward first."""
    ground = GroundSet(range(2))
    system = LowOrderSystem.from_members("x", ground, [(0, 3), (1, 3), (2, 3)])
    T, F = True, False
    assert [o.forward for o in enumerate_orientations(system)] == [
        (T, T, T), (T, T, F), (T, F, T), (T, F, F),
        (F, T, T), (F, T, F), (F, F, T), (F, F, F)]


def _corpus_universes():
    """(name, graph, ``_Universe``) of every corpus universe within the
    default ground caps."""
    for name, g in corpus():
        for universe in UNIVERSES:
            space = tangles._Universe.of(g, universe)
            try:
                space.check_ground_cap()
            except CapExceeded:
                continue
            yield name, g, space


def _orders(values, rng):
    """Ascending, descending and shuffled, so that searches resume from the
    prefix record in every way it can be filled."""
    values = list(values)
    return values, values[::-1], rng.sample(values, len(values))


def _with_both_searches(monkeypatch, run, prefixes):
    """``run()`` under the package's search, then under the recursive
    reference ``oracles.recursive_search``; each search's resume point is
    appended to ``prefixes``."""
    got = []
    for search in (tangles._search, recursive_search):
        monkeypatch.setattr(tangles, "_search",
                            lambda *args, search=search: prefixes.append(args[2])
                            or search(*args))
        got.append(run())
    monkeypatch.undo()
    return got


@pytest.mark.parametrize("kind", ["tangle", "regular_profile"])
def test_search_equals_recursive_reference_on_corpus(kind, monkeypatch):
    """Every corpus universe at every threshold of at most 128 members, in
    three threshold orders: the same results in the same order as the
    reference."""
    rng, prefixes = random.Random(17), []
    for name, g, space in _corpus_universes():
        cumulative = space.counts()
        k2s = [k2 for k2 in range(1, len(cumulative)) if cumulative[k2] <= 128]
        for order in _orders(k2s, rng):
            def run():
                h = _copy(g)
                return [[o.forward for o in enumerate_tangles(
                    h, space.name, HalfInt(k2), kind, member_cap=128)]
                    for k2 in order]
            new, reference = _with_both_searches(monkeypatch, run, prefixes)
            assert new == reference, (name, space.name, order)
    assert sum(m > 0 for m in prefixes) >= 100  # resumed from a non-empty prefix


@pytest.mark.parametrize("kind", ["tangle", "regular_profile"])
def test_search_equals_recursive_reference_in_shuffled_order(kind, monkeypatch):
    """A scanned system starts with (∅, full), whose union slots add
    nothing to a tangle test; in shuffled order any member comes first.  So
    for every corpus universe, its first members (at most 32) shuffled and
    searched at every prefix length, in three orders: the same results as
    the reference."""
    rng, prefixes = random.Random(17), []
    for name, g, space in _corpus_universes():
        count = max(c for c in space.counts() if c <= 32)
        members = rng.sample(space.members(count), count)
        for order in _orders(range(1, count + 1), rng):
            def run():
                shuffled = LowOrderSystem.from_members(space.name, space.ground,
                                                       members).space
                return [[o.forward for o in enumerate_tangles(
                    None, space.name, 0, kind, member_cap=32,
                    system=LowOrderSystem(shuffled, c))] for c in order]
            new, reference = _with_both_searches(monkeypatch, run, prefixes)
            assert new == reference, (name, space.name, members, order)
    assert sum(m > 0 for m in prefixes) >= 100
