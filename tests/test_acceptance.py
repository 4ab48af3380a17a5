"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every numeric comparison here is exact (doubled-integer order arithmetic);
the stated runtime budgets are asserted as hard ceilings.
"""

import hashlib
import itertools
import random
import time

from oracles import enumerate_seps
from sepdual import (
    BoundaryMatrix,
    HalfInt,
    Sep,
    build_system,
    check_tangle,
    disc_fixture,
    enumerate_orientations,
    enumerate_tangles,
    find_decider,
    from_edges,
    gen_planted,
    gen_random,
    inf,
    inverse,
    kernel_basis,
    norm_squared,
    order_of,
    order_side_edge_form,
    orientation_to_chain,
    shift_partition,
    shift_side,
    structural_submodularity_check,
    sup,
    sep_to_edges,
    edges_to_side,
    tangle_kernel_check,
)
from sepdual.groundset import GroundSet
from sepdual.homology import disc_lines_perpendicular, validate_decider
from sepdual.verify import corpus, report_json, run_corpus
from sepdual.bigraph import block_masks

#: sha256 of ``report_json(run_corpus())``, the shipped corpus report.
CORPUS_REPORT_SHA256 = (
    "4c561cc3c84adf5bbccdadd910287fdaa6c81d111342f803ceb38718388398d0")


def _stamp(name, t0, budget):
    dt = time.monotonic() - t0
    print(f"PASS {name} ({dt:.1f}s, budget {budget}s)")
    assert dt < budget, f"{name} exceeded its runtime budget: {dt:.1f}s"


def _random_sep(rng, n):
    a = b = 0
    for i in range(n):
        cell = rng.randrange(3)
        if cell != 1:
            a |= 1 << i
        if cell != 0:
            b |= 1 << i
    return Sep(a, b)


def _submod2(order2, r, s):
    lhs = order2(*sup(r, s)) + order2(*inf(r, s))
    if lhs > order2(*r) + order2(*s):
        return False
    si = inverse(s)
    corner = order2(*inf(r, si)) + order2(*sup(r, si))
    return corner <= order2(*r) + order2(*s)


def test_criterion_1_submodularity():
    t0 = time.monotonic()
    # (a) every pair, exhaustively, for ground sets of at most 3 elements
    small = [
        from_edges([("x1", "y1"), ("x2", "y2")]),
        from_edges([("x1", "y1"), ("x2", "y2"), ("x3", "y3")]),
        from_edges([(f"x{i}", f"y{j}") for i in (1, 2) for j in (1, 2)]),
        from_edges([(f"x{i}", f"y{j}") for i in (1, 2, 3) for j in (1, 2, 3)]),
        from_edges([("x1", "y1"), ("x2", "y1"), ("x2", "y2")]),
    ]
    for g in small:
        for universe in ("x", "y"):
            o2 = lambda a, b: order_of(g, universe, (a, b)).doubled
            seps = list(enumerate_seps(g.x if universe == "x" else g.y))
            for r, s in itertools.product(seps, repeat=2):
                assert _submod2(o2, r, s)
        if g.n_edges <= 3:
            o2 = lambda a, b: order_of(g, "e", (a, b)).doubled
            seps = list(enumerate_seps(g.edges))
            for r, s in itertools.product(seps, repeat=2):
                assert _submod2(o2, r, s)
    # (b) 10^4 random pairs per graph over 20 seeded graphs up to 6x6
    for i in range(20):
        g = gen_random(2 + i % 5, 2 + (i // 5) % 5 + (i % 2), 0.35 + 0.03 * i,
                       seed=500 + i)
        for universe, ground in (("x", g.x), ("y", g.y), ("e", g.edges)):
            o2 = lambda a, b: order_of(g, universe, (a, b)).doubled
            rng = random.Random(1000 + i)
            for _ in range(10_000 // 2):
                r = _random_sep(rng, ground.n)
                s = _random_sep(rng, ground.n)
                assert _submod2(o2, r, s)
    _stamp("criterion-1 submodularity", t0, 60)


def test_criterion_2_order_identities():
    t0 = time.monotonic()
    graphs = corpus()
    for name, g in graphs:
        for side in ("x", "y"):
            ground = g.x if side == "x" else g.y
            other = "y" if side == "x" else "x"
            for s in enumerate_seps(ground):
                o = order_of(g, side, s)
                # edge-count identity, exact
                assert order_side_edge_form(g, s, side) == o
                # shifting never increases the order
                assert order_of(g, other, shift_side(g, s, side)) <= o
                # the induced edge separation sandwich
                oe = order_of(g, "e", sep_to_edges(g, s, side))
                assert o.doubled <= oe.doubled <= 2 * o.doubled
            # the partition shift never increases the partition order
            for s in enumerate_seps(ground, "partitions_only"):
                assert (order_of(g, "b" + other, shift_partition(g, s, side))
                        <= order_of(g, "b" + side, s))
        if g.n_edges <= 10:
            for s in enumerate_seps(g.edges):
                oe = order_of(g, "e", s)
                for target in ("x", "y"):
                    back = edges_to_side(g, s, target)
                    assert order_of(g, target, back) <= oe
    _stamp("criterion-2 order identities", t0, 120)


def test_criterion_3_theorem_corpus():
    t0 = time.monotonic()
    report = run_corpus()
    assert report["summary"]["counterexamples"] == 0
    # every low-factor theorem must be exercised non-vacuously somewhere
    for theorem in ("shift_tangle", "edges_to_vtx", "vtx_to_edges",
                    "profile_shift", "profile_edges_to_vtx",
                    "profile_vtx_to_edges", "partition_shift"):
        assert report["summary"]["non_vacuous"].get(theorem, 0) >= 1, theorem
    # high-factor cases may be vacuous or capped, but must be labelled
    for case in report["cases"]:
        assert case["outcome"] in ("verified", "degenerate", "capped")
        if case["outcome"] == "verified" and case["hypothesis_count"] == 0:
            assert case["vacuous"]
        if case["outcome"] == "degenerate":
            assert case["note"], "degenerate case must explain its assumption"
    _stamp("criterion-3 theorem corpus", t0, 600)


def test_criterion_4_tangle_oracle_equivalence():
    t0 = time.monotonic()
    seen = set()
    systems = 0
    for name, g in corpus():
        universes = ["x", "y", "bx", "by"] + (["e"] if g.n_edges <= 10 else [])
        for universe in universes:
            for k2 in (1, 2, 3, 4):
                sys = build_system(g, universe, HalfInt(k2))
                key = (name, universe, tuple(sys.members))
                if len(sys) > 12 or key in seen:
                    continue
                seen.add(key)
                systems += 1
                fast = enumerate_tangles(g, universe, HalfInt(k2), system=sys)
                slow = [o for o in enumerate_orientations(sys)
                        if check_tangle(o).ok]
                assert ([o.forward for o in fast]
                        == [o.forward for o in slow]), (name, universe, k2)
    assert systems >= 50
    print(f"criterion-4 compared {systems} systems against the naive filter")
    _stamp("criterion-4 tangle oracle equivalence", t0, 600)


def test_criterion_5_fixture_counts():
    t0 = time.monotonic()
    k33 = from_edges([(f"x{i}", f"y{j}") for i in (1, 2, 3) for j in (1, 2, 3)])
    # counts derived by the in-repo naive exhaustive filter
    for k, expected in ((HalfInt(2), 1), (HalfInt.whole(3), 0)):
        sys = build_system(k33, "x", k)
        naive = [o for o in enumerate_orientations(sys) if check_tangle(o).ok]
        assert len(naive) == expected
        assert len(enumerate_tangles(k33, "x", k)) == expected

    blocks = [(3, 3), (3, 3)]
    g = gen_planted(blocks, 1.0, 0.0, 7)
    xblocks, _ = block_masks(blocks)
    tangles = enumerate_tangles(g, "bx", HalfInt(2))
    assert len(tangles) >= 2
    sys = tangles[0].system
    bmat = BoundaryMatrix(sys.ground.n, list(sys.members))
    supports = []
    for o in tangles:
        lam = orientation_to_chain(o, sys.members)
        mu = find_decider(bmat, lam)
        assert mu is not None and validate_decider(bmat, lam, mu)
        support = {i for i, v in enumerate(mu) if v}
        # the blocks partition the ground set; a decider lives inside the
        # block its tangle points to
        inside = [b for b in xblocks
                  if all(b >> i & 1 for i in support)]
        assert len(inside) == 1
        supports.append(inside[0])
    assert len(set(supports)) == 2
    _stamp("criterion-5 fixture counts", t0, 60)


def _homology_fixtures():
    m2 = from_edges([("x1", "y1"), ("x2", "y2")])
    k22 = from_edges([(f"x{i}", f"y{j}") for i in (1, 2) for j in (1, 2)])
    out = []
    for g, universe, k2 in ((m2, "x", 10), (k22, "x", 10), (k22, "e", 4)):
        sys = build_system(g, universe, HalfInt(k2))
        out.append((f"{universe}-system", sys.ground.n, list(sys.members)))
    n, parts = disc_fixture()
    out.append(("disc", n, parts))
    tri = []
    full = 0b111
    for i, j in ((0, 1), (1, 2), (0, 2)):
        rest = full & ~(1 << i) & ~(1 << j)
        tri.append(Sep(rest | 1 << i, rest | 1 << j))
    out.append(("triangle", 3, tri))
    return out


def test_criterion_6_homology_suite():
    t0 = time.monotonic()
    for position, (name, n, seps) in enumerate(_homology_fixtures()):
        B = BoundaryMatrix(n, seps)
        assert B.check_vs_duality(), name
        for j, s in enumerate(seps):
            chain = [1 if t == j else 0 for t in range(len(seps))]
            a, b = s
            assert B.inner_product(chain, chain) == n - (a & b).bit_count()
        rng = random.Random(position)  # the same chains on every run
        kb = kernel_basis(B)
        assert len(kb) == len(seps) - (len(seps) - len(kb))
        for _ in range(1000):
            x = [rng.randint(-3, 3) for _ in seps]
            ip = B.inner_product(x, x)
            if tangle_kernel_check(B, x):
                assert ip == 0
            else:
                assert ip > 0
    # modular identity, exhaustively on all 27^2 pairs of a 3-set
    ground = GroundSet(range(3))
    seps3 = list(enumerate_seps(ground))
    for r, s in itertools.product(seps3, repeat=2):
        assert (norm_squared(3, inf(r, s)) + norm_squared(3, sup(r, s))
                == norm_squared(3, r) + norm_squared(3, s))
    for k in range(0, 5):
        assert structural_submodularity_check(3, seps3, k)
    # disc: exactly the two geometrically perpendicular pairs are orthogonal
    n, parts = disc_fixture()
    B = BoundaryMatrix(n, parts)
    perp = set()
    for i in range(4):
        for j in range(i + 1, 4):
            x = [1 if t == i else 0 for t in range(4)]
            y = [1 if t == j else 0 for t in range(4)]
            if B.inner_product(x, y) == 0:
                perp.add((i, j))
            assert (B.inner_product(x, y) == 0) == disc_lines_perpendicular(i, j)
    assert len(perp) == 2
    _stamp("criterion-6 homology suite", t0, 60)


def test_criterion_7_decider_soundness():
    t0 = time.monotonic()
    successes = 0
    for name, g in corpus():
        for k2 in (1, 2, 3, 4):
            for universe in ("x", "bx"):
                sys = build_system(g, universe, HalfInt(k2))
                if not 0 < len(sys) <= 16:
                    continue
                bmat = BoundaryMatrix(sys.ground.n, list(sys.members))
                for o in enumerate_tangles(g, universe, HalfInt(k2), system=sys):
                    lam = orientation_to_chain(o, sys.members)
                    mu = find_decider(bmat, lam)
                    if mu is None:
                        continue
                    successes += 1
                    assert validate_decider(bmat, lam, mu), (name, universe, k2)
                    assert not tangle_kernel_check(bmat, lam), (name, universe, k2)
    assert successes > 0
    print(f"criterion-7 validated {successes} decider successes")
    _stamp("criterion-7 decider soundness", t0, 600)


def test_criterion_8_determinism():
    t0 = time.monotonic()
    first = report_json(run_corpus())
    second = report_json(run_corpus())
    assert first.encode() == second.encode()
    # pinned report: a change to it must update this digest and explain why
    assert hashlib.sha256(first.encode()).hexdigest() == CORPUS_REPORT_SHA256
    _stamp("criterion-8 determinism", t0, 600)
