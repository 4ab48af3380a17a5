"""Chains, boundaries, duality, inner products, kernels, and deciders."""

import itertools
import math
import random

import pytest

from oracles import enumerate_seps
from sepdual import (
    BoundaryMatrix,
    HalfInt,
    InversePairPresent,
    Sep,
    build_system,
    disc_fixture,
    enumerate_tangles,
    find_decider,
    inf,
    inverse,
    kernel_basis,
    norm_squared,
    orientation_to_chain,
    structural_submodularity_check,
    sup,
    tangle_kernel_check,
)
from sepdual.groundset import GroundSet
from sepdual.homology import (
    disc_lines_perpendicular,
    modular_identity_holds,
    validate_decider,
)


def edge_sep(i, j, n):
    """The separation of an n-set whose strict sides are {i} and {j}."""
    full = (1 << n) - 1
    rest = full & ~(1 << i) & ~(1 << j)
    return Sep(rest | 1 << i, rest | 1 << j)


def test_boundary_of_oriented_pair():
    B = BoundaryMatrix(2, [Sep(0b01, 0b10)])
    # boundary of ({a},{b}) is b - a
    assert B.boundary([1]) == [-1, 1]


def test_boundary_zero_for_all_middle():
    B = BoundaryMatrix(2, [Sep(0b11, 0b11)])
    assert B.boundary([1]) == [0, 0]


def test_boundary_linearity():
    s = Sep(0b011, 0b110)
    B = BoundaryMatrix(3, [s])
    assert B.boundary([2]) == [2 * v for v in B.boundary([1])]
    B2 = BoundaryMatrix(3, [s, Sep(0b001, 0b110)])
    x = B2.boundary([1, 1])
    assert x == [a + b for a, b in zip(B2.boundary([1, 0]), B2.boundary([0, 1]))]


def test_inverse_pair_rejected():
    with pytest.raises(InversePairPresent):
        BoundaryMatrix(2, [Sep(0b01, 0b10), Sep(0b10, 0b01)])
    with pytest.raises(ValueError):
        BoundaryMatrix(2, [Sep(0b01, 0b10), Sep(0b01, 0b10)])


def test_graph_encoding_matches_simplicial_boundary():
    # triangle on three vertices encoded as separations
    tri = [edge_sep(0, 1, 3), edge_sep(1, 2, 3), edge_sep(0, 2, 3)]
    B = BoundaryMatrix(3, tri)
    rows = B.rows()
    assert rows == [[-1, 0, -1], [1, -1, 0], [0, 1, 1]]


def test_check_vs_duality(k33, m2):
    for g, universe, k2 in ((m2, "x", 10), (k33, "x", 4)):
        sys = build_system(g, universe, HalfInt(k2))
        B = BoundaryMatrix(sys.ground.n, list(sys.members))
        assert B.check_vs_duality()
    assert BoundaryMatrix(3, []).check_vs_duality()


def test_sign_table_by_columns():
    B = BoundaryMatrix(3, [Sep(0b011, 0b110), Sep(0b001, 0b010)])
    assert B.columns == ((-1, 0, 1), (-1, 1, 0))
    assert B.rows() == [[-1, -1], [0, 1], [1, 0]]
    assert B.entry(2, 0) == 1 and B.entry(2, 1) == 0
    assert BoundaryMatrix(3, []).rows() == [[], [], []]


def test_check_vs_duality_sees_a_flipped_sign(monkeypatch):
    """The check evaluates both maps, so a coboundary that disagrees with
    the boundary in one sign fails it."""
    B = BoundaryMatrix(3, [Sep(0b011, 0b110), Sep(0b001, 0b010)])
    assert B.check_vs_duality()
    honest = BoundaryMatrix.coboundary

    def flipped(self, phi):
        out = honest(self, phi)
        out[1] = -out[1]
        return out

    monkeypatch.setattr(BoundaryMatrix, "coboundary", flipped)
    assert not B.check_vs_duality()


def test_chain_and_cochain_lengths_are_checked():
    B = BoundaryMatrix(3, [Sep(0b001, 0b110), Sep(0b011, 0b100)])
    with pytest.raises(ValueError, match="^chain length"):
        B.boundary([1])
    with pytest.raises(ValueError, match="^chain length"):
        B.inner_product([1, 0, 0], [1, 0])
    with pytest.raises(ValueError, match="^cochain length"):
        B.coboundary([1, 0])


def test_inner_product_partition_values():
    n = 5
    full = (1 << n) - 1
    s = Sep(0b00011, full ^ 0b00011)
    B = BoundaryMatrix(n, [s])
    assert B.inner_product([1], [1]) == n
    assert B.inner_product([1], [-1]) == -n


def test_inner_product_crossing_zero():
    # four points, one per quadrant of two symmetrically crossing partitions
    x = Sep(0b0011, 0b1100)
    y = Sep(0b0101, 0b1010)
    B = BoundaryMatrix(4, [x, y])
    assert B.inner_product([1, 0], [0, 1]) == 0


def test_inner_product_symmetric_bilinear():
    rng = random.Random(7)
    ground = GroundSet(range(4))
    seps = [s for s in enumerate_seps(ground)][:6]
    B = BoundaryMatrix(4, seps)
    for _ in range(50):
        x = [rng.randint(-3, 3) for _ in seps]
        y = [rng.randint(-3, 3) for _ in seps]
        z = [rng.randint(-3, 3) for _ in seps]
        assert B.inner_product(x, y) == B.inner_product(y, x)
        xz = [a + b for a, b in zip(x, z)]
        assert (B.inner_product(xz, y)
                == B.inner_product(x, y) + B.inner_product(z, y))


def test_norm_squared():
    assert norm_squared(5, Sep(0b00111, 0b11000)) == 5
    assert norm_squared(3, Sep(0b111, 0b111)) == 0
    s = Sep(0b011011, 0b110110)
    assert norm_squared(6, s) == 6 - 2
    B = BoundaryMatrix(6, [s])
    assert B.inner_product([1], [1]) == norm_squared(6, s)


def test_modular_identity_exhaustive_n3():
    ground = GroundSet(range(3))
    seps = list(enumerate_seps(ground))
    for r, s in itertools.product(seps, repeat=2):
        assert modular_identity_holds(3, r, s)


def test_kernel_duplicate_boundary():
    # same strict sides {0} and {1}: equal columns (the first pair is a
    # hypergraph-style edge that leaves element 2 untouched)
    a = Sep(0b001, 0b010)
    b = Sep(0b101, 0b110)
    B = BoundaryMatrix(3, [a, b])
    assert B.entry(0, 0) == B.entry(0, 1) == -1
    assert B.entry(1, 0) == B.entry(1, 1) == 1
    basis = kernel_basis(B)
    assert basis == [[1, -1]]


def test_kernel_triangle_cycle():
    tri = [edge_sep(0, 1, 3), edge_sep(1, 2, 3), edge_sep(0, 2, 3)]
    B = BoundaryMatrix(3, tri)
    basis = kernel_basis(B)
    assert len(basis) == 1
    v = basis[0]
    assert tangle_kernel_check(B, v)
    assert sorted(map(abs, v)) == [1, 1, 1]


def test_kernel_independent_columns():
    B = BoundaryMatrix(3, [Sep(0b001, 0b110), Sep(0b011, 0b100)])
    assert kernel_basis(B) == []


def _rank(rows):
    """Rank of an integer matrix, by elimination without division."""
    rows, rank = [list(r) for r in rows], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [p * a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_kernel_basis_is_primitive_and_complete_on_random_matrices():
    """Every basis vector is a cycle with coprime entries and a positive
    leading entry, and the |S| - rank(B) vectors are independent."""
    rng = random.Random(4000)
    for _ in range(1000):
        n = rng.randint(1, 7)
        seps = []
        for _ in range(rng.randint(0, 14)):
            s = Sep(rng.randrange(1 << n), rng.randrange(1 << n))
            if s not in seps and inverse(s) not in seps:
                seps.append(s)
        B = BoundaryMatrix(n, seps)
        basis = kernel_basis(B)
        assert len(basis) == len(seps) - _rank(B.rows()) == _rank(basis)
        for v in basis:
            assert tangle_kernel_check(B, v)
            assert math.gcd(*v) == 1 and next(x for x in v if x) > 0


def test_kernel_vectors_orthogonal_to_everything():
    rng = random.Random(3)
    ground = GroundSet(range(4))
    seps = [s for s in enumerate_seps(ground) if s.a < s.b][:8]
    B = BoundaryMatrix(4, seps)
    for v in kernel_basis(B):
        assert tangle_kernel_check(B, v)
        for _ in range(20):
            y = [rng.randint(-2, 2) for _ in seps]
            assert B.inner_product(v, y) == 0


def test_positive_definite_off_kernel():
    rng = random.Random(9)
    ground = GroundSet(range(4))
    seps = [s for s in enumerate_seps(ground) if s.a < s.b][:8]
    B = BoundaryMatrix(4, seps)
    for _ in range(200):
        x = [rng.randint(-3, 3) for _ in seps]
        if tangle_kernel_check(B, x):
            assert B.inner_product(x, x) == 0
        else:
            assert B.inner_product(x, x) > 0


def test_structural_submodularity_full_lattice():
    ground = GroundSet(range(3))
    seps = list(enumerate_seps(ground))
    for k in range(0, 4):
        assert structural_submodularity_check(3, seps, k)


def test_structural_submodularity_large_k_trivial():
    ground = GroundSet(range(3))
    seps = list(enumerate_seps(ground))
    assert structural_submodularity_check(3, seps, 10)


def test_structural_submodularity_requires_closure():
    with pytest.raises(ValueError):
        structural_submodularity_check(
            3, [Sep(0b001, 0b110), Sep(0b010, 0b101)], 5)


def test_disc_orthogonality():
    n, parts = disc_fixture()
    assert n == 8 and len(parts) == 4
    for s in parts:
        assert s.is_partition()
        assert s.a.bit_count() == 4
    B = BoundaryMatrix(n, parts)
    for i in range(4):
        for j in range(i + 1, 4):
            x = [1 if t == i else 0 for t in range(4)]
            y = [1 if t == j else 0 for t in range(4)]
            ip = B.inner_product(x, y)
            if disc_lines_perpendicular(i, j):
                assert ip == 0
            else:
                assert ip != 0
    assert sum(disc_lines_perpendicular(i, j)
               for i in range(4) for j in range(i + 1, 4)) == 2


def test_orientation_to_chain(k33):
    sys = build_system(k33, "x", 3)
    tangles = enumerate_tangles(k33, "x", HalfInt(2))
    o = tangles[0]
    B = BoundaryMatrix(3, list(o.system.members))
    lam = orientation_to_chain(o, o.system.members)
    assert lam == [1]
    with pytest.raises(ValueError):
        orientation_to_chain(o, sys.members)  # o does not orient all of S_3


def test_m2_tangle_not_a_cycle(m2):
    tangles = enumerate_tangles(m2, "x", HalfInt(1))
    assert len(tangles) == 2
    for o in tangles:
        B = BoundaryMatrix(2, list(o.system.members))
        lam = orientation_to_chain(o, o.system.members)
        assert not tangle_kernel_check(B, lam)


def test_opposite_duplicate_columns_cycle():
    a = Sep(0b001, 0b010)
    b = Sep(0b101, 0b110)
    B = BoundaryMatrix(3, [a, b])
    assert tangle_kernel_check(B, [1, -1])


def test_find_decider_m2(m2):
    sys = build_system(m2, "x", HalfInt(1))
    for o in enumerate_tangles(m2, "x", HalfInt(1)):
        B = BoundaryMatrix(2, list(sys.members))
        lam = orientation_to_chain(o, sys.members)
        mu = find_decider(B, lam)
        assert mu is not None
        assert validate_decider(B, lam, mu)
        assert not tangle_kernel_check(B, lam)


def test_find_decider_single_partition():
    B = BoundaryMatrix(3, [Sep(0b001, 0b110)])
    mu = find_decider(B, [1])
    assert mu is not None and validate_decider(B, [1], mu)


def test_find_decider_sign_contradiction():
    # equal columns oriented oppositely force both signs at once; the chain
    # [1,-1] is a cycle and no weighting at any bound can decide it
    a = Sep(0b001, 0b010)
    b = Sep(0b101, 0b110)
    B = BoundaryMatrix(3, [a, b])
    assert tangle_kernel_check(B, [1, -1])
    assert find_decider(B, [1, -1]) is None
    assert find_decider(B, [1, -1], bound=50) is None


def test_find_decider_bound_semantics():
    # scaled column: needs mu >= 1 on one side regardless of bound
    B = BoundaryMatrix(2, [Sep(0b01, 0b10)])
    assert find_decider(B, [1], bound=1) == [0, 1]


def test_find_decider_scalar_mode():
    B = BoundaryMatrix(3, [Sep(0b001, 0b110)])
    mu = find_decider(B, [1], mode="scalar")
    assert mu is not None
    w = B.boundary([1])
    assert sum(wi * mi for wi, mi in zip(w, mu)) >= 1
    a = Sep(0b001, 0b010)
    b = Sep(0b101, 0b110)
    B2 = BoundaryMatrix(3, [a, b])
    assert find_decider(B2, [1, -1], mode="scalar") is None


def test_find_decider_constraints():
    B = BoundaryMatrix(3, [Sep(0b001, 0b110)])
    mu = find_decider(B, [1], constraint="nonneg")
    assert mu is not None and min(mu) >= 0
    mu = find_decider(B, [1], constraint="zero_one")
    assert mu is not None and set(mu) <= {0, 1}
    mu = find_decider(B, [1], constraint="sum_one")
    assert mu is not None and sum(mu) == 1
    assert validate_decider(B, [1], mu)


@pytest.mark.parametrize("lam", [[1], [1, 1, 1]], ids=["short", "long"])
@pytest.mark.parametrize("mode", ["componentwise", "scalar"])
def test_find_decider_checks_lambda_length(mode, lam):
    B = BoundaryMatrix(3, [Sep(0b001, 0b110), Sep(0b011, 0b100)])
    with pytest.raises(ValueError, match="lambda length"):
        find_decider(B, lam, mode=mode)


def test_find_decider_refuses_unknown_mode_and_constraint():
    B = BoundaryMatrix(3, [Sep(0b001, 0b110)])
    with pytest.raises(ValueError, match="unknown decider mode 'sum'"):
        find_decider(B, [1], mode="sum")
    with pytest.raises(ValueError, match="unknown decider constraint 'positive'"):
        find_decider(B, [1], constraint="positive")


@pytest.mark.parametrize("constraint", [None, "nonneg", "zero_one", "sum_one"])
@pytest.mark.parametrize("mode", ["componentwise", "scalar"])
def test_find_decider_returns_first_witness(mode, constraint):
    # the pruned search returns the first mu of itertools.product order over
    # the documented values (smallest absolute values first, + before -)
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randint(1, 4)
        pairs = [(a, b) for a in range(1 << n) for b in range(a, 1 << n)]
        picks = rng.sample(pairs, min(rng.randint(1, 4), len(pairs)))
        seps = [Sep(a, b) if rng.random() < 0.5 else Sep(b, a) for a, b in picks]
        B = BoundaryMatrix(n, seps)
        lam = [rng.choice((1, -1)) for _ in seps]
        bound = rng.randint(0, 3)
        if constraint == "zero_one":
            values = (0, 1)
        elif constraint == "nonneg":
            values = tuple(range(bound + 1))
        else:
            values = (0,) + tuple(v for k in range(1, bound + 1) for v in (k, -k))
        w = B.boundary(lam)

        def meets(mu):
            if mode == "componentwise":
                ok = validate_decider(B, lam, mu)
            else:
                ok = sum(wi * mi for wi, mi in zip(w, mu)) >= 1
            return ok and (constraint != "sum_one" or sum(mu) == 1)

        want = next((list(mu) for mu in itertools.product(values, repeat=n)
                     if meets(mu)), None)
        assert find_decider(B, lam, bound=bound, mode=mode,
                            constraint=constraint) == want

def test_decider_success_implies_not_cycle():
    rng = random.Random(21)
    ground = GroundSet(range(4))
    seps = [s for s in enumerate_seps(ground) if s.a < s.b][:6]
    B = BoundaryMatrix(4, seps)
    for _ in range(40):
        lam = [rng.choice([1, -1]) for _ in seps]
        mu = find_decider(B, lam, bound=4)
        if mu is not None:
            assert validate_decider(B, lam, mu)
            assert not tangle_kernel_check(B, lam)


def test_norm_bounded_membership_identity():
    # norm < k iff squared norm < k^2, checked against the modular identity
    ground = GroundSet(range(3))
    seps = list(enumerate_seps(ground))
    for r, s in itertools.product(seps[:9], repeat=2):
        lhs = norm_squared(3, inf(r, s)) + norm_squared(3, sup(r, s))
        rhs = norm_squared(3, r) + norm_squared(3, s)
        assert lhs == rhs
