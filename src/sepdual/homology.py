"""Algebraic view of set separations: chains, boundaries, inner products.

A fixed antisymmetric list S of oriented separations of an n-set spans the
1-chains; the ground elements span the 0-chains.  The boundary of a
separation (A,B) assigns -1 to A\\B, +1 to B\\A and 0 to the middle, giving
an n x |S| matrix with entries in {-1,0,1}.  Coboundaries act by the
transpose; reinterpreting coefficient vectors as homomorphism values gives
the chain/cochain isomorphisms, and the duality check below verifies the
resulting commutation coefficient by coefficient instead of assuming it.

All linear algebra is integer- or rational-exact (stdlib fractions); no
floating point enters any verdict.

The induced bilinear form <x,y> = dot(boundary(x), boundary(y)) is
symmetric, vanishes against kernel elements, and is positive definite on
chains modulo the kernel.  On a single separation it recovers the classic
order: <s,s> = n - |middle(s)|.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import InversePairPresent
from .separations import Sep, inf, inverse, sup

__all__ = [
    "BoundaryMatrix", "norm_squared", "kernel_basis", "orientation_to_chain",
    "tangle_kernel_check", "find_decider", "structural_submodularity_check",
    "modular_identity_holds", "disc_fixture", "disc_lines_perpendicular",
]


class BoundaryMatrix:
    """The boundary operator of an indexed separation list.

    ``n`` ground elements index the rows, the separations index the columns.
    The list must be antisymmetric (no two entries are mutual inverses) and
    duplicate-free; a self-inverse entry (A,A) is allowed and contributes a
    zero column.  Only the strict sides enter the boundary, so pairs that do
    not cover the ground set are accepted too (they act as hypergraph edges).
    """

    def __init__(self, n: int, seps: Sequence[Sep]):
        seen = set()
        for s in seps:
            if s in seen:
                raise ValueError(f"duplicate separation {s!r} in indexed list")
            if inverse(s) in seen:
                raise InversePairPresent(
                    f"{s!r} and its inverse both present in indexed list")
            seen.add(s)
        self.n = n
        self.seps = tuple(seps)

    @property
    def m(self) -> int:
        return len(self.seps)

    def entry(self, i: int, j: int) -> int:
        """Coefficient of ground element i in the boundary of separation j."""
        a, b = self.seps[j]
        bit = 1 << i
        if a & ~b & bit:
            return -1
        if b & ~a & bit:
            return 1
        return 0

    def rows(self) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(self.m)] for i in range(self.n)]

    def boundary(self, x: Sequence[int]) -> list[int]:
        """Boundary of the 1-chain with coefficient vector ``x``."""
        if len(x) != self.m:
            raise ValueError("chain length does not match the separation list")
        out = [0] * self.n
        for j, coeff in enumerate(x):
            if coeff == 0:
                continue
            a, b = self.seps[j]
            neg = a & ~b
            pos = b & ~a
            for i in range(self.n):
                bit = 1 << i
                if pos & bit:
                    out[i] += coeff
                elif neg & bit:
                    out[i] -= coeff
        return out

    def coboundary(self, phi: Sequence[int]) -> list[int]:
        """Coboundary of a 0-cochain: the 1-cochain s -> phi(boundary(s))."""
        if len(phi) != self.n:
            raise ValueError("cochain length does not match the ground set")
        out = []
        for j in range(self.m):
            a, b = self.seps[j]
            neg = a & ~b
            pos = b & ~a
            acc = 0
            for i in range(self.n):
                bit = 1 << i
                if pos & bit:
                    acc += phi[i]
                elif neg & bit:
                    acc -= phi[i]
            out.append(acc)
        return out

    def check_vs_duality(self) -> bool:
        """Coefficientwise duality of boundary and coboundary.

        For every ground element v and separation s, the coefficient of v in
        boundary(s) must equal the coefficient of s in the chain obtained by
        sending v through cochain-reinterpretation, coboundary, and back.
        The composition is evaluated for real rather than assumed.
        """
        for i in range(self.n):
            phi_v = [1 if i == k else 0 for k in range(self.n)]
            through = self.coboundary(phi_v)  # values of delta(gamma(v)) on S
            for j in range(self.m):
                if through[j] != self.entry(i, j):
                    return False
        return True

    def inner_product(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Dot product of the two boundaries; symmetric and bilinear."""
        bx = self.boundary(x)
        by = self.boundary(y)
        return sum(p * q for p, q in zip(bx, by))


def norm_squared(n: int, s: Sep) -> int:
    """Squared norm of a single separation: n - |middle|."""
    a, b = s
    return n - (a & b).bit_count()


def kernel_basis(B: BoundaryMatrix) -> list[list[int]]:
    """Primitive integer basis of the kernel of the boundary matrix.

    Exact rational elimination; each basis vector is scaled to coprime
    integer entries with positive leading sign.  The basis has
    |S| - rank(B) elements.
    """
    rows = [[Fraction(v) for v in row] for row in B.rows()]
    m = B.m
    pivots = []
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * m
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -rows[ri][fc]
        denom = 1
        for v in vec:
            denom = denom * v.denominator // gcd(denom, v.denominator)
        ints = [int(v * denom) for v in vec]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        lead = next((v for v in ints if v != 0), 1)
        if lead < 0:
            ints = [-v for v in ints]
        basis.append(ints)
    return basis


def orientation_to_chain(o, seps: Sequence[Sep]) -> list[int]:
    """Signs of an orientation against the default (indexed) orientations."""
    lam = []
    for s in seps:
        if s in o:
            lam.append(1)
        elif inverse(s) in o:
            lam.append(-1)
        else:
            raise ValueError(f"orientation does not orient {s!r}")
    return lam


def tangle_kernel_check(B: BoundaryMatrix, chain: Sequence[int]) -> bool:
    """True when the chain is a cycle (zero boundary)."""
    return all(v == 0 for v in B.boundary(chain))


def modular_identity_holds(n: int, r: Sep, s: Sep) -> bool:
    """norm²(inf) + norm²(sup) == norm²(r) + norm²(s), exactly."""
    return (norm_squared(n, inf(r, s)) + norm_squared(n, sup(r, s))
            == norm_squared(n, r) + norm_squared(n, s))


def structural_submodularity_check(n: int, seps: Iterable[Sep], k: int) -> bool:
    """Structural submodularity of the norm-bounded subsystem.

    For any two members of {s : norm(s) < k}, at least one of their supremum
    and infimum lies in the subsystem again.  Requires the given family to
    be closed under pairwise sup/inf.  The modular identity is verified for
    every pair along the way.
    """
    seps = list(seps)
    family = set(seps)
    ksq = k * k
    low = [s for s in seps if norm_squared(n, s) < ksq]
    for r in low:
        for s in low:
            lo = inf(r, s)
            hi = sup(r, s)
            if lo not in family or hi not in family:
                raise ValueError("family is not closed under sup/inf")
            if not modular_identity_holds(n, r, s):
                return False
            if norm_squared(n, lo) >= ksq and norm_squared(n, hi) >= ksq:
                return False
    return True


# -- decider search --------------------------------------------------------


def _normalize_constraint(coeffs, rhs):
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    g = gcd(g, abs(rhs))
    if g > 1:  # g divides every entry, so the division is exact
        coeffs = tuple(c // g for c in coeffs)
        rhs //= g
    return tuple(coeffs), rhs


#: Fourier-Motzkin gives up past this many live constraints.
_FM_SIZE_LIMIT = 20000


def _fm_feasible(constraints: list[tuple[tuple[int, ...], int]],
                 nvars: int) -> Optional[bool]:
    """Exact rational feasibility of {c·mu >= rhs} by variable elimination.

    Returns True/False, or None when the intermediate constraint count blows
    past ``_FM_SIZE_LIMIT`` (caller falls back to bounded search alone).
    """
    cons = set()
    for coeffs, rhs in constraints:
        coeffs = tuple(coeffs)
        if all(c == 0 for c in coeffs):
            if rhs > 0:
                return False
            continue
        cons.add(_normalize_constraint(coeffs, rhs))
    for v in range(nvars):
        pos = [c for c in cons if c[0][v] > 0]
        neg = [c for c in cons if c[0][v] < 0]
        keep = {c for c in cons if c[0][v] == 0}
        for pc, pr in pos:
            for nc, nr in neg:
                a, b = pc[v], -nc[v]
                coeffs = tuple(b * p + a * q for p, q in zip(pc, nc))
                rhs = b * pr + a * nr
                if all(c == 0 for c in coeffs):
                    if rhs > 0:
                        return False
                    continue
                keep.add(_normalize_constraint(coeffs, rhs))
        cons = keep
        if len(cons) > _FM_SIZE_LIMIT:
            return None
    return all(rhs <= 0 for _, rhs in cons)


def find_decider(B: BoundaryMatrix, lam: Sequence[int],
                 bound: Optional[int] = None,
                 mode: str = "componentwise",
                 constraint: Optional[str] = None) -> Optional[list[int]]:
    """Search for an integer weighting that orients every separation as lam.

    In componentwise mode (the primary reading) the weighting mu must give
    every separation a strictly positive signed boundary value:
    lam_s * (B^T mu)_s >= 1 for all s.  The scalar mode instead asks for
    dot(B lam, mu) >= 1 only.  Entries are searched within |mu_v| <= bound
    (default |S|), smallest absolute values first, after an exact rational
    feasibility pre-check that can rule out a witness at every bound.

    ``constraint`` restricts the weighting: "nonneg" (mu >= 0), "zero_one"
    (mu in {0,1}), or "sum_one" (integer entries summing to 1).

    Returns the first witness in deterministic search order, or None.
    """
    n, m = B.n, B.m
    if bound is None:
        bound = max(m, 1)
    if mode == "componentwise":
        if len(lam) != m:
            raise ValueError("lambda length does not match the separation list")
        rows = B.rows()
        cons = [
            (tuple(lam[j] * rows[i][j] for i in range(n)), 1)
            for j in range(m)
        ]
    elif mode == "scalar":
        w = [0] * n
        for j, lj in enumerate(lam):
            for i in range(n):
                w[i] += lj * B.entry(i, j)
        cons = [(tuple(w), 1)]
    else:
        raise ValueError(f"unknown decider mode {mode!r}")
    if constraint == "sum_one":
        cons.append((tuple(1 for _ in range(n)), 1))
        cons.append((tuple(-1 for _ in range(n)), -1))

    fm_cons = list(cons)
    if constraint == "nonneg":
        for i in range(n):
            fm_cons.append((tuple(1 if k == i else 0 for k in range(n)), 0))
    elif constraint == "zero_one":
        for i in range(n):
            unit = tuple(1 if k == i else 0 for k in range(n))
            fm_cons.append((unit, 0))
            fm_cons.append((tuple(-u for u in unit), -1))
    elif constraint not in (None, "sum_one"):
        raise ValueError(f"unknown decider constraint {constraint!r}")

    if _fm_feasible(fm_cons, n) is False:
        return None

    if constraint == "zero_one":
        values = (0, 1)
    elif constraint == "nonneg":
        values = tuple(range(0, bound + 1))
    else:
        vals = [0]
        for v in range(1, bound + 1):
            vals.extend((v, -v))
        values = tuple(vals)

    # suffix bound per constraint: the most the unassigned tail can add
    max_val = max(abs(v) for v in values) if values else 0
    suffix = []
    for coeffs, _ in cons:
        sf = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            sf[i] = sf[i + 1] + abs(coeffs[i]) * max_val
        suffix.append(sf)

    mu = [0] * n
    partial = [0] * len(cons)

    def rec(i: int) -> Optional[list[int]]:
        if i == n:
            if any(p < rhs for p, (_, rhs) in zip(partial, cons)):
                return None
            return list(mu)
        for v in values:
            mu[i] = v
            ok = True
            for ci, (coeffs, rhs) in enumerate(cons):
                partial[ci] += coeffs[i] * v
                if partial[ci] + suffix[ci][i + 1] < rhs:
                    ok = False
            if ok:
                found = rec(i + 1)
                if found is not None:
                    return found
            for ci, (coeffs, _) in enumerate(cons):
                partial[ci] -= coeffs[i] * v
        mu[i] = 0
        return None

    return rec(0)


def validate_decider(B: BoundaryMatrix, lam: Sequence[int],
                     mu: Sequence[int]) -> bool:
    """Componentwise re-check: lam_s * (B^T mu)_s >= 1 for every s."""
    through = B.coboundary(list(mu))
    return all(lj * tj >= 1 for lj, tj in zip(lam, through))


# -- disc fixture ----------------------------------------------------------


def disc_fixture() -> tuple[int, list[Sep]]:
    """Eight unit-circle points at 45 degree spacing and the four partitions
    cut by straight lines through the origin (lines offset so that no point
    lies on any line).  Line j separates points j+1..j+4 from the rest.
    """
    n = 8
    full = (1 << n) - 1
    parts = []
    for j in range(4):
        a = 0
        for t in range(1, 5):
            a |= 1 << ((j + t) % n)
        parts.append(Sep(a, full ^ a))
    return n, parts


def disc_lines_perpendicular(i: int, j: int) -> bool:
    """Whether disc lines i and j (0..3, at 45 degree steps) are orthogonal."""
    return (i - j) % 4 == 2
