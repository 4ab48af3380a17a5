"""Low-order separation systems, orientations, tangles, and profiles.

A system S_k collects every unoriented separation of one universe whose
order is strictly below k, excluding the top separation (full, full).  An
orientation picks one direction per member.  An orientation is a *tangle*
when no three of its members (chosen with repetition) have first components
covering the ground set; it is a *profile* when it neither contains two
members pointing away from each other nor any pair whose inverted supremum
it also contains; it is *regular* when no member's first component is the
whole ground set.

Repetition in the tangle triple is deliberate: without it, the orientation
{(X, ∅)} of a one-member system would vacuously count as a tangle, while a
separation pointing at everything is exactly what consistency must exclude.
A consequence worth knowing: every tangle is a regular profile.

Enumeration is exhaustive backtracking over members sorted by order, with
incremental violation pruning; violations are monotone under extension, so
pruned subtrees can contain no result.  The search keeps, beside the chosen
orientations, exactly what the next member is tested against: the unions
of first sides of chosen pairs for tangles; for regular profiles the set
``picked`` of chosen orientations and a counted map ``closes`` of the
inverted suprema of chosen pairs (pairs taken with repetition).  Adding an
orientation pushes its entries, backtracking pops exactly those, so a test
costs O(|chosen|) on masks; ``check_tangle`` and ``check_profile`` stay the
reference the search is tested against.

Memo invariant: all that is kept about one (graph, universe) is one
``_Memo`` at ``g._cache[universe]``, touched by this module only: the sorted
scan (doubled orders and plain ``(a, b)`` int pairs, which the garbage
collector stops tracking), the top order, the empty-prefix point per kind,
and the systems (per threshold) and searches (per member count and kind,
not per member cap) kept through ``kept_system`` and ``kept_search``.  S_k
is the prefix of the scan of order below k, so all systems of a universe
share the same pair objects and a system is fixed by its member count.
``Sep`` is built only where a separation leaves the module
(``Orientation.chosen`` and the witnesses of the checks).

Empty-prefix shortcut: once the search over the first n members of a
universe finds nothing, ``enumerate_tangles`` returns no result for any
system of that universe with n or more members.  This is exact because
both conditions only ever relate chosen members to each other, so
restricting a tangle (or regular profile) of a system to a prefix of its
members gives a tangle (or regular profile) of that prefix; the search's
own pruning rests on the same fact.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from . import _kernels
from .bigraph import BipartiteGraph
from .errors import CapExceeded
from .orders import HalfInt, as_halfint, universe_context
from .separations import (
    DEFAULT_PARTITION_CAP,
    DEFAULT_SEP_CAP,
    Sep,
    inverse,
    leq,
    sup,
)

DEFAULT_EDGE_CAP = 10
DEFAULT_MEMBER_CAP = 24


class _Memo:
    """What is kept per (graph, universe); see the module docstring."""

    __slots__ = ("scan", "max2", "empty_from", "systems", "found")

    def __init__(self):
        self.scan = self.max2 = None
        self.empty_from = {}  # kind -> smallest member count searched empty
        self.systems = {}  # k2 -> kept S_k
        self.found = {}  # (member count, kind) -> kept search result


def _memo(g: BipartiteGraph, universe: str) -> _Memo:
    memo = g._cache.get(universe)
    if memo is None:
        universe_context(g, universe)  # keep no memo for an unknown name
        memo = g._cache[universe] = _Memo()
    return memo


def _scan(g: BipartiteGraph, universe: str
          ) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Sorted scan of a universe, of which every S_k is a prefix: doubled
    orders and canonical members, built once per (graph, universe)."""
    memo = _memo(g, universe)
    if memo.scan is None:
        masks, ground, partitions_only = universe_context(g, universe)
        keys = _kernels.scan_members(masks, ground.n, partitions_only)
        n, full = ground.n, ground.full
        # (3^n - 1)/2 separations over only 2^n masks: hold one int object per
        # mask (a partition's masks occur once each, so a range will do)
        pool = range(full + 1) if partitions_only else list(range(full + 1))
        members = tuple([(pool[k >> n & full], pool[k & full]) for k in keys])
        memo.scan = (tuple([k >> 2 * n for k in keys]), members)
    return memo.scan


def _check_ground_cap(universe: str, n: int, partitions_only: bool,
                      cap: int | None) -> None:
    """Refuse to scan a universe whose ground set is over its cap."""
    if cap is None:
        cap = (DEFAULT_PARTITION_CAP if partitions_only
               else DEFAULT_EDGE_CAP if universe == "e" else DEFAULT_SEP_CAP)
    if n > cap:
        raise CapExceeded(f"universe {universe!r} has {n} elements, over cap {cap}")


def max_order2(g: BipartiteGraph, universe: str) -> int:
    """Doubled order of the largest separation of the universe.

    For separation universes this is the top element (full, full); for
    partition universes it is the maximum over all partitions, read off the
    scan, so the ground set is held to the default cap of ``build_system``.
    Kept in the memo; a separation universe is never scanned for it.
    """
    memo = _memo(g, universe)
    if memo.max2 is None:
        masks, ground, partitions_only = universe_context(g, universe)
        if partitions_only:
            _check_ground_cap(universe, ground.n, partitions_only, None)
            orders2 = _scan(g, universe)[0]
            memo.max2 = orders2[-1] if orders2 else 0
        else:
            memo.max2 = _kernels.order2(masks, ground.full, ground.full)
    return memo.max2


class LowOrderSystem:
    """All separations of one universe with order strictly below a threshold.

    Members are plain ``(a, b)`` int pairs (not ``Sep``), canonical
    (lexicographically smaller orientation first), deduplicated, and sorted
    by (order, first mask, second mask).  The top separation (full, full) is
    never a member.  A system holds the empty-prefix record of its (graph,
    universe), not the graph, so nothing a graph keeps refers back to it.
    """

    __slots__ = ("empty_from", "universe", "k2", "ground", "members", "orders2",
                 "_index")

    def __init__(self, empty_from, universe, k2, ground, members, orders2):
        self.empty_from = empty_from
        self.universe = universe
        self.k2 = k2
        self.ground = ground
        self.members = members
        self.orders2 = orders2
        self._index = None

    @property
    def index(self) -> dict[tuple[int, int], int]:
        """Position of each member, built on first use."""
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.members)}
        return self._index

    @property
    def k(self) -> HalfInt:
        return HalfInt(self.k2)

    def __len__(self) -> int:
        return len(self.members)

    def restricted(self, k) -> "LowOrderSystem":
        """The subsystem of order below k (a prefix, since members are sorted)."""
        k2 = as_halfint(k).doubled
        if k2 > self.k2:
            raise ValueError("restriction threshold exceeds the system threshold")
        cut = bisect_left(self.orders2, k2)
        return LowOrderSystem(self.empty_from, self.universe, k2, self.ground,
                              self.members[:cut], self.orders2[:cut])

    def __repr__(self) -> str:
        return (f"LowOrderSystem({self.universe!r}, k={self.k}, "
                f"members={len(self.members)})")


def build_system(g: BipartiteGraph, universe: str, k,
                 cap: int | None = None) -> LowOrderSystem:
    """Construct S_k for a universe of ``g``; k is a HalfInt or whole int."""
    k2 = as_halfint(k).doubled
    masks, ground, partitions_only = universe_context(g, universe)
    _check_ground_cap(universe, ground.n, partitions_only, cap)
    orders2, members = _scan(g, universe)
    cut = bisect_left(orders2, k2)
    return LowOrderSystem(_memo(g, universe).empty_from, universe, k2, ground,
                          members[:cut], orders2[:cut])


class Orientation:
    """A choice of one orientation for every member of a system."""

    __slots__ = ("system", "forward")

    def __init__(self, system: LowOrderSystem, forward: tuple[bool, ...]):
        if len(forward) != len(system.members):
            raise ValueError("one choice per member required")
        self.system = system
        self.forward = tuple(forward)

    def chosen(self, i: int) -> Sep:
        a, b = self.system.members[i]
        return Sep(a, b) if self.forward[i] else Sep(b, a)

    def choices(self) -> tuple[Sep, ...]:
        return tuple(self.chosen(i) for i in range(len(self.forward)))

    def as_set(self) -> frozenset[Sep]:
        return frozenset(self.choices())

    def __contains__(self, s: Sep) -> bool:
        a, b = s
        forward = a <= b
        i = self.system.index.get((a, b) if forward else (b, a))
        if i is None:
            return False
        return self.forward[i] == forward

    def __eq__(self, other) -> bool:
        return (isinstance(other, Orientation)
                and self.system is other.system
                and self.forward == other.forward)

    def __hash__(self) -> int:
        return hash((id(self.system), self.forward))

    def restrict(self, k) -> "Orientation":
        """Induced orientation of the subsystem of order below k."""
        sub = self.system.restricted(k)
        return Orientation(sub, self.forward[: len(sub.members)])

    def to_dict(self) -> dict:
        ground = self.system.ground
        out = []
        for (a, b), o2, fwd in zip(self.system.members, self.system.orders2,
                                   self.forward):
            out.append({
                "a": ground.names(a),
                "b": ground.names(b),
                "order2": o2,
                "forward": fwd,
            })
        return {
            "universe": self.system.universe,
            "k2": self.system.k2,
            "members": out,
        }

    def dump_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def restrict(o: Orientation, k) -> Orientation:
    return o.restrict(k)


@dataclass(frozen=True)
class TangleReport:
    """Outcome of a consistency check, with a literal witness on failure."""

    is_orientation: bool
    kind: str  # tangle | profile | regular_profile | none
    violation: tuple[Sep, ...] | None = None
    clause: str | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None


def check_tangle(o: Orientation) -> TangleReport:
    """Test the covering-triple condition, triples taken with repetition.

    Returns the lexicographically first witness triple (by member index)
    when the condition fails.
    """
    chosen = o.choices()
    firsts = [a for a, _ in chosen]
    full = o.system.ground.full
    n = len(chosen)
    for i in range(n):
        ai = firsts[i]
        for j in range(i, n):
            aij = ai | firsts[j]
            for l in range(j, n):
                if aij | firsts[l] == full:
                    return TangleReport(True, "none",
                                        (chosen[i], chosen[j], chosen[l]),
                                        "cover_triple")
    return TangleReport(True, "tangle")


def check_profile(o: Orientation) -> TangleReport:
    """Test the profile conditions.

    (i) no two members point away from each other: there are no chosen r, s
    with distinct underlying separations and inverse(r) <= s; and (ii) for
    no chosen pair r, s is the inverse of their supremum also chosen.
    """
    chosen = o.choices()
    picked = set(chosen)
    n = len(chosen)
    for i in range(n):
        for j in range(n):
            if i != j and leq(inverse(chosen[i]), chosen[j]):
                return TangleReport(True, "none",
                                    (chosen[i], chosen[j]), "consistency_pair")
    for i in range(n):
        for j in range(i, n):
            third = inverse(sup(chosen[i], chosen[j]))
            if third in picked:
                return TangleReport(True, "none",
                                    (chosen[i], chosen[j], third), "corner_triple")
    return TangleReport(True, "profile")


def check_regular(o: Orientation) -> bool:
    """No chosen separation points away from the whole ground set."""
    full = o.system.ground.full
    return all(a != full for a, _ in o.choices())


def is_regular_profile(o: Orientation) -> bool:
    return check_regular(o) and check_profile(o).ok


def enumerate_orientations(system: LowOrderSystem) -> Iterator[Orientation]:
    """All 2^n orientations, forward-first per member; the naive generator."""
    n = len(system.members)
    forward = [True] * n

    def rec(i):
        if i == n:
            yield Orientation(system, tuple(forward))
            return
        for val in (True, False):
            forward[i] = val
            yield from rec(i + 1)

    yield from rec(0)


def enumerate_tangles(g: BipartiteGraph, universe: str, k,
                      kind: str = "tangle",
                      member_cap: int = DEFAULT_MEMBER_CAP,
                      system: LowOrderSystem | None = None) -> list[Orientation]:
    """Exhaustively enumerate tangles or regular profiles of S_k.

    Backtracking over members in sorted order with incremental pruning; the
    search tree covers all 2^n orientations, and pruned branches are exactly
    those whose partial choice already violates the (monotone) conditions,
    so the result list is complete.  Deterministic order: forward choice
    explored first at every member.  A system at least as large as a prefix
    whose search came back empty has no result either (see the module
    docstring) and is not searched again.

    Search state.  ``chosen`` lists the orientations picked so far as plain
    ``(a, b)`` pairs: each member is tried as itself and as its inverse
    ``(b, a)``, built inline, so the search makes no ``Sep``.  For tangles,
    ``pair_unions`` holds ``t.a | u.a`` over chosen multisets {t, u} of size
    at most 2.  For regular profiles, ``picked`` is the set of chosen
    orientations and ``closes`` counts the pairs
    ``inverse(sup(t, u)) = (t.b & u.b, t.a | u.a)`` over chosen multisets
    {t, u}.  Invariant: ``push(s)`` adds s and exactly the |chosen| + 1
    entries that pair s with a chosen member or with itself, and returns
    them as a token; ``pop(token)`` removes exactly those, so after each
    ``pop`` the state equals the one before the matching ``push``.  Every
    test of ``ok_to_add(s)`` then touches only pairs involving s, O(|chosen|)
    work on plain masks.  One order test per chosen t suffices for
    condition (i) of ``check_profile``: inversion reverses the order, so
    ``inverse(t) <= s`` and ``inverse(s) <= t`` are the same condition.
    """
    if kind not in ("tangle", "regular_profile"):
        raise ValueError(f"kind must be 'tangle' or 'regular_profile', got {kind!r}")
    if system is None:
        system = build_system(g, universe, k)
    n = len(system.members)
    if n > member_cap:
        raise CapExceeded(f"system has {n} members, over member cap {member_cap}")
    # smallest member count of this universe whose search found nothing
    empty_from = system.empty_from
    if n >= empty_from.get(kind, n + 1):
        return []

    full = system.ground.full
    results: list[Orientation] = []
    forward = [True] * n
    chosen: list[tuple[int, int]] = []

    if kind == "tangle":
        # pair_unions holds a|b over all chosen multisets of size <= 2
        pair_unions: list[int] = []

        def ok_to_add(s: tuple[int, int]) -> bool:
            sa = s[0]
            if sa == full:
                return False
            for u in pair_unions:
                if u | sa == full:
                    return False
            return True

        def push(s: tuple[int, int]) -> int:
            sa = s[0]
            added = [ta | sa for ta, _ in chosen]
            added.append(sa)
            pair_unions.extend(added)
            chosen.append(s)
            return len(added)

        def pop(count: int) -> None:
            del pair_unions[-count:]
            chosen.pop()

    else:
        picked: set[tuple[int, int]] = set()
        closes: dict[tuple[int, int], int] = {}

        def ok_to_add(s: tuple[int, int]) -> bool:
            sa, sb = s
            # s is irregular; the pair {s, s} closes on a chosen
            # separation; a chosen pair closes on s
            if sa == full or (sb, sa) in picked or s in closes:
                return False
            for ta, tb in chosen:
                # leq(inverse(t), s), the same test as leq(inverse(s), t)
                if tb & ~sa == 0 and sb & ~ta == 0:
                    return False
                # the pair {t, s} closes on a chosen separation or on s
                third = (tb & sb, ta | sa)
                if third in picked or third == s:
                    return False
            return True

        def push(s: tuple[int, int]) -> list[tuple[int, int]]:
            sa, sb = s
            added = [(tb & sb, ta | sa) for ta, tb in chosen]
            added.append((sb, sa))
            for key in added:
                closes[key] = closes.get(key, 0) + 1
            picked.add(s)
            chosen.append(s)
            return added

        def pop(added: list[tuple[int, int]]) -> None:
            for key in added:
                count = closes[key] - 1
                if count:
                    closes[key] = count
                else:
                    del closes[key]
            picked.remove(chosen.pop())

    members = system.members

    def rec(i: int) -> None:
        if i == n:
            results.append(Orientation(system, tuple(forward)))
            return
        m = members[i]
        a, b = m
        for val, s in ((True, m), (False, (b, a))):
            if ok_to_add(s):
                forward[i] = val
                token = push(s)
                rec(i + 1)
                pop(token)

    rec(0)
    del rec  # it refers to itself; unbound, the search leaves no cycle behind
    if not results:
        empty_from[kind] = n
    return results


def kept_system(g: BipartiteGraph, universe: str, k2: int) -> LowOrderSystem:
    """S_k at doubled threshold k2, built once and kept in the memo."""
    systems = _memo(g, universe).systems
    if k2 not in systems:
        systems[k2] = build_system(g, universe, HalfInt(k2))
    return systems[k2]


def kept_search(g: BipartiteGraph, universe: str, k2: int, kind: str,
                member_cap: int) -> tuple[Orientation, ...]:
    """The search of the kept S_k, kept as a tuple per (member count, kind);
    a system over the cap is searched again, so the cap trips as usual."""
    system = kept_system(g, universe, k2)
    found = _memo(g, universe).found
    n = len(system)
    key = (n, kind)
    if n > member_cap or key not in found:
        found[key] = tuple(enumerate_tangles(
            g, universe, system.k, kind=kind, member_cap=member_cap,
            system=system))
    return found[key]
