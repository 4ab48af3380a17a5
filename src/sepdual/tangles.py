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
pruned subtrees can contain no result.  Both kinds share one walk,
``_search``, a loop over an explicit stack with one level per member, so no
recursion limit bounds its depth.  A kind supplies only two steps: ``place``
tests an orientation against the chosen ones and pushes it if it passes,
and ``undo`` pops the last push.  Beside the chosen orientations a kind
keeps exactly what the next member is tested against, pairs taken with
repetition.  For tangles that is, per ground element, the bitset of the
chosen pairs whose union of first sides holds it, so a test ANDs at most
one bitset per element outside the member's first side; ``undo`` does
nothing, as a push overwrites every bit a later test reads.  For regular
profiles it is the set ``picked`` of chosen orientations and the set
``closes`` of the inverted suprema of chosen pairs that orient a member; a
push adds the entries not held yet, ``undo`` removes exactly those, and a
test costs O(|chosen|) on masks.  ``check_tangle`` and ``check_profile``
stay the reference the search is tested against.

The same walk runs in C (``_native``) whenever the ground set has at most 64
elements and the extension loads, which is every universe within the
default ground caps; it returns the same results in the same order.  The
first scan or search of a process finds the extension, building it if
missing; the extension also runs the scan of ``_kernels.scan_members``.  A
search is one call of the extension's ``walk``, which reads
``system.members`` and the seeds in place and builds the result tuples
itself, so the fixed cost of a search is about a microsecond (a whole
search of three members takes 1.3 us on a 2-vCPU x86-64 host with CPython
3.11).  Its tangle test keeps no pair slots: a member fails iff no
element is outside its first side or, for some chosen l, the elements
outside both its first side and l's are none or lie in the first side of a
chosen j < l, which one AND per element over the chosen positions below l
decides.  So it keeps a word per level and a bit per level and element,
linear in the depth where the slots are quadratic; the two tests differ,
and the results and their order are the same.  Its profile steps keep one
counter per orientation of the system in place of ``picked`` and
``closes``, so an undo is a decrement.
The Python walk, ``_walk``, runs when there is no build (``KERNEL_BACKEND``,
whose read loads the extension as a search does, then reads ``"pure"``;
building needs a compiler and the Python headers) or the ground set is
larger, and the tests hold the C walk equal to it.

Kept state: all that is kept about one (graph, universe) is one
``_Universe`` at ``g._cache[name]``, and the systems kept through
``kept_system`` are at ``g._cache[name, count]``, one per member count;
only this module touches them, and only it calls the kernel's scan and
count.  A ``_Universe`` holds the universe's context (masks, ground set,
partition flag), looked up once; the cumulative member counts by order; a
prefix of the kernel's sorted int keys, kept as an array of 64-bit ints; one
int object per mask decoded and one decoded prefix of plain ``(a, b)`` int
pairs, which the garbage collector stops tracking; the prefix record; the
top order; the image tables below, of plain pairs too; and the elements in
and outside each first side a tangle search of the Python walk has tested.
It refers to no system and not to the graph, so a dropped graph is freed by
reference counting; a kept system refers to its ``_Universe``, which is why
systems are kept on the graph and not there.

A system is its ``_Universe`` and a member count.  S_k is the prefix of the
scan of order below k, so every threshold between two consecutive member
orders names the same system, and the threshold is only a query: S_j for
j <= k is the prefix of ``count_below(j2)`` members, which is how
``Orientation.restrict`` restricts, and orientations of one universe
compare by their choices alone.

The universe's size, known in closed form, decides how the counts are
found.  A universe of at most ``LIST_MAX`` members is scanned in full on
first need and its counts are read off the keys.  A larger one is counted
by ``_kernels.order_counts`` without listing a member, and its keys are
listed, below a threshold, only when a read needs members past those
listed; each such scan at least doubles the keys, and once past half the
universe lists it all.  On the corpus the large universes are edge
universes of 8-10 edges whose searches read at most 18 members, while every
larger threshold is asked only for its member count.

A system's length is its count, its orders are read off the keys, and its
members are decoded on first read by extending the shared prefix, so all
systems of a universe share the same pair objects and a system that nobody
reads (one over the member cap, say, of which only S_j is searched) is never
decoded.
``Sep`` is built only where a separation leaves the module
(``Orientation.choices`` and the witnesses of the checks).  An
orientation's chosen set, ``Orientation.as_set``, is a frozenset of plain
pairs built once per orientation; membership tests, the verifier's
hypothesis families and ``homology.orientation_to_chain`` all read it.

Image tables: a member's image under one map of one graph never changes, so
``kept_images`` keeps, per destination universe, the list of (image of the
member, image of its inverse), aligned with the decoded prefix and extended
through ``shifts.universe_map`` to the member count asked for.  The verifier
reads every pull and push step from these tables, so each member is shifted
once per (graph, map) however many hypotheses, theorems and thresholds
share it.

Prefix record: each search ``enumerate_tangles`` runs is recorded per
(member count, kind) as the tuple of its results' ``forward`` tuples, and a
repeat is answered from the record, wrapped in the caller's system.  A new
member count n resumes from the largest recorded m < n of its kind: if m has
no result neither has n, else m's results are replayed as pushes and the
search goes on from member m.  This is exact because both conditions only
relate chosen members to each other, so a tangle (or regular profile)
restricted to a prefix of its system's members is one of that prefix; the
search's own pruning rests on the same fact.  So the depth-first search
reaches depth m exactly at m's results, in the order m's search listed them,
and resuming from them in that order keeps the order of a search from
member 0.

Member cap: a system of more than ``member_cap`` members is never searched.
The same restriction settles it from S_j, the largest system of its universe
within the cap: if S_j has no result the system has none, and otherwise the
cap trips.  S_j is searched through the record like any system; in corpus
order it is nearly always recorded already.  It is fixed by the universe and
the cap alone, not by the largest prefix the record happens to hold, so a
single call and a call after many others give the same answer.
"""

from __future__ import annotations

import itertools
import json
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import _kernels, _native
from .bigraph import BipartiteGraph
from .errors import CapExceeded
from .orders import HalfInt, as_halfint, universe_context
from .separations import Sep, inverse, leq, sep_labels, sup
from .shifts import universe_map

#: Ground-set caps by universe; 3**n growth makes silently large scans
#: pathological.
DEFAULT_SEP_CAP = 12
DEFAULT_PARTITION_CAP = 20
DEFAULT_EDGE_CAP = 10
DEFAULT_MEMBER_CAP = 24
#: A universe of at most this many members is listed in full on first need;
#: a larger one is counted by order and listed only as far as it is read.
LIST_MAX = 1000


class _Universe:
    """All that is kept per (graph, universe); see the module docstring.

    The universe's context (masks, ground set, partition flag) is looked up
    once.  ``cumulative[k2]`` is the number of members of doubled order
    below k2, for k2 up to the top order plus one, built by ``counts``.
    ``keys`` is a prefix of the sorted scan of which every S_k is a prefix,
    the kernel's keys ``order2 << 2n | a << n | b``, extended by ``listed``:
    the whole scan for a universe of at most ``LIST_MAX`` members, else the
    members below a threshold, as far as reads needed.  ``pool`` holds one
    int object per mask decoded and ``pairs`` the members decoded so far, the
    longest prefix any system read.  ``record`` is the prefix record and
    ``max2`` the top order, once asked for.  ``images`` maps a destination
    universe to the images of ``pairs[:len(list)]`` under the canonical map
    there: one ``(image of member, image of its inverse)`` entry per member,
    as plain int pairs.  ``sides`` maps each first side a tangle search has
    tested to the tuples of the elements in it and outside it, shared by
    every search of the universe.
    """

    __slots__ = ("name", "masks", "ground", "partitions_only", "small",
                 "cumulative", "keys", "pool", "pairs", "record", "max2", "images",
                 "sides")

    def __init__(self, name: str, context):
        self.name = name
        self.masks, self.ground, self.partitions_only = context
        n = self.ground.n
        # the member count in closed form: the 2^n ordered partitions, or the
        # 3^n ordered separations but (full, full), two orientations a member
        members = (1 << n - 1 if n else 0) if self.partitions_only else (3 ** n - 1) // 2
        self.small = members <= LIST_MAX
        self.cumulative = self.keys = self.max2 = None
        self.pool = {}  # mask -> its one int object, for the masks decoded
        self.pairs: tuple[tuple[int, int], ...] = ()
        self.record = {}  # (member count, kind) -> forward tuples of the results
        self.images = {}  # dest universe -> [(image of member, of its inverse)]
        self.sides = {}  # first side -> (elements in it, elements outside it)

    @classmethod
    def of(cls, g: BipartiteGraph, name: str) -> "_Universe":
        """The one kept for ``g``; an unknown name raises and keeps none."""
        space = g._cache.get(name)
        if space is None:
            space = g._cache[name] = cls(name, universe_context(g, name))
        return space

    def check_ground_cap(self, cap: int | None = None) -> None:
        """Refuse to scan a ground set over ``cap`` (default set by universe)."""
        if cap is None:
            cap = (DEFAULT_PARTITION_CAP if self.partitions_only
                   else DEFAULT_EDGE_CAP if self.name == "e" else DEFAULT_SEP_CAP)
        n = self.ground.n
        if n > cap:
            raise CapExceeded(f"universe {self.name!r} has {n} elements, over cap {cap}")

    def counts(self) -> list[int]:
        """The cumulative member counts by order, built on first need: off
        the whole scan for a small universe, else by the kernel's count."""
        if self.cumulative is None:
            n = self.ground.n
            if self.small:
                keys = self.listed(0)
                top = keys[-1] >> 2 * n if keys else -1
                self.cumulative = [bisect_left(keys, k2 << 2 * n)
                                   for k2 in range(top + 2)]
            else:
                by_order = _kernels.order_counts(self.masks, n, self.partitions_only)
                cumulative = [0]
                for order in range(max(by_order, default=-1) + 1):
                    cumulative.append(cumulative[-1] + by_order.get(order, 0))
                self.cumulative = cumulative
        return self.cumulative

    def count_below(self, k2: int) -> int:
        """Number of members of doubled order below k2."""
        cumulative = self.cumulative or self.counts()
        return cumulative[k2] if k2 < len(cumulative) else cumulative[-1]

    def top(self) -> int:
        """Doubled order of the largest separation; see ``max_order2``."""
        if self.max2 is None:
            if self.partitions_only:
                self.check_ground_cap()
                self.max2 = max(len(self.counts()) - 2, 0)
            else:
                # (full, full) has no imbalance: its order is sum of |m|
                self.max2 = sum(m.bit_count() for m in self.masks)
        return self.max2

    def listed(self, count: int) -> Sequence[int]:
        """The sorted keys, at least the first ``count`` of them: all of a
        small universe on first need, else those below the smallest
        threshold that holds ``count`` members and twice the keys listed
        before, or all once that is over half.  They are kept as an array of
        64-bit ints, a fifth of the memory of int objects in a list and
        nothing for the collector to traverse, unless the largest (the last)
        needs more bits."""
        keys = self.keys
        if keys is None or len(keys) < count:
            below = None
            if not self.small:
                # doubling bounds the rescans of rising reads by about
                # twice the last
                cumulative = self.counts()
                count = max(count, 2 * len(keys or ()))
                if 2 * count <= cumulative[-1]:
                    below = bisect_left(cumulative, count)
            keys = _kernels.scan_members(self.masks, self.ground.n,
                                         self.partitions_only, below)
            keys = self.keys = (array("q", keys) if not keys or keys[-1] >> 63 == 0
                                else keys)
        return keys

    def members(self, count: int) -> tuple[tuple[int, int], ...]:
        """The first ``count`` members as ``(a, b)`` pairs, extending the
        decoded prefix as far as needed, so every system shares its pairs."""
        pairs = self.pairs
        if len(pairs) < count:
            n, full = self.ground.n, self.ground.full
            # (3^n - 1)/2 separations over 2^n masks, so pairs share their
            # ints; only the masks decoded are pooled, never all 2^n
            pool = self.pool.setdefault
            pairs = self.pairs = pairs + tuple([
                (pool(a, a), pool(b, b))
                for k in self.listed(count)[len(pairs):count]
                for a, b in ((k >> n & full, k & full),)])
        return pairs[:count]


def max_order2(g: BipartiteGraph, universe: str) -> int:
    """Doubled order of the largest separation of the universe.

    For separation universes this is the top element (full, full), of order
    |E| on a side and 2|E| on the edges; for partition universes it is the
    maximum over all partitions, read off the cumulative counts, so the
    ground set is held to the default cap of ``build_system``.  Kept per
    universe; a separation universe is never scanned or counted for it.
    """
    return _Universe.of(g, universe).top()


class LowOrderSystem:
    """The first ``count`` separations of one universe in sorted order: S_k
    for every threshold k above their orders and at most the next one's.

    Members are plain ``(a, b)`` int pairs (not ``Sep``), canonical
    (lexicographically smaller orientation first), deduplicated, and sorted
    by (order, first mask, second mask).  The top separation (full, full) is
    never a member.  A system carries no threshold: it is a member count over
    the scan of its universe, ``len`` reads the count, ``orders2`` the scan's
    keys, and ``members`` is decoded on first read.  It holds the
    ``_Universe`` of its (graph, universe), not the graph, so nothing a graph
    keeps refers back to it.
    """

    __slots__ = ("space", "count", "_members")

    def __init__(self, space: _Universe, count: int):
        self.space = space
        self.count = count
        self._members = None

    @classmethod
    def from_members(cls, universe: str, ground, members) -> "LowOrderSystem":
        """A system of the given canonical members, in the given order, each
        of order 0, with a fresh prefix record: member lists no scan yields."""
        space = _Universe(universe, ((), ground, False))
        n = ground.n
        space.keys = [a << n | b for a, b in members]
        space.cumulative = [0, len(space.keys)]
        return cls(space, len(space.keys))

    @property
    def universe(self) -> str:
        return self.space.name

    @property
    def ground(self):
        return self.space.ground

    @property
    def members(self) -> tuple[tuple[int, int], ...]:
        if self._members is None:
            self._members = self.space.members(self.count)
        return self._members

    @property
    def orders2(self) -> tuple[int, ...]:
        s2 = 2 * self.space.ground.n
        return tuple([k >> s2 for k in self.space.listed(self.count)[:self.count]])

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"LowOrderSystem({self.universe!r}, members={self.count})"


def build_system(g: BipartiteGraph, universe: str, k,
                 cap: int | None = None) -> LowOrderSystem:
    """Construct S_k for a universe of ``g``; k is a HalfInt or whole int.

    Only the member count is found here; members are decoded when read."""
    k2 = as_halfint(k).doubled
    space = _Universe.of(g, universe)
    space.check_ground_cap(cap)
    return LowOrderSystem(space, space.count_below(k2))


class Orientation:
    """A choice of one orientation for every member of a system."""

    __slots__ = ("system", "forward", "_chosen")

    def __init__(self, system: LowOrderSystem, forward: tuple[bool, ...]):
        if len(forward) != system.count:
            raise ValueError("one choice per member required")
        self.system = system
        self.forward = tuple(forward)
        self._chosen = None

    def choices(self) -> tuple[Sep, ...]:
        return tuple([Sep(a, b) if f else Sep(b, a)
                      for (a, b), f in zip(self.system.members, self.forward)])

    def as_set(self) -> frozenset[tuple[int, int]]:
        """The chosen orientations as plain ``(a, b)`` pairs, built on first
        use and kept: the one chosen set that membership, the verifier's
        families and the homology chains read."""
        if self._chosen is None:
            self._chosen = frozenset([m if f else (m[1], m[0]) for m, f
                                      in zip(self.system.members, self.forward)])
        return self._chosen

    def __contains__(self, s: Sep) -> bool:
        return s in self.as_set()

    def __eq__(self, other) -> bool:
        # a system is a prefix of its universe, so the choices fix the system
        return (isinstance(other, Orientation)
                and self.system.space is other.system.space
                and self.forward == other.forward)

    def __hash__(self) -> int:
        return hash((id(self.system.space), self.forward))

    def restrict(self, k) -> "Orientation":
        """Induced orientation of S_k, the prefix of the members of order
        below k; raises only when that prefix is longer than the system."""
        space = self.system.space
        n = space.count_below(as_halfint(k).doubled)
        if n > self.system.count:
            raise ValueError(f"S_k has {n} members, more than the "
                             f"{self.system.count} of the system")
        return Orientation(LowOrderSystem(space, n), self.forward[:n])

    def to_dict(self) -> dict:
        ground = self.system.ground
        out = []
        for s, o2, fwd in zip(self.system.members, self.system.orders2,
                              self.forward):
            out.append({**sep_labels(ground, s), "order2": o2, "forward": fwd})
        return {
            "universe": self.system.universe,
            "members": out,
        }

    def dump_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class TangleReport:
    """Outcome of a consistency check, with a literal witness on failure."""

    kind: str  # tangle | profile | none
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
                    return TangleReport("none", (chosen[i], chosen[j], chosen[l]),
                                        "cover_triple")
    return TangleReport("tangle")


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
                return TangleReport("none", (chosen[i], chosen[j]),
                                    "consistency_pair")
    for i in range(n):
        for j in range(i, n):
            third = inverse(sup(chosen[i], chosen[j]))
            if third in picked:
                return TangleReport("none", (chosen[i], chosen[j], third),
                                    "corner_triple")
    return TangleReport("profile")


def check_regular(o: Orientation) -> bool:
    """No chosen separation points away from the whole ground set."""
    full = o.system.ground.full
    return all(a != full for a, _ in o.choices())


def is_regular_profile(o: Orientation) -> bool:
    return check_regular(o) and check_profile(o).ok


def enumerate_orientations(system: LowOrderSystem) -> Iterator[Orientation]:
    """All 2^n orientations, forward-first per member; the naive generator."""
    for forward in itertools.product((True, False), repeat=system.count):
        yield Orientation(system, forward)


def enumerate_tangles(g: BipartiteGraph, universe: str, k,
                      kind: str = "tangle",
                      member_cap: int = DEFAULT_MEMBER_CAP,
                      system: LowOrderSystem | None = None) -> list[Orientation]:
    """Exhaustively enumerate tangles or regular profiles of S_k.

    Backtracking over members in sorted order with incremental pruning; the
    search tree covers all 2^n orientations, and pruned branches are exactly
    those whose partial choice already violates the (monotone) conditions,
    so the result list is complete.  Deterministic order: forward choice
    explored first at every member.  The prefix record answers a repeat or
    resumes the search (see the module docstring).  Results are orientations
    of ``system`` (S_k of ``g`` when it is None), whichever search found them.

    A system of more than ``member_cap`` members is not searched: the answer
    is ``[]`` when S_j, the largest system of its universe within the cap,
    has no result, and otherwise ``CapExceeded`` is raised (see the module
    docstring).
    """
    if kind not in ("tangle", "regular_profile"):
        raise ValueError(f"kind must be 'tangle' or 'regular_profile', got {kind!r}")
    if system is None:
        system = build_system(g, universe, k)
    n = system.count
    if n > member_cap:
        space = system.space
        counts = space.counts()
        j = counts[bisect_right(counts, max(member_cap, 0)) - 1]
        if not _recorded(LowOrderSystem(space, j), kind):
            return []
        raise CapExceeded(f"system has {n} members, over member cap {member_cap}")
    return [Orientation(system, forward) for forward in _recorded(system, kind)]


def _recorded(system: LowOrderSystem, kind: str) -> tuple[tuple[bool, ...], ...]:
    """The ``forward`` tuples of the results of ``system``, read from the
    prefix record or searched, resumed from the largest recorded prefix of
    the kind, and recorded."""
    record = system.space.record
    n = system.count
    found = record.get((n, kind))
    if found is None:
        # with no prefix searched yet, seed with the one orientation of none
        m = max((j for j, kd in record if kd == kind and j < n), default=0)
        seeds = record.get((m, kind), ((),))
        found = record[n, kind] = _search(system, kind, m, seeds) if seeds else ()
    return found


def _search(system: LowOrderSystem, kind: str, m: int,
            seeds: tuple[tuple[bool, ...], ...]) -> tuple[tuple[bool, ...], ...]:
    """The ``forward`` tuples of the results of ``system``, in search order,
    resumed at member m from ``seeds``, the results of the first m members.

    The C walk of ``_native`` runs it when the ground set has at most 64
    elements and the extension is built; otherwise ``_walk``, the Python walk
    it mirrors and is tested against, does.  Both list the same results in
    the same order.  An allocation failure in the C walk raises
    ``MemoryError`` and returns nothing.
    """
    if system.ground.n <= 64:
        found = _native.search(system.members, system.ground.n, kind, m, seeds)
        if found is not None:
            return found
    return _walk(system, kind, m, seeds)


def _walk(system: LowOrderSystem, kind: str, m: int,
          seeds: tuple[tuple[bool, ...], ...]) -> tuple[tuple[bool, ...], ...]:
    """``_search`` in Python, the fallback and the reference of the C walk.

    One walk for both kinds, without recursion: level i orients member i,
    ``tried[i]`` counts the orientations tried there (t = 0 forward, then
    t = 1 the inverse), ``place(i, t, True)`` pushes the orientation if it
    passes and the walk goes down a level, and a level with both tried goes
    back up one, calling ``undo()`` to pop the push above it.  So the depth
    is the number of chosen members, and the state after going back up
    equals the state before the matching push.  The kind supplies ``place``
    and ``undo``, built per search by ``_tangle_steps`` or
    ``_profile_steps``.

    Resume.  Seeds are replayed by ``place(i, t, False)``, which pushes
    without testing, undoing pushes only back to the first member where a
    seed differs from the one before, so a resume pushes no more than a
    search from member 0 would.
    """
    n = system.count
    place, undo = (_tangle_steps if kind == "tangle" else _profile_steps)(system)
    results: list[tuple[bool, ...]] = []
    forward = [True] * n
    tried = [0] * (n + 1)
    pushed = 0  # levels of the last seed whose push stands
    for seed in seeds:
        d = 0
        while d < pushed and seed[d] == forward[d]:
            d += 1
        for _ in range(d, pushed):
            undo()
        for i in range(d, m):
            forward[i] = val = seed[i]
            place(i, not val, False)
        pushed = i = m
        tried[m] = 0
        while True:
            if i < n and tried[i] < 2:
                t = tried[i]
                tried[i] = t + 1
                if place(i, t, True):
                    forward[i] = not t
                    i += 1
                    tried[i] = 0
                continue
            if i == n:
                results.append(tuple(forward))
            i -= 1
            if i < m:
                break
            undo()
    return tuple(results)


def _tangle_steps(system: LowOrderSystem):
    """The tangle steps of ``_search``, on per-element bit slices.

    A union slot is a pair of chosen members, repetition allowed, numbered
    in push order: the push at level i appends the i + 1 slots (j, i) for
    j < i, then (i, i), at ``base = i(i + 1)/2``.  ``has[e]`` is the bitset
    of the slots whose union of first sides holds element e, and ``ch[e]``
    the bitset of the chosen positions whose first side holds e.  A member s
    fails iff some slot holds every element outside ``s.a``, or no element
    is outside it (``s.a == full``, so (s, s, s) covers): iff the AND of
    ``has[e]`` over those e, started from ``live``, the slots below
    ``base``, never reaches zero.  That is at most n big-int ANDs, stopping
    at the first zero.

    ``undo`` does nothing: the level fixes ``base``, and the bits at or above
    it, left by undone pushes, are stale.  One overwrite on push is enough
    because no test reads a stale bit: a test ANDs from ``live``, the slots
    below its level's ``base``, and the push at level i makes slots
    ``base .. base + i`` exact for every element, ORing in the whole block
    for e in ``s.a`` and, for any other e, replacing every bit from ``base``
    up with ``ch[e]`` shifted.  So every slot below the next level's base is
    exact.  Likewise a push reads ``ch[e]`` only below position i and
    rewrites it up to i.  ``sides`` maps a first side to the elements in it
    and outside it; it is the universe's, shared by its searches.
    """
    members, sides, width = system.members, system.space.sides, system.ground.n
    has = [0] * width
    ch = [0] * width

    def place(i: int, t: int, test: bool) -> bool:
        sa = members[i][t]
        parts = sides.get(sa)
        if parts is None:
            parts = sides[sa] = (tuple([e for e in range(width) if sa >> e & 1]),
                                 tuple([e for e in range(width) if not sa >> e & 1]))
        inside, outside = parts
        base = i * (i + 1) >> 1
        live = (1 << base) - 1
        if test:
            acc = live
            for e in outside:
                acc &= has[e]
                if not acc:
                    break
            else:
                return False
        below = (1 << i) - 1
        block = (2 << i) - 1 << base
        for e in inside:
            ch[e] = ch[e] & below | 1 << i
            has[e] |= block
        for e in outside:
            c = ch[e] = ch[e] & below
            has[e] = has[e] & live | c << base
        return True

    def undo() -> None:
        pass

    return place, undo


def _profile_steps(system: LowOrderSystem):
    """The regular-profile steps of ``_search``.

    ``chosen`` lists the chosen orientations, ``picked`` holds them as a
    set, and ``closes`` holds ``inverse(sup(t, u)) = (t.b & u.b, t.a | u.a)``
    over chosen multisets {t, u}.  ``place`` builds the set ``thirds`` of the
    inverted suprema of s with each chosen t and with itself once: s fails
    if it is irregular, if a chosen pair closes on it (``s in closes``), if
    it points away from a chosen t, if a pair {t, s} closes on s or on a
    chosen member (``s in thirds``, ``thirds & picked``).  One order test per
    chosen t suffices for condition (i) of ``check_profile``: inversion
    reverses the order, so ``inverse(t) <= s`` and ``inverse(s) <= t`` are
    the same condition.  Every test asks only for orientations of members,
    so ``thirds`` keeps only those, the entries of ``oriented``, built per
    search; ``closes`` then holds at most two entries per member instead of
    one per chosen pair.  A push adds to ``closes`` the entries of
    ``thirds`` it does not hold yet and keeps them as the level's token;
    ``undo`` removes exactly those.  So a node costs O(|chosen|) on plain
    masks.
    """
    members, full = system.members, system.ground.full
    oriented = frozenset(members).union([(b, a) for a, b in members])
    chosen: list[tuple[int, int]] = []
    picked: set[tuple[int, int]] = set()
    closes: set[tuple[int, int]] = set()
    tokens: list[frozenset[tuple[int, int]]] = []  # per level, what its push added

    def place(i: int, t: int, test: bool) -> bool:
        a, b = member = members[i]
        sa, sb = s = (b, a) if t else member
        if test:
            if sa == full or s in closes:
                return False
            out_a = ~sa
            for ta, tb in chosen:
                # leq(inverse(t), s), the same test as leq(inverse(s), t)
                if tb & out_a == 0 and sb & ~ta == 0:
                    return False
        sups = [(tb & sb, ta | sa) for ta, tb in chosen]
        sups.append((sb, sa))  # the inverted supremum of s with itself
        thirds = oriented.intersection(sups)
        if test and (s in thirds or not thirds.isdisjoint(picked)):
            return False
        added = thirds - closes
        closes.update(added)
        picked.add(s)
        chosen.append(s)
        tokens.append(added)
        return True

    def undo() -> None:
        closes.difference_update(tokens.pop())
        picked.remove(chosen.pop())

    return place, undo


def kept_images(g: BipartiteGraph, universe: str, dest: str,
                count: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The images of the first ``count`` members of ``universe`` under its
    canonical map to ``dest``: per member, ``(image of member, image of its
    inverse)`` as plain pairs.  Kept on the universe's ``_Universe`` and
    extended as far as asked, so an entry, once made, is never remade."""
    space = _Universe.of(g, universe)
    table = space.images.get(dest)
    if table is None:
        table = space.images[dest] = []
    if len(table) < count:
        shift = universe_map(g, universe, dest)
        table.extend([(tuple(shift(m)), tuple(shift((m[1], m[0]))))
                      for m in space.members(count)[len(table):]])
    return table[:count]


def kept_system(g: BipartiteGraph, universe: str, k2: int) -> LowOrderSystem:
    """S_k at doubled threshold k2, kept at ``g._cache[universe, count]``, so
    every threshold with the same members shares one system; built through
    ``build_system`` once per member count."""
    space = _Universe.of(g, universe)
    space.check_ground_cap()
    key = universe, space.count_below(k2)
    system = g._cache.get(key)
    if system is None:
        system = g._cache[key] = build_system(g, universe, HalfInt(k2))
    return system
