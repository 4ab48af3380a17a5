"""The C search walk and the C scan of ``sepdual._native``, against the
Python walk and the Python scan, and their loader.

Walk: on every input, ``_native.search`` lists the same results in the same
order as ``tangles._walk``, the Python walk it mirrors, from member 0 and
resumed from seeds: on every search of the corpus run, with and without the
member cap, and on the edge shapes a scan never yields (no member, a 63- or
64-element ground, seeds of every member, a system with no result, covers
found only across a word boundary of chosen positions, covers whose first
sides' sizes sum to exactly the ground's).  A 65-element
ground goes to the Python walk, an allocation failure in the C walk raises
``MemoryError``, and a deep search takes memory linear in its depth.

Scan: on every input whose keys fit in 63 bits, ``_native.scan`` lists the
same keys as the Python body of ``_kernels.scan_members``, its fallback and
reference: every universe of the corpus and of the ladder's first block,
seeded random masks over 0 to 12 elements (empty and repeated masks, both
modes) and every kind of bound.  A ground whose keys need more bits goes to
the Python scan, and an allocation failure in the C scan raises
``MemoryError``.

Count: on every input of at most 40 elements, ``_native.count`` counts the
same members by order as the Python body of ``_kernels.order_counts``, its
fallback and reference: every universe of the corpus and of the ladder on
seeds 1 and 2, in both modes, and seeded random masks over 0 to 12
elements (empty and repeated masks, an element in no mask).  A ground of 41
elements goes to the Python count, and an allocation failure in the C count
raises ``MemoryError``.

Boundary: the extension functions check their arguments and raise on bad
ones instead of crashing, keep no memory and no reference per call, and
leave the reference counts of what they read as they were.

Loader: each test runs ``_native.load`` in a fresh cache directory under
``tmp_path``, as a new process would at its first search.  A build that
fails, by any compiler, leaves the package on the Python walk with the same
outputs and is not tried again; a library that does not load is deleted; a
library of another key, a half-written build and a cache directory that
another user could write are never used; nothing is written outside the
cache directory; builds of two sources share one cache, each built once.
Importing the package touches no file, a command that never scans or
searches neither builds nor loads the library, and ``enumerate``, which
scans, loads it and prints the same bytes without it.
"""

import importlib.util
import os
import random
import shutil
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sepdual
from sepdual import (BipartiteGraph, GroundSet, HalfInt, LowOrderSystem, _kernels, _native,
                     enumerate_tangles, tangles)
from sepdual.orders import UNIVERSES, universe_context
from sepdual.verify import corpus, run_corpus

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("tangle", "regular_profile")
needs_native = pytest.mark.skipif(_native.load() is None,
                                  reason="the extension is not built on this host")


def _both(system, kind, m=0, seeds=((),)):
    """The C walk's results, asserted equal to the Python walk's."""
    fast = _native.search(system.members, system.ground.n, kind, m, seeds)
    assert fast == tangles._walk(system, kind, m, seeds), (system.members, kind, m)
    return fast


def _random_system(rng, width, count):
    """``count`` distinct canonical members over ``width`` elements, each
    with a small first side (so tangles reach deep) and any overlap."""
    full = (1 << width) - 1
    members = set()
    while len(members) < count:
        a = 0
        for _ in range(rng.randint(0, 3)):
            a |= 1 << rng.randrange(width)
        b = full ^ a | a & rng.getrandbits(width)
        if (a, b) != (full, full):
            members.add(min((a, b), (b, a)))
    return LowOrderSystem.from_members("x", GroundSet(range(width)), sorted(members))


# -- the walk ----------------------------------------------------------------


def test_the_c_walk_is_built_where_there_is_a_compiler():
    """Where the platform compiler runs, the package searches on the C walk,
    so a broken build fails here instead of passing on the Python walk."""
    if shutil.which(_native.compiler()[0]) is None:
        pytest.skip("no platform compiler on this host")
    assert sepdual.KERNEL_BACKEND == "native"
    module = _native.load()
    assert module is not None and sys.modules[_native.MODULE] is module
    assert callable(module.walk) and callable(module.scan) and callable(module.count)


def _corpus_run(member_cap):
    graphs = corpus()
    report = run_corpus(graphs=graphs, member_cap=member_cap)
    records = {(name, key): space.record for name, g in graphs
               for key, space in g._cache.items() if isinstance(key, str)}
    return report, records


@needs_native
@pytest.mark.parametrize("member_cap", [24, 10**9])
def test_corpus_searches_equal_on_both_walks(member_cap):
    """Every search of the corpus run, both kinds, resumed as the run
    resumes them: the same report and the same prefix record, search for
    search, on the C walk and on the Python walk."""
    report, records = _corpus_run(member_cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        assert _corpus_run(member_cap) == (report, records)
    searched = [key for record in records.values() for key in record]
    assert {kind for _, kind in searched} == set(KINDS)
    assert len(searched) >= 700


@needs_native
@pytest.mark.parametrize("kind", KINDS)
def test_no_member_and_one_member(kind):
    ground = GroundSet(range(3))
    empty = LowOrderSystem.from_members("x", ground, [])
    assert _both(empty, kind) == ((),)
    assert _both(empty, kind, 0, ((),) * 3) == ((),) * 3
    assert [o.forward for o in enumerate_tangles(None, "x", 0, kind, system=empty)] == [()]
    one = LowOrderSystem.from_members("x", ground, [(1, 7)])
    assert _both(one, kind) == ((True,),)


@needs_native
@pytest.mark.parametrize("width", [63, 64])
@pytest.mark.parametrize("kind", KINDS)
def test_grounds_of_63_and_64_elements(width, kind):
    """Random systems whose masks reach the top bit, searched from member 0
    and resumed from prefixes with a result."""
    rng = random.Random(width)
    resumed = found = 0
    for _ in range(20):
        system = _random_system(rng, width, rng.randint(1, 30))
        found += bool(_both(system, kind))
        for m in rng.sample(range(1, len(system) + 1), min(len(system), 4)):
            seeds = tangles._walk(LowOrderSystem(system.space, m), kind, 0, ((),))
            if seeds:
                _both(system, kind, m, seeds)
                resumed += 1
    assert found >= 10 and resumed >= 30


@needs_native
@pytest.mark.parametrize("kind", KINDS)
def test_deep_search_over_64_elements(kind):
    """Every member (c, full) with c empty, one of 64 elements or two of the
    first 32: 561 levels, whose one result points every member to c."""
    full = (1 << 64) - 1
    firsts = [0] + [1 << e for e in range(64)] + [
        1 << e | 1 << f for e in range(32) for f in range(e + 1, 32)]
    system = LowOrderSystem.from_members("x", GroundSet(range(64)),
                                         [(c, full) for c in firsts])
    assert _both(system, kind) == ((True,) * len(firsts),)


@needs_native
@pytest.mark.parametrize("kind", KINDS)
def test_seeds_of_every_member_are_the_results(kind):
    system = _random_system(random.Random(5), 12, 10)
    results = _both(system, kind)
    assert len(results) >= 2
    assert _both(system, kind, len(system), results) == results


@needs_native
@pytest.mark.parametrize("kind", KINDS)
def test_a_system_whose_every_orientation_fails(kind):
    """(full, full) points at everything both ways, so no orientation of a
    system holding it is a tangle or a regular profile."""
    ground = GroundSet(range(4))
    full = ground.full
    for members in ([(full, full)], [(1, full), (3, full), (full, full)]):
        system = LowOrderSystem.from_members("x", ground, members)
        assert _both(system, kind) == ()
        assert enumerate_tangles(None, "x", 0, kind, system=system) == []


@pytest.mark.parametrize("width", [64, 65])
def test_a_ground_over_64_elements_runs_the_python_walk(width, monkeypatch):
    calls = []
    search = _native.search
    monkeypatch.setattr(_native, "search", lambda *args: calls.append(args) or search(*args))
    full = (1 << width) - 1
    members = [(1 << e, full) for e in range(width - 3, width)] + [(1, full ^ 1)]
    system = LowOrderSystem.from_members("x", GroundSet(range(width)), members)
    for kind in KINDS:
        found = enumerate_tangles(None, "x", 0, kind, system=system)
        assert [o.forward for o in found] == list(tangles._walk(system, kind, 0, ((),)))
        assert found
    assert len(calls) == (2 if width == 64 else 0)


@needs_native
@pytest.mark.parametrize("late", [63, 64, 65, 127, 128])
def test_covers_found_across_word_boundaries(late):
    """A member whose first side is covered, with the member chosen at
    position ``late``, only by a chosen j < late in the same or an earlier
    64-bit word of positions, or whose first side with ``late``'s alone
    covers the ground, disjoint from it or not: placed at ``late + 1`` and
    at 130, it fails forward and passes inverted.  So the C tangle test
    reads every chosen position below ``late``, across word boundaries."""
    full = (1 << 64) - 1

    def bits(lo, hi):
        return (1 << hi) - (1 << lo)

    covers = [(j, bits(21, 42), bits(42, 64)) for j in sorted({0, 63, 64, late - 1}) if j < late]
    covers += [(None, bits(0, 32), bits(32, 64)), (None, bits(0, 41), bits(20, 64))]
    for early, late_side, side in covers:
        for at in {late + 1, 130}:
            # single-element first sides; their inverses point at everything
            members = [(1 << k % 64, full) for k in range(at + 1)]
            if early is not None:
                members[early] = (bits(0, 21), full)
            members[late] = (late_side, full)
            members[at] = (side, full ^ side)
            system = LowOrderSystem.from_members("x", GroundSet(range(64)), members)
            assert _both(system, "tangle") == ((True,) * at + (False,),), (early, late, at)


@needs_native
@pytest.mark.parametrize("members", [
    # s's first side and twice the largest chosen one's make 6 exactly
    [(0b110000, 0b111111), (0b001100, 0b111111), (0b000011, 0b111100)],
    # more than 6 in all, but l = 1 reaches 6 only with j = 0 below it
    [(0b111000, 0b111111), (0b000100, 0b111111), (0b000011, 0b111100)],
], ids=["whole-test", "per-level"])
def test_a_cover_whose_sizes_sum_to_the_ground_is_found(members):
    """Three first sides cover the ground only if their sizes sum to at
    least its size, and both walks skip tests by that bound: a cover whose
    sizes sum to exactly 6 of 6 elements still rejects the last member
    forward, whose inverse, covering nothing, passes."""
    system = LowOrderSystem.from_members("x", GroundSet(range(6)), members)
    assert _both(system, "tangle") == ((True, True, False),)


UNDER_A_LIMIT = """
import resource, sys
from sepdual import GroundSet, LowOrderSystem, _native, tangles

ground = GroundSet(range(64))
limited = LowOrderSystem.from_members("x", ground, %s)
small = LowOrderSystem.from_members("x", ground, [(i + 1, ground.full) for i in range(50)])
limited.members, small.members
assert _native.load() is not None
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
with open("/proc/self/statm") as f:
    size = int(f.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (size + (%d << 20), hard))
try:
    found = tangles._search(limited, "tangle", 0, ((),))
except MemoryError as exc:
    print("MemoryError:", exc)
else:
    print("returned", len(found), found == ((True,) * len(limited),))
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
print(tangles._search(small, "tangle", 0, ((),)) == ((True,) * 50,))
"""


def _search_under_a_limit(members, megabytes):
    """What a tangle search of the members over 64 elements prints in a new
    process whose address space may grow by ``megabytes`` during the search,
    then what a search of 50 members prints with the limit lifted."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", UNDER_A_LIMIT % (members, megabytes)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@needs_native
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_an_allocation_failure_raises_memory_error():
    """24 members of single-element sides: no three first sides cover, so
    all 2^24 orientations are results, whose rows need 384 MB.  Under an
    address-space limit the C walk cannot hold them: it raises
    ``MemoryError`` and returns nothing, and the next search runs."""
    assert _search_under_a_limit("[(1 << i, 1 << i + 32) for i in range(24)]", 64) == [
        "MemoryError: the native search walk could not allocate its state", "True"]


@needs_native
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_a_deep_search_takes_memory_linear_in_its_depth():
    """4,000 levels over 64 elements, whose one tangle points every member
    (i + 1, full) to its first side, searched in 32 MB: the C walk keeps a
    word per level and a bit per level and element, where a slot per pair
    of levels would take 64 MB."""
    assert _search_under_a_limit("[(i + 1, ground.full) for i in range(4000)]", 32) == [
        "returned 1 True", "True"]


# -- the scan ----------------------------------------------------------------


def _python_scan(masks, n, partitions_only=False, below=None):
    """The Python body of ``_kernels.scan_members``, with the loader finding
    no extension."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        return _kernels.scan_members(masks, n, partitions_only, below)


def _both_scans(masks, n, partitions_only=False, below=None):
    """The C scan's keys, asserted equal to the Python scan's."""
    fast = _native.scan(masks, n, partitions_only, below)
    assert fast is not None, (masks, n)
    assert fast == _python_scan(masks, n, partitions_only, below), (
        masks, n, partitions_only, below)
    return fast


def _belows(n):
    """The bounds a universe of n elements is scanned with: none and two in
    the range of its orders when it is listed in full quickly, else three
    small ones."""
    return (None, 3, 7) if n <= 10 else (2, 5, 8)


def _ladder_blocks(seed):
    """The graphs of the ladder workload's blocks for ``seed``, by block."""
    path = ROOT / "certbench" / "workloads.py"
    if not path.is_file():
        pytest.skip("no certbench checkout")
    sys.path.insert(0, str(path.parent))
    try:
        spec = importlib.util.spec_from_file_location("ladder_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(path.parent))
    return [[BipartiteGraph(*spec) for spec in block]
            for block in workloads.Ladder().generate(None, seed)]


@needs_native
@pytest.mark.parametrize("graphs", ["corpus", "ladder-1", "ladder-2"])
def test_every_universe_scans_equal_on_both_scans(graphs):
    """Every universe of the corpus graphs and of the first ladder block on
    seeds 1 and 2, listed in full or below a bound; the keys of every one
    fit in 63 bits, the corpus's 25-edge universes included."""
    found = ([g for _, g in corpus()] if graphs == "corpus"
             else _ladder_blocks(int(graphs[-1]))[0])
    scanned = 0
    for g in found:
        for universe in UNIVERSES:
            masks, ground, partitions_only = universe_context(g, universe)
            for below in _belows(ground.n):
                _both_scans(masks, ground.n, partitions_only, below)
                scanned += 1
    assert scanned == 3 * len(UNIVERSES) * len(found)


@needs_native
def test_random_masks_scan_equal_on_both_scans():
    """Seeded masks over n = 0..12, each mask of its own density: no mask,
    empty masks, repeated masks, an element in no mask; both modes, and the
    bounds none, 0, 1, half the sum of |m|, that sum (the order of (full,
    full)), one past it, and negative."""
    rng = random.Random(30)
    for n in range(13):
        full = (1 << n) - 1
        for trial in range(30 if n < 9 else 4):
            masks = [rng.getrandbits(n) & rng.getrandbits(n) if trial % 2
                     else rng.getrandbits(n) for _ in range(rng.randrange(12))]
            if trial % 5 == 1:
                masks.append(0)
            if trial % 5 == 2 and masks:
                masks += masks[: rng.randrange(1, len(masks) + 1)]
            if trial % 5 == 3 and n:
                unused = 1 << rng.randrange(n)
                masks = [m & full & ~unused for m in masks]
            top = sum(m.bit_count() for m in masks)
            for partitions_only in (False, True):
                belows = (None, 0, 1, top // 2, top, top + 1, -1)
                if n >= 11 and not partitions_only:
                    belows = (0, 1, 3, -1)  # the Python scan lists 88k+ keys slowly
                for below in belows:
                    _both_scans(masks, n, partitions_only, below)


@needs_native
def test_scan_bounds_past_any_int64():
    """A bound too large or too negative for 64 bits lists everything or
    nothing, as in Python."""
    masks, n = (0b011, 0b110, 0b101), 3
    full = _both_scans(masks, n)
    assert len(full) == (3**n - 1) // 2
    assert _both_scans(masks, n, False, 1 << 80) == full
    assert _both_scans(masks, n, False, -(1 << 80)) == []


@needs_native
def test_a_ground_whose_keys_need_64_bits_runs_the_python_scan():
    """Keys fit in 63 bits exactly when ``(sum |m| + 1) << 2n <= 2**63``: on
    28 elements a sum of 127 runs the C scan, a sum of 128 and any ground of
    32 elements the Python body, and ``scan_members`` lists the same keys
    either way."""
    n, full = 28, (1 << 28) - 1
    for last, fits in ((1 << 15) - 1, True), ((1 << 16) - 1, False):
        masks = (full, full, full, full, last)
        keys = _kernels.scan_members(masks, n, False, 12)
        assert keys and keys == _python_scan(masks, n, False, 12)
        assert _native.scan(masks, n, False, 12) == (keys if fits else None)
    wide = ((1 << 32) - 1,) * 3
    assert _native.scan(wide, 32, False, 8) is None
    assert _kernels.scan_members(wide, 32, False, 8) == _python_scan(wide, 32, False, 8)


SCAN_OUT_OF_MEMORY = """
import resource
from sepdual import _kernels, _native

assert _native.load() is not None
masks = tuple(3 << e for e in range(15))
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
with open("/proc/self/statm") as f:
    size = int(f.read().split()[0]) * resource.getpagesize()
# the full listing of 16 elements is (3**16 - 1) // 2 keys, 172 MB of them
resource.setrlimit(resource.RLIMIT_AS, (size + (64 << 20), hard))
try:
    keys = _kernels.scan_members(masks, 16)
except MemoryError as exc:
    print("MemoryError:", exc)
else:
    print("returned", len(keys))
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
print(len(_kernels.scan_members(masks[:5], 6)) == (3**6 - 1) // 2)
"""


@needs_native
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_an_allocation_failure_in_the_scan_raises_memory_error():
    """Under an address-space limit the C scan cannot hold its levels: it
    raises ``MemoryError`` and returns nothing, and the next scan runs."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", SCAN_OUT_OF_MEMORY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "MemoryError: the native scan could not allocate its levels", "True"]


# -- the count ---------------------------------------------------------------


def _python_count(masks, n, partitions_only=False):
    """The Python body of ``_kernels.order_counts``, with the loader finding
    no extension."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "load", lambda: None)
        return _kernels.order_counts(masks, n, partitions_only)


def _both_counts(masks, n, partitions_only=False):
    """The C count, asserted equal to the Python count and to the closed
    form of the members counted."""
    fast = _native.count(masks, n, partitions_only)
    assert fast is not None, (masks, n)
    assert fast == _python_count(masks, n, partitions_only), (masks, n, partitions_only)
    members = (1 << n - 1 if n else 0) if partitions_only else (3**n - 1) // 2
    assert sum(fast.values()) == members
    return fast


@needs_native
@pytest.mark.parametrize("graphs", ["corpus", "ladder-1", "ladder-2"])
def test_every_universe_counts_equal_on_both_counts(graphs):
    """Every universe of the corpus graphs and of every ladder block on
    seeds 1 and 2, counted as separations and as partitions."""
    found = ([g for _, g in corpus()] if graphs == "corpus"
             else [g for block in _ladder_blocks(int(graphs[-1])) for g in block])
    counted = 0
    for g in found:
        for universe in UNIVERSES:
            masks, ground, _ = universe_context(g, universe)
            for partitions_only in (False, True):
                _both_counts(masks, ground.n, partitions_only)
                counted += 1
    assert counted == 2 * len(UNIVERSES) * len(found)
    assert len(found) == (50 if graphs == "corpus" else 216)


@needs_native
def test_random_masks_count_equal_on_both_counts():
    """Seeded masks over n = 0..12, each mask of its own density: no mask,
    empty masks, repeated masks, an element in no mask; both modes."""
    rng = random.Random(33)
    for n in range(13):
        full = (1 << n) - 1
        for trial in range(30 if n < 9 else 10):
            masks = [rng.getrandbits(n) & rng.getrandbits(n) if trial % 2
                     else rng.getrandbits(n) for _ in range(rng.randrange(12))]
            if trial % 5 == 1:
                masks.append(0)
            if trial % 5 == 2 and masks:
                masks += masks[: rng.randrange(1, len(masks) + 1)]
            if trial % 5 == 3 and n:
                unused = 1 << rng.randrange(n)
                masks = [m & full & ~unused for m in masks]
            for partitions_only in (False, True):
                _both_counts(masks, n, partitions_only)


@needs_native
def test_a_ground_over_40_elements_runs_the_python_count():
    """Counts stay below 3^40 < 2^64 on 40 elements, which the C count takes;
    on 41 ``count`` returns None and ``order_counts`` gives the Python
    count."""
    for n in (40, 41):
        full = (1 << n) - 1
        masks = (full, full >> 20, 1 << n - 1 | 1, 0b110)
        counts = _kernels.order_counts(masks, n)
        assert counts == _python_count(masks, n)
        assert sum(counts.values()) == (3**n - 1) // 2
        assert _native.count(masks, n, False) == (counts if n == 40 else None)


COUNT_OUT_OF_MEMORY = """
import resource
from sepdual import _kernels, _native

assert _native.load() is not None
# the edges of K_{6,6}: a row of six per vertex, whose count holds about
# 290,000 states a level
masks = tuple([0x3f << 6 * r for r in range(6)] + [0x41041041 << c for c in range(6)])
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
with open("/proc/self/statm") as f:
    size = int(f.read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (size + (16 << 20), hard))
try:
    counts = _kernels.order_counts(masks, 36)
except MemoryError as exc:
    print("MemoryError:", exc)
else:
    print("returned", len(counts))
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
print(sum(_kernels.order_counts(masks[:4], 24).values()) == (3**24 - 1) // 2)
"""


@needs_native
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_an_allocation_failure_in_the_count_raises_memory_error():
    """Under an address-space limit the C count cannot hold its states: it
    raises ``MemoryError`` and returns nothing, and the next count runs."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", COUNT_OUT_OF_MEMORY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "MemoryError: the native count could not allocate its states", "True"]


# -- the boundary --------------------------------------------------------------


#: a valid call of the extension's ``walk``: the tangles of two members over
#: three elements, resumed at member 1 from both orientations of the first
GOOD = {"members": ((1, 7), (2, 7)), "width": 3, "kind": 0, "m": 1,
        "seeds": ((True,), (False,))}

#: one argument of ``GOOD`` changed, and the error it must raise
BAD_ARGUMENTS = {
    "seed-of-wrong-length": ({"seeds": ((True,), (True, False))}, ValueError),
    "width-65": ({"width": 65}, ValueError),
    "negative-width": ({"width": -1}, ValueError),
    "m-over-n": ({"m": 3, "seeds": ((True,) * 3,)}, ValueError),
    "unknown-kind": ({"kind": 2}, ValueError),
    "member-not-a-pair": ({"members": ((1, 7), (2,))}, TypeError),
    "member-of-three": ({"members": ((1, 7), (2, 7, 0))}, TypeError),
    "member-a-list": ({"members": ((1, 7), [2, 7])}, TypeError),
    "mask-not-an-int": ({"members": ((1, 7), (2.0, 7))}, TypeError),
    "mask-of-2**64": ({"members": ((1, 7), (2, 1 << 64)), "width": 64}, OverflowError),
    "negative-mask": ({"members": ((1, 7), (-2, 7))}, OverflowError),
    "members-a-list": ({"members": [(1, 7), (2, 7)]}, TypeError),
    "seeds-a-list": ({"seeds": [(True,), (False,)]}, TypeError),
    "seed-a-list": ({"seeds": ((True,), [False])}, TypeError),
    "seed-of-ints": ({"seeds": ((True,), (0,))}, TypeError),
    "width-not-an-int": ({"width": "3"}, TypeError),
}


@needs_native
@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
def test_bad_arguments_raise(case):
    """Each bad argument raises, and the next call runs as before."""
    change, error = BAD_ARGUMENTS[case]
    walk = _native.load().walk
    with pytest.raises(error):
        walk(*{**GOOD, **change}.values())
    system = LowOrderSystem.from_members("x", GroundSet(range(3)), GOOD["members"])
    assert walk(*GOOD.values()) == tangles._walk(system, "tangle", 1, GOOD["seeds"])


@needs_native
def test_walk_takes_five_arguments():
    with pytest.raises(TypeError):
        _native.load().walk(*list(GOOD.values())[:4])


@needs_native
def test_a_wrong_seed_raises_through_search():
    with pytest.raises(ValueError, match="first m members of at most 64 elements"):
        _native.search(((1, 7), (2, 7)), 3, "tangle", 1, ((True,), ()))
    with pytest.raises(ValueError, match="first m members of at most 64 elements"):
        _native.search(((1, 7),), 65, "regular_profile", 0, ((),))


def _resumed_profile_search():
    """A regular-profile search of a random 12-element system resumed at its
    fifth member from the results there, with the arguments it was run on."""
    system = _random_system(random.Random(3), 12, 10)
    seeds = tangles._walk(LowOrderSystem(system.space, 5), "regular_profile", 0, ((),))
    assert len(seeds) >= 2
    return system.members, system.ground.n, "regular_profile", 5, seeds


@needs_native
def test_repeated_searches_keep_no_memory():
    """20,000 repeats of one resumed search, their results dropped, leave
    Python's traced allocations within 64 KB of where they started."""
    args = _resumed_profile_search()
    assert _native.search(*args)
    tracemalloc.start()
    try:
        _native.search(*args)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20_000):
            _native.search(*args)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


@needs_native
def test_a_search_leaves_reference_counts_as_they_were():
    members, width, kind, m, seeds = _resumed_profile_search()
    pair, seed = members[3], seeds[0]
    counts = sys.getrefcount(pair), sys.getrefcount(seed), sys.getrefcount(members)
    for _ in range(100):
        found = _native.search(members, width, kind, m, seeds)
    del found
    assert (sys.getrefcount(pair), sys.getrefcount(seed), sys.getrefcount(members)) == counts


#: a valid call of the extension's ``scan``: three masks over three
#: elements, below doubled order 3
SCAN_GOOD = {"masks": (0b011, 0b110, 0b101), "n": 3, "partitions_only": False, "below": 3}


class _NoTruth:
    def __bool__(self):
        raise ValueError("no truth value")


#: one argument of ``SCAN_GOOD`` changed, and the error it must raise
SCAN_BAD_ARGUMENTS = {
    "masks-a-list": ({"masks": [0b011, 0b110, 0b101]}, TypeError),
    "mask-not-an-int": ({"masks": (0b011, 6.0, 0b101)}, TypeError),
    "mask-of-2**64": ({"masks": (0b011, 1 << 64)}, OverflowError),
    "negative-mask": ({"masks": (0b011, -6)}, OverflowError),
    "negative-n": ({"n": -1}, ValueError),
    "n-of-2**64": ({"n": 1 << 64}, OverflowError),
    "n-not-an-int": ({"n": "3"}, TypeError),
    "below-not-an-int": ({"below": 2.5}, TypeError),
    "partitions-only-without-truth": ({"partitions_only": _NoTruth()}, ValueError),
}


@needs_native
@pytest.mark.parametrize("case", sorted(SCAN_BAD_ARGUMENTS))
def test_bad_scan_arguments_raise(case):
    """Each bad argument raises, and the next call runs as before."""
    change, error = SCAN_BAD_ARGUMENTS[case]
    scan = _native.load().scan
    with pytest.raises(error):
        scan(*{**SCAN_GOOD, **change}.values())
    assert scan(*SCAN_GOOD.values()) == _python_scan(*SCAN_GOOD.values())
    with pytest.raises(TypeError):
        scan(*list(SCAN_GOOD.values())[:3])


@needs_native
@pytest.mark.parametrize("case", sorted(set(SCAN_BAD_ARGUMENTS) - {"below-not-an-int"}))
def test_bad_count_arguments_raise(case):
    """The scan's bad masks, n and modes raise the same errors in the count,
    and the next call runs as before."""
    change, error = SCAN_BAD_ARGUMENTS[case]
    count = _native.load().count
    good = {k: v for k, v in SCAN_GOOD.items() if k != "below"}
    with pytest.raises(error):
        count(*{**good, **change}.values())
    assert count(*good.values()) == _python_count(*good.values())
    with pytest.raises(TypeError):
        count(*list(good.values())[:2])
    with pytest.raises(TypeError):
        count(*SCAN_GOOD.values())


#: scans of a 6-element side in full (radix-sorted) and below 6 (sorted
#: by insertion)
SCANS = [((0b000111, 0b011100, 0b110001, 0b101010, 0b010101), 6, False, below)
         for below in (None, 6)]


@needs_native
def test_repeated_scans_keep_no_memory():
    """20,000 scans, their keys dropped, leave Python's traced allocations
    within 64 KB of where they started."""
    assert [len(_both_scans(*args)) for args in SCANS] == [364, 22]
    tracemalloc.start()
    try:
        for args in SCANS:
            _native.scan(*args)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10_000):
            for args in SCANS:
                _native.scan(*args)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


@needs_native
def test_a_scan_leaves_reference_counts_as_they_were():
    masks, n, partitions_only, below = SCANS[1]
    below = 1 << 70  # an int object of its own, past every order
    mask = masks[2]
    counts = sys.getrefcount(masks), sys.getrefcount(mask), sys.getrefcount(below)
    for _ in range(100):
        keys = _native.load().scan(masks, n, partitions_only, below)
    del keys
    assert (sys.getrefcount(masks), sys.getrefcount(mask), sys.getrefcount(below)) == counts


@needs_native
def test_repeated_counts_keep_no_memory():
    """20,000 counts, their dicts dropped, leave Python's traced allocations
    within 64 KB of where they started."""
    masks, n = SCANS[0][:2]
    counts = [_both_counts(masks, n, partitions_only) for partitions_only in (False, True)]
    assert [sum(c.values()) for c in counts] == [364, 32]
    tracemalloc.start()
    try:
        for partitions_only in (False, True):
            _native.count(masks, n, partitions_only)
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10_000):
            for partitions_only in (False, True):
                _native.count(masks, n, partitions_only)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


@needs_native
def test_a_count_leaves_reference_counts_as_they_were():
    # masks past the small ints, each an int object of its own
    masks = tuple([m << 8 for m in SCANS[0][0]])
    mask = masks[2]
    counts = sys.getrefcount(masks), sys.getrefcount(mask)
    for _ in range(100):
        found = _native.load().count(masks, 14, False)
    del found
    assert (sys.getrefcount(masks), sys.getrefcount(mask)) == counts


# -- the loader --------------------------------------------------------------


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """The cache directory of a fresh ``$XDG_CACHE_HOME`` under ``tmp_path``,
    with ``_native.load`` not run yet, as in a new process; the session's
    extension module comes back after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    _next_process(monkeypatch)
    monkeypatch.delitem(sys.modules, _native.MODULE, raising=False)
    return tmp_path / "xdg" / "sepdual"


def _next_process(monkeypatch):
    """Forget ``_native.load``'s answer, as a new process starts without it."""
    monkeypatch.setattr(_native, "_module", False)


def _script(tmp_path, body):
    """A compiler: a Python script run with the compiler's arguments."""
    path = tmp_path / "cc.py"
    path.write_text("import os, sys\nout = sys.argv[sys.argv.index('-o') + 1]\n" + body)
    return [sys.executable, str(path)]


def _tree(root):
    """Every file under ``root`` but git's and the caches tests write."""
    found = set()
    for top, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs
                   if d not in (".git", "__pycache__", ".pytest_cache", ".hypothesis")]
        found.update(os.path.join(top, f) for f in files)
    return found


def _outputs():
    """The results of both kinds on a graph of two blocks."""
    g = sepdual.gen_planted([(2, 2), (3, 2)], 1.0, 0.0, 7)
    return [[o.to_dict() for o in enumerate_tangles(g, universe, HalfInt(4), kind)]
            for universe in ("x", "e") for kind in KINDS]


@pytest.fixture(scope="module")
def expected():
    """``_outputs()`` on the walk the session loaded, the C walk wherever
    ``needs_native`` lets a test run; made before ``cache`` resets it."""
    return _outputs()


def _loaded_from():
    """The file the extension module was loaded from."""
    return Path(sys.modules[_native.MODULE].__spec__.origin)


@needs_native
def test_a_build_goes_to_the_cache_and_nowhere_else(cache, expected, monkeypatch):
    before = _tree(ROOT)
    module = _native.load()
    assert module is not None and _loaded_from() == cache / _native.library_name()
    assert os.listdir(cache) == [_native.library_name()]  # no temporary file left
    assert stat.S_IMODE(os.stat(cache).st_mode) == 0o700
    assert _tree(ROOT) == before
    monkeypatch.setattr(_native, "build", lambda path: pytest.fail("built twice"))
    assert _native.load() is module
    assert _outputs() == expected
    _next_process(monkeypatch)
    assert _native.load() is not None and _outputs() == expected


FAILING = {
    "missing": None,
    "exits-1": "sys.exit(1)",
    "half-written": "open(out, 'wb').write(b'\\x7fELF\\x02\\x01')\nsys.exit(1)",
    "killed": "open(out, 'wb').write(b'\\x7fELF')\nos.kill(os.getpid(), 9)",
}


@needs_native
@pytest.mark.parametrize("failure", sorted(FAILING))
def test_a_failed_build_leaves_the_python_walk(failure, cache, expected, tmp_path, monkeypatch):
    """A compiler that is missing, exits 1, or dies after writing part of the
    library: the first search tries the build and runs the Python walk with
    the same outputs, no library is cached, only the marker of the failed
    build, the package reads ``KERNEL_BACKEND == "pure"``, and the next
    process does not build again."""
    cc = ([str(tmp_path / "no-such-cc")] if FAILING[failure] is None
          else _script(tmp_path, FAILING[failure]))
    monkeypatch.setattr(_native, "compiler", lambda: cc)
    assert _outputs() == expected
    assert os.listdir(cache) == [_native.library_name() + ".failed"]
    assert sepdual.KERNEL_BACKEND == "pure" and _native.load() is None
    monkeypatch.setattr(_native, "compiler", lambda: pytest.fail("built twice"))
    _next_process(monkeypatch)
    assert _native.load() is None


@needs_native
def test_a_library_that_does_not_load_leaves_the_python_walk(cache, expected, tmp_path,
                                                             monkeypatch):
    """A compiler that exits 0 with no library in its output: the first
    search builds the file, cannot load it and runs the Python walk, and
    ``KERNEL_BACKEND`` reads ``"pure"``.  The file is deleted, and as this
    process built it, the next process does not build it again."""
    monkeypatch.setattr(_native, "compiler",
                        lambda: _script(tmp_path, "open(out, 'w').write('no library')"))
    assert _outputs() == expected
    assert sepdual.KERNEL_BACKEND == "pure" and _native.load() is None
    assert os.listdir(cache) == [_native.library_name() + ".failed"]
    monkeypatch.setattr(_native, "compiler", lambda: pytest.fail("built twice"))
    _next_process(monkeypatch)
    assert _native.load() is None


@needs_native
def test_a_cached_library_that_does_not_load_is_built_again(cache, expected, monkeypatch):
    """A file in the cache under the library's name that does not load, not
    built by this process: the first search deletes it and runs the Python
    walk, and the next process builds the library again."""
    cache.mkdir(parents=True, mode=0o700)
    os.chmod(cache, 0o700)
    path = cache / _native.library_name()
    path.write_text("no library")
    assert _outputs() == expected
    assert sepdual.KERNEL_BACKEND == "pure" and os.listdir(cache) == []
    _next_process(monkeypatch)
    assert _native.load() is not None and _loaded_from() == path
    assert _outputs() == expected


@needs_native
def test_a_library_of_another_key_is_never_loaded(cache, tmp_path, monkeypatch):
    """Files of other names in the cache, one of them the name of another
    source, are not taken for the library: with no compiler nothing is
    found, and with one the library is built under its own name.  The other
    files stay."""
    name = _native.library_name()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "SOURCE", _native.SOURCE + "\n")
        other = _native.library_name()
    assert other != name
    cache.mkdir(parents=True, mode=0o700)
    os.chmod(cache, 0o700)
    planted = [other, "walk-0.so", ".build-1.so", name + ".tmp"]
    for f in planted:
        (cache / f).write_text("not a library")
    with monkeypatch.context() as mp:
        mp.setattr(_native, "compiler", lambda: [str(tmp_path / "no-such-cc")])
        assert _native.load() is None
    (cache / (name + ".failed")).unlink()
    _next_process(monkeypatch)
    assert _native.load() is not None and _loaded_from() == cache / name
    assert sorted(os.listdir(cache)) == sorted(planted + [name])


@needs_native
def test_builds_of_two_sources_share_one_cache(cache, monkeypatch):
    """Two checkouts whose sources differ, starting processes in turn on one
    cache: each source is built once, then neither is built again, and both
    builds stay."""
    sources = (_native.SOURCE, _native.SOURCE + "\n")
    built, build = [], _native.build
    monkeypatch.setattr(_native, "build", lambda path: built.append(path) or build(path))
    paths = []
    for source in sources * 3:
        monkeypatch.setattr(_native, "SOURCE", source)
        _next_process(monkeypatch)
        assert _native.load() is not None
        paths.append(str(cache / _native.library_name()))
        assert _loaded_from() == Path(paths[-1])
    assert paths[0] != paths[1] and built == paths[:2]
    assert sorted(os.listdir(cache)) == sorted(os.path.basename(p) for p in paths[:2])


UNSAFE = {
    "group-writable": 0o770,
    "world-writable": 0o707,
    "open-to-all": 0o777,
}


@pytest.mark.parametrize("unsafe", sorted(UNSAFE) + ["not-owned", "symlink"])
def test_an_unsafe_cache_directory_is_not_used(unsafe, cache, tmp_path, monkeypatch):
    monkeypatch.setattr(_native, "build", lambda path: pytest.fail("built into " + path))
    if unsafe == "symlink":
        (tmp_path / "elsewhere").mkdir(mode=0o700)
        cache.parent.mkdir()
        cache.symlink_to(tmp_path / "elsewhere")
    else:
        cache.mkdir(parents=True)
        os.chmod(cache, UNSAFE.get(unsafe, 0o700))
    if unsafe == "not-owned":
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    assert _native.cache_dir() is None
    assert _native.load() is None
    assert os.listdir(cache) == []


def test_a_relative_xdg_cache_home_is_ignored(tmp_path, monkeypatch):
    """A relative ``$XDG_CACHE_HOME`` would put the cache under the working
    directory; it is ignored, as the XDG base directory rules say."""
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    monkeypatch.setenv("XDG_CACHE_HOME", "cache")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert Path(_native.cache_dir()) == tmp_path / "home" / ".cache" / "sepdual"
    assert os.listdir(tmp_path / "cwd") == []


#: runs the CLI, then prints which of the extension and ``subprocess`` (which
#: a build imports) the command loaded, then ``KERNEL_BACKEND``, whose read
#: loads the walk itself
CHILD = """
import sys, sysconfig
get, cc = sysconfig.get_config_var, {cc!r}
if cc is not None:
    sysconfig.get_config_var = lambda name: cc if name == "CC" else get(name)
import sepdual
from sepdual.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in ({module!r}, "subprocess") if m in sys.modules)
print(sepdual.KERNEL_BACKEND, loaded, file=sys.stderr)
sys.exit(code)
"""


def _env(cache=None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if cache is not None:
        env["XDG_CACHE_HOME"] = str(cache)
    return env


def _child(argv, cc=None, cache=None):
    child = CHILD.format(cc=cc, module=_native.MODULE)
    done = subprocess.run([sys.executable, "-c", child, *argv], env=_env(cache),
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout, done.stderr.decode().strip()


@needs_native
def test_importing_with_a_failing_compiler_runs_the_python_walk(tmp_path):
    """The whole path: a process that finds no library and cannot build one
    searches on the Python walk and prints the same bytes.  Only the first
    such process tries the build: later ones find its marker and do not
    import ``subprocess``."""
    argv = ["tangles", "--generator", "planted", "--blocks", "2x2,3x2", "--seed", "7",
            "--universe", "e", "--k2", "4", "--kind"]
    tried = "['subprocess']"
    for kind in ("tangle", "profile"):
        native, backend = _child(argv + [kind])
        assert backend == f"native {[_native.MODULE]}"
        pure, backend = _child(argv + [kind], str(tmp_path / "no-such-cc"), tmp_path / "xdg")
        assert backend == f"pure {tried}"
        assert pure == native
        assert os.listdir(tmp_path / "xdg" / "sepdual") == [
            _native.library_name() + ".failed"]
        tried = "[]"


ORDER = ["order", "--generator", "random", "--nx", "4", "--ny", "4", "--p", "0.5",
         "--seed", "7", "--universe", "x", "--a", "x1,x2", "--b", "x3,x4"]
SHIFT = ["shift", *ORDER[1:]]
#: a command that scans but never searches
ENUMERATE = ["enumerate", *ORDER[1:-4], "--k2", "4"]


@needs_native
def test_a_command_that_never_searches_loads_nothing():
    """With the library cached, ``order`` and ``shift``, which neither scan
    nor search, load neither the extension nor ``subprocess``."""
    for argv in (ORDER, SHIFT):
        out, backend = _child(argv)
        assert backend == "native []", argv[0]


@needs_native
def test_a_command_that_never_searches_builds_nothing(tmp_path):
    """On a cold cache, ``order`` and ``shift`` neither build the library,
    which would import ``subprocess``, nor load it; the read of
    ``KERNEL_BACKEND`` after each builds it."""
    for argv in (ORDER, SHIFT):
        out, backend = _child(argv, cache=tmp_path / argv[0])
        assert backend == "native []", argv[0]


@needs_native
def test_a_command_that_only_scans_loads_the_extension(tmp_path):
    """``enumerate`` scans and never searches: with the library cached its
    scan loads the extension, and with a failing compiler on a cold cache it
    tries the build once, reads ``"pure"`` and prints the same bytes."""
    native, backend = _child(ENUMERATE)
    assert backend == f"native {[_native.MODULE]}"
    assert b'"count": ' in native
    pure, backend = _child(ENUMERATE, str(tmp_path / "no-such-cc"), tmp_path / "xdg")
    assert backend == "pure ['subprocess']"
    assert pure == native
    assert os.listdir(tmp_path / "xdg" / "sepdual") == [_native.library_name() + ".failed"]


def test_importing_the_package_touches_no_cache(tmp_path):
    """``import sepdual`` with a fresh ``$XDG_CACHE_HOME`` makes nothing
    there: the walk is looked up only when a search or ``KERNEL_BACKEND``
    needs it."""
    done = subprocess.run([sys.executable, "-c", "import sepdual"],
                          env=_env(tmp_path / "xdg"), capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert not (tmp_path / "xdg").exists()
