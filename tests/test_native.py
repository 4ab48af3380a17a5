"""The C search walk of ``sepdual._native``, against the Python walk, and its
loader.

Walk: on every input, ``_native.search`` lists the same results in the same
order as ``tangles._walk``, the Python walk it mirrors, from member 0 and
resumed from seeds: on every search of the corpus run, with and without the
member cap, and on the edge shapes a scan never yields (no member, a 63- or
64-element ground, seeds of every member, a system with no result).  A
65-element ground goes to the Python walk, and an allocation failure in the
C walk raises ``MemoryError``.

Boundary: the extension function checks its arguments and raises on bad
ones instead of crashing, keeps no memory and no reference per search, and
leaves the reference counts of what it reads as they were.

Loader: each test settles in a fresh cache directory under ``tmp_path``
through ``_native.settle``, what importing the module runs.  A build that
fails, by any compiler, leaves the package on the Python walk with the same
outputs and is not tried again; a library that does not load is deleted; a
library of another key, a half-written build and a cache directory that
another user could write are never used; nothing is written outside the
cache directory; a build deletes the other builds of its extension suffix.
"""

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
from sepdual import GroundSet, HalfInt, LowOrderSystem, _native, enumerate_tangles, tangles
from sepdual.verify import corpus, run_corpus

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("tangle", "regular_profile")
needs_native = pytest.mark.skipif(_native.load() is None,
                                  reason="the C walk is not built on this host")


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
    walk = _native.load()
    assert walk is not None and sys.modules[_native.MODULE].walk is walk


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


OUT_OF_MEMORY = """
import resource, sys
from sepdual import GroundSet, LowOrderSystem, _native, tangles

ground = GroundSet(range(64))
members = [(i + 1, ground.full) for i in range(8000)]
deep = LowOrderSystem.from_members("x", ground, members)
small = LowOrderSystem.from_members("x", ground, members[:50])
deep.members, small.members
assert _native.load() is not None
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
with open("/proc/self/statm") as f:
    size = int(f.read().split()[0]) * resource.getpagesize()
# the one tangle of the deep system needs about 256 MB of pair slots
resource.setrlimit(resource.RLIMIT_AS, (size + (64 << 20), hard))
try:
    found = tangles._search(deep, "tangle", 0, ((),))
except MemoryError as exc:
    print("MemoryError:", exc)
else:
    print("returned", len(found))
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
print(tangles._search(small, "tangle", 0, ((),)) == ((True,) * 50,))
"""


@needs_native
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_an_allocation_failure_raises_memory_error():
    """Under an address-space limit the C walk cannot hold its pair slots:
    it raises ``MemoryError`` and returns nothing, and the next search runs."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", OUT_OF_MEMORY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "MemoryError: the native search walk could not allocate its state", "True"]


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
    walk = _native.load()
    with pytest.raises(error):
        walk(*{**GOOD, **change}.values())
    system = LowOrderSystem.from_members("x", GroundSet(range(3)), GOOD["members"])
    assert walk(*GOOD.values()) == tangles._walk(system, "tangle", 1, GOOD["seeds"])


@needs_native
def test_walk_takes_five_arguments():
    with pytest.raises(TypeError):
        _native.load()(*list(GOOD.values())[:4])


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


# -- the loader --------------------------------------------------------------


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """The cache directory of a fresh ``$XDG_CACHE_HOME`` under ``tmp_path``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(_native, "BUILT", None)
    return tmp_path / "xdg" / "sepdual"


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


def _settled(monkeypatch, backend, path):
    """The package as if importing it had settled ``(backend, path)``."""
    monkeypatch.setattr(_native, "BACKEND", backend)
    monkeypatch.setattr(_native, "PATH", path)
    monkeypatch.setattr(_native, "_walk", None)


@needs_native
def test_a_build_goes_to_the_cache_and_nowhere_else(cache, monkeypatch):
    before = _tree(ROOT)
    backend, path = _native.settle()
    assert (backend, Path(path)) == ("native", cache / _native.library_name())
    assert os.listdir(cache) == [_native.library_name()]  # no temporary file left
    assert stat.S_IMODE(os.stat(cache).st_mode) == 0o700
    assert _tree(ROOT) == before
    monkeypatch.setattr(_native, "build", lambda path: pytest.fail("built twice"))
    assert _native.settle() == (backend, path)
    expected = _outputs()
    _settled(monkeypatch, backend, path)
    assert _outputs() == expected and _native.load() is not None


FAILING = {
    "missing": None,
    "exits-1": "sys.exit(1)",
    "half-written": "open(out, 'wb').write(b'\\x7fELF\\x02\\x01')\nsys.exit(1)",
    "killed": "open(out, 'wb').write(b'\\x7fELF')\nos.kill(os.getpid(), 9)",
}


@needs_native
@pytest.mark.parametrize("failure", sorted(FAILING))
def test_a_failed_build_leaves_the_python_walk(failure, cache, tmp_path, monkeypatch):
    """A compiler that is missing, exits 1, or dies after writing part of the
    library: no library is cached, only the marker of the failed build, the
    package reads ``KERNEL_BACKEND == "pure"``, every output is the same,
    and settling again does not build again."""
    cc = ([str(tmp_path / "no-such-cc")] if FAILING[failure] is None
          else _script(tmp_path, FAILING[failure]))
    monkeypatch.setattr(_native, "compiler", lambda: cc)
    expected = _outputs()
    assert _native.settle() == ("pure", None)
    assert os.listdir(cache) == [_native.library_name() + ".failed"]
    monkeypatch.setattr(_native, "compiler", lambda: pytest.fail("built twice"))
    assert _native.settle() == ("pure", None)
    _settled(monkeypatch, "pure", None)
    assert sepdual.KERNEL_BACKEND == "pure"
    assert _native.load() is None
    assert _outputs() == expected


@needs_native
def test_a_library_that_does_not_load_leaves_the_python_walk(cache, tmp_path, monkeypatch):
    """A compiler that exits 0 with no library in its output: the first
    search cannot load it, sets ``KERNEL_BACKEND`` to ``"pure"`` and runs the
    Python walk.  The file is deleted, and as this process built it, the
    next import does not build it again."""
    monkeypatch.setattr(_native, "compiler",
                        lambda: _script(tmp_path, "open(out, 'w').write('no library')"))
    expected = _outputs()
    backend, path = _native.settle()
    assert backend == "native"
    _settled(monkeypatch, backend, path)
    assert _outputs() == expected
    assert sepdual.KERNEL_BACKEND == "pure" and _native.load() is None
    assert os.listdir(cache) == [_native.library_name() + ".failed"]
    monkeypatch.setattr(_native, "compiler", lambda: pytest.fail("built twice"))
    assert _native.settle() == ("pure", None)


@needs_native
def test_a_cached_library_that_does_not_load_is_built_again(cache, monkeypatch):
    """A file in the cache under the library's name that does not load, not
    built by this process: the first search deletes it and runs the Python
    walk, and the next import builds the library again."""
    cache.mkdir(parents=True, mode=0o700)
    os.chmod(cache, 0o700)
    path = cache / _native.library_name()
    path.write_text("no library")
    expected = _outputs()
    assert _native.settle() == ("native", str(path))
    _settled(monkeypatch, "native", str(path))
    assert _outputs() == expected
    assert sepdual.KERNEL_BACKEND == "pure" and os.listdir(cache) == []
    backend, built = _native.settle()
    assert (backend, built) == ("native", str(path))
    _settled(monkeypatch, backend, built)
    assert _native.load() is not None and _outputs() == expected


@needs_native
def test_a_library_of_another_key_is_never_loaded(cache, tmp_path, monkeypatch):
    """Files of other names in the cache, one of them the name of another
    source, are not taken for the library: with no compiler nothing is
    found, and with one the library is built under its own name."""
    name = _native.library_name()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "SOURCE", _native.SOURCE + "\n")
        other = _native.library_name()
    assert other != name
    cache.mkdir(parents=True, mode=0o700)
    os.chmod(cache, 0o700)
    for planted in (other, "walk-0.so", ".build-1.so", name + ".tmp"):
        (cache / planted).write_text("not a library")
    with monkeypatch.context() as mp:
        mp.setattr(_native, "compiler", lambda: [str(tmp_path / "no-such-cc")])
        assert _native.settle() == ("pure", None)
    (cache / (name + ".failed")).unlink()
    backend, path = _native.settle()
    assert (backend, Path(path)) == ("native", cache / name)
    _settled(monkeypatch, backend, path)
    assert _native.load() is not None


@needs_native
def test_a_build_deletes_the_other_builds_of_its_suffix(cache):
    """A stale build of this interpreter's suffix and its marker go; the
    build of another suffix, another Python's, stays."""
    name, ext = _native.library_name(), _native.EXTENSION_SUFFIXES[0]
    cache.mkdir(parents=True, mode=0o700)
    os.chmod(cache, 0o700)
    stale = "walk-0000000000" + ext
    other = "walk-0000000000.cpython-0-other.so"
    for planted in (stale, stale + ".failed", other):
        (cache / planted).write_text("not a library")
    assert other != name and not other.endswith(ext)
    assert _native.settle() == ("native", str(cache / name))
    assert sorted(os.listdir(cache)) == sorted([name, other])


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
    assert _native.settle() == ("pure", None)
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


CHILD = """
import sys, sysconfig
get, cc = sysconfig.get_config_var, {cc!r}
if cc is not None:
    sysconfig.get_config_var = lambda name: cc if name == "CC" else get(name)
import sepdual
from sepdual.cli import main
code = main(sys.argv[1:])
print(sepdual.KERNEL_BACKEND, sorted(m for m in ({module!r}, "subprocess") if m in sys.modules),
      file=sys.stderr)
sys.exit(code)
"""


def _child(argv, cc=None, cache=None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if cache is not None:
        env["XDG_CACHE_HOME"] = str(cache)
    child = CHILD.format(cc=cc, module=_native.MODULE)
    done = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout, done.stderr.decode().strip()


@needs_native
def test_importing_with_a_failing_compiler_runs_the_python_walk(tmp_path):
    """The whole path: a process whose import finds no library and cannot
    build one searches on the Python walk and prints the same bytes.  Only
    the first such import tries the build: later ones find its marker and
    do not import ``subprocess``."""
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


@needs_native
def test_a_command_that_never_searches_loads_nothing():
    """With the library cached, ``order`` loads neither the extension nor
    ``subprocess``: the import only looked the library up."""
    out, backend = _child(["order", "--generator", "random", "--nx", "4", "--ny", "4",
                           "--p", "0.5", "--seed", "7", "--universe", "x",
                           "--a", "x1,x2", "--b", "x3,x4"])
    assert backend == "native []"
