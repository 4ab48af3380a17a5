"""The search walk of ``tangles._search`` in C, built on first need.

``SOURCE`` holds the C source of one walk for both kinds: the same
explicit-stack depth-first search as the Python walk in ``tangles``, with
the same seed replay and the same result order.

* Tangle steps keep the Python walk's per-element bit slices of pair slots,
  stored word-major (``has[w * width + e]``), so a test ANDs, word by word,
  the slices of the elements outside the member's first side and stops at
  the first word where some slot covers them.  A push writes only its own
  block of slots, ``base .. base + i``, and its bit of the chosen
  positions; every bit at or above the next level's base is stale, and no
  test reads one, so undo does nothing.
* Profile steps give every distinct orientation of the system's members an
  id, found through an open-addressing hash of the 2n orientations, and
  keep one counter per id of the chosen pairs whose inverted supremum it
  is, and one of the chosen orientations.  A push increments the counters
  of the ids it finds and keeps them on a stack; undo decrements exactly
  those.

The source also holds ``walk``, the function of the CPython extension
``MODULE`` that runs the walk: it reads the tuple of ``(a, b)`` int pairs
and the seed tuples of bools in place and builds the result tuples in C, so
a search is one call.  The extension is compiled once per source, Python
cache tag and machine with the platform compiler (``sysconfig``'s ``CC``,
else ``cc``), ``-O2 -shared -fPIC`` and the Python headers
(``sysconfig``'s ``INCLUDEPY``) into ``$XDG_CACHE_HOME/sepdual`` or
``~/.cache/sepdual``, a directory of mode 0700 that must belong to the user
and be writable by no one else, or it is not used.  Its file name ends in
the interpreter's extension suffix, so another Python's build is never
loaded.  A build goes to a temporary file in that directory and is renamed
into place only when the compiler succeeds, so a half-written build never
has the build's name; a successful build deletes the other builds of the
same suffix and their markers.  Importing this module settles ``BACKEND``:
``"native"`` when the build is in the cache or is made now, else
``"pure"``.  A build that fails, as it does without the Python headers,
leaves the marker ``<build>.failed`` in the cache, and no later import tries
that build again; deleting the marker retries it.  The build is loaded
through ``importlib.machinery.ExtensionFileLoader`` only at the first
search, so a process that never searches pays only for looking it up once
it is made.  A build that fails to load sets ``BACKEND`` back to ``"pure"``
and is deleted, so the next import builds it again; when this process built
it, the marker is left as for a failed build.  Without a build, ``search``
returns None and ``tangles._search`` runs the Python walk.
"""

from __future__ import annotations

import os
import stat
import sys
import zlib
from importlib.machinery import EXTENSION_SUFFIXES

SOURCE = r"""
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;

typedef struct {
    int n, width;
    const u64 *a, *b;
    u64 full;
    /* tangles: has[w * width + e], the slots of word w whose union holds e;
       ch[w * width + e], the chosen positions of word w whose first side
       holds e; capacities in words per element */
    u64 *has, *ch;
    size_t has_words, ch_words;
    /* profiles: the chosen orientations by level, the id of each of the 2n
       orientations, the hash of the distinct ones, the counters per id,
       and the stack of ids each level's push counted */
    u64 *ca, *cb;
    int32_t *id, *keys, *closes, *picked, *found;
    size_t *start;
    u64 *ka, *kb;
    size_t mask, nfound, found_cap;
    int depth;
} walk_t;

static int grow(void *p, size_t *cap, size_t need, size_t unit)
{
    void **buf = (void **)p;
    size_t c = *cap ? *cap : 64;
    void *q;
    if (need <= *cap)
        return 0;
    while (c < need)
        c *= 2;
    q = realloc(*buf, c * unit);
    if (!q)
        return -1;
    memset((char *)q + *cap * unit, 0, (c - *cap) * unit);
    *buf = q;
    *cap = c;
    return 0;
}

/* Write the low len bits of val (1 <= len <= 64) at bit pos of the column
   col, whose words are stride apart. */
static void put(u64 *col, int stride, size_t pos, u64 val, int len)
{
    size_t w = pos >> 6;
    int r = (int)(pos & 63);
    u64 m = len == 64 ? ~(u64)0 : ((u64)1 << len) - 1;
    val &= m;
    col[w * stride] = (col[w * stride] & ~(m << r)) | val << r;
    if (r && r + len > 64) {
        u64 m2 = ((u64)1 << (r + len - 64)) - 1;
        col[(w + 1) * stride] = (col[(w + 1) * stride] & ~m2) | val >> (64 - r);
    }
}

static int tangle_place(walk_t *s, int i, int t, int test)
{
    const int width = s->width;
    u64 sa = t ? s->b[i] : s->a[i];
    size_t base = (size_t)i * (i + 1) / 2, k;
    int e;
    if (test) {
        int out[64], no = 0;
        size_t q, nw = base >> 6;
        if (sa == s->full)
            return 0;
        for (e = 0; e < width; e++)
            if (!(sa >> e & 1))
                out[no++] = e;
        for (q = 0; q <= nw; q++) {
            u64 acc = q < nw ? ~(u64)0 : ((u64)1 << (base & 63)) - 1;
            for (e = 0; e < no && acc; e++)
                acc &= s->has[q * width + out[e]];
            if (acc)
                return 0;
        }
    }
    if (grow(&s->has, &s->has_words, ((base + i) >> 6) + 1, width * sizeof(u64))
        || grow(&s->ch, &s->ch_words, (i >> 6) + 1, width * sizeof(u64)))
        return -1;
    for (e = 0; e < width; e++) {
        u64 *hc = s->has + e, *cc = s->ch + e;
        if (sa >> e & 1) {
            put(cc, width, i, 1, 1);
            for (k = 0; k <= (size_t)i; k += 64)
                put(hc, width, base + k, ~(u64)0,
                    (size_t)i + 1 - k < 64 ? (int)(i + 1 - k) : 64);
        } else {
            put(cc, width, i, 0, 1);
            for (k = 0; k < (size_t)i; k += 64)
                put(hc, width, base + k, cc[(k >> 6) * width],
                    (size_t)i - k < 64 ? (int)(i - k) : 64);
            put(hc, width, base + i, 0, 1);
        }
    }
    return 1;
}

static size_t slot(const walk_t *s, u64 a, u64 b)
{
    u64 h = a * 0x9E3779B97F4A7C15ULL ^ b * 0xC2B2AE3D27D4EB4FULL;
    size_t j = (size_t)(h ^ h >> 31) & s->mask;
    while (s->keys[j] >= 0 && (s->ka[j] != a || s->kb[j] != b))
        j = (j + 1) & s->mask;
    return j;
}

static int profile_place(walk_t *s, int i, int t, int test)
{
    u64 sa = t ? s->b[i] : s->a[i], sb = t ? s->a[i] : s->b[i];
    int32_t sid = s->id[2 * i + t];
    int d = s->depth, j;
    size_t k, begin = s->nfound;
    if (test) {
        if (sa == s->full || s->closes[sid])
            return 0;
        for (j = 0; j < d; j++)
            if ((s->cb[j] & ~sa) == 0 && (sb & ~s->ca[j]) == 0)
                return 0;
    }
    if (grow(&s->found, &s->found_cap, begin + d + 1, sizeof(int32_t)))
        return -1;
    for (j = 0; j <= d; j++) {
        u64 xa = j < d ? s->cb[j] & sb : sb, xb = j < d ? s->ca[j] | sa : sa;
        int32_t x = s->keys[slot(s, xa, xb)];
        if (x < 0)
            continue;
        if (test && (x == sid || s->picked[x])) {
            s->nfound = begin;
            return 0;
        }
        s->found[s->nfound++] = x;
    }
    for (k = begin; k < s->nfound; k++)
        s->closes[s->found[k]]++;
    s->picked[sid]++;
    s->ca[d] = sa;
    s->cb[d] = sb;
    s->start[d] = begin;
    s->depth = d + 1;
    return 1;
}

static void profile_undo(walk_t *s, const uint8_t *forward)
{
    int d = --s->depth;
    size_t k;
    for (k = s->start[d]; k < s->nfound; k++)
        s->closes[s->found[k]]--;
    s->nfound = s->start[d];
    s->picked[s->id[2 * d + !forward[d]]]--;
}

static int profile_init(walk_t *s)
{
    size_t size = 4, j;
    int32_t next = 0;
    int i, t, n = s->n;
    while (size < 4 * (size_t)n)
        size *= 2;
    s->mask = size - 1;
    s->keys = malloc(size * sizeof(int32_t));
    s->ka = malloc(size * sizeof(u64));
    s->kb = malloc(size * sizeof(u64));
    s->id = malloc((2 * (size_t)n + 1) * sizeof(int32_t));
    s->closes = calloc(2 * (size_t)n + 1, sizeof(int32_t));
    s->picked = calloc(2 * (size_t)n + 1, sizeof(int32_t));
    s->ca = malloc(((size_t)n + 1) * sizeof(u64));
    s->cb = malloc(((size_t)n + 1) * sizeof(u64));
    s->start = malloc(((size_t)n + 1) * sizeof(size_t));
    if (!s->keys || !s->ka || !s->kb || !s->id || !s->closes || !s->picked
        || !s->ca || !s->cb || !s->start)
        return -1;
    memset(s->keys, 0xff, size * sizeof(int32_t));
    for (i = 0; i < n; i++)
        for (t = 0; t < 2; t++) {
            u64 a = t ? s->b[i] : s->a[i], b = t ? s->a[i] : s->b[i];
            j = slot(s, a, b);
            if (s->keys[j] < 0) {
                s->keys[j] = next++;
                s->ka[j] = a;
                s->kb[j] = b;
            }
            s->id[2 * i + t] = s->keys[j];
        }
    return 0;
}

/* The results of the search of n members (a[i], b[i]) over width <= 64
   elements, kind 0 tangle and 1 regular profile, resumed at member m from
   nseeds seeds of m bytes each: *count rows of n bytes at *out, 1 for a
   member oriented forward, to be freed with free.  Returns 0, or -1 with
   nothing at *out when an allocation fails. */
static int sepdual_walk(int kind, int n, int width, const u64 *a, const u64 *b,
                 int m, int64_t nseeds, const uint8_t *seeds,
                 uint8_t **out, int64_t *count)
{
    walk_t s;
    uint8_t *forward = malloc((size_t)n + 1), *tried = malloc((size_t)n + 1);
    uint8_t *rows = NULL;
    size_t rows_cap = 0, nrows = 0;
    int64_t q;
    int pushed = 0, rc = -1;
    memset(&s, 0, sizeof s);
    s.n = n;
    s.width = width;
    s.a = a;
    s.b = b;
    s.full = width == 64 ? ~(u64)0 : ((u64)1 << width) - 1;
    if (!forward || !tried || (kind && profile_init(&s)))
        goto done;
    memset(forward, 1, (size_t)n);
    for (q = 0; q < nseeds; q++) {
        const uint8_t *seed = seeds + q * m;
        int d = 0, i;
        while (d < pushed && seed[d] == forward[d])
            d++;
        if (kind)
            while (s.depth > d)
                profile_undo(&s, forward);
        for (i = d; i < m; i++) {
            forward[i] = seed[i];
            if ((kind ? profile_place : tangle_place)(&s, i, !seed[i], 0) < 0)
                goto done;
        }
        pushed = i = m;
        tried[m] = 0;
        for (;;) {
            if (i < n && tried[i] < 2) {
                int t = tried[i]++;
                int r = (kind ? profile_place : tangle_place)(&s, i, t, 1);
                if (r < 0)
                    goto done;
                if (r) {
                    forward[i] = !t;
                    tried[++i] = 0;
                }
                continue;
            }
            if (i == n) {
                if (n) {
                    if (grow(&rows, &rows_cap, (nrows + 1) * n, 1))
                        goto done;
                    memcpy(rows + nrows * n, forward, (size_t)n);
                }
                nrows++;
            }
            if (--i < m)
                break;
            if (kind)
                profile_undo(&s, forward);
        }
    }
    rc = 0;
done:
    free(forward);
    free(tried);
    free(s.has);
    free(s.ch);
    free(s.ca);
    free(s.cb);
    free(s.id);
    free(s.keys);
    free(s.closes);
    free(s.picked);
    free(s.found);
    free(s.start);
    free(s.ka);
    free(s.kb);
    if (rc) {
        free(rows);
        rows = NULL;
        nrows = 0;
    }
    *out = rows;
    *count = (int64_t)nrows;
    return rc;
}

static const char bad_seed[] =
    "seeds must orient the first m members of at most 64 elements";

/* walk(members, width, kind, m, seeds): sepdual_walk on the tuple members
   of (a, b) int pairs and the tuple seeds of tuples of m bools, read in
   place; its rows come back as a tuple of tuples of bools. */
static PyObject *py_walk(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *members, *seeds, *result = NULL;
    Py_ssize_t n, nseeds, q, i;
    long width, kind, m;
    u64 *a = NULL, *b = NULL;
    uint8_t *flat = NULL, *rows = NULL;
    int64_t count = 0;
    int rc;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "walk() takes exactly 5 arguments");
        return NULL;
    }
    members = args[0];
    seeds = args[4];
    if (!PyTuple_Check(members) || !PyTuple_Check(seeds)) {
        PyErr_SetString(PyExc_TypeError, "members and seeds must be tuples");
        return NULL;
    }
    if (((width = PyLong_AsLong(args[1])) == -1 && PyErr_Occurred())
        || ((kind = PyLong_AsLong(args[2])) == -1 && PyErr_Occurred())
        || ((m = PyLong_AsLong(args[3])) == -1 && PyErr_Occurred()))
        return NULL;
    if (kind != 0 && kind != 1) {
        PyErr_SetString(PyExc_ValueError, "kind must be 0 (tangle) or 1 (regular profile)");
        return NULL;
    }
    n = PyTuple_GET_SIZE(members);
    nseeds = PyTuple_GET_SIZE(seeds);
    if (width < 0 || width > 64 || m < 0 || m > n || n > INT_MAX) {
        PyErr_SetString(PyExc_ValueError, bad_seed);
        return NULL;
    }
    if (m && nseeds > PY_SSIZE_T_MAX / m)
        return PyErr_NoMemory();
    a = PyMem_New(u64, n);
    b = PyMem_New(u64, n);
    flat = PyMem_New(uint8_t, nseeds * m);
    if (!a || !b || !flat) {
        PyErr_NoMemory();
        goto done;
    }
    /* tuples and ints are immutable and nothing here runs Python code, so
       the borrowed items stay valid */
    for (i = 0; i < n; i++) {
        PyObject *pair = PyTuple_GET_ITEM(members, i);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError, "members must be (a, b) pairs of ints");
            goto done;
        }
        a[i] = PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(pair, 0));
        if (a[i] == (u64)-1 && PyErr_Occurred())
            goto done;
        b[i] = PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(pair, 1));
        if (b[i] == (u64)-1 && PyErr_Occurred())
            goto done;
    }
    for (q = 0; q < nseeds; q++) {
        PyObject *seed = PyTuple_GET_ITEM(seeds, q);
        if (!PyTuple_Check(seed)) {
            PyErr_SetString(PyExc_TypeError, "seeds must be tuples of bools");
            goto done;
        }
        if (PyTuple_GET_SIZE(seed) != m) {
            PyErr_SetString(PyExc_ValueError, bad_seed);
            goto done;
        }
        for (i = 0; i < m; i++) {
            PyObject *bit = PyTuple_GET_ITEM(seed, i);
            if (bit != Py_True && bit != Py_False) {
                PyErr_SetString(PyExc_TypeError, "seeds must be tuples of bools");
                goto done;
            }
            flat[q * m + i] = bit == Py_True;
        }
    }
    Py_BEGIN_ALLOW_THREADS
    rc = sepdual_walk((int)kind, (int)n, (int)width, a, b, (int)m, (int64_t)nseeds,
                      flat, &rows, &count);
    Py_END_ALLOW_THREADS
    if (rc) {
        PyErr_SetString(PyExc_MemoryError,
                        "the native search walk could not allocate its state");
        goto done;
    }
    result = PyTuple_New((Py_ssize_t)count);
    for (q = 0; result && q < count; q++) {
        PyObject *row = PyTuple_New(n);
        if (!row) {
            Py_CLEAR(result);
            break;
        }
        for (i = 0; i < n; i++) {
            PyObject *bit = rows[q * n + i] ? Py_True : Py_False;
            Py_INCREF(bit);
            PyTuple_SET_ITEM(row, i, bit);
        }
        PyTuple_SET_ITEM(result, q, row);
    }
done:
    PyMem_Free(a);
    PyMem_Free(b);
    PyMem_Free(flat);
    free(rows);
    return result;
}

static PyMethodDef methods[] = {
    {"walk", (PyCFunction)(void (*)(void))py_walk, METH_FASTCALL,
     "walk(members, width, kind, m, seeds): the results of the search."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "sepdual._cwalk", NULL, 0, methods, NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__cwalk(void)
{
    return PyModuleDef_Init(&module);
}
"""

KINDS = {"tangle": 0, "regular_profile": 1}
MODULE = "sepdual._cwalk"  # the name PyInit__cwalk in SOURCE initialises


def cache_dir() -> str | None:
    """``$XDG_CACHE_HOME/sepdual`` (an absolute ``$XDG_CACHE_HOME`` only), else
    ``~/.cache/sepdual``, made with mode 0700 if missing; None unless it is a
    directory of this user that neither the group nor others can write."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(root, "sepdual")
    try:
        try:
            st = os.lstat(path)
        except FileNotFoundError:
            os.makedirs(path, mode=0o700, exist_ok=True)
            st = os.lstat(path)
    except OSError:
        return None
    if (not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid()
            or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH)):
        return None
    return path


def library_name() -> str | None:
    """The file name of the build for this source, Python and machine, ending
    in this interpreter's extension suffix, or None where the machine cannot
    be named (no ``os.uname``)."""
    uname = getattr(os, "uname", None)
    if uname is None:
        return None
    key = f"{sys.implementation.cache_tag}\0{uname().machine}\0{SOURCE}".encode()
    return f"walk-{zlib.crc32(key):08x}{len(key):x}{EXTENSION_SUFFIXES[0]}"


def compiler() -> list[str]:
    """The platform compiler and its own arguments: ``sysconfig``'s ``CC``,
    else ``cc``."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "") or ["cc"]


def build(path: str) -> bool:
    """Compile ``SOURCE`` to ``path`` through temporary files beside it,
    renamed into place only on success; True when ``path`` then exists."""
    import subprocess
    import sysconfig
    import tempfile

    directory = os.path.dirname(path)
    made = []
    try:
        for suffix in (".c", ".so"):
            fd, name = tempfile.mkstemp(prefix=".build-", suffix=suffix, dir=directory)
            os.close(fd)
            made.append(name)
        source, lib = made
        with open(source, "w", encoding="ascii") as f:
            f.write(SOURCE)
        # macOS links an extension's Python symbols when it is loaded
        flags = ["-undefined", "dynamic_lookup"] if sys.platform == "darwin" else []
        done = subprocess.run([*compiler(), "-O2", "-shared", "-fPIC", *flags,
                               f"-I{sysconfig.get_config_var('INCLUDEPY')}", "-o", lib, source],
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=300)
        if done.returncode == 0:
            os.replace(lib, path)
    except (OSError, subprocess.SubprocessError):
        pass
    finally:
        for name in made:
            try:
                os.unlink(name)
            except FileNotFoundError:
                pass
    return os.path.isfile(path)


def give_up(path: str) -> None:
    """Write the marker ``path + ".failed"``, so no later import builds
    ``path`` again."""
    try:
        with open(path + ".failed", "x"):
            pass
    except OSError:
        pass


def prune(path: str) -> None:
    """Delete the other builds of this interpreter's extension suffix beside
    ``path``, and their markers; builds of other suffixes, which other
    Pythons load, stay."""
    directory, name = os.path.split(path)
    ends = (EXTENSION_SUFFIXES[0], EXTENSION_SUFFIXES[0] + ".failed")
    try:
        stale = [f for f in os.listdir(directory)
                 if f.startswith("walk-") and f.endswith(ends) and f != name]
    except OSError:
        return
    for f in stale:
        try:
            os.unlink(os.path.join(directory, f))
        except OSError:
            pass


def settle() -> tuple[str, str | None]:
    """``("native", path)`` when the build is cached or made now, else
    ``("pure", None)``; see the module docstring."""
    global BUILT
    directory, name = cache_dir(), library_name()
    if directory is not None and name is not None:
        path = os.path.join(directory, name)
        if os.path.isfile(path):
            return "native", path
        if not os.path.exists(path + ".failed"):
            if build(path):
                BUILT = path
                prune(path)
                return "native", path
            give_up(path)
    return "pure", None


BUILT = None  # the library this process built, if any
BACKEND, PATH = settle()
_walk = None


def load():
    """``walk`` of the extension ``MODULE``, loading the build on first call;
    None when there is no build or it fails to load, which sets ``BACKEND``
    to ``"pure"``."""
    global _walk, BACKEND, PATH
    if _walk is None and PATH is not None:
        from importlib.machinery import ExtensionFileLoader, ModuleSpec
        from importlib.util import module_from_spec

        loader = ExtensionFileLoader(MODULE, PATH)
        try:
            module = module_from_spec(ModuleSpec(MODULE, loader, origin=PATH))
            loader.exec_module(module)
        except (ImportError, OSError):
            # the next import builds again, unless this process built the
            # file: a fresh build that does not load would not load again
            try:
                os.unlink(PATH)
            except OSError:
                pass
            if PATH == BUILT:
                give_up(PATH)
            BACKEND, PATH = "pure", None
            return None
        sys.modules[MODULE] = module
        _walk = module.walk
    return _walk


def search(members, width: int, kind: str, m: int,
           seeds: tuple[tuple[bool, ...], ...]) -> tuple[tuple[bool, ...], ...] | None:
    """What ``tangles._search`` returns for the tuple ``members`` of
    ``(a, b)`` int pairs over ``width`` <= 64 elements, by the C walk; None
    when there is no build to run it.  A seed whose length is not m raises
    ``ValueError``, and an allocation failure in the walk ``MemoryError``."""
    walk = load()
    if walk is None:
        return None
    return walk(members, width, KINDS[kind], m, seeds)
