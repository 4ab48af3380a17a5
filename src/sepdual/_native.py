"""The search walk of ``tangles._search`` and the scan of
``_kernels.scan_members`` in C, built on first need.

``SOURCE`` holds the C source of one walk for both kinds: the same
explicit-stack depth-first search as the Python walk in ``tangles``, with
the same seed replay and the same result order.

* Tangle steps keep the chosen first sides by level, ``ca``, and per
  element the chosen positions whose first side holds it, stored word-major
  (``ch[w * width + e]``).  The chosen members passed, so a member fails iff
  no element is outside its first side or, for some chosen l, the elements
  r outside both its first side and ``ca[l]`` are none or lie in the first
  side of a chosen j < l: iff the AND of ``ch[e]`` over e in r, word by
  word over the positions below l, is not zero.  A push writes ``ca[i]``
  and bit i of each ``ch[e]``; the bits above the level are stale, and no
  test reads one, so undo does nothing.  Both are allocated once per
  search, a word per level and a bit per level and element, so the memory
  is linear in the depth.  The Python walk's test differs (it keeps a slot
  per pair of chosen members); the results and their order are the same.
* Profile steps give every distinct orientation of the system's members an
  id, found through an open-addressing hash of the 2n orientations, and
  keep one counter per id of the chosen pairs whose inverted supremum it
  is, and one of the chosen orientations.  A push increments the counters
  of the ids it finds and keeps them on a stack; undo decrements exactly
  those.

It also holds the scan: the same levels, chains and ``below`` filter as
the Python body of ``scan_members``, with each node's two steps counted
afresh by popcounts over the masks through the level's element (no step
cache), and the keys sorted in C, by insertion below 64 keys and else by an
LSD radix sort on 11-bit digits.  It runs only when every key fits in 63
bits, ``(sum of |m| + 1) << 2n <= 2**63``; ``scan`` returns None otherwise
and the Python body lists the keys.

The two functions of the CPython extension ``MODULE`` run them: ``walk``
reads the tuple of ``(a, b)`` int pairs and the seed tuples of bools in
place and builds the result tuples in C, so a search is one call, and
``scan`` reads the tuple of masks in place and returns the list of keys.
``load`` finds, builds and loads the extension at the first scan or search,
or at the first read of ``sepdual.KERNEL_BACKEND``, and keeps the module
for the rest of the process; importing this module touches no file, and the
commands that neither scan nor search (``ingest``, ``order``, ``shift``)
never call it.  The extension is compiled once per source, Python cache tag and
machine with the platform compiler (``sysconfig``'s ``CC``, else ``cc``;
one with GCC's ``__builtin_ctzll``, as gcc and clang have),
``-O2 -shared -fPIC`` and the Python headers (``sysconfig``'s
``INCLUDEPY``) into ``$XDG_CACHE_HOME/sepdual`` or ``~/.cache/sepdual``, a
directory of mode 0700 that must belong to the user and be writable by no
one else, or it is not used.  Its file name ends in the interpreter's
extension suffix, so another Python's build is never loaded; builds of
other sources stay in the cache for the checkouts they belong to.  A build
goes to a temporary file in that directory and is renamed into place only
when the compiler succeeds, so a half-written build never has the build's
name.  A build that fails, as it does without the Python headers, leaves
the marker ``<build>.failed`` in the cache, and no later process tries that
build again; deleting the marker retries it.  The build is loaded through
``importlib.machinery.ExtensionFileLoader``.  A build that fails to load is
deleted, so the next process builds it again; when this process built it,
the marker is left as for a failed build.  Without the extension,
``search`` and ``scan`` return None, and ``tangles._search`` runs the
Python walk and ``scan_members`` its Python body.
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
    /* the chosen first sides by level; tangles: ch[w * width + e], the chosen
       positions of word w whose first side holds e */
    u64 *ca, *ch;
    /* profiles: the chosen second sides by level, the id of each of the 2n
       orientations, the hash of the distinct ones, the counters per id, and
       the stack of ids each level's push counted */
    u64 *cb;
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

/* The chosen members passed, so no three of them cover the ground, and s
   fails iff out = full & ~s.a is empty or, for some chosen l, r = out &
   ~ca[l] is empty or lies in the first side of some chosen j < l: iff the
   AND of ch[e] over e in r, masked to the positions below l, is not zero.
   A push sets or clears only its own bit i of each ch[e]; the bits above
   the level are stale, and no test reads one, so undo does nothing. */
static int tangle_place(walk_t *s, int i, int t, int test)
{
    const int width = s->width;
    const u64 sa = t ? s->b[i] : s->a[i], bit = (u64)1 << (i & 63);
    u64 *col = s->ch + (size_t)(i >> 6) * width;
    int e, l;
    if (test) {
        const u64 out = s->full & ~sa;
        if (!out)
            return 0;
        for (l = 0; l < i; l++) {
            const u64 r = out & ~s->ca[l];
            int q, nw = (l + 63) >> 6;
            if (!r)
                return 0;
            for (q = 0; q < nw; q++) {
                const u64 *row = s->ch + (size_t)q * width;
                u64 acc = q < nw - 1 || !(l & 63) ? ~(u64)0 : ((u64)1 << (l & 63)) - 1, x;
                for (x = r; x && acc; x &= x - 1)
                    acc &= row[__builtin_ctzll(x)];
                if (acc)
                    return 0;
            }
        }
    }
    s->ca[i] = sa;
    for (e = 0; e < width; e++)
        col[e] = sa >> e & 1 ? col[e] | bit : col[e] & ~bit;
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
    s->cb = malloc(((size_t)n + 1) * sizeof(u64));
    s->start = malloc(((size_t)n + 1) * sizeof(size_t));
    if (!s->keys || !s->ka || !s->kb || !s->id || !s->closes || !s->picked
        || !s->cb || !s->start)
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
    s.ca = malloc(((size_t)n + 1) * sizeof(u64));
    /* one word more, so a ground of no element asks for some */
    s.ch = kind ? NULL : calloc((((size_t)n >> 6) + 1) * width + 1, sizeof(u64));
    if (!forward || !tried || !s.ca || (kind ? profile_init(&s) : !s.ch))
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

static int popcount(u64 x)
{
    x -= x >> 1 & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + (x >> 2 & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int)(x * 0x0101010101010101ULL >> 56);
}

/* Sort the count keys at *keys, each below 2^bits: by insertion below 64
   keys, else by an LSD radix sort on 11-bit digits through a second buffer,
   which *keys may come back as, the other one freed.  Returns 0, or -1 with
   *keys as it was when that buffer cannot be allocated. */
static int sort_keys(u64 **keys, size_t count, int bits)
{
    u64 *src = *keys, *dst, *t;
    size_t at[2048], i, j;
    int shift;
    if (count < 64) {
        for (i = 1; i < count; i++) {
            u64 k = src[i];
            for (j = i; j && src[j - 1] > k; j--)
                src[j] = src[j - 1];
            src[j] = k;
        }
        return 0;
    }
    dst = malloc(count * sizeof(u64));
    if (!dst)
        return -1;
    for (shift = 0; shift < bits; shift += 11) {
        size_t sum = 0;
        memset(at, 0, sizeof at);
        for (i = 0; i < count; i++)
            at[src[i] >> shift & 2047]++;
        if (at[src[0] >> shift & 2047] == count)
            continue; /* one digit throughout: the pass would move nothing */
        for (i = 0; i < 2048; i++) {
            size_t c = at[i];
            at[i] = sum;
            sum += c;
        }
        for (i = 0; i < count; i++)
            dst[at[src[i] >> shift & 2047]++] = src[i];
        t = src;
        src = dst;
        dst = t;
    }
    free(dst);
    *keys = src;
    return 0;
}

/* The keys order2 << 2n | a << n | b that _kernels.scan_members lists for
   the nmasks masks over an n-set, n <= 31, by the same levels and chains:
   partitions only with partitions_only, and only the separations of doubled
   order below `below` when bounded.  Each node's two steps are counted
   afresh from the masks through the level's element.  The caller makes
   sure every key is below 2^63.  The sorted keys are *count words at *out,
   to be freed with free.  Returns 0, or -1 with nothing at *out when an
   allocation fails. */
static int sepdual_scan(const u64 *masks, size_t nmasks, int n, int partitions_only,
                        int bounded, u64 below, u64 **out, size_t *count)
{
    const int s2 = 2 * n;
    const size_t stride = partitions_only ? 2 : 3;
    const u64 full = ((u64)1 << n) - 1, bound = below << s2;
    u64 *level = NULL, *ms = malloc((nmasks + 1) * sizeof(u64)), chain = 0, top = 0;
    size_t len = 0, cap = 0, j, q;
    int i, bits = 0;
    if (!ms)
        goto fail;
    for (i = n - 1; i >= 0; i--) {
        const u64 bit = (u64)1 << i, abit = bit << n, high = full ^ ((bit << 1) - 1);
        size_t nms = 0;
        u64 both;
        for (j = 0; j < nmasks; j++)
            if (masks[j] >> i & 1)
                ms[nms++] = masks[j];
        both = (u64)nms << s2 | abit | bit;
        if (grow(&level, &cap, stride * len + 1, sizeof(u64)))
            goto fail;
        /* from the last node down, so node j's children, at stride * j on,
           overwrite only nodes already read */
        for (j = len; j-- > 0;) {
            u64 k = level[j], a = k >> n & full, b = k & full, da = 0, db = 0;
            u64 *to = level + stride * j;
            for (q = 0; q < nms; q++) {
                int ca = popcount(ms[q] & a), cb = popcount(ms[q] & b);
                da += ca < cb;
                db += cb < ca;
            }
            if (!partitions_only)
                *to++ = k + both;
            to[0] = k + (2 * da << s2 | abit);
            to[1] = k + (2 * db << s2 | bit);
        }
        len *= stride;
        if (bounded) {
            size_t kept = 0;
            for (j = 0; j < len; j++)
                if (level[j] < bound)
                    level[kept++] = level[j];
            len = kept;
        }
        if ((!partitions_only || i == n - 1) && (!bounded || chain < below))
            level[len++] = chain << s2 | high << n | high | bit;
        chain += nms;
    }
    for (j = 0; j < len; j++)
        if (level[j] > top)
            top = level[j];
    while (bits < 64 && top >> bits)
        bits++;
    if (len && sort_keys(&level, len, bits))
        goto fail;
    free(ms);
    *out = level;
    *count = len;
    return 0;
fail:
    free(ms);
    free(level);
    *out = NULL;
    *count = 0;
    return -1;
}

/* scan(masks, n, partitions_only, below): sepdual_scan on the tuple masks
   of ints, read in place, below None for no bound, as a list of int keys;
   None when a key could need more than 63 bits, (sum |m| + 1) << 2n > 2^63,
   for the Python scan to list. */
static PyObject *py_scan(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *masks, *result = NULL;
    Py_ssize_t nmasks, i;
    long n;
    long long below = 0;
    int partitions_only, bounded, overflow = 0, rc;
    u64 *m = NULL, *keys = NULL, total = 0;
    size_t count = 0;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "scan() takes exactly 4 arguments");
        return NULL;
    }
    masks = args[0];
    if (!PyTuple_Check(masks)) {
        PyErr_SetString(PyExc_TypeError, "masks must be a tuple of ints");
        return NULL;
    }
    if ((n = PyLong_AsLong(args[1])) == -1 && PyErr_Occurred())
        return NULL;
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "n must not be negative");
        return NULL;
    }
    if ((partitions_only = PyObject_IsTrue(args[2])) < 0)
        return NULL;
    bounded = args[3] != Py_None;
    if (bounded && (below = PyLong_AsLongLongAndOverflow(args[3], &overflow)) == -1
        && PyErr_Occurred())
        return NULL;
    nmasks = PyTuple_GET_SIZE(masks);
    m = PyMem_New(u64, nmasks + 1);
    if (!m)
        return PyErr_NoMemory();
    for (i = 0; i < nmasks; i++) {
        m[i] = PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(masks, i));
        if (m[i] == (u64)-1 && PyErr_Occurred())
            goto done;
        total += (u64)popcount(m[i]);
    }
    if (n > 31 || total + 1 > (u64)1 << (63 - 2 * n)) {
        result = Py_None;
        Py_INCREF(result);
        goto done;
    }
    /* no listed order exceeds total, so a larger bound drops nothing, and
       a negative one drops everything, as 0 does */
    if (overflow > 0 || (bounded && below > (long long)total))
        bounded = 0;
    else if (overflow < 0 || below < 0)
        below = 0;
    Py_BEGIN_ALLOW_THREADS
    rc = sepdual_scan(m, (size_t)nmasks, (int)n, partitions_only, bounded, (u64)below,
                      &keys, &count);
    Py_END_ALLOW_THREADS
    if (rc) {
        PyErr_SetString(PyExc_MemoryError, "the native scan could not allocate its levels");
        goto done;
    }
    result = PyList_New((Py_ssize_t)count);
    for (i = 0; result && i < (Py_ssize_t)count; i++) {
        PyObject *key = PyLong_FromUnsignedLongLong(keys[i]);
        if (!key) {
            Py_CLEAR(result);
            break;
        }
        PyList_SET_ITEM(result, i, key);
    }
done:
    PyMem_Free(m);
    free(keys);
    return result;
}

static PyMethodDef methods[] = {
    {"walk", (PyCFunction)(void (*)(void))py_walk, METH_FASTCALL,
     "walk(members, width, kind, m, seeds): the results of the search."},
    {"scan", (PyCFunction)(void (*)(void))py_scan, METH_FASTCALL,
     "scan(masks, n, partitions_only, below): the sorted keys of the scan."},
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
    """Write the marker ``path + ".failed"``, so no later process builds
    ``path`` again."""
    try:
        with open(path + ".failed", "x"):
            pass
    except OSError:
        pass


_module = False  # load()'s answer once it has run: the extension, or None


def load():
    """The extension ``MODULE``, or None when there is no build and none can
    be made, or the build does not load; found, built if missing and loaded
    on the first call, and the same answer for the rest of the process.  See
    the module docstring."""
    global _module
    if _module is not False:
        return _module
    _module = None
    directory, name = cache_dir(), library_name()
    if directory is None or name is None:
        return None
    path = os.path.join(directory, name)
    built = False
    if not os.path.isfile(path):
        if os.path.exists(path + ".failed"):
            return None
        if not build(path):
            give_up(path)
            return None
        built = True
    from importlib.machinery import ExtensionFileLoader, ModuleSpec
    from importlib.util import module_from_spec

    loader = ExtensionFileLoader(MODULE, path)
    try:
        module = module_from_spec(ModuleSpec(MODULE, loader, origin=path))
        loader.exec_module(module)
    except (ImportError, OSError):
        # the next process builds again, unless this one built the file: a
        # fresh build that does not load would not load again
        try:
            os.unlink(path)
        except OSError:
            pass
        if built:
            give_up(path)
        return None
    sys.modules[MODULE] = module
    _module = module
    return module


def search(members, width: int, kind: str, m: int,
           seeds: tuple[tuple[bool, ...], ...]) -> tuple[tuple[bool, ...], ...] | None:
    """What ``tangles._search`` returns for the tuple ``members`` of
    ``(a, b)`` int pairs over ``width`` <= 64 elements, by the C walk; None
    when there is no build to run it.  A seed whose length is not m raises
    ``ValueError``, and an allocation failure in the walk ``MemoryError``."""
    module = load()
    if module is None:
        return None
    return module.walk(members, width, KINDS[kind], m, seeds)


def scan(masks, n: int, partitions_only, below) -> list[int] | None:
    """What ``_kernels.scan_members`` returns for these arguments, by the C
    scan; None when there is no build to run it or a key could need more
    than 63 bits, ``(sum of |m| + 1) << 2n > 2**63``.  An allocation failure
    in the scan raises ``MemoryError``."""
    module = load()
    if module is None:
        return None
    return module.scan(tuple(masks), n, partitions_only, below)
