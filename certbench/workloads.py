"""The three workloads, each loading a different layer of sepdual.

Every workload is a closed loop in one thread: an item starts only after the
previous one returned.  ``generate`` makes the inputs from the seed (that is
the measured set-up), ``run_pass`` times one pass over one block of inputs
and checks what it can without a reference, and ``finish`` runs the output
checks that need one, after the timed passes.  ``cli_argv``, ``cli_result``
and ``cli_expected`` describe the workload's CLI command and its check.
Graphs that the library memoises into (``BipartiteGraph._cache``) are
rebuilt before every pass, outside the timed region, so that no pass
measures cache hits left by the previous one.

The package is passed around as ``sd`` and every library function is looked
up on its module at call time, so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
import traceback
from array import array
from collections import Counter
from fractions import Fraction

import oracle
from gauge import Gauge

SLICE_S = 0.25  # item time between gauge readings; see Recorder
RESERVOIR = 1 << 18  # latency samples kept for the percentiles


def digest(obj) -> bytes:
    return hashlib.blake2b(json.dumps(obj, sort_keys=True).encode(),
                           digest_size=12).digest()


class Recorder:
    """Times items one at a time and keeps the tallies of a measured phase.

    Item time is cut into slices of ``SLICE_S`` seconds, and each slice is
    scaled to reference seconds by the gauge readings at its two ends
    (``gauge.py``).  Rates are items over scaled time; latency percentiles
    come from a fixed-size uniform sample of all scaled item latencies, so
    memory does not grow with the number of items a run manages.  Items
    that repeat the same input every pass (the corpus graphs) pass a
    ``key``: each key then contributes the median of its own latencies, and
    the percentiles are over keys.
    """

    def __init__(self, cap_exceeded, tracer=None):
        self.cap_exceeded = cap_exceeded
        self.tracer = tracer
        self.samples = 0
        self.timed = 0.0
        self.scaled = 0.0
        self.items = 0
        self.capped = 0
        self.failed = 0
        self.errors: list[str] = []
        self.gauge = Gauge()
        self._lat = array("d")  # raw latencies of the open slice
        self._keys: list = []
        self._keyed: dict = {}  # key -> [(raw, scaled) latency per pass]
        self._slice_time = 0.0
        self._keep_raw = array("d", bytes(8 * RESERVOIR))
        self._keep_scaled = array("d", bytes(8 * RESERVOIR))
        self._rng = random.Random(0)

    def item(self, fn, *args, weight=1, sample=True, key=None, **kwargs):
        """Run one item; returns its result, ``CAPPED`` or ``FAILED``.

        ``weight`` is how many items the call completes (a corpus graph is
        60 theorem cases); ``sample=False`` times work that is not an item.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_item(self.items)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except self.cap_exceeded:
            out = CAPPED
        except Exception:  # counted as a failed item; the run goes on
            out = FAILED
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_item()
        self.timed += dt
        self._slice_time += dt
        if out is FAILED:
            self.failed += weight
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc())
        elif out is CAPPED:
            self.capped += weight
        if sample:
            self.items += weight
            self._lat.append(dt)
            self._keys.append(key)
        if self._slice_time >= SLICE_S:
            self._close_slice()
        return out

    def _close_slice(self):
        scale = self.gauge.scale()
        self.scaled += self._slice_time * scale
        rng, keep_raw, keep_scaled = self._rng, self._keep_raw, self._keep_scaled
        for dt, key in zip(self._lat, self._keys):
            if key is not None:
                self._keyed.setdefault(key, []).append((dt, dt * scale))
                self.samples += 1
                continue
            # reservoir sampling (Algorithm R)
            j = self.samples if self.samples < RESERVOIR else int(
                rng.random() * (self.samples + 1))
            if j < RESERVOIR:
                keep_raw[j], keep_scaled[j] = dt, dt * scale
            self.samples += 1
        self._lat = array("d")
        self._keys = []
        self._slice_time = 0.0

    def summary(self, raw=False) -> dict:
        """Items per (scaled or wall) second and latency percentiles."""
        if self._slice_time:
            self._close_slice()
        if self._keyed:
            col = 0 if raw else 1
            lat = sorted(statistics.median(v[col] for v in vals)
                         for vals in self._keyed.values())
        else:
            kept = min(self.samples, RESERVOIR)
            lat = sorted((self._keep_raw if raw else self._keep_scaled)[:kept])
        out = {"items_per_s": self.items / (self.timed if raw else self.scaled)}
        out.update({f"p{p}": percentile(lat, p) for p in (50, 90, 99)})
        return out


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


CAPPED = object()
FAILED = object()


def even_degrees(rng, nx, ny, m):
    """Seeded bipartite graph with m edges and, on both sides, degrees that
    differ by at most one, as (xs, ys, edges).

    A fixed near-regular pattern is shuffled by random degree-preserving
    edge swaps, so the seed moves the edges but not the degree profile.
    """
    pairs, deg_y = set(), [0] * ny
    for t in range(m):
        i = t % nx
        j = min((j for j in range(ny) if (i, j) not in pairs),
                key=lambda j: (deg_y[j], (j - t) % ny))
        pairs.add((i, j))
        deg_y[j] += 1
    pairs = sorted(pairs)
    for _ in range(4 * m):
        a, b = rng.sample(range(m), 2)
        (x1, y1), (x2, y2) = pairs[a], pairs[b]
        if x1 != x2 and y1 != y2 and (x1, y2) not in pairs \
                and (x2, y1) not in pairs:
            pairs[a], pairs[b] = (x1, y2), (x2, y1)
    xs = [f"x{i + 1}" for i in range(nx)]
    ys = [f"y{j + 1}" for j in range(ny)]
    return xs, ys, [(xs[i], ys[j]) for i, j in sorted(pairs)]


def gnm(rng, nx, ny, m):
    """Seeded bipartite graph with exactly m edges, as (xs, ys, edges)."""
    xs = [f"x{i + 1}" for i in range(nx)]
    ys = [f"y{j + 1}" for j in range(ny)]
    slots = sorted(rng.sample(range(nx * ny), m))
    return xs, ys, [(xs[s // ny], ys[s % ny]) for s in slots]


# -- corpus -------------------------------------------------------------------


class Corpus:
    """The shipped 50-graph corpus x 15 theorems x K2_GRID: 3000 cases a pass.

    This is the product's certification run; most of its time goes to S_k
    construction, then to tangle search and the theorem bodies.  An item is
    a theorem case; the latency is one graph's verdict (``run_corpus`` on
    one graph, as ``sepdual verify --input`` does), taken per graph as the
    median over passes, so the percentiles are over the 50 graphs (p99 is
    the slowest graph).  The corpus is fixed by the library, so the seed is
    not used.
    """

    name = "corpus"
    n_blocks = 1
    cli_runs = 12

    def __init__(self):
        self.case_digests: list[list[bytes]] = []
        self.report_digests: list[bytes | None] = []
        self.outcomes: list[Counter] = []

    def generate(self, sd, seed):
        return [sd.verify.corpus()]

    def run_pass(self, sd, inputs, block, rec):
        verify = sd.verify
        graphs = verify.corpus()
        per_graph = len(verify.ALL_THEOREMS) * len(verify.K2_GRID)
        parts, digests, outcomes = [], [], Counter()
        for name, g in graphs:
            rep = rec.item(verify.run_corpus, graphs=[(name, g)], weight=per_graph,
                           key=name)
            if rep is FAILED or rep is CAPPED:
                continue
            parts.append(rep)
            for case in rep["cases"]:
                digests.append(digest(case))
                outcomes[case["outcome"]] += 1
                outcomes["nonvacuous"] += (case["outcome"] == "verified"
                                           and not case["vacuous"])
            rec.capped += rep["summary"]["outcomes"].get("capped", 0)
        merged = merge_reports(parts, [name for name, _ in graphs])
        text = rec.item(verify.report_json, merged, weight=0, sample=False)
        self.case_digests.append(digests)
        self.report_digests.append(None if text is FAILED else digest(text))
        self.outcomes.append(outcomes)

    def finish(self, sd, inputs):
        """Check every pass against one full ``run_corpus()``."""
        ref = sd.verify.run_corpus()
        self.ref_text = sd.verify.report_json(ref)
        want = [digest(c) for c in ref["cases"]]
        failed = 0
        for got, outcomes, rep in zip(self.case_digests, self.outcomes,
                                      self.report_digests):
            failed += sum(a != b for a, b in zip(got, want))
            failed += abs(len(got) - len(want))
            failed += outcomes["counterexample"]
            failed += rep != digest(self.ref_text)
        return failed, {k: self.outcomes[0][k] for k in (
            "verified", "nonvacuous", "capped", "degenerate", "counterexample")}

    def cli_argv(self, sd, inputs, tmp):
        return ["verify", "--corpus", "--out", str(tmp / "report.json")]

    def cli_result(self, stdout, tmp):
        return (tmp / "report.json").read_text()

    def cli_expected(self, sd, inputs):
        """``report_json(run_corpus())``, as computed by ``finish``: the CLI
        report must be byte-identical to it."""
        return self.ref_text


def merge_reports(parts, names):
    """One report from per-graph ``run_corpus`` reports, in graph order."""
    outcomes, non_vacuous, counterexamples = Counter(), Counter(), 0
    for p in parts:
        outcomes.update(p["summary"]["outcomes"])
        non_vacuous.update(p["summary"]["non_vacuous"])
        counterexamples += p["summary"]["counterexamples"]
    config = dict(parts[0]["config"]) if parts else {}
    config["graphs"] = names
    return {
        "version": parts[0]["version"] if parts else None,
        "config": config,
        "summary": {"outcomes": dict(outcomes), "non_vacuous": dict(non_vacuous),
                    "counterexamples": counterexamples},
        "cases": [c for p in parts for c in p["cases"]],
    }


# -- ladder -------------------------------------------------------------------

LADDER_COMBOS = [(nx, ny, p) for nx in (3, 4, 5) for ny in (3, 4, 5)
                 for p in (0.4, 0.6, 0.8)]
LADDER_BLOCKS = 8
LADDER_K2 = range(1, 13)
LADDER_MEMBER_CAP = 128
NAIVE_MAX_MEMBERS = 12
UNIVERSES = ("x", "y", "e", "bx", "by")
KINDS = ("tangle", "regular_profile")


class Ladder:
    """Tangle and profile search up the threshold ladder of small graphs.

    Seeded graphs with 3-5 vertices per side and density p in {0.4, 0.6, 0.8}:
    exactly round(p*nx*ny) edges with near-even degrees (``even_degrees``).
    Search cost swings by 10x between Bernoulli graphs of one size, which
    made one run's throughput depend on the seed by 15-30%; fixing
    the edge count and the degree profile leaves the seed to move the
    edges only.  A block holds one graph per (nx, ny, p); a run goes through
    the blocks until its time is up.  For every universe and k2 in 1..12 the
    loop builds S_k once, then searches it for tangles and for regular
    profiles with member cap 128; an item is one search, and the first
    search of a threshold also carries the construction of S_k.  The scan
    behind S_k is cached on the graph after the first threshold of each
    universe, so search does most of the work here.
    """

    name = "ladder"
    n_blocks = LADDER_BLOCKS
    cli_runs = 25

    def __init__(self):
        self.seen: dict[tuple, int] = {}  # item -> hash of its result
        self.failed = 0
        self.counters: list[tuple[int, Counter]] = []  # (block, counters) a pass

    def generate(self, sd, seed):
        rng = random.Random(seed)
        return [[even_degrees(rng, nx, ny, round(p * nx * ny))
                 for nx, ny, p in LADDER_COMBOS] for _ in range(LADDER_BLOCKS)]

    def run_pass(self, sd, inputs, block, rec):
        tangles, half = sd.tangles, sd.HalfInt
        graphs = [sd.BipartiteGraph(*spec) for spec in inputs[block]]
        counters = Counter()
        for gi, g in enumerate(graphs):
            naive = {}
            for universe in UNIVERSES:
                for k2 in LADDER_K2:
                    k = half(k2)
                    box = []
                    first = rec.item(build_then_search, tangles, g, universe, k, box)
                    second = rec.item(tangles.enumerate_tangles, g, universe, k,
                                      "regular_profile", member_cap=LADDER_MEMBER_CAP,
                                      system=box[0] if box else None)
                    system = box[0] if box else None
                    if system is not None:
                        counters["members"] += len(system.members)
                    for kind, res in zip(KINDS, (first, second)):
                        if res is CAPPED:
                            counters["capped"] += 1
                        elif res is not FAILED:
                            counters["found"] += len(res)
                            self._check(sd, (block, gi, universe, k2, kind), kind,
                                        system, res, naive)
        self.counters.append((block, counters))

    def _check(self, sd, key, kind, system, res, naive):
        """Every result is a tangle (or regular profile).  On block 0, a
        result over at most NAIVE_MAX_MEMBERS members must also equal the
        naive filter over all 2^n orientations; that filter costs seconds
        per block, so the later blocks get the first check only.  A repeat
        of a block already checked only has to reproduce the same result."""
        got = sorted(o.forward for o in res)
        d = hash(tuple(got))
        if key in self.seen:
            self.failed += d != self.seen[key]
            return
        self.seen[key] = d
        tangles = sd.tangles
        if kind == "tangle":
            ok = lambda o: tangles.check_tangle(o).ok  # noqa: E731
        else:
            ok = tangles.is_regular_profile
        bad = sum(not ok(o) for o in res)
        n = len(system.members)
        if key[0] == 0 and n <= NAIVE_MAX_MEMBERS:
            nkey = (key[2], n, kind)  # S_k is a prefix, so n fixes the system
            if nkey not in naive:
                naive[nkey] = sorted(o.forward for o in
                                     tangles.enumerate_orientations(system) if ok(o))
            bad += got != naive[nkey]
        self.failed += bad > 0

    def finish(self, sd, inputs):
        """Repeats of a block must give the same counters."""
        failed, first = self.failed, {}
        for block, counters in self.counters:
            failed += first.setdefault(block, counters) != counters
        return failed, dict(first.get(0, Counter()))

    def cli_argv(self, sd, inputs, tmp):
        g = sd.BipartiteGraph(*inputs[0][LADDER_CLI_GRAPH])
        (tmp / "graph.json").write_text(g.dump_json())
        universe, k2, kind = LADDER_CLI_QUERY
        return ["tangles", "--input", str(tmp / "graph.json"), "--universe", universe,
                "--k2", str(k2), "--kind", "tangle" if kind == "tangle" else "profile",
                "--member-cap", str(LADDER_MEMBER_CAP)]

    def cli_result(self, stdout, tmp):
        return json.loads(stdout)["tangles"]

    def cli_expected(self, sd, inputs):
        universe, k2, kind = LADDER_CLI_QUERY
        g = sd.BipartiteGraph(*inputs[0][LADDER_CLI_GRAPH])
        return [o.to_dict() for o in sd.tangles.enumerate_tangles(
            g, universe, sd.HalfInt(k2), kind, member_cap=LADDER_MEMBER_CAP)]


LADDER_CLI_GRAPH = LADDER_COMBOS.index((5, 5, 0.6))
LADDER_CLI_QUERY = ("x", 8, "regular_profile")


def build_then_search(tangles, g, universe, k, box):
    """First item of a threshold: build S_k, keep it in ``box``, search tangles."""
    box.append(tangles.build_system(g, universe, k))
    return tangles.enumerate_tangles(g, universe, k, "tangle",
                                     member_cap=LADDER_MEMBER_CAP, system=box[0])


# -- queries ------------------------------------------------------------------

# (|X|, |Y|, |E|): every size in the 16-32 / 100-400 range each run
QUERY_GRAPHS = [(16, 16, 100), (16, 32, 140), (20, 24, 180), (24, 20, 220),
                (24, 28, 260), (28, 24, 300), (32, 24, 340), (32, 32, 400)]
QUERY_RECORDS = 2000
QUERY_ORACLE_SAMPLE = 120


def random_sep(rng, n):
    """(a, b) covering an n-set: each element one side, about 1 in 8 both."""
    full = (1 << n) - 1
    first = rng.getrandbits(n)
    both = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
    return first | both, (full ^ first) | both


class Queries:
    """A seeded stream of single-separation calls on graphs far past every
    scan cap (16-32 vertices per side, 100-400 edges).

    A record is one graph, a side and three separations; it issues six
    items: ``order_of`` on the side, ``order_side_edge_form`` on the same
    separation, ``shift_side``, ``shift_partition`` of a partition,
    ``edges_to_side`` of an edge separation and ``order_of`` on the edges.
    There is no S_k construction, search or verification here: the bit
    kernels are used one call at a time, where ``corpus`` uses them as a
    batch scan, so a kernel change that adds per-call cost shows here.
    """

    name = "queries"
    n_blocks = 1
    cli_runs = 25

    def __init__(self):
        self.failed = 0
        self.sampled: dict[int, tuple] = {}
        self.passes = 0

    def generate(self, sd, seed):
        rng = random.Random(seed)
        specs = [gnm(rng, nx, ny, m) for nx, ny, m in QUERY_GRAPHS]
        graphs = [sd.BipartiteGraph(*spec) for spec in specs]
        records = []
        for r in range(QUERY_RECORDS):
            gi = r % len(specs)
            xs, ys, edges = specs[gi]
            side = rng.choice("xy")
            target = rng.choice("xy")
            n = len(xs) if side == "x" else len(ys)
            part = rng.getrandbits(n)
            records.append((gi, side, target,
                            sd.Sep(*random_sep(rng, n)),
                            sd.Sep(part, ((1 << n) - 1) ^ part),
                            sd.Sep(*random_sep(rng, len(edges)))))
        sample = set(random.Random(seed + 1).sample(range(QUERY_RECORDS),
                                                    QUERY_ORACLE_SAMPLE))
        return specs, graphs, records, sample

    def run_pass(self, sd, inputs, block, rec):
        _, graphs, records, sample = inputs
        orders, shifts, item = sd.orders, sd.shifts, rec.item
        first = self.passes == 0
        for ri, (gi, side, target, sep, part, esep) in enumerate(records):
            g = graphs[gi]
            out = (item(orders.order_of, g, side, sep),
                   item(orders.order_side_edge_form, g, sep, side),
                   item(shifts.shift_side, g, sep, side),
                   item(shifts.shift_partition, g, part, side),
                   item(shifts.edges_to_side, g, esep, target),
                   item(orders.order_of, g, "e", esep))
            self.failed += out[0] != out[1]
            if first and ri in sample:
                self.sampled[ri] = out
        self.passes += 1

    def finish(self, sd, inputs):
        """Check the sampled outputs against the set-based oracle."""
        specs, _, records, _ = inputs
        failed = self.failed
        for ri, out in sorted(self.sampled.items()):
            failed += decoded(specs, records[ri], out) != expected(specs, records[ri])
        return failed, {"calls_per_pass": 6 * len(records),
                        "oracle_checked": 6 * len(self.sampled)}

    def cli_argv(self, sd, inputs, tmp):
        """``sepdual order`` on the first record's side separation."""
        specs, graphs, records, _ = inputs
        gi, side, _, sep, _, _ = records[0]
        xs, ys, _ = specs[gi]
        order = xs if side == "x" else ys
        (tmp / "graph.json").write_text(graphs[gi].dump_json())
        return ["order", "--input", str(tmp / "graph.json"), "--universe", side,
                "--a", ",".join(sorted(oracle.labels(order, sep.a))),
                "--b", ",".join(sorted(oracle.labels(order, sep.b)))]

    def cli_result(self, stdout, tmp):
        out = json.loads(stdout)
        return [out["order2"], out["edge_form_order2"]]

    def cli_expected(self, sd, inputs):
        specs, _, records, _ = inputs
        order2 = int(2 * expected(specs, records[0])[0])
        return [order2, order2]


def decoded(specs, record, out):
    """Library outputs of one record in the oracle's terms."""
    gi, side, target, *_ = record
    xs, ys, _ = specs[gi]
    other, tgt = (ys if side == "x" else xs), (xs if target == "x" else ys)
    try:
        half = [Fraction(out[i].doubled, 2) for i in (0, 1, 5)]
        pairs = [(oracle.labels(order, s.a), oracle.labels(order, s.b))
                 for order, s in ((other, out[2]), (other, out[3]), (tgt, out[4]))]
    except AttributeError:  # a FAILED item
        return None
    return (half[0], half[1], *pairs, half[2])


def expected(specs, record):
    """Oracle values for one record, in the order ``run_pass`` issues them:
    orders as Fractions, shifts as pairs of label sets."""
    gi, side, target, sep, part, esep = record
    spec = specs[gi]
    xs, ys, edges = spec
    order, other = (xs, ys) if side == "x" else (ys, xs)
    nb = oracle.neighbourhoods(spec, side)
    inc = oracle.incidences(spec)
    lab = lambda mask: oracle.labels(order, mask)  # noqa: E731
    elab = lambda mask: oracle.labels(edges, mask)  # noqa: E731
    side_order = oracle.order(nb, lab(sep.a), lab(sep.b))
    targets = {v: inc[v] for v in (xs if target == "x" else ys)}
    return (side_order, side_order,
            oracle.shift(nb, lab(sep.a), lab(sep.b)),
            oracle.shift(nb, lab(part.a), lab(part.b), partition_ties=True),
            oracle.shift(targets, elab(esep.a), elab(esep.b)),
            oracle.order(inc, elab(esep.a), elab(esep.b)))
