"""Benchmark of the sepdual certifier: corpus, threshold ladder and queries.

Run from the root of a checkout (the package is taken from ``src``):

    python3 certbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: the next item starts only after the
previous one returned.  Workloads (see ``workloads.py`` for why each exists):

* ``corpus``  - ``run_corpus`` graph by graph on the shipped corpus, then
  ``report_json``; the CLI command is ``sepdual verify --corpus``;
* ``ladder``  - ``build_system`` and tangle/profile search on small seeded
  graphs for every universe and k2 in 1..12; CLI ``sepdual tangles``;
* ``queries`` - a seeded stream of single-separation order and shift calls
  on graphs far past every scan cap; CLI ``sepdual order``.

Every reported time is in reference seconds: wall time scaled by the host's
speed at that moment, measured with a fixed loop (``gauge.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures block 0
of the workload for half the time untraced, then for half the time with the
tracer attached (``tracer.py``), and prints the per-layer metrics with the
tracing slowdown.  Both print a detail record (provenance, exact counters,
all samples of the side measurements) on the line before the result line,
which is always the last line of standard output.

Seeds: development used seed 1; re-check a claim on seed 2 as well.  The
corpus workload ignores the seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tracing
import workloads
from gauge import Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEV_SEED, HOLDOUT_SEED = 1, 2
SETUP_ROUNDS = 15
CLI_TIMEOUT_S = 60
WORKLOADS = {w.name: w for w in (workloads.Corpus, workloads.Ladder, workloads.Queries)}


class Spread:
    """Runs ``fn`` ``total`` times, spread evenly over a measured phase.

    Side measurements (set-up rounds, CLI runs) are taken between passes
    rather than in one burst, so that they see the same machine conditions
    as the passes they sit between; none overlaps a timed item.
    """

    def __init__(self, fn, total):
        self.fn, self.total, self.done = fn, total, 0

    def catch_up(self, progress):
        while self.done < min(self.total, round(self.total * progress)):
            self.fn()
            self.done += 1


class Setup:
    """Import sepdual and generate the inputs, timing each round.

    Every round after the first imports into a ``sys.modules`` without the
    modules the first round added, so each one pays for the whole import;
    modules the benchmark itself imported beforehand are not counted.  The
    first round's modules are put back after every later round, so the
    process keeps running on one copy of the package.
    """

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.baseline = set(sys.modules)
        self.times, self.raw_times = [], []
        self.sd, self.inputs = self._round()
        self.modules = self._added()

    def _added(self):
        return {name: sys.modules[name] for name in set(sys.modules) - self.baseline}

    def _round(self):
        gauge = Gauge()
        t0 = time.perf_counter()
        sd = importlib.import_module("sepdual")
        inputs = self.workload.generate(sd, self.seed)
        dt = time.perf_counter() - t0
        self.raw_times.append(dt)
        self.times.append(dt * gauge.scale())
        return sd, inputs

    def __call__(self):
        for name in self._added():
            del sys.modules[name]
        self._round()
        for name in self._added():
            del sys.modules[name]
        sys.modules.update(self.modules)


class CliRuns:
    """Times ``python -m sepdual <argv>`` and keeps a digest of each output."""

    def __init__(self, workload, argv, tmp):
        self.workload, self.argv, self.tmp = workload, argv, tmp
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
        self.times, self.raw_times, self.digests = [], [], []

    def __call__(self):
        gauge = Gauge()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "sepdual", *self.argv],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # killed and reaped; counted as failed
            proc = None
        dt = time.perf_counter() - t0
        self.raw_times.append(dt)
        self.times.append(dt * gauge.scale())
        try:
            out = self.workload.cli_result(proc.stdout, self.tmp)
        except (AttributeError, ValueError, KeyError, OSError):
            out = None
        ok = proc is not None and proc.returncode == 0
        self.digests.append(workloads.digest(out) if ok else None)


def midmean(values):
    """Mean of the middle half of the values (the interquartile mean).

    A side measurement lasts up to a second and a half, longer than the
    host's speed stays put, so its scaled samples scatter both ways; the
    midmean drops the extremes but averages the rest, which a median of a
    dozen samples does not.
    """
    v = sorted(values)
    cut = len(v) // 4
    return statistics.fmean(v[cut:len(v) - cut])


def measure(workload, sd, inputs, seconds, blocks, tracer=None, side=()):
    """Run passes over ``blocks`` in turn until ``seconds`` of item time.

    Every pass starts after a full garbage collection, outside the timed
    region.  A graph and the systems in its cache refer to each other, so
    the graphs of a finished pass are freed only by the cyclic collector;
    without the collection the next pass would pay, at a random item, for
    traversing the previous pass's garbage, which no single ``sepdual``
    process ever does.
    """
    rec = workloads.Recorder(sd.errors.CapExceeded, tracer)
    profiles = []
    b = 0
    while True:
        gc.collect()
        workload.run_pass(sd, inputs, blocks[b % len(blocks)], rec)
        b += 1
        if tracer is not None:
            prof = tracer.take_pass()
            if profiles:
                prof.spans = []  # only the first pass's spans are written out
            profiles.append(prof)
        for task in side:
            task.catch_up(min(1.0, rec.timed / seconds))
        if rec.timed >= seconds:
            return rec, profiles


def provenance(sd, args):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sepdual").rglob("*")):
        if path.suffix in (".py", ".pyx"):
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "dev_seed": DEV_SEED, "holdout_seed": HOLDOUT_SEED,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "kernel_backend": sd.KERNEL_BACKEND, "git_sha": sha,
        "source_sha256": src.hexdigest(),
    }


def run_traced(workload, sd, inputs, args, detail):
    """Per-layer metrics from block 0, untraced then traced."""
    plain, _ = measure(workload, sd, inputs, args.seconds / 2, [0])
    tr = tracing.Tracer(sd.errors.CapExceeded, sd.tangles.DEFAULT_MEMBER_CAP)
    tr.attach()
    try:
        rec, profiles = measure(workload, sd, inputs, args.seconds / 2, [0], tr)
    finally:
        tr.close()
    merged = tracing.PassProfile()
    for prof in profiles:
        merged.merge(prof)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
               in tracing.layer_metrics(profiles[0], merged).items()}
    traced_rate = rec.summary()["items_per_s"]
    metrics["trace.items_per_s"] = {"value": traced_rate, "unit": "1/s"}
    metrics["trace.slowdown"] = {"value": plain.summary()["items_per_s"] / traced_rate,
                                 "unit": "ratio"}
    detail["layers_s"] = tracing.layer_seconds(merged)
    traces = HERE / "traces"
    traces.mkdir(exist_ok=True)
    profiles[0].write_spans(traces / f"{args.workload}-seed{args.seed}.jsonl")
    return metrics, (plain, rec), None


def run_plain(workload, setup, args, tmp, detail):
    """End-to-end metrics over all blocks, with set-up and CLI runs between passes."""
    sd, inputs = setup.sd, setup.inputs
    cli = CliRuns(workload, workload.cli_argv(sd, inputs, tmp), tmp)
    side = (Spread(setup, SETUP_ROUNDS - 1), Spread(cli, workload.cli_runs))
    rec, _ = measure(workload, sd, inputs, args.seconds,
                     list(range(workload.n_blocks)), side=side)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    med = rec.summary()
    metrics = {
        "setup_s": {"value": midmean(setup.times), "unit": "s"},
        "items_per_s": {"value": med["items_per_s"], "unit": "1/s"},
        "latency_ms.p50": {"value": med["p50"] * 1e3, "unit": "ms"},
        "latency_ms.p90": {"value": med["p90"] * 1e3, "unit": "ms"},
        "latency_ms.p99": {"value": med["p99"] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "complete_ratio": {"value": 1 - rec.capped / rec.items, "unit": "ratio"},
        "cli_s": {"value": midmean(cli.times), "unit": "s"},
    }
    detail.update({"setup_s_all": setup.times, "cli_s_all": cli.times,
                   "wall": {"setup_s": midmean(setup.raw_times),
                            "cli_s": midmean(cli.raw_times),
                            **rec.summary(raw=True)}})
    return metrics, (rec,), cli


def run(args, tmp):
    workload = WORKLOADS[args.workload]()
    setup = Setup(workload, args.seed)
    sd, inputs = setup.sd, setup.inputs
    detail = {"provenance": provenance(sd, args)}
    if args.trace:
        metrics, recs, cli = run_traced(workload, sd, inputs, args, detail)
    else:
        metrics, recs, cli = run_plain(workload, setup, args, tmp, detail)
    failed, counters = workload.finish(sd, inputs)
    attempted = sum(r.items for r in recs)
    failed += sum(r.failed for r in recs)
    if cli is not None:
        want = workloads.digest(workload.cli_expected(sd, inputs))
        attempted += len(cli.digests)
        failed += sum(d != want for d in cli.digests)
    rec = recs[-1]
    detail.update({
        "counters": counters, "items": rec.items, "capped": rec.capped,
        "latency_samples": rec.samples, "timed_s": rec.timed,
        "errors": [e for r in recs for e in r.errors],
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sepdual" / "__init__.py").is_file():
        print(f"error: no sepdual sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        run(args, Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
