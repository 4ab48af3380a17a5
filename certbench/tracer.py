"""Span tracer that attaches to sepdual's public functions from outside.

The tracer replaces module attributes with timing wrappers and puts the
originals back on ``close()``.  Two facts about the library decide where the
wrappers must go:

* ``sepdual.verify`` (and ``sepdual.cli``, and the package itself) import
  ``build_system``, ``enumerate_tangles`` and the shift functions *by name*.
  Patching only ``sepdual.tangles.build_system`` would miss every call made
  from the theorem bodies, so every ``sepdual`` module that binds the
  original function object gets the wrapper.
* The backend modules (``sepdual._kernels._pure`` and the compiled
  ``_fast``) are never patched.  On the pure backend ``scan_members`` calls
  ``_pure.order2`` directly, so ``kernels.order2.calls`` counts the single
  calls that go through ``sepdual._kernels`` (order evaluation, shifts,
  ``max_order2``) and never the calls inside a scan; the scan's order
  evaluations are part of ``kernels.scan_members.busy_share``.

Every traced call records a span ``[name, start, end, parent, case]``; the
workload opens one root span per item and sets ``case`` to the item's index,
so the spans of one item share it.  ``order2`` and ``shift2`` are far too
frequent for a span each: they are aggregated as a call count plus busy time
per parent span.  A span's self time is its duration minus its child spans
and the kernel busy time aggregated under it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# (defining module, function) -> layer name used in the metrics
SPANNED = {
    ("sepdual._kernels", "scan_members"): "kernels.scan_members",
    ("sepdual.orders", "order_of"): "orders.order_of",
    ("sepdual.shifts", "shift_side"): "shifts",
    ("sepdual.shifts", "shift_partition"): "shifts",
    ("sepdual.shifts", "edges_to_side"): "shifts",
    ("sepdual.shifts", "sep_to_edges"): "shifts",
    ("sepdual.tangles", "build_system"): "tangles.build_system",
    ("sepdual.tangles", "enumerate_tangles"): "tangles.enumerate_tangles",
    ("sepdual.verify", "run_theorem"): "verify.run_theorem",
    ("sepdual.verify", "report_json"): "verify.report_json",
}
AGGREGATED = {
    ("sepdual._kernels", "order2"): "kernels.order2",
    ("sepdual._kernels", "shift2"): "kernels.shift2",
}
BACKEND_MODULES = ("sepdual._kernels._pure", "sepdual._kernels._fast")
LAYERS = sorted(set(SPANNED.values()))
KERNELS = sorted(AGGREGATED.values())


class Tracer:
    """Records spans for one pass at a time; see the module docstring."""

    def __init__(self, cap_exceeded, default_member_cap: int):
        self.cap_exceeded = cap_exceeded
        self.default_member_cap = default_member_cap
        self.spans: list[list] = []
        self.stack = [-1]
        self.case = -1
        self.kernel = defaultdict(lambda: [0, 0.0])  # (name, parent) -> calls, busy
        self.counts = Counter()
        self.rejected: set = set()  # systems whose search tripped the member cap
        self._patches: list[tuple] = []

    # -- attaching -----------------------------------------------------------

    def attach(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "sepdual" or name.startswith("sepdual."))
                   and name not in BACKEND_MODULES and m is not None]
        for table, make in ((SPANNED, self._spanned), (AGGREGATED, self._aggregated)):
            for (modname, fname), layer in table.items():
                original = getattr(sys.modules[modname], fname)
                wrapper = make(layer, fname, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, original))

    def close(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def _spanned(self, layer, fname, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        on_result = getattr(self, "_on_" + fname, None)
        on_error = getattr(self, "_err_" + fname, None)

        def wrapper(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1], self.case]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc, args, kwargs)
                raise
            rec[2] = clock()
            stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _aggregated(self, layer, fname, fn):
        agg, stack, clock = self.kernel, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = agg[(layer, stack[-1])]
                cell[0] += 1
                cell[1] += clock() - t0

        return wrapper

    # -- counters taken at the same boundaries -------------------------------

    def _on_scan_members(self, out):
        self.counts["kernels.scan_members.seps_scored"] += len(out)

    def _on_build_system(self, out):
        self.counts["tangles.build_system.members"] += len(out.members)

    def _on_enumerate_tangles(self, out):
        self.counts["tangles.enumerate_tangles.found"] += len(out)

    def _err_enumerate_tangles(self, exc, args, kwargs):
        if not isinstance(exc, self.cap_exceeded):
            return
        self.counts["tangles.enumerate_tangles.capped"] += 1
        system = kwargs.get("system", args[5] if len(args) > 5 else None)
        member_cap = kwargs.get("member_cap", args[4] if len(args) > 4
                                else self.default_member_cap)
        if system is not None and len(system.members) > member_cap:
            self.rejected.add(system)

    def _on_run_theorem(self, case):
        if case.outcome == "verified":
            if not case.vacuous:
                self.counts["verify.run_theorem.nonvacuous"] += 1
        else:
            self.counts["verify.run_theorem." + case.outcome] += 1

    def _on_report_json(self, out):
        self.counts["verify.report_json.bytes"] += len(out.encode())

    # -- items and passes ----------------------------------------------------

    def begin_item(self, case: int) -> None:
        self.case = case
        self.stack.append(len(self.spans))
        self.spans.append(["item", time.perf_counter(), 0.0, -1, case])

    def end_item(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def take_pass(self) -> "PassProfile":
        """Reduce the spans recorded since the last call, then clear them."""
        prof = PassProfile.reduce(list(self.spans), dict(self.kernel), self.counts,
                                  sum(len(s.members) for s in self.rejected))
        # the wrappers hold these containers, so empty them in place
        self.spans.clear()
        self.kernel.clear()
        self.counts = Counter()
        self.rejected = set()
        self.stack[:] = [-1]
        return prof


class PassProfile:
    """Per-layer totals of one traced pass."""

    def __init__(self):
        self.total = 0.0            # root (item) span time
        self.self_s = Counter()     # layer -> self time
        self.calls = Counter()      # layer or kernel -> calls
        self.busy = Counter()       # kernel -> busy time
        self.counts = Counter()
        self.spans: list[list] = []

    @classmethod
    def reduce(cls, spans, kernel, counts, wasted_members):
        prof = cls()
        child = [0.0] * len(spans)
        for (layer, parent), (calls, busy) in kernel.items():
            prof.calls[layer] += calls
            prof.busy[layer] += busy
            if parent >= 0:
                child[parent] += busy
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            if parent < 0:
                prof.total += t1 - t0
            if name != "item":
                prof.calls[name] += 1
                prof.self_s[name] += t1 - t0 - child[i]
        prof.counts = Counter(counts)
        prof.counts["tangles.build_system.wasted_members"] = wasted_members
        prof.spans = spans
        return prof

    def merge(self, other: "PassProfile") -> None:
        self.total += other.total
        self.self_s.update(other.self_s)
        self.calls.update(other.calls)
        self.busy.update(other.busy)

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, case in self.spans:
                fh.write(json.dumps({"name": name, "start": t0 - origin,
                                     "end": t1 - origin, "parent": parent,
                                     "case": case}) + "\n")


def layer_metrics(first: PassProfile, all_passes: PassProfile) -> dict:
    """Per-layer metrics: exact counts from one pass, time shares from all.

    Shares are self (or busy) time divided by the traced item time: they do
    not move with the host's speed, and a layer that a workload never calls
    reads exactly 0.
    """
    total = all_passes.total or 1.0
    m = {}
    for k in KERNELS:
        m[k + ".calls"] = (first.calls[k], "count")
        m[k + ".busy_share"] = (all_passes.busy[k] / total, "share")
    for layer in LAYERS:
        m[layer + ".calls"] = (first.calls[layer], "count")
        key = ".busy_share" if layer.startswith("kernels.") else ".self_share"
        m[layer + key] = (all_passes.self_s[layer] / total, "share")
    for name in ("kernels.scan_members.seps_scored", "tangles.build_system.members",
                 "tangles.enumerate_tangles.found", "tangles.enumerate_tangles.capped",
                 "verify.run_theorem.nonvacuous", "verify.run_theorem.capped",
                 "verify.run_theorem.degenerate", "verify.run_theorem.counterexample",
                 "verify.report_json.bytes"):
        m[name] = (first.counts[name], "count")
    builds = first.calls["tangles.build_system"]
    m["tangles.scan_reuse_ratio"] = (
        1 - first.calls["kernels.scan_members"] / builds if builds else 0.0, "ratio")
    members = first.counts["tangles.build_system.members"]
    m["tangles.build_system.wasted_members_ratio"] = (
        first.counts["tangles.build_system.wasted_members"] / members
        if members else 0.0, "ratio")
    return m


def layer_seconds(all_passes: PassProfile) -> dict:
    """Absolute self/busy seconds per layer, for the detail record."""
    out = {k: all_passes.busy[k] for k in KERNELS}
    out.update({layer: all_passes.self_s[layer] for layer in LAYERS})
    out["item_total"] = all_passes.total
    return out
