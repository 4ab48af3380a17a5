"""Executable certification of the tangle-duality theorems on a fixed corpus.

Every theorem about shifted tangles and profiles is checked by brute force:
enumerate all hypothesis tangles (or regular profiles) of the stated order,
materialize the shifted family, and test the claimed conclusion literally.
A case can end four ways:

* verified       - every hypothesis object passed (vacuously when none exist)
* counterexample - a genuine violation, with an independently re-validated
                   witness
* degenerate     - a violation explained by a broken side condition the
                   statements implicitly assume: a threshold so large that a
                   system contains its entire universe, or isolated vertices
                   where an image-style shift needs the round trip
                   (sides -> edges -> sides) to be exact
* capped         - an enumeration exceeded its configured size cap

The shipped corpus is a fixed list of generators and seeds, so reports are
bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

from . import __version__ as _pkg_version
from .bigraph import BipartiteGraph, from_edges, gen_planted, gen_random
from .errors import CapExceeded
from .orders import HalfInt
from .separations import Sep
from .shifts import _OTHER, edges_to_side, shift_side, universe_map
from .tangles import (
    DEFAULT_MEMBER_CAP,
    LowOrderSystem,
    Orientation,
    check_profile,
    check_regular,
    check_tangle,
    kept_search,
    kept_system,
    max_order2,
)

#: Default doubled thresholds: k = 1/2, 1, 3/2, 2.
K2_GRID = (1, 2, 3, 4)

@dataclass
class TheoremCase:
    """One (theorem, graph, k) verification record."""

    theorem: str
    graph_name: str
    k2: int
    outcome: str
    hypothesis_count: Optional[int] = None
    vacuous: bool = False
    witness: Optional[dict] = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "graph_seed": self.graph_name,
            "k_doubled": self.k2,
            "outcome": self.outcome,
            "hypothesis_count": self.hypothesis_count,
            "vacuous": self.vacuous,
            "witness": self.witness,
            "note": self.note,
        }


class _Ctx:
    """Per-case assumption hints; systems and searches are kept by tangles."""

    def __init__(self, g: BipartiteGraph, member_cap: int):
        self.g = g
        self.member_cap = member_cap
        self.hints: list[str] = []

    def system(self, universe: str, j2: int) -> LowOrderSystem:
        sys = kept_system(self.g, universe, j2)
        if max_order2(self.g, universe) < j2:
            self.hints.append(
                f"system over {universe!r} at doubled order {j2} is its whole universe")
        return sys

    def hypotheses(self, universe: str, j2: int, kind: str) -> tuple[Orientation, ...]:
        self.system(universe, j2)
        return kept_search(self.g, universe, j2, kind, self.member_cap)

    def isolated_hint(self, side: str) -> None:
        adj = self.g.adj_x if side == "x" else self.g.adj_y
        if any(m == 0 for m in adj):
            self.hints.append(f"isolated vertices on side {side}")


# -- independent witness re-validation (label sets, not the mask kernels) ---


def _sep_dict(ground, s: Sep) -> dict:
    a, b = s
    return {"a": ground.names(a), "b": ground.names(b)}


def _revalidate_cover_triple(ground, triple) -> bool:
    union = set()
    for a, _ in triple:
        union |= set(ground.members(a))
    return union == set(ground.labels)


def _revalidate_consistency(ground, pair) -> bool:
    # pair = ((B1,A1), (A2,B2)); violated clause needs (A1,B1) <= (A2,B2)
    (b1, a1), (a2, b2) = pair
    return (set(ground.members(a1)) <= set(ground.members(a2))
            and set(ground.members(b2)) <= set(ground.members(b1)))


def _revalidate_corner(ground, triple) -> bool:
    (ra, rb), (sa, sb), (ta, tb) = triple
    sup_a = set(ground.members(ra)) | set(ground.members(sa))
    sup_b = set(ground.members(rb)) & set(ground.members(sb))
    return (set(ground.members(ta)) == sup_b
            and set(ground.members(tb)) == sup_a)


def _set_map(g: BipartiteGraph, source: str, dest: str, s: Sep) -> Sep:
    """Recompute a universe map by explicit label counting."""
    a, b = s
    if _OTHER.get(source) == dest:
        partition = source[0] == "b"
        src = g.x if source[-1] == "x" else g.y
        dst = g.y if source[-1] == "x" else g.x
        a_labels = {src.labels[i] for i in range(src.n) if a >> i & 1}
        b_labels = {src.labels[i] for i in range(src.n) if b >> i & 1}
        c = d = 0
        for j, v in enumerate(dst.labels):
            nbrs = {src.labels[i] for i in range(src.n)
                    if g.neighbor_mask(v) >> i & 1}
            ca = len(nbrs & a_labels)
            cb = len(nbrs & b_labels)
            if ca >= cb:
                c |= 1 << j
            if (ca < cb) if partition else (ca <= cb):
                d |= 1 << j
        return Sep(c, d)
    if source == "e" and dest in ("x", "y"):
        ground = g.x if dest == "x" else g.y
        c = d = 0
        for j in range(ground.n):
            ca = cb = 0
            for ei, (xi, yi) in enumerate(g.endpoints):
                vid = xi if dest == "x" else yi
                if vid != j:
                    continue
                if a >> ei & 1:
                    ca += 1
                if b >> ei & 1:
                    cb += 1
            if ca >= cb:
                c |= 1 << j
            if ca <= cb:
                d |= 1 << j
        return Sep(c, d)
    raise ValueError(f"no set-based map from {source!r} to {dest!r}")


def _revalidate_totality(g, source, dest, member: Sep, tau_set, status) -> bool:
    """Re-check a totality failure with the set-based map recomputation."""
    a, b = member
    hits = sum(1 for s in (member, (b, a))
               if _set_map(g, source, dest, s) in tau_set)
    return hits == 0 if status == "none" else hits == 2


# -- shared checking machinery ----------------------------------------------


def _orient_from(system: LowOrderSystem, family: set):
    """Build the induced orientation, or report the first totality failure."""
    forward = []
    for m in system.members:
        a, b = m
        fi = m in family
        bi = (b, a) in family
        if fi and bi:
            return ("both", m, None)
        if not (fi or bi):
            return ("none", m, None)
        forward.append(fi)
    return ("ok", None, Orientation(system, tuple(forward)))


def _conclusion_failure(system, status, member, orientation, want):
    """Check the induced orientation; returns a witness dict on failure."""
    ground = system.ground
    if status == "none":
        return {"kind": "not_total", "member": _sep_dict(ground, member)}
    if status == "both":
        return {"kind": "both_orientations", "member": _sep_dict(ground, member)}
    if want == "regular_profile":
        if not check_regular(orientation):
            bad = next(s for s in orientation.choices() if s[0] == ground.full)
            return {"kind": "not_regular", "member": _sep_dict(ground, bad)}
        rep = check_profile(orientation)
        if rep.violation:
            if rep.clause == "consistency_pair":
                okw = _revalidate_consistency(ground, rep.violation)
            else:
                okw = _revalidate_corner(ground, rep.violation)
            if not okw:
                raise AssertionError("witness failed independent re-validation")
            return {"kind": rep.clause,
                    "witness": [_sep_dict(ground, s) for s in rep.violation]}
        return None
    rep = check_tangle(orientation)
    if rep.violation:
        if not _revalidate_cover_triple(ground, rep.violation):
            raise AssertionError("witness failed independent re-validation")
        return {"kind": "cover_triple",
                "triple": [_sep_dict(ground, s) for s in rep.violation]}
    return None


def _check_induced(g, tgt_sys, tau_set, dest, want):
    """Totality + consistency of the family over ``dest`` pulled into ``tgt_sys``."""
    pulled = _pullback_members(g, tgt_sys, dest, tau_set)
    status, member, orient = _orient_from(tgt_sys, pulled)
    if status != "ok" and not _revalidate_totality(
            g, tgt_sys.universe, dest, member, tau_set, status):
        raise AssertionError("witness failed independent re-validation")
    return _conclusion_failure(tgt_sys, status, member, orient, want)


def _subset_violation(tau, elements, ground):
    for s in elements:
        if s not in tau:
            if s in tau.as_set():  # re-check through the explicit choice list
                raise AssertionError("witness failed independent re-validation")
            return {"kind": "not_subset", "member": _sep_dict(ground, s)}
    return None


def _pullback_members(g, sys: LowOrderSystem, dest,
                      tau_set) -> set[tuple[int, int]]:
    """Orientations of sys members whose image over ``dest`` lies in tau."""
    fn = universe_map(g, sys.universe, dest)
    out = set()
    for m in sys.members:
        a, b = m
        for s in (m, (b, a)):
            if fn(s) in tau_set:
                out.add(s)
    return out


def _oriented_in(system: LowOrderSystem, s) -> bool:
    """Whether s or its inverse is a member (members are canonical)."""
    a, b = s
    return ((a, b) if a <= b else (b, a)) in system.index


# -- theorem bodies ----------------------------------------------------------
#
# Twelve of the fifteen statements share four shapes; the two corollaries and
# push-forward containment keep their own bodies.  The order of system,
# hypothesis and hint calls in each body is part of the report: the first cap
# to trip writes the ``capped`` note, and the hints decide ``degenerate``.


def _pullback_theorem(g, ctx, k2, factor, kind, prefix=""):
    """Hypothesis at factor*k, pulled back along the side shift, checked at k.

    ``prefix="b"`` runs the partition universes with the tie-broken shift.
    """
    hyp_count = 0
    for side in ("x", "y"):
        other = _OTHER[side]
        if prefix:
            ctx.isolated_hint(side)
            ctx.isolated_hint(other)
        ctx.system(prefix + side, factor * k2)
        tgt_sys = ctx.system(prefix + other, k2)
        hyps = ctx.hypotheses(prefix + side, factor * k2, kind)
        hyp_count += len(hyps)
        for tau in hyps:
            fail = _check_induced(g, tgt_sys, tau.as_set(), prefix + side, kind)
            if fail:
                fail["side"] = side
                return hyp_count, [fail]
    return hyp_count, []


def _double_shift_chain(g, ctx, k2, hyp_factor, mid_factor, kind, prefix=""):
    """Pull back twice and assert the result is contained in the hypothesis."""
    hyp_count = 0
    for side in ("x", "y"):
        other = _OTHER[side]
        if prefix:
            ctx.isolated_hint(side)
            ctx.isolated_hint(other)
        ctx.system(prefix + side, hyp_factor * k2)
        mid_sys = ctx.system(prefix + other, mid_factor * k2)
        low_sys = ctx.system(prefix + side, k2)
        hyps = ctx.hypotheses(prefix + side, hyp_factor * k2, kind)
        hyp_count += len(hyps)
        for tau in hyps:
            mid = _pullback_members(g, mid_sys, prefix + side, tau.as_set())
            back = _pullback_members(g, low_sys, prefix + other, mid)
            bad = _subset_violation(tau, sorted(back), low_sys.ground)
            if bad:
                bad["side"] = side
                return hyp_count, [bad]
    return hyp_count, []


def _edges_to_vtx(g, ctx, k2, kind):
    """Edge hypothesis at 2k, its side image checked at k."""
    hyps = ctx.hypotheses("e", 2 * k2, kind)
    for target in ("x", "y"):
        ctx.isolated_hint(target)
        tgt_sys = ctx.system(target, k2)
        for tau in hyps:
            image = {edges_to_side(g, s, target) for s in tau.choices()}
            fail = _conclusion_failure(tgt_sys, *_orient_from(tgt_sys, image), kind)
            if fail:
                fail["target"] = target
                return len(hyps), [fail]
    return len(hyps), []


def _vtx_to_edges(g, ctx, k2, factor, kind):
    """Side hypothesis at factor*k, pulled back to the edges at k."""
    hyp_count = 0
    tgt_sys = ctx.system("e", k2)
    for side in ("x", "y"):
        hyps = ctx.hypotheses(side, factor * k2, kind)
        hyp_count += len(hyps)
        for tau in hyps:
            fail = _check_induced(g, tgt_sys, tau.as_set(), side, kind)
            if fail:
                fail["side"] = side
                return hyp_count, [fail]
    return hyp_count, []


def _cor_double_shift_edges(g, ctx, k2):
    """8k edge tangle: side image at 4k, pulled back to the edges at k."""
    hyps = ctx.hypotheses("e", 8 * k2, "tangle")
    low_sys = ctx.system("e", k2)
    for side in ("x", "y"):
        ctx.isolated_hint(side)
        mid_sys = ctx.system(side, 4 * k2)
        for tau in hyps:
            sigma = {t for s in tau.choices()
                     if _oriented_in(mid_sys, t := edges_to_side(g, s, side))}
            back = _pullback_members(g, low_sys, side, sigma)
            bad = _subset_violation(tau, sorted(back), low_sys.ground)
            if bad:
                bad["side"] = side
                return len(hyps), [bad]
    return len(hyps), []


def _cor_double_shift_sides(g, ctx, k2):
    """8k side tangle: pulled back to the edges at 2k, pushed forward at k."""
    hyp_count = 0
    mid_sys = ctx.system("e", 2 * k2)
    for side in ("x", "y"):
        hyps = ctx.hypotheses(side, 8 * k2, "tangle")
        low_sys = ctx.system(side, k2)
        hyp_count += len(hyps)
        for tau in hyps:
            pulled = _pullback_members(g, mid_sys, side, tau.as_set())
            image = {t for s in pulled
                     if _oriented_in(low_sys, t := edges_to_side(g, s, side))}
            bad = _subset_violation(tau, sorted(image), low_sys.ground)
            if bad:
                bad["side"] = side
                return hyp_count, [bad]
    return hyp_count, []


def _pushforward_containment(g, ctx, k2):
    """16k side tangle: shifting there and back stays inside it at order k."""
    hyp_count = 0
    for side in ("x", "y"):
        other = _OTHER[side]
        hyps = ctx.hypotheses(side, 16 * k2, "tangle")
        hyp_count += len(hyps)
        for tau in hyps:
            tset = tau.as_set()
            low = tau.system.restricted(HalfInt(k2))
            for m in low.members:
                s = tau.chosen(tau.system.index[m])
                t = shift_side(g, s, side)
                if shift_side(g, t, other) not in tset:
                    other_ground = g.y if side == "x" else g.x
                    fail = {"kind": "pushforward_escape", "side": side,
                            "member": _sep_dict(low.ground, s),
                            "image": _sep_dict(other_ground, t)}
                    return hyp_count, [fail]
    return hyp_count, []


ALL_THEOREMS: dict[str, Callable] = {
    "shift_tangle": partial(_pullback_theorem, factor=4, kind="tangle"),
    "double_shift": partial(_double_shift_chain, hyp_factor=16, mid_factor=4,
                            kind="tangle"),
    "edges_to_vtx": partial(_edges_to_vtx, kind="tangle"),
    "vtx_to_edges": partial(_vtx_to_edges, factor=4, kind="tangle"),
    "cor_double_shift_edges": _cor_double_shift_edges,
    "cor_double_shift_sides": _cor_double_shift_sides,
    "shifttangle_weaker": partial(_pullback_theorem, factor=8, kind="tangle"),
    "double_shift_weaker": partial(_double_shift_chain, hyp_factor=64,
                                   mid_factor=8, kind="tangle"),
    "profile_shift": partial(_pullback_theorem, factor=3,
                             kind="regular_profile"),
    # the displayed chain restricts both steps to order k
    "profile_double_shift": partial(_double_shift_chain, hyp_factor=9,
                                    mid_factor=1, kind="regular_profile"),
    "profile_edges_to_vtx": partial(_edges_to_vtx, kind="regular_profile"),
    "profile_vtx_to_edges": partial(_vtx_to_edges, factor=3,
                                    kind="regular_profile"),
    "pushforward_containment": _pushforward_containment,
    "partition_shift": partial(_pullback_theorem, factor=4, kind="tangle",
                               prefix="b"),
    "partition_double_shift": partial(_double_shift_chain, hyp_factor=16,
                                      mid_factor=4, kind="tangle", prefix="b"),
}


def run_theorem(theorem: str, g: BipartiteGraph, k2: int,
                graph_name: str = "graph",
                member_cap: int = DEFAULT_MEMBER_CAP) -> TheoremCase:
    """Run one theorem on one graph at one doubled threshold."""
    body = ALL_THEOREMS[theorem]
    ctx = _Ctx(g, member_cap)
    try:
        hyp_count, failures = body(g, ctx, k2)
    except CapExceeded as exc:
        return TheoremCase(theorem, graph_name, k2, "capped", note=str(exc))
    note = "; ".join(sorted(set(ctx.hints)))
    if failures:
        outcome = "degenerate" if ctx.hints else "counterexample"
        return TheoremCase(theorem, graph_name, k2, outcome,
                           hypothesis_count=hyp_count, vacuous=False,
                           witness=failures[0], note=note)
    return TheoremCase(theorem, graph_name, k2, "verified",
                       hypothesis_count=hyp_count, vacuous=hyp_count == 0,
                       note=note)


# -- the shipped corpus -------------------------------------------------------


def matching(n: int) -> BipartiteGraph:
    return from_edges([(f"x{i+1}", f"y{i+1}") for i in range(n)])


def complete(n: int, m: int) -> BipartiteGraph:
    return from_edges([(f"x{i+1}", f"y{j+1}") for i in range(n) for j in range(m)])


def even_cycle(n: int) -> BipartiteGraph:
    """Cycle of length 2n: x_i ~ y_i and x_{i+1} ~ y_i."""
    pairs = []
    for i in range(n):
        pairs.append((f"x{i+1}", f"y{i+1}"))
        pairs.append((f"x{(i+1) % n + 1}", f"y{i+1}"))
    return from_edges(pairs, x_labels=[f"x{i+1}" for i in range(n)],
                      y_labels=[f"y{i+1}" for i in range(n)])


def _random_spec(i: int) -> tuple[str, tuple]:
    seed = 100 + i
    nx = 2 + i % 4
    ny = 2 + (i // 4) % 4
    p = (0.3, 0.5, 0.7, 0.9)[(i // 2) % 4]
    name = f"random-{nx}x{ny}-p{int(p * 10):02d}-s{seed}"
    return name, (nx, ny, p, seed)


def corpus_specs() -> list[tuple[str, str, tuple]]:
    """The fixed 50-graph corpus: (name, builder, args)."""
    specs: list[tuple[str, str, tuple]] = [
        ("m2", "matching", (2,)),
        ("m3", "matching", (3,)),
        ("k22", "complete", (2, 2)),
        ("k33", "complete", (3, 3)),
        ("k44", "complete", (4, 4)),
        ("k55", "complete", (5, 5)),
        ("cycle8", "even_cycle", (4,)),
        ("cycle10", "even_cycle", (5,)),
        ("blocks-2x2", "planted", ([(2, 2), (2, 2)], 1.0, 0.0, 7)),
        ("blocks-2-3", "planted", ([(2, 2), (3, 3)], 1.0, 0.0, 7)),
    ]
    for i in range(40):
        name, args = _random_spec(i)
        specs.append((name, "random", args))
    return specs


_BUILDERS = {
    "matching": matching,
    "complete": complete,
    "even_cycle": even_cycle,
    "planted": gen_planted,
    "random": gen_random,
}


def corpus() -> list[tuple[str, BipartiteGraph]]:
    return [(name, _BUILDERS[builder](*args))
            for name, builder, args in corpus_specs()]


def run_corpus(k2_grid: Iterable[int] = K2_GRID,
               graphs: Optional[list] = None,
               theorems: Optional[Iterable[str]] = None,
               member_cap: int = DEFAULT_MEMBER_CAP) -> dict:
    """Run the whole theorem suite; returns a deterministic report dict."""
    if graphs is None:
        graphs = corpus()
    if theorems is None:
        theorems = list(ALL_THEOREMS)
    k2_grid = list(k2_grid)
    cases = []
    for name, g in graphs:
        for theorem in theorems:
            for k2 in k2_grid:
                cases.append(run_theorem(theorem, g, k2, name, member_cap))
    summary = {"outcomes": {}, "non_vacuous": {}, "counterexamples": 0}
    for c in cases:
        summary["outcomes"][c.outcome] = summary["outcomes"].get(c.outcome, 0) + 1
        if c.outcome == "verified" and not c.vacuous:
            summary["non_vacuous"][c.theorem] = (
                summary["non_vacuous"].get(c.theorem, 0) + 1)
        if c.outcome == "counterexample":
            summary["counterexamples"] += 1
    return {
        "version": _pkg_version,
        "config": {
            "k2_grid": k2_grid,
            "member_cap": member_cap,
            "theorems": list(theorems),
            "graphs": [name for name, _ in graphs],
        },
        "summary": summary,
        "cases": [c.to_dict() for c in cases],
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
