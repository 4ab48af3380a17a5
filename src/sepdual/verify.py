"""Executable certification of the tangle-duality theorems on a fixed corpus.

Every theorem about shifted tangles and profiles is checked by brute force:
enumerate all hypothesis tangles (or regular profiles) of the stated order,
materialize the shifted family, and test the claimed conclusion literally.
A case can end four ways:

* verified       - every hypothesis object passed (vacuously when none exist)
* counterexample - a violation with no side-condition hint recorded
* degenerate     - a violation in a case that recorded any side-condition
                   hint: a threshold so large that a system contains its
                   entire universe, or isolated vertices where an image-style
                   shift needs the round trip (sides -> edges -> sides) to be
                   exact.  The hint is not shown to cause the violation; it
                   only had to be recorded before the violation was found.
* capped         - a ground set was over its cap, or a search was over the
                   member cap and the largest system within the cap has a
                   result; a search whose largest system within the cap has
                   none answers no result, and the case goes on

Every witness is re-checked on label sets, without the mask kernels, before
its case is reported; ``_witness`` raises when a re-check fails.  By kind:

* not_total, both_orientations - the step's map, recomputed on the member
  alone, links neither or both of its orientations to the family
* not_regular, cover_triple - the first sides of the member, or of the
  triple, cover the ground set
* consistency_pair   - the inverse of the first member lies below the second
* corner_triple      - the third is the inverse of the supremum of the others
* not_subset         - no choice of the hypothesis has the member's sides
* pushforward_escape - the chosen member's recomputed image is the reported
                       one, and its recomputed way back is not chosen

The shipped corpus is a fixed list of generators and seeds, so reports are
bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, NamedTuple, Optional

from . import __version__ as _pkg_version
from .bigraph import BipartiteGraph, from_edges, gen_planted, gen_random
from .errors import CapExceeded
from .separations import Sep, sep_labels
from .shifts import _OTHER
from .tangles import (
    DEFAULT_MEMBER_CAP,
    LowOrderSystem,
    Orientation,
    check_profile,
    check_tangle,
    enumerate_tangles,
    kept_images,
    kept_system,
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
        if sys.space.top() < j2:
            self.hints.append(
                f"system over {universe!r} at doubled order {j2} is its whole universe")
        return sys

    def search(self, system: LowOrderSystem, kind: str) -> list[Orientation]:
        # the threshold is read only when no system is given
        return enumerate_tangles(self.g, system.universe, None, kind,
                                 member_cap=self.member_cap, system=system)

    def isolated_hint(self, side: str) -> None:
        adj = self.g.adj_x if side == "x" else self.g.adj_y
        if any(m == 0 for m in adj):
            self.hints.append(f"isolated vertices on side {side}")


# -- independent witness re-validation (label sets, not the mask kernels) ---


def _revalidate_cover(ground, seps) -> bool:
    union = set()
    for a, _ in seps:
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
    """Recompute a universe map by explicit label counting.

    Each destination element votes over the source labels it is incident
    with: its neighbours, or its incident edges when the source is ``e``.  It
    goes to each side that holds at least as many of them as the other, so a
    tie goes to both sides, or to the first side alone between ``bx`` and
    ``by``.
    """
    if source == "e" and dest in ("x", "y"):
        src, dst = g.edges, g.x if dest == "x" else g.y
        voters = {v: set() for v in dst.labels}
        end = 0 if dest == "x" else 1
        for edge in g.edges.labels:
            voters[edge[end]].add(edge)
    elif _OTHER.get(source) == dest:
        src, dst = (g.x, g.y) if source[-1] == "x" else (g.y, g.x)
        voters = {v: set(src.members(g.neighbor_mask(v))) for v in dst.labels}
    else:
        raise ValueError(f"no set-based map from {source!r} to {dest!r}")
    a, b = (set(src.members(m)) for m in s)
    first_only = source[0] == "b"
    c = d = 0
    for j, v in enumerate(dst.labels):
        ca, cb = len(voters[v] & a), len(voters[v] & b)
        if ca >= cb:
            c |= 1 << j
        if ca < cb or (ca == cb and not first_only):
            d |= 1 << j
    return Sep(c, d)


# -- shared checking machinery ----------------------------------------------


def _witness(ok: bool, kind: str, **fields) -> dict:
    """The report entry of a failure whose witness passed its label-set
    re-check ``ok``; a witness that failed it is a fault, not a verdict."""
    if not ok:
        raise AssertionError("witness failed independent re-validation")
    return {"kind": kind, **fields}


def _orient_from(system: LowOrderSystem, family: set):
    """The orientation ``family`` induces on ``system``, or the first member
    it orients neither way or both ways, as ``(report kind, member)``."""
    forward = []
    for m in system.members:
        fi = m in family
        if fi == ((m[1], m[0]) in family):
            return ("both_orientations" if fi else "not_total"), m
        forward.append(fi)
    return Orientation(system, tuple(forward))


#: Each clause a check reports: the re-check and report field of its witness.
_CLAUSES = {
    "consistency_pair": (_revalidate_consistency, "witness"),
    "corner_triple": (_revalidate_corner, "witness"),
    "cover_triple": (_revalidate_cover, "triple"),
}


def _conclusion_failure(orientation: Orientation, want: str) -> Optional[dict]:
    """The witness that ``orientation`` is not of kind ``want``, or None."""
    ground = orientation.system.ground
    if want == "regular_profile":
        for s in orientation.choices():
            if s[0] == ground.full:
                return _witness(_revalidate_cover(ground, (s,)), "not_regular",
                                member=sep_labels(ground, s))
        rep = check_profile(orientation)
    else:
        rep = check_tangle(orientation)
    if rep.ok:
        return None
    recheck, field = _CLAUSES[rep.clause]
    return _witness(recheck(ground, rep.violation), rep.clause,
                    **{field: [sep_labels(ground, s) for s in rep.violation]})


def _label_sides(ground, s) -> tuple[frozenset, frozenset]:
    return frozenset(ground.members(s[0])), frozenset(ground.members(s[1]))


def _subset_violation(tau, elements, ground) -> Optional[dict]:
    for s in elements:
        if s not in tau:
            # re-check on label sets against tau's explicit choices
            chosen = {_label_sides(ground, c) for c in tau.choices()}
            return _witness(_label_sides(ground, s) not in chosen, "not_subset",
                            member=sep_labels(ground, s))
    return None


def _pull(images, sources, family, members) -> set:
    """Orientations of ``members`` whose image lies in family; ``images`` is
    aligned with ``sources``, which are ``members`` themselves."""
    out = set()
    for m, (there, back) in zip(sources, images):
        if there in family:
            out.add(m)
        if back in family:
            out.add((m[1], m[0]))
    return out


def _push(images, sources, family, members) -> set:
    """Image of family, kept to the orientations of ``members``; ``images``
    is aligned with ``sources``, and family holds orientations of them."""
    image = set()
    for m, (there, back) in zip(sources, images):
        if m in family:
            image.add(there)
        if (m[1], m[0]) in family:
            image.add(back)
    return {s for m in members for s in (m, (m[1], m[0])) if s in image}


def _revalidate_totality(g, leg, member, family, kind) -> bool:
    """Re-run the one step of ``leg`` on the witness member alone, with the
    set-based map: count the orientations of the member that map into family
    (pull) or that family maps onto (push)."""
    (step, _, _, ends), = leg.steps
    fn = partial(_set_map, g, *ends)
    pair = (member, (member[1], member[0]))
    if step is _pull:
        hits = sum(fn(s) in family for s in pair)
    else:
        image = {fn(s) for s in family}
        hits = sum(s in image for s in pair)
    return hits == 0 if kind == "not_total" else hits == 2


# -- theorem bodies ----------------------------------------------------------
#
# Every statement is a pair of legs run by one body, ``_run_legs``.
# A leg takes each hypothesis tau (a tangle or regular profile at factor * k
# of one universe) through one or two steps, each into a system at its own
# factor * k: ``pull`` keeps the orientations of the system's members whose
# image lies in the family, ``push`` keeps the image of the family, cut to
# orientations of the system's members.  After one step the family must
# orient that system as tau's kind (a tangle or a regular profile); after two
# it must lie inside tau, or, in a reversed leg, tau's choices on that system
# must lie inside it.  A theorem runs one leg per side, and legs with the
# same hypothesis count it once.
#
# Families are sets of plain ``(a, b)`` pairs, and no step shifts anything:
# both read the images of a map's source members from the kept table
# (``tangles.kept_images``), so a member is shifted once per graph and map.
# A pull reads the table of its own system's members.  A push reads the
# table of the previous system's members, which is exact because every
# family is a set of orientations of those members: the hypothesis is one
# orientation per member of its system, and a pull keeps orientations of
# its own.  Only a witness is recomputed, with the set-based map.
#
# Every leg records its isolated-vertex hints, then asks for the hypothesis
# system, the step systems in step order, and last the search: the order of
# the statement.  The first cap to trip writes the ``capped`` note, so this
# order decides which cap a capped case names; the hints decide
# ``degenerate``.  The body returns its hypothesis count and witness or None.


class _Leg(NamedTuple):
    label: tuple[str, str]  # ("side" or "target", its value) for the witness
    hints: tuple[str, ...]  # sides whose isolated vertices are hinted at
    hyp: tuple[str, int]  # (universe, factor) of the hypothesis
    steps: tuple  # (_pull or _push, universe, factor, (map source, map dest))
    counted: bool  # False when an earlier leg has the same hypothesis
    reverse: bool  # after two steps, tau's choices must lie inside the family


def _plan(g, leg, hyp_sys, systems):
    """Each step of ``leg`` as (step, images, sources, members): the kept
    images of the step's map, aligned with ``sources``, the members of the
    map's source system (the step's own for a pull, the previous for a push),
    and the members of the step's system."""
    plan, prev = [], hyp_sys
    for (step, _, _, ends), sys in zip(leg.steps, systems):
        source = sys if step is _pull else prev
        plan.append((step, kept_images(g, *ends, len(source)), source.members,
                     sys.members))
        prev = sys
    return plan


def _escape_violation(g, leg, plan, systems, tau, family) -> Optional[dict]:
    """The witness that a choice of tau on the last system of a reversed leg
    is not in the family, or None.  That system is a prefix of tau's, so
    member i has tau's choice i, and the last step, a pull, reads its
    members' images."""
    _, images, members, _ = plan[-1]
    source, dest = leg.steps[-1][3]
    for m, f, (there, back) in zip(members, tau.forward, images):
        r, t = (m, there) if f else ((m[1], m[0]), back)
        if r not in family:
            # t is the top, which no system holds and whose way back is the
            # top, or else, as a side shift raises no order, t orients a
            # member of the first step's system whose way back tau lacks
            return _witness(_set_map(g, source, dest, r) == t
                            and _set_map(g, dest, source, t) not in tau.as_set(),
                            "pushforward_escape",
                            member=sep_labels(systems[-1].ground, r),
                            image=sep_labels(systems[0].ground, t))
    return None


def _run_legs(g, ctx, k2, kind, legs):
    """The one body of the leg theorems: (hypothesis count, witness)."""
    hyp_count = 0
    for leg in legs:
        for side in leg.hints:
            ctx.isolated_hint(side)
        universe, factor = leg.hyp
        hyp_sys = ctx.system(universe, factor * k2)
        systems = [ctx.system(u, f * k2) for _, u, f, _ in leg.steps]
        hyps = ctx.search(hyp_sys, kind)
        if leg.counted:
            hyp_count += len(hyps)
        if not hyps:
            continue
        plan = _plan(g, leg, hyp_sys, systems)
        sys = systems[-1]
        for tau in hyps:
            family = tau_set = tau.as_set()
            for step, images, sources, targets in plan:
                family = step(images, sources, family, targets)
            if leg.reverse:
                fail = _escape_violation(g, leg, plan, systems, tau, family)
            elif len(systems) == 2:
                fail = _subset_violation(tau, sorted(family), sys.ground)
            else:
                got = _orient_from(sys, family)
                if isinstance(got, Orientation):
                    fail = _conclusion_failure(got, kind)
                else:
                    totality, member = got
                    fail = _witness(
                        _revalidate_totality(g, leg, member, tau_set, totality),
                        totality, member=sep_labels(sys.ground, member))
            if fail:
                fail.update([leg.label])
                return hyp_count, fail
    return hyp_count, None


def _legs(kind, hyp, *steps, label="side", hints="", prefix="", reverse=False):
    """The body of a theorem with one leg per side x, y.

    In ``hyp``, the steps and ``hints``, ``"s"`` names the leg's side and
    ``"o"`` the other side (universes get ``prefix``), and ``"e"`` the edges.
    """
    legs = []
    for side in ("x", "y"):
        sides = {"s": side, "o": _OTHER[side]}
        names = {"e": "e", "s": prefix + side, "o": prefix + _OTHER[side]}
        h = (names[hyp[0]], hyp[1])
        prev, leg_steps = h[0], []
        for op, u, f in steps:
            u = names[u]
            leg_steps.append((_pull, u, f, (u, prev)) if op == "pull"
                             else (_push, u, f, (prev, u)))
            prev = u
        legs.append(_Leg((label, side), tuple(sides[s] for s in hints), h,
                         tuple(leg_steps), all(leg.hyp != h for leg in legs),
                         reverse))
    return partial(_run_legs, kind=kind, legs=tuple(legs))


ALL_THEOREMS: dict[str, Callable] = {
    "shift_tangle": _legs("tangle", ("s", 4), ("pull", "o", 1)),
    "double_shift": _legs("tangle", ("s", 16), ("pull", "o", 4),
                          ("pull", "s", 1)),
    "edges_to_vtx": _legs("tangle", ("e", 2), ("push", "s", 1),
                          label="target", hints="s"),
    "vtx_to_edges": _legs("tangle", ("s", 4), ("pull", "e", 1)),
    "cor_double_shift_edges": _legs("tangle", ("e", 8), ("push", "s", 4),
                                    ("pull", "e", 1), hints="s"),
    "cor_double_shift_sides": _legs("tangle", ("s", 8), ("pull", "e", 2),
                                    ("push", "s", 1)),
    "shifttangle_weaker": _legs("tangle", ("s", 8), ("pull", "o", 1)),
    "double_shift_weaker": _legs("tangle", ("s", 64), ("pull", "o", 8),
                                 ("pull", "s", 1)),
    "profile_shift": _legs("regular_profile", ("s", 3), ("pull", "o", 1)),
    # the displayed chain restricts both steps to order k
    "profile_double_shift": _legs("regular_profile", ("s", 9),
                                  ("pull", "o", 1), ("pull", "s", 1)),
    "profile_edges_to_vtx": _legs("regular_profile", ("e", 2),
                                  ("push", "s", 1), label="target", hints="s"),
    "profile_vtx_to_edges": _legs("regular_profile", ("s", 3),
                                  ("pull", "e", 1)),
    # the same leg as double_shift, with the inclusion reversed
    "pushforward_containment": _legs("tangle", ("s", 16), ("pull", "o", 4),
                                     ("pull", "s", 1), reverse=True),
    "partition_shift": _legs("tangle", ("s", 4), ("pull", "o", 1),
                             hints="so", prefix="b"),
    "partition_double_shift": _legs("tangle", ("s", 16), ("pull", "o", 4),
                                    ("pull", "s", 1), hints="so", prefix="b"),
}


def run_theorem(theorem: str, g: BipartiteGraph, k2: int,
                graph_name: str = "graph",
                member_cap: int = DEFAULT_MEMBER_CAP) -> TheoremCase:
    """Run one theorem on one graph at one doubled threshold."""
    ctx = _Ctx(g, member_cap)
    try:
        hyp_count, witness = ALL_THEOREMS[theorem](g, ctx, k2)
    except CapExceeded as exc:
        hyp_count, witness, outcome, note = None, None, "capped", str(exc)
    else:
        outcome = ("verified" if witness is None
                   else "degenerate" if ctx.hints else "counterexample")
        note = "; ".join(sorted(set(ctx.hints)))
    # a witness comes from a hypothesis, so only a verified case is vacuous
    return TheoremCase(theorem, graph_name, k2, outcome,
                       hypothesis_count=hyp_count, vacuous=hyp_count == 0,
                       witness=witness, note=note)


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


def corpus_specs() -> list[tuple[str, Callable, tuple]]:
    """The fixed 50-graph corpus: (name, builder, args)."""
    specs: list[tuple[str, Callable, tuple]] = [
        ("m2", matching, (2,)),
        ("m3", matching, (3,)),
        ("k22", complete, (2, 2)),
        ("k33", complete, (3, 3)),
        ("k44", complete, (4, 4)),
        ("k55", complete, (5, 5)),
        ("cycle8", even_cycle, (4,)),
        ("cycle10", even_cycle, (5,)),
        ("blocks-2x2", gen_planted, ([(2, 2), (2, 2)], 1.0, 0.0, 7)),
        ("blocks-2-3", gen_planted, ([(2, 2), (3, 3)], 1.0, 0.0, 7)),
    ]
    for i in range(40):
        name, args = _random_spec(i)
        specs.append((name, gen_random, args))
    return specs


def corpus() -> list[tuple[str, BipartiteGraph]]:
    return [(name, builder(*args)) for name, builder, args in corpus_specs()]


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
