"""Theorem verifier: outcomes, vacuity accounting, witnesses, determinism."""

import gc

import pytest

import sepdual.verify as verify
from oracles import pushforward_reference
from sepdual import (CapExceeded, GroundSet, HalfInt, Orientation, Sep,
                     TangleReport, _kernels, build_system, enumerate_tangles,
                     from_edges, gen_planted, gen_random)
from sepdual.separations import sep_labels
from sepdual.shifts import universe_map
from sepdual.tangles import (DEFAULT_EDGE_CAP, DEFAULT_MEMBER_CAP,
                             DEFAULT_PARTITION_CAP, DEFAULT_SEP_CAP,
                             LowOrderSystem, kept_system)
from sepdual.verify import (
    ALL_THEOREMS,
    TheoremCase,
    complete,
    corpus,
    corpus_specs,
    report_json,
    run_corpus,
    run_theorem,
)


def test_shift_tangle_m2_verified(m2):
    case = run_theorem("shift_tangle", m2, 1, "m2")
    assert case.outcome == "verified"
    # at k=1/2 the 4k hypothesis system self-destructs: vacuous but verified
    assert case.hypothesis_count == 0 and case.vacuous


def test_shift_tangle_nonvacuous_on_cycle():
    from sepdual.verify import even_cycle

    g = even_cycle(4)
    case = run_theorem("shift_tangle", g, 1, "cycle8")
    assert case.outcome == "verified"
    assert case.hypothesis_count > 0 and not case.vacuous


def test_edges_to_vtx_nonvacuous_k33(k33):
    case = run_theorem("edges_to_vtx", k33, 2, "k33")
    assert case.outcome == "verified"
    assert case.hypothesis_count > 0


def test_partition_shift_nonvacuous_m2(m2):
    case = run_theorem("partition_shift", m2, 1, "m2")
    assert case.outcome == "verified"
    assert case.hypothesis_count > 0


def test_capped_outcome_on_large_edges():
    g = from_edges([(f"x{i}", f"y{j}") for i in range(4) for j in range(4)])
    case = run_theorem("vtx_to_edges", g, 1, "k44")
    assert case.outcome == "capped"
    assert "cap" in case.note


def test_degenerate_outcome_on_tiny_graph():
    # one X-vertex with two neighbours: the member {y1},{y2} of the target
    # system shifts to the excluded top separation on both orientations,
    # which the statements implicitly assume cannot happen
    g = from_edges([("x1", "y1"), ("x1", "y2")])
    case = run_theorem("shift_tangle", g, 3, "star12")
    assert case.outcome == "degenerate"
    assert case.witness["kind"] == "not_total"
    assert "whole universe" in case.note


@pytest.mark.parametrize("index", range(3), ids=["shift_tangle-f1",
                                                  "partition_shift-f2",
                                                  "profile_shift-f1"])
def test_lowered_factor_probe_is_a_counterexample(index, probes):
    """With one factor lowered, a corpus case fails with no hint recorded:
    the verifier labels it ``counterexample`` and reports the witness that
    failed."""
    probe = probes[index]
    g = dict(corpus())[probe.graph]
    case = run_theorem(probe.theorem, g, probe.k2, probe.graph)
    assert case.outcome == "counterexample" and case.note == ""
    assert case.hypothesis_count >= 1 and not case.vacuous
    assert {key: case.witness[key] for key in probe.witness} == probe.witness


def test_isolated_vertex_degenerate_edges_to_vtx():
    g = from_edges([("x1", "y1")], x_labels=["x1", "x2"], y_labels=["y1"])
    case = run_theorem("edges_to_vtx", g, 1, "pendant")
    assert case.outcome in ("degenerate", "verified")
    if case.outcome == "degenerate":
        assert "isolated" in case.note or "whole universe" in case.note


def test_witness_revalidation_runs():
    # a degenerate failure still carries a re-validated literal witness
    g = from_edges([("x1", "y1"), ("x1", "y2")])
    case = run_theorem("shift_tangle", g, 3, "star12")
    assert case.witness is not None
    member = case.witness["member"]
    assert set(member) == {"a", "b"}


def test_push_leg_totality_witness_is_revalidated(monkeypatch):
    # a corpus case whose push-leg witness is not_total: the bottom
    # separation of X is not the image of any edge separation in the tangle
    case = run_theorem("edges_to_vtx", gen_random(2, 2, 0.3, 100), 1,
                       "random-2x2-p03-s100")
    assert case.outcome == "degenerate"
    assert case.witness["kind"] == "not_total"
    assert case.witness["target"] == "x"
    g = gen_random(2, 2, 0.3, 100)
    member = case.witness["member"]
    wrong = Sep(g.x.mask(member["a"]), g.x.mask(member["b"]))
    # a set-based map that sends everything onto the witness contradicts it
    monkeypatch.setattr(verify, "_set_map", lambda g, source, dest, s: wrong)
    with pytest.raises(AssertionError, match="re-validation"):
        run_theorem("edges_to_vtx", g, 1, "random-2x2-p03-s100")


@pytest.mark.parametrize("k2", range(1, 7))
def test_pushforward_escape_is_revalidated(k2):
    """One vertex a side and no edge: the member (∅, X) shifts to (Y, Y) and
    back to the top separation, which tau does not hold."""
    case = run_theorem("pushforward_containment", gen_random(1, 1, 0.3, 0), k2)
    assert case.outcome == "degenerate" and "whole universe" in case.note
    assert case.witness == {"kind": "pushforward_escape", "side": "x",
                            "member": {"a": [], "b": ["x1"]},
                            "image": {"a": ["y1"], "b": ["y1"]}}


def _corrupt_table(monkeypatch, ends, entry):
    """Make the kept image table of the map ``ends`` read ``entry`` for every
    member, leaving every other table as it is."""
    kept = verify.kept_images
    monkeypatch.setattr(
        verify, "kept_images", lambda g, source, dest, count:
        [entry] * count if (source, dest) == ends else kept(g, source, dest, count))


def test_corrupted_pushforward_image_fails_revalidation(monkeypatch):
    # the true image of (∅, X) is (Y, Y); the x -> y table, which the leg's
    # second pull reads, claims (∅, Y), which escapes as the top did
    g = gen_random(1, 1, 0.3, 0)
    assert verify.kept_images(g, "x", "y", 1) == [((1, 1), (1, 1))]
    _corrupt_table(monkeypatch, ("x", "y"), ((0, 1), (1, 0)))
    with pytest.raises(AssertionError, match="re-validation"):
        run_theorem("pushforward_containment", g, 1)


def test_corrupted_pushforward_way_back_fails_revalidation(monkeypatch):
    g = from_edges([("x1", "y1")])
    assert run_theorem("pushforward_containment", g, 1).hypothesis_count == 2
    # a y -> x table, which the leg's first pull reads, that sends every
    # image back to the top escapes every tau
    _corrupt_table(monkeypatch, ("y", "x"), ((1, 1), (1, 1)))
    with pytest.raises(AssertionError, match="re-validation"):
        run_theorem("pushforward_containment", g, 1)


#: (graph, doubled thresholds) of the differential test: graphs with
#: push-forward hypotheses once the member cap is lifted, and the two escape
#: fixtures above
PUSHFORWARD_GRAPHS = {
    "k77": (complete(7, 7), (1,)),
    "k88": (complete(8, 8), (1,)),
    "planted-636253": (gen_planted([(4, 3), (4, 3), (4, 2)], 1.0, 0.1, 636253), (1,)),
    "one-a-side": (gen_random(1, 1, 0.3, 0), range(1, 7)),
    "one-edge": (from_edges([("x1", "y1")]), range(1, 7)),
}


@pytest.mark.parametrize("g, k2s", PUSHFORWARD_GRAPHS.values(),
                         ids=list(PUSHFORWARD_GRAPHS))
def test_pushforward_leg_equals_the_reference_body(g, k2s):
    """Push-forward containment as a reversed leg gives the hypothesis
    count, outcome and witness of the earlier body of its own."""
    for k2 in k2s:
        case = run_theorem("pushforward_containment", g, k2, member_cap=10**6)
        want = pushforward_reference(g, k2, 10**6)
        assert (case.hypothesis_count, case.outcome, case.witness) == want, k2
        assert case.hypothesis_count >= 1


#: Separations of the ground set {a, b, c} as masks: bit 0 is a.
A, BC, AB, C, ABC = 0b001, 0b110, 0b011, 0b100, 0b111


def _abc(*members):
    return LowOrderSystem.from_members("x", GroundSet("abc"), members)


def _labels(a, b):
    return {"a": sorted("abc"[i] for i in range(3) if a >> i & 1),
            "b": sorted("abc"[i] for i in range(3) if b >> i & 1)}


@pytest.mark.parametrize("members, family, want, witness", [
    ([(A, BC)], set(), "tangle",
     {"kind": "not_total", "member": _labels(A, BC)}),
    ([(A, BC)], {(A, BC), (BC, A)}, "tangle",
     {"kind": "both_orientations", "member": _labels(A, BC)}),
    ([(A, ABC)], {(ABC, A)}, "regular_profile",
     {"kind": "not_regular", "member": _labels(ABC, A)}),
    # (A, BC) inverted lies below (AB, BC): the two point away from each other
    ([(A, BC), (AB, BC)], {(BC, A), (AB, BC)}, "regular_profile",
     {"kind": "consistency_pair", "witness": [_labels(BC, A), _labels(AB, BC)]}),
    ([(A, BC), (0b010, 0b101)], {(BC, A), (0b101, 0b010)}, "tangle",
     {"kind": "cover_triple",
      "triple": [_labels(BC, A), _labels(BC, A), _labels(0b101, 0b010)]}),
], ids=["not_total", "both_orientations", "not_regular", "consistency_pair",
        "cover_triple"])
def test_witness_branches_on_hand_built_systems(members, family, want, witness):
    system = _abc(*members)
    got = verify._orient_from(system, family)
    if isinstance(got, Orientation):
        assert verify._conclusion_failure(got, want) == witness
    else:  # a totality failure: its kind and the member it names
        assert got == (witness["kind"], system.members[0])
        assert sep_labels(system.ground, got[1]) == witness["member"]


@pytest.mark.parametrize("check, want, report", [
    ("check_profile", "regular_profile",
     TangleReport("none", (Sep(A, BC), Sep(A, BC)), "consistency_pair")),
    ("check_profile", "regular_profile",
     TangleReport("none", (Sep(A, BC), Sep(A, BC), Sep(A, BC)), "corner_triple")),
    ("check_tangle", "tangle",
     TangleReport("none", (Sep(A, BC), Sep(A, BC), Sep(A, BC)), "cover_triple")),
], ids=["consistency_pair", "corner_triple", "cover_triple"])
def test_corrupted_check_witness_fails_revalidation(check, want, report,
                                                    monkeypatch):
    system = _abc((A, BC))
    monkeypatch.setattr(verify, check, lambda o: report)
    orientation = verify._orient_from(system, {(A, BC)})
    with pytest.raises(AssertionError, match="re-validation"):
        verify._conclusion_failure(orientation, want)


def test_corrupted_not_regular_witness_fails_revalidation(monkeypatch):
    # (ABC, A) points away from the whole ground set; a label reader that
    # drops one label of the full mask contradicts the witness
    orientation = verify._orient_from(_abc((A, ABC)), {(ABC, A)})
    honest = GroundSet.members
    monkeypatch.setattr(GroundSet, "members", lambda self, mask: (
        honest(self, mask)[1:] if mask == self.full else honest(self, mask)))
    with pytest.raises(AssertionError, match="re-validation"):
        verify._conclusion_failure(orientation, "regular_profile")


def test_not_subset_witness_and_its_revalidation(monkeypatch):
    tau = Orientation(_abc((A, BC), (AB, C)), (True, False))
    ground = tau.system.ground
    assert verify._subset_violation(tau, [(A, BC), (C, AB)], ground) is None
    assert verify._subset_violation(tau, [(A, BC), (AB, C)], ground) == {
        "kind": "not_subset", "member": _labels(AB, C)}
    # a membership test that misses a chosen pair is caught on label sets
    monkeypatch.setattr(Orientation, "__contains__", lambda self, s: False)
    with pytest.raises(AssertionError, match="re-validation"):
        verify._subset_violation(tau, [(C, AB)], ground)


#: The universe of the first system each theorem asks for: the hypothesis
#: system of its first leg.
FIRST_SYSTEM = {theorem: "x" for theorem in ALL_THEOREMS}
FIRST_SYSTEM.update(edges_to_vtx="e", profile_edges_to_vtx="e",
                    cor_double_shift_edges="e", partition_shift="bx",
                    partition_double_shift="bx")


def test_capped_note_names_the_first_system_of_the_legs():
    """With every ground set over its cap, the first system asked for trips
    first, so the note names the hypothesis universe of the first leg."""
    g = gen_random(21, 22, 0.05, 1)
    caps = {"x": (g.x.n, DEFAULT_SEP_CAP), "bx": (g.x.n, DEFAULT_PARTITION_CAP),
            "e": (g.n_edges, DEFAULT_EDGE_CAP)}
    assert all(n > cap for n, cap in caps.values())
    for theorem, universe in FIRST_SYSTEM.items():
        n, cap = caps[universe]
        for k2 in (1, 4):
            case = run_theorem(theorem, g, k2, "over-caps")
            assert case.outcome == "capped", theorem
            assert case.note == (f"universe {universe!r} has {n} elements, "
                                 f"over cap {cap}"), theorem


def test_corpus_shape():
    specs = corpus_specs()
    assert len(specs) == 50
    names = [name for name, _, _ in specs]
    assert len(set(names)) == 50
    graphs = corpus()
    for name, g in graphs:
        assert g.x.n <= 5 and g.y.n <= 5


def test_corpus_deterministic():
    a = corpus()
    b = corpus()
    assert [(n, g.to_dict()) for n, g in a] == [(n, g.to_dict()) for n, g in b]


def test_run_corpus_subset_clean():
    graphs = [(n, g) for n, g in corpus() if n in ("m2", "k33", "cycle8")]
    rep = run_corpus(k2_grid=(1, 2), graphs=graphs,
                     theorems=("shift_tangle", "edges_to_vtx",
                               "partition_shift"))
    assert rep["summary"]["counterexamples"] == 0
    assert rep["summary"]["non_vacuous"].get("shift_tangle", 0) >= 1
    assert rep["summary"]["non_vacuous"].get("edges_to_vtx", 0) >= 1


def test_report_json_deterministic():
    graphs = [(n, g) for n, g in corpus() if n == "m2"]
    a = report_json(run_corpus(k2_grid=(1,), graphs=graphs,
                               theorems=("shift_tangle",)))
    graphs = [(n, g) for n, g in corpus() if n == "m2"]
    b = report_json(run_corpus(k2_grid=(1,), graphs=graphs,
                               theorems=("shift_tangle",)))
    assert a == b


def test_case_serialization():
    case = TheoremCase("shift_tangle", "m2", 1, "verified",
                       hypothesis_count=0, vacuous=True)
    d = case.to_dict()
    assert d["theorem"] == "shift_tangle"
    assert d["k_doubled"] == 1
    assert d["graph_seed"] == "m2"
    assert d["vacuous"] is True


def test_corpus_tangles_orient_bottom_forward():
    # regularity consequence, swept over the corpus at small thresholds
    from sepdual import HalfInt, Sep, build_system, check_regular, enumerate_tangles

    for name, g in corpus():
        for k2 in (1, 2):
            for universe in ("x", "y"):
                sys = build_system(g, universe, HalfInt(k2))
                if len(sys) > 24:
                    continue
                for o in enumerate_tangles(g, universe, HalfInt(k2), system=sys):
                    assert Sep(0, sys.ground.full) in o, (name, universe, k2)
                    assert check_regular(o)


def test_all_theorem_ids_runnable(m2):
    for theorem in ALL_THEOREMS:
        case = run_theorem(theorem, m2, 1, "m2")
        assert case.outcome in ("verified", "counterexample", "degenerate",
                                "capped")
        assert case.outcome != "counterexample"


@pytest.mark.parametrize("caps", [(256, DEFAULT_MEMBER_CAP),
                                  (DEFAULT_MEMBER_CAP, 256)],
                         ids=["large-first", "default-first"])
def test_kept_search_never_skips_a_smaller_cap(caps):
    """Both runs share one graph, so the second meets what the first kept."""
    g = complete(3, 3)
    cases = {cap: run_theorem("edges_to_vtx", g, 3, "k33", member_cap=cap)
             for cap in caps}
    capped = cases[DEFAULT_MEMBER_CAP]
    assert capped.outcome == "capped"
    assert capped.note == "system has 55 members, over member cap 24"
    assert cases[256].outcome == "verified" and cases[256].hypothesis_count == 1
    for cap, case in cases.items():
        fresh = run_theorem("edges_to_vtx", complete(3, 3), 3, "k33",
                            member_cap=cap)
        assert case.to_dict() == fresh.to_dict()


def test_settled_cases_equal_the_uncapped_run(monkeypatch):
    """Every case of the default run that does not end ``capped`` equals
    the same case of a run with no member cap, those settled from the
    largest system within the cap among them.  A case is settled when one of
    its searches was over the member cap, so it would have been capped had
    the cap alone decided; at least 661 corpus cases are."""
    over = []  # per case, whether one of its searches was over the cap
    search, case = verify._Ctx.search, verify.run_theorem

    def spied_search(ctx, system, kind):
        over[-1] |= len(system) > ctx.member_cap
        return search(ctx, system, kind)

    monkeypatch.setattr(verify._Ctx, "search", spied_search)
    monkeypatch.setattr(verify, "run_theorem",
                        lambda *args: over.append(False) or case(*args))
    capped = run_corpus()
    monkeypatch.undo()
    uncapped = run_corpus(member_cap=10**9)
    assert len(over) == len(capped["cases"]) == len(uncapped["cases"]) == 3000
    settled = 0
    for got, want, settles in zip(capped["cases"], uncapped["cases"], over):
        if got["outcome"] != "capped":
            assert got == want
            settled += settles
    assert settled >= 661
    assert capped["summary"]["counterexamples"] == 0


def test_search_results_belong_to_the_system_asked_for():
    """Two thresholds share a member count, so they share one kept system;
    the second is answered from the first's search, yet its orientations are
    of the system asked for, and they restrict to every threshold up to the
    one asked for and past it while the prefix is no longer."""
    g = complete(4, 4)
    # S_k over x has 5 members at doubled thresholds 5 to 8, and 15 at 9
    assert {len(kept_system(g, "x", k2)) for k2 in (5, 8)} == {5}
    assert kept_system(g, "x", 5) is kept_system(g, "x", 8)
    assert len(build_system(g, "x", HalfInt(9))) == 15
    ctx = verify._Ctx(g, DEFAULT_MEMBER_CAP)
    for kind in ("tangle", "regular_profile"):
        for search in (lambda sys: ctx.search(sys, kind),
                       lambda sys: enumerate_tangles(g, "x", None, kind, system=sys)):
            for k2 in (5, 8):
                for sys in (kept_system(g, "x", k2), build_system(g, "x", HalfInt(k2))):
                    found = search(sys)
                    assert found and all(o.system is sys for o in found)
        for k2 in (5, 8):
            found = enumerate_tangles(g, "x", HalfInt(k2), kind)
            assert found
            for o in found:
                assert o.system.space is kept_system(g, "x", k2).space
                assert len(o.system) == len(build_system(g, "x", HalfInt(k2)))
                for j2 in range(k2 + 1):
                    assert len(o.restrict(HalfInt(j2)).forward) == len(
                        build_system(g, "x", HalfInt(j2)))
                assert o.restrict(HalfInt(8)) == o
                with pytest.raises(ValueError):
                    o.restrict(HalfInt(9))


def test_reused_search_leaves_pushforward_unchanged():
    """A search reused from a lower threshold holds orientations of that
    threshold's system; the push-forward must still read S_k at its own k."""
    g = gen_random(1, 1, 0.3, 0)
    for k2 in (1, 2):
        for theorem in ALL_THEOREMS:
            run_theorem(theorem, g, k2, "g")
    case = run_theorem("pushforward_containment", g, 5, "g")
    fresh = run_theorem("pushforward_containment", gen_random(1, 1, 0.3, 0), 5, "g")
    assert case.to_dict() == fresh.to_dict()


def test_kept_state_is_freed_with_its_graph():
    """Nothing a graph keeps refers back to it and a search leaves no cycle,
    so dropping the graph frees its systems without the cyclic collector."""
    def systems_alive():
        return sum(isinstance(o, LowOrderSystem) for o in gc.get_objects())

    gc.collect()
    before = systems_alive()
    gc.disable()
    try:
        g = complete(3, 3)
        for theorem in ALL_THEOREMS:
            run_theorem(theorem, g, 2, "k33")
        assert systems_alive() > before
        del g
        assert systems_alive() == before
    finally:
        gc.enable()


def _leg_theorems():
    """theorem -> (kind, legs); ``_run_legs`` runs every theorem."""
    return {t: (body.keywords["kind"], body.keywords["legs"])
            for t, body in ALL_THEOREMS.items()}


def test_kept_images_equal_the_map_on_every_corpus_table():
    """After a corpus pass, every entry of every image table is the pair of
    plain tuples universe_map gives for the member and for its inverse, and
    every map a leg uses has a table on some graph."""
    graphs = corpus()
    run_corpus(graphs=graphs)
    used = {ends for _, legs in _leg_theorems().values() for leg in legs
            for _, _, _, ends in leg.steps}
    seen = set()
    for _, g in graphs:
        for universe, space in g._cache.items():
            if not isinstance(universe, str):
                continue
            for dest, table in space.images.items():
                seen.add((universe, dest))
                shift = universe_map(g, universe, dest)
                assert len(table) <= len(space.pairs)
                for (a, b), entry in zip(space.pairs, table):
                    assert entry == (shift(Sep(a, b)), shift(Sep(b, a)))
                    assert all(type(image) is tuple for image in entry)
    assert seen == used


def test_repeat_run_makes_no_shift(monkeypatch):
    """A second run of a theorem on the same graph and threshold reads
    every image from the kept tables."""
    calls = []
    shift2 = _kernels.shift2
    monkeypatch.setattr(_kernels, "shift2",
                        lambda *args: calls.append(args) or shift2(*args))
    shifted = nonvacuous = 0
    for name, g in corpus()[:12]:
        for theorem in ALL_THEOREMS:
            for k2 in (1, 2, 3, 4):
                calls.clear()
                first = run_theorem(theorem, g, k2, name)
                shifted += bool(calls)
                calls.clear()
                again = run_theorem(theorem, g, k2, name)
                assert not calls, (name, theorem, k2)
                assert again.to_dict() == first.to_dict()
                nonvacuous += bool(again.hypothesis_count)
    assert shifted >= 20 and nonvacuous >= 100


def _reference_step(g, step, ends, members, family):
    """One pull or push step computed with the set-based map."""
    fn = lambda s: verify._set_map(g, *ends, s)
    both = [s for m in members for s in (m, (m[1], m[0]))]
    if step is verify._pull:
        return {s for s in both if fn(s) in family}
    image = {fn(s) for s in family}
    return {s for s in both if s in image}


def test_steps_read_from_the_tables_match_the_set_based_map():
    """Every step of every leg, from every hypothesis on part of the
    corpus, gives the family the set-based map gives, pushes included."""
    checked = {verify._pull: 0, verify._push: 0}
    for name, g in corpus()[::3]:
        for kind, legs in _leg_theorems().values():
            for k2 in (1, 2, 3, 4):
                ctx = verify._Ctx(g, DEFAULT_MEMBER_CAP)
                for leg in legs:
                    universe, factor = leg.hyp
                    try:
                        hyp_sys = ctx.system(universe, factor * k2)
                        systems = [ctx.system(u, f * k2) for _, u, f, _ in leg.steps]
                        hyps = ctx.search(hyp_sys, kind)
                    except CapExceeded:
                        continue
                    if not hyps:
                        continue
                    plan = verify._plan(g, leg, hyp_sys, systems)
                    for tau in hyps:
                        family = set(tau.choices())
                        for (step, images, sources, members), (_, _, _, ends) in zip(
                                plan, leg.steps):
                            want = _reference_step(g, step, ends, members, family)
                            family = step(images, sources, family, members)
                            assert family == want, (name, leg, k2)
                            checked[step] += 1
    assert checked[verify._pull] >= 500 and checked[verify._push] >= 50
