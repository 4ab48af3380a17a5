"""End-to-end CLI behaviour: subcommands, formats, exit codes, determinism."""

import hashlib
import json

import pytest

from sepdual.cli import main
from test_acceptance import CORPUS_REPORT_SHA256


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ingest_transactions(tmp_path, capsys):
    csv = tmp_path / "tx.csv"
    csv.write_text("group,member\np1,a\np1,b\np2,b\n")
    dump = tmp_path / "g.json"
    code, out, _ = run_cli(capsys, "ingest", "--input", str(csv),
                           "--out", str(dump))
    assert code == 0
    assert "|X|=2 |Y|=2 |E|=3" in out
    data = json.loads(dump.read_text())
    assert data["x"] == ["a", "b"]
    assert data["y"] == ["p1", "p2"]


def test_ingest_two_block_fixture(tmp_path, capsys):
    rows = ["group,member"]
    for p, items in (("p1", "ab"), ("p2", "ab"), ("p3", "ab"),
                     ("p4", "cd"), ("p5", "cd"), ("p6", "cd")):
        rows += [f"{p},{i}" for i in items]
    csv = tmp_path / "blocks.csv"
    csv.write_text("\n".join(rows) + "\n")
    dump = tmp_path / "g.json"
    code, out, _ = run_cli(capsys, "ingest", "--input", str(csv),
                           "--out", str(dump))
    assert code == 0
    data = json.loads(dump.read_text())
    assert len(data["x"]) == 4 and len(data["y"]) == 6
    # block-diagonal incidence: items a,b only in p1-3; c,d only in p4-6
    for x, y in data["edges"]:
        assert (x in "ab") == (y in ("p1", "p2", "p3"))


def test_ingest_empty_csv(tmp_path, capsys):
    csv = tmp_path / "empty.csv"
    csv.write_text("")
    code, out, _ = run_cli(capsys, "ingest", "--input", str(csv))
    assert code == 0
    assert "|X|=0 |Y|=0 |E|=0" in out


@pytest.mark.parametrize("name, text", [
    ("tx.csv", "group,member\np1,a\np1,b\np2,b\n"),
    ("g.json", json.dumps({"x": ["a", "b"], "y": ["p1", "p2"],
                           "edges": [["a", "p1"], ["b", "p1"], ["b", "p2"]]})),
], ids=["csv", "json"])
def test_ingest_reads_a_byte_order_mark(name, text, tmp_path, capsys):
    """Spreadsheet exports start a UTF-8 file with a byte-order mark."""
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    code, out, err = run_cli(capsys, "ingest", "--input", str(path))
    assert code == 0, err
    assert "|X|=2 |Y|=2 |E|=3" in out


def test_ingest_numeric_labels_round_trip(tmp_path, capsys):
    """A graph with numeric labels loads as the dump ``--out`` writes for
    it, so the dump reads back to itself."""
    src = tmp_path / "g.json"
    src.write_text(json.dumps({"x": [1, 2], "y": [10, 20],
                               "edges": [[1, 10], [2, 10], [2, 20]]}))
    dumps = [tmp_path / "once.json", tmp_path / "twice.json"]
    for read, dump in zip([src, dumps[0]], dumps):
        code, out, err = run_cli(capsys, "ingest", "--input", str(read),
                                 "--out", str(dump))
        assert code == 0, err
        assert "|X|=2 |Y|=2 |E|=3" in out
    assert json.loads(dumps[0].read_text())["x"] == ["1", "2"]
    assert dumps[0].read_text() == dumps[1].read_text()


def test_ingest_malformed_row(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("group,member\np1,a\nonly-one-field\n")
    code, _, err = run_cli(capsys, "ingest", "--input", str(csv))
    assert code == 2
    assert "line 3" in err


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--generator", "random",
                           "--nx", "3", "--ny", "3", "--p", "1.0",
                           "--seed", "1", "--universe", "x", "--k2", "4")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4
    orders = [m["order2"] for m in data["members"]]
    assert orders == sorted(orders) == [0, 3, 3, 3]


def test_order_command(capsys):
    code, out, _ = run_cli(capsys, "order", "--generator", "random",
                           "--nx", "2", "--ny", "2", "--p", "1.0",
                           "--seed", "1", "--universe", "x",
                           "--a", "x1", "--b", "x2")
    assert code == 0
    data = json.loads(out)
    assert data["order2"] == 4
    assert data["order"] == "2"
    assert data["edge_form_order2"] == 4


def test_shift_command_partition(capsys):
    code, out, _ = run_cli(capsys, "shift", "--generator", "random",
                           "--nx", "2", "--ny", "2", "--p", "1.0",
                           "--seed", "1", "--universe", "bx",
                           "--a", "x1", "--b", "x2")
    assert code == 0
    data = json.loads(out)
    assert data["a"] == ["y1", "y2"] and data["b"] == []


def test_shift_command_to_edges(capsys):
    code, out, _ = run_cli(capsys, "shift", "--generator", "random",
                           "--nx", "2", "--ny", "2", "--p", "1.0",
                           "--seed", "1", "--universe", "x", "--to", "e",
                           "--a", "x1", "--b", "x2")
    assert code == 0
    data = json.loads(out)
    assert data["universe"] == "e"
    assert data["a"] == ["x1--y1", "x1--y2"]


K22 = ("--generator", "random", "--nx", "2", "--ny", "2", "--p", "1.0",
       "--seed", "1")
SIDES = {"x": ("x1", "x2"), "bx": ("x1", "x2"),
         "e": ("x1--y1,x1--y2", "x2--y1,x2--y2")}


@pytest.mark.parametrize("universe, to, dest, a, b", [
    ("bx", "by", "by", ["y1", "y2"], []),
    ("x", None, "y", ["y1", "y2"], ["y1", "y2"]),
    ("e", None, "x", ["x1"], ["x2"]),
])
def test_shift_to_picks_the_map(universe, to, dest, a, b, capsys):
    sa, sb = SIDES[universe]
    to_arg = () if to is None else ("--to", to)
    code, out, _ = run_cli(capsys, "shift", *K22, "--universe", universe,
                           "--a", sa, "--b", sb, *to_arg)
    assert code == 0
    data = json.loads(out)
    assert (data["universe"], data["a"], data["b"]) == (dest, a, b)


@pytest.mark.parametrize("universe, to", [
    ("x", "x"), ("bx", "e"), ("e", "bx"), ("e", "e")])
def test_shift_to_refused_pair_is_usage_error(universe, to, capsys):
    sa, sb = SIDES[universe]
    code, out, err = run_cli(capsys, "shift", *K22, "--universe", universe,
                             "--a", sa, "--b", sb, "--to", to)
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"from {universe!r} to {to!r}" in err


def test_order_command_edge_universe(capsys):
    code, out, _ = run_cli(capsys, "order", "--generator", "random",
                           "--nx", "2", "--ny", "2", "--p", "1.0",
                           "--seed", "1", "--universe", "e",
                           "--a", "x1--y1,x1--y2", "--b", "x2--y1,x2--y2")
    assert code == 0
    data = json.loads(out)
    assert data["order2"] == 4  # the induced edge separation of ({x1},{x2})


def test_shift_edges_to_side(capsys):
    code, out, _ = run_cli(capsys, "shift", "--generator", "random",
                           "--nx", "2", "--ny", "2", "--p", "1.0",
                           "--seed", "1", "--universe", "e", "--to", "y",
                           "--a", "x1--y1,x2--y1", "--b", "x1--y2,x2--y2")
    assert code == 0
    data = json.loads(out)
    assert data["universe"] == "y"
    assert data["a"] == ["y1"] and data["b"] == ["y2"]


def test_edge_names_read_back_as_printed(tmp_path, capsys):
    """Every edge that ``enumerate`` prints is read back by ``order`` and
    ``shift``, although its member label contains ``--``."""
    csv = tmp_path / "tx.csv"
    csv.write_text("group,member\ng1,a--b\ng1,c\ng2,a--b\ng2,c--d\n")
    code, out, err = run_cli(capsys, "enumerate", "--input", str(csv),
                             "--universe", "e", "--k2", "100")
    assert code == 0, err
    members = json.loads(out)["members"]
    assert {n for m in members for n in m["a"] + m["b"]} == {
        "a--b--g1", "c--g1", "a--b--g2", "c--d--g2"}
    for m in members:
        sides = ("--a", ",".join(m["a"]), "--b", ",".join(m["b"]))
        code, out, err = run_cli(capsys, "order", "--input", str(csv),
                                 "--universe", "e", *sides)
        assert code == 0, err
        assert json.loads(out)["order2"] == m["order2"]
        code, _, err = run_cli(capsys, "shift", "--input", str(csv),
                               "--universe", "e", *sides)
        assert code == 0, err


#: graph JSON with a label that ``--a``/``--b`` cannot name, the names given
#: for it, and the label as the error quotes it
UNNAMEABLE = {
    "comma": ({"x": ["a,b", " c"], "y": ["y1"],
               "edges": [["a,b", "y1"], [" c", "y1"]]}, "a,b", " c", "'a,b'"),
    "space": ({"x": ["a", " c"], "y": ["y1"],
               "edges": [["a", "y1"], [" c", "y1"]]}, "a", " c", "' c'"),
    "empty": ({"x": ["", "b"], "y": ["y1"],
               "edges": [["", "y1"], ["b", "y1"]]}, "", "b", "''"),
}


@pytest.mark.parametrize("command", ["order", "shift"])
@pytest.mark.parametrize("graph, a, b, quoted", UNNAMEABLE.values(),
                         ids=list(UNNAMEABLE))
def test_unnameable_label_is_refused(command, graph, a, b, quoted, tmp_path,
                                     capsys):
    """The sides must cover the ground set, so no separation of a ground set
    with such a label can be named: one error line quotes the label."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code, out, err = run_cli(capsys, command, "--input", str(path),
                             "--a", a, "--b", b)
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"label {quoted} cannot be named in --a/--b" in err


@pytest.mark.parametrize("argv", [
    ("enumerate", "--k2", "2"),
    ("tangles", "--k2", "2"),
    ("verify", "--k2", "2", "--theorem", "shift_tangle"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("graph", [v[0] for v in UNNAMEABLE.values()],
                         ids=list(UNNAMEABLE))
def test_unnameable_labels_still_load(argv, graph, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    code, _, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == 0, err


def test_names_that_start_with_a_dash(tmp_path, capsys):
    """``--a=LABELS`` names labels that start with ``-``: here the edges of
    the empty x label, which print as ``--y1``."""
    path = tmp_path / "g.json"
    path.write_text(json.dumps(UNNAMEABLE["empty"][0]))
    sides = ("--universe", "e", "--a=--y1", "--b=b--y1")
    code, out, err = run_cli(capsys, "order", "--input", str(path), *sides)
    assert code == 0, err
    assert json.loads(out)["order2"] == 2
    code, out, err = run_cli(capsys, "shift", "--input", str(path), *sides)
    assert code == 0, err
    assert (json.loads(out)["a"], json.loads(out)["b"]) == ([""], ["b"])


def test_tangles_csv_summary(capsys):
    code, out, _ = run_cli(capsys, "tangles", "--generator", "random",
                           "--nx", "3", "--ny", "3", "--p", "1.0",
                           "--seed", "1", "--universe", "x", "--k2", "2",
                           "--format", "csv-summary")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,member_count"
    assert lines[1] == "0,1"


@pytest.mark.parametrize("universe", ["x", "e"])
def test_tangles_ground_cap_flag(universe, capsys):
    argv = ("tangles", "--generator", "random", "--nx", "4", "--ny", "4",
            "--p", "0.5", "--seed", "1", "--universe", universe, "--k2", "2")
    assert run_cli(capsys, *argv)[0] == 0  # within the default cap
    code, _, err = run_cli(capsys, *argv, "--ground-cap", "3")
    assert code == 2
    assert "cap" in err


def test_tangles_counts(capsys):
    code, out, _ = run_cli(capsys, "tangles", "--generator", "random",
                           "--nx", "3", "--ny", "3", "--p", "1.0",
                           "--seed", "1", "--universe", "x", "--k2", "2")
    assert code == 0
    assert json.loads(out)["count"] == 1
    code, out, _ = run_cli(capsys, "tangles", "--generator", "random",
                           "--nx", "3", "--ny", "3", "--p", "1.0",
                           "--seed", "1", "--universe", "x", "--k2", "6")
    assert code == 0
    assert json.loads(out)["count"] == 0


@pytest.mark.parametrize("kind", ["tangle", "profile"])
def test_tangles_search_deeper_than_the_recursion_limit(kind, capsys):
    """1,751 members, one search level each: the one tangle (or regular
    profile) of the block, found without a traceback."""
    code, out, err = run_cli(capsys, "tangles", "--generator", "planted",
                             "--blocks", "4x5", "--in-p", "1.0", "--cross-p", "0.0",
                             "--seed", "7", "--universe", "e", "--k2", "7",
                             "--ground-cap", "20", "--member-cap", "100000",
                             "--kind", kind)
    assert code == 0 and "Traceback" not in err
    data = json.loads(out)
    assert data["count"] == 1
    assert len(data["tangles"][0]["members"]) == 1751


def test_tangles_planted_partitions(capsys):
    code, out, _ = run_cli(capsys, "tangles", "--generator", "planted",
                           "--blocks", "3x3,3x3", "--seed", "7",
                           "--universe", "bx", "--k2", "2")
    assert code == 0
    assert json.loads(out)["count"] >= 2


def test_verify_single_graph(capsys):
    code, out, _ = run_cli(capsys, "verify", "--generator", "random",
                           "--nx", "3", "--ny", "3", "--p", "1.0", "--seed", "1",
                           "--name", "k33", "--k2", "1", "--k2", "2",
                           "--theorem", "shift_tangle",
                           "--theorem", "edges_to_vtx")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["counterexamples"] == 0
    assert {c["theorem"] for c in data["cases"]} == {"shift_tangle",
                                                     "edges_to_vtx"}


def test_verify_csv_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--generator", "random",
                           "--nx", "2", "--ny", "2", "--p", "1.0", "--seed", "1",
                           "--k2", "1", "--theorem", "shift_tangle",
                           "--format", "csv-summary")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theorem,graph_seed,k_doubled,outcome,hypothesis_count"
    assert lines[1].startswith("shift_tangle,graph,1,")


def test_verify_exit_code_on_counterexample(capsys, monkeypatch):
    import sepdual.cli as climod

    fake = {"summary": {"counterexamples": 1}, "cases": [],
            "config": {}, "version": "0"}
    monkeypatch.setattr(climod, "run_corpus", lambda **kw: fake)
    code, _, _ = run_cli(capsys, "verify", "--generator", "random",
                         "--k2", "1")
    assert code == 1


def test_verify_exit_code_on_a_real_counterexample(capsys, probes):
    """The first probe fails on this graph: the run reports the one
    counterexample and exits 1."""
    probe = probes[0]
    assert probe.graph == "random-4x2-p05-s102" and probe.k2 == 2
    code, out, err = run_cli(capsys, "verify", "--generator", "random",
                             "--nx", "4", "--ny", "2", "--p", "0.5",
                             "--seed", "102", "--k2", "2",
                             "--theorem", probe.theorem)
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["summary"]["counterexamples"] == 1
    (case,) = report["cases"]
    assert case["outcome"] == "counterexample"
    assert case["witness"]["kind"] == probe.witness["kind"]


def test_verify_deterministic_bytes(tmp_path, capsys):
    outs = []
    for i in range(2):
        path = tmp_path / f"rep{i}.json"
        code, _, _ = run_cli(capsys, "verify", "--generator", "random",
                             "--nx", "4", "--ny", "3", "--p", "0.6",
                             "--seed", "5", "--k2", "2", "--out", str(path))
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_verify_corpus_report_is_pinned(tmp_path, capsys):
    path = tmp_path / "corpus.json"
    code, out, err = run_cli(capsys, "verify", "--corpus", "--out", str(path))
    assert code == 0 and out == "" and err == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CORPUS_REPORT_SHA256


HOMOLOGY_4X4 = ("homology", "--generator", "random", "--nx", "4", "--ny", "4",
               "--p", "0.6", "--seed", "5", "--universe", "x", "--k2", "3")

#: sha256 of pinned CLI outputs, as criterion 8 pins the corpus report; a
#: change to one must update its digest and explain why.  The homology
#: reports have n 4, m 12, kernel_dim 8 and one decider.
PINNED = {
    "tangles-planted": (
        ("tangles", "--generator", "planted", "--blocks", "3x3,3x3",
         "--seed", "7", "--universe", "bx", "--k2", "2"),
        "d966fdbb97b545861cbfe5b6a068d19974a41a4b1b7f460864092c68a52cf84a"),
    "homology-componentwise": (
        HOMOLOGY_4X4 + ("--decider-mode", "componentwise"),
        "f0491aec39fbc40c044fb221561f168c40200e4cc09f2eca1dd5c3a23792c5b8"),
    "homology-scalar": (
        HOMOLOGY_4X4 + ("--decider-mode", "scalar"),
        "cb159c5a5d7ebe821b000a30f893e7c52faf732cc8156010e2999268772cd362"),
}


@pytest.mark.parametrize("argv, digest", PINNED.values(), ids=list(PINNED))
def test_pinned_output(argv, digest, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_homology_command(capsys):
    code, out, _ = run_cli(capsys, "homology", "--generator", "random",
                           "--nx", "2", "--ny", "2", "--p", "0.0",
                           "--seed", "1", "--universe", "bx", "--k2", "1")
    assert code == 0
    data = json.loads(out)
    assert data["prop_vs"] is True
    assert data["n"] == 2


def test_homology_m2_fixture(tmp_path, capsys):
    csv = tmp_path / "m2.csv"
    csv.write_text("group,member\ny1,x1\ny2,x2\n")
    code, out, _ = run_cli(capsys, "homology", "--input", str(csv),
                           "--universe", "x", "--k2", "1")
    assert code == 0
    data = json.loads(out)
    assert data["prop_vs"] is True
    assert data["m"] == 2
    assert data["kernel_dim"] == 0
    assert len(data["deciders"]) == 2
    for entry in data["deciders"]:
        assert entry["mu"] is not None
        assert entry["revalidated"] is True
        assert entry["in_kernel"] is False


def test_homology_reports_the_decider_bound_searched(capsys):
    argv = ("homology", "--generator", "planted", "--blocks", "3x3,3x3",
            "--seed", "7", "--universe", "x", "--k2", "2")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 2 and len(data["deciders"]) == 2
    assert all(e["bound"] == 2 for e in data["deciders"])
    # |mu| <= 0 finds nothing and says so; |mu| <= 1 already finds a decider
    for bound, found in ((0, False), (1, True)):
        code, out, _ = run_cli(capsys, *argv, "--decider-bound", str(bound))
        assert code == 0
        deciders = json.loads(out)["deciders"]
        assert all(e["bound"] == bound for e in deciders)
        assert all((e["mu"] is not None) is found for e in deciders)


def test_no_graph_source_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "order", "--universe", "x",
                           "--a", "x1", "--b", "x2")
    assert code == 2
    assert "graph source" in err


def test_cap_exceeded_exit(capsys):
    code, _, err = run_cli(capsys, "tangles", "--generator", "random",
                           "--nx", "5", "--ny", "5", "--p", "1.0",
                           "--seed", "1", "--universe", "e", "--k2", "2")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("argv, named", [
    (("tangles", "--generator", "planted", "--blocks", "3y3", "--k2", "1"), "--blocks"),
    (("tangles", "--generator", "random", "--k2", "-1"), "--k2"),
    (("order", "--input", "{missing}", "--a", "x1", "--b", "x2"), "absent.csv"),
    (("order", "--input", "{bad_json}", "--a", "x1", "--b", "x2"), "g.json"),
    (("verify", "--generator", "random", "--theorem", "nope"), "--theorem"),
    (("tangles", "--generator", "random", "--p", "1.5", "--k2", "1"), "--p"),
    (("tangles", "--generator", "random", "--nx", "-2", "--k2", "1"), "--nx"),
    (("verify", "--generator", "random", "--member-cap", "-1"), "--member-cap"),
    (("tangles", "--generator", "random", "--k2", "2", "--member-cap", "-1"),
     "--member-cap"),
    (("enumerate", "--generator", "random", "--universe", "e", "--k2", "2",
      "--ground-cap", "-3"), "--ground-cap -3 is outside"),
    (("enumerate", "--generator", "random", "--k2", "2",
      "--format", "csv-summary"), "--format"),
    (("order", "--generator", "random", "--a", "x1", "--b", "x2,x3",
      "--format", "csv-summary"), "--format"),
    (("tangles", "--generator", "random", "--universe", "e", "--k2", "2",
      "--cap-seps", "3"), "--cap-seps"),
    (("homology", "--generator", "random", "--k2", "1", "--decider-bound",
      "-1"), "--decider-bound"),
    # graph options that no source reads
    (("verify", "--corpus", "--input", "{missing}", "--name", "foo",
      "--seed", "9", "--k2", "1", "--theorem", "shift_tangle"), "--input"),
    (("verify", "--corpus", "--name", "foo", "--k2", "1",
      "--theorem", "shift_tangle"), "--name"),
    (("order", "--input", "{good_csv}", "--seed", "3", "--a", "a",
      "--b", "b"), "--seed"),
    (("order", "--input", "{good_csv}", "--generator", "random",
      "--a", "a", "--b", "b"), "--generator"),
    (("tangles", "--generator", "random", "--blocks", "2x2", "--k2", "1"),
     "--blocks is not read by --generator random"),
    (("tangles", "--generator", "planted", "--p", "0.3", "--k2", "1"),
     "--p is not read by --generator planted"),
    # input the parsers themselves refuse: a field over the csv module's
    # limit, and JSON nested deeper than the decoder recurses
    (("order", "--input", "{long_csv}", "--a", "a", "--b", "b"),
     "line 2: field larger than field limit"),
    (("order", "--input", "{deep_json}", "--a", "x1", "--b", "x2"), "deep.json"),
    # graph JSON of another shape than a dump, and labels that clash once
    # read through str, as the dump would write them
    (("ingest", "--input", "{string_side_json}"), "needs a list 'x', got str"),
    (("ingest", "--input", "{clash_json}"), "labels on both sides: ['1']"),
    (("ingest", "--input", "{repeat_json}"),
     "graph JSON repeats label 'a' on side x"),
    # the edges (a--b, g1) and (a, b--g1) both print as a--b--g1
    (("order", "--input", "{twice_csv}", "--universe", "e", "--a", "a--b--g1",
      "--b", "a--b--g1"), "'a--b--g1' is printed by 2 labels"),
    (("shift", "--input", "{twice_csv}", "--universe", "e", "--a", "a--b--g1",
      "--b", "a--b--g1"), "'a--b--g1' is printed by 2 labels"),
], ids=["blocks", "k2", "missing-input", "bad-json", "theorem", "p", "nx",
        "verify-member-cap", "tangles-member-cap", "ground-cap",
        "enumerate-format", "order-format", "cap-seps", "decider-bound",
        "corpus-input", "corpus-name", "input-seed", "input-generator",
        "random-blocks", "planted-p", "long-csv-field", "deep-json",
        "string-side-json", "clash-json", "repeat-json",
        "order-name-printed-twice",
        "shift-name-printed-twice"])
def test_input_fault_is_usage_error(argv, named, tmp_path, capsys):
    bad_json = tmp_path / "g.json"
    bad_json.write_text('{"x": ["x1"], ')
    good_csv = tmp_path / "tx.csv"
    good_csv.write_text("group,member\np1,a\np1,b\np2,b\n")
    long_csv = tmp_path / "long.csv"
    long_csv.write_text("group,member\np1," + "a" * 200_000 + "\n")
    deep_json = tmp_path / "deep.json"
    deep_json.write_text("[" * 100_000)
    string_side_json = tmp_path / "side.json"
    string_side_json.write_text('{"x": "ab", "y": ["p"], "edges": []}')
    clash_json = tmp_path / "clash.json"
    clash_json.write_text('{"x": [1], "y": ["1"], "edges": [[1, "1"]]}')
    repeat_json = tmp_path / "repeat.json"
    repeat_json.write_text('{"x": ["a", "a"], "y": ["p"], "edges": [["a", "p"]]}')
    twice_csv = tmp_path / "twice.csv"
    twice_csv.write_text("group,member\ng1,a--b\nb--g1,a\n")
    argv = [a.format(missing=tmp_path / "absent.csv", bad_json=bad_json,
                     good_csv=good_csv, long_csv=long_csv, deep_json=deep_json,
                     string_side_json=string_side_json, clash_json=clash_json,
                     repeat_json=repeat_json, twice_csv=twice_csv)
            for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects an unknown flag or --theorem
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1 and "Traceback" not in err
    assert named in err


@pytest.mark.parametrize("graph, named", [
    ({"x": ["a", "b", "a"], "y": ["p"], "edges": [["a", "p"]]}, "'a' on side x"),
    ({"x": ["a"], "y": ["p", "q", "q"], "edges": [["a", "q"]]}, "'q' on side y"),
    # 1 and "1" are one label once read through str, as the dump writes it
    ({"x": ["a"], "y": [1, "1"], "edges": [["a", 1]]}, "'1' on side y"),
], ids=["x", "y", "through-str"])
def test_repeated_label_is_named_with_its_side(graph, named, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    for command in (("ingest",), ("tangles", "--k2", "1"), ("verify", "--k2", "1")):
        code, _, err = run_cli(capsys, *command, "--input", str(path))
        assert code == 2
        assert err == f"error: graph JSON repeats label {named}\n"


@pytest.mark.parametrize("argv", [
    ("ingest",),
    ("enumerate", "--k2", "1"),
    ("order", "--a", "x1", "--b", "x2,x3"),
    ("shift", "--a", "x1", "--b", "x2,x3"),
    ("tangles", "--k2", "1"),
    ("verify", "--k2", "1", "--theorem", "shift_tangle"),
    ("homology", "--k2", "1"),
], ids=lambda argv: argv[0])
def test_unwritable_out_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "absent" / "r.json"
    code, _, err = run_cli(capsys, *argv, "--generator", "random",
                           "--out", str(out))
    assert code == 2
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"cannot write {out}" in err
    assert not out.parent.exists()
