"""Graph construction, ingestion, generators, and wellformedness reports."""

import io

import pytest

from sepdual import (
    IncidenceRecord,
    LabelClash,
    ParseError,
    SideMismatch,
    check_duality_wellformedness,
    from_dict,
    from_edges,
    from_transactions,
    gen_planted,
    gen_random,
    read_transactions_csv,
)


def test_from_edges_matching():
    g = from_edges([("x1", "y1"), ("x2", "y2")])
    assert g.x.labels == ("x1", "x2")
    assert g.y.labels == ("y1", "y2")
    assert g.n_edges == 2


def test_from_edges_dedup():
    g = from_edges([("x1", "y1"), ("x1", "y1")])
    assert g.n_edges == 1


def test_from_edges_label_clash():
    with pytest.raises(LabelClash):
        from_edges([("a", "b"), ("b", "a")])


def test_explicit_labels_keep_isolated_vertices():
    g = from_edges([("x1", "y1")], x_labels=["x1", "x2"], y_labels=["y1"])
    assert g.x.n == 2
    assert g.degree("x2") == 0


def test_from_transactions():
    recs = [IncidenceRecord("p1", "a"), IncidenceRecord("p1", "b"),
            IncidenceRecord("p2", "b")]
    g = from_transactions(recs)
    assert set(g.x.labels) == {"a", "b"}
    assert set(g.y.labels) == {"p1", "p2"}
    assert g.n_edges == 3


def test_csv_roundtrip_and_parse_errors():
    g = read_transactions_csv(io.StringIO("group,member\np1,a\np1,b\np2,b\n"))
    assert g.n_edges == 3
    assert read_transactions_csv(io.StringIO("")).n_edges == 0
    assert read_transactions_csv(io.StringIO("group,member\n")).n_edges == 0
    with pytest.raises(ParseError) as exc:
        read_transactions_csv(io.StringIO("group,member\np1,a\nbroken\n"))
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:  # a quoted field spans lines 2-3
        read_transactions_csv(io.StringIO('group,member\np1,"a\nb"\nbroken\n'))
    assert exc.value.line == 4
    with pytest.raises(ParseError) as exc:
        read_transactions_csv(io.StringIO("wrong,header\n"))
    assert exc.value.line == 1


def test_degree_sum_invariant():
    for seed in range(5):
        g = gen_random(4, 5, 0.6, seed)
        dx = sum(g.degree(x) for x in g.x.labels)
        dy = sum(g.degree(y) for y in g.y.labels)
        assert dx == dy == g.n_edges


def test_dump_roundtrip():
    g = gen_random(4, 3, 0.5, 11)
    h = from_dict(g.to_dict())
    assert h.to_dict() == g.to_dict()


def test_from_dict_reads_labels_as_dumped():
    """Labels are read through ``str``, as ``to_dict`` writes them: numbers
    load as the labels their dump holds, and a number and a string that
    print alike clash at once instead of on re-reading the dump."""
    g = from_dict({"x": [1, 2], "y": [10], "edges": [[1, 10], [2, 10]]})
    assert g.x.labels == ("1", "2") and g.y.labels == ("10",)
    assert from_dict(g.to_dict()).to_dict() == g.to_dict()
    with pytest.raises(LabelClash, match=r"labels on both sides: \['1'\]"):
        from_dict({"x": [1], "y": ["1"], "edges": [[1, "1"]]})


@pytest.mark.parametrize("data, named", [
    ({"x": "ab", "y": ["p"], "edges": []}, "list 'x', got str"),
    ({"x": ["a"], "y": {"p": 1}, "edges": []}, "list 'y', got dict"),
    ({"x": ["a"], "y": ["p"]}, "list 'edges', got NoneType"),
    ({"x": ["a"], "y": ["p"], "edges": [["a", "p", "q"]]}, "is not two labels"),
    ({"x": ["a"], "y": ["p"], "edges": ["ap"]}, "is not two labels"),
    (["a", "p"], "must be an object"),
], ids=["side-string", "side-dict", "no-edges", "edge-triple", "edge-string",
        "not-object"])
def test_from_dict_refuses_other_shapes(data, named):
    with pytest.raises(ParseError, match=named):
        from_dict(data)


def test_neighbor_count(k22, m2, k33):
    assert k22.neighbor_count("y1", k22.x.mask(["x1"])) == 1
    assert m2.neighbor_count("y1", m2.x.mask(["x2"])) == 0
    assert k33.neighbor_count("y2", k33.x.full) == 3
    with pytest.raises(SideMismatch):
        k22.neighbor_count("nope", 1)
    with pytest.raises(SideMismatch):
        k22.neighbor_count("y1", 1 << 10)


def test_incidence_count(m2):
    e1 = m2.edges.mask([("x1", "y1")])
    assert m2.incidence_count("x1", e1) == 1
    assert m2.incidence_count("x2", e1) == 0


def test_wellformedness_k22(k22):
    rep = check_duality_wellformedness(k22)
    assert rep["x"]["identical"] == [["x1", "x2"]]
    assert rep["y"]["identical"] == [["y1", "y2"]]


def test_wellformedness_matching_flags_complementary(m2):
    # on a 2-matching the two neighbourhoods are complementary, so both
    # vertices induce the same unoriented partition of the other side
    rep = check_duality_wellformedness(m2)
    assert rep["x"]["complementary"] == [[["x1"], ["x2"]]]
    assert rep["x"]["identical"] == []


def test_wellformedness_clean(path3):
    rep = check_duality_wellformedness(path3)
    assert all(not rep[s][k] for s in ("x", "y")
               for k in ("identical", "complementary"))


def test_wellformedness_complementary():
    g = from_edges([("x1", "y1")], x_labels=["x1", "x2"], y_labels=["y1"])
    rep = check_duality_wellformedness(g)
    assert rep["x"]["complementary"] == [[["x2"], ["x1"]]]


def test_gen_random_extremes():
    full = gen_random(3, 3, 1.0, 5)
    assert full.n_edges == 9
    empty = gen_random(3, 3, 0.0, 5)
    assert empty.n_edges == 0


def test_gen_random_deterministic():
    a = gen_random(5, 5, 0.5, 123)
    b = gen_random(5, 5, 0.5, 123)
    assert a.to_dict() == b.to_dict()
    c = gen_random(5, 5, 0.5, 124)
    assert c.to_dict() != a.to_dict()


def test_gen_planted_disjoint_blocks():
    g = gen_planted([(3, 3), (3, 3)], 1.0, 0.0, 0)
    assert g.n_edges == 18
    # no cross-block edge
    for x, y in g.edges.labels:
        xi = int(x[1:])
        yi = int(y[1:])
        assert (xi <= 3) == (yi <= 3)
