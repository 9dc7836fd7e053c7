import json

import pytest

from rainbowspread.hypergraph import Hypergraph, HypergraphError, read_hypergraph, write_hypergraph


def test_validation():
    h = Hypergraph.from_edges(4, [(0, 1), (2, 3), (0, 1)])
    assert len(h) == 3  # multiset: duplicates count
    with pytest.raises(HypergraphError):
        Hypergraph(3, ((0, 3),), 2)  # vertex out of range
    with pytest.raises(HypergraphError):
        Hypergraph(3, ((1, 0),), 2)  # not sorted
    with pytest.raises(HypergraphError):
        Hypergraph(3, ((0, 1, 2),), 2)  # exceeds r_bound
    with pytest.raises(HypergraphError):
        Hypergraph(3, ((),), 2)  # empty edge


def test_uniformity():
    assert Hypergraph.from_edges(4, [(0, 1), (2, 3)]).is_uniform
    assert not Hypergraph(4, ((0,), (0, 1)), 2).is_uniform


def test_io_roundtrip(tmp_path):
    h = Hypergraph.from_edges(5, [(2, 4), (0, 1), (0, 3)], r_bound=3)
    path = tmp_path / "h.hg"
    write_hypergraph(h, str(path))
    doc = json.loads(path.read_text())
    assert doc["edges"] == sorted(doc["edges"])  # canonical writer sorts
    back = read_hypergraph(str(path))
    assert sorted(back.edges) == sorted(h.edges)
    assert back.num_vertices == 5 and back.r_bound == 3


def test_reader_accepts_any_order(tmp_path):
    path = tmp_path / "h.hg"
    path.write_text(json.dumps({"n": 3, "r": 2, "edges": [[1, 2], [0, 1]]}))
    h = read_hypergraph(str(path))
    assert len(h) == 2


def test_reader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.hg"
    path.write_text("not json at all {")
    with pytest.raises(HypergraphError):
        read_hypergraph(str(path))
    path.write_text(json.dumps({"n": 3}))
    with pytest.raises(HypergraphError):
        read_hypergraph(str(path))
    good = {"format": "hypergraph", "version": 1, "n": 3, "r": 2, "edges": [[0, 1], [1, 2]]}
    for field, value in [
        ("format", "nonsense"), ("format", None), ("version", 99), ("version", True), ("version", 1.0),
        ("n", 3.0), ("n", "3"), ("r", True), ("edges", [[0, 1.9], [1, 2]]), ("edges", [[0, 1], [2, True]]),
        ("edges", [[0, "1"]]), ("edges", [7]),
    ]:
        path.write_text(json.dumps({**good, field: value}))
        with pytest.raises(HypergraphError, match="malformed"):
            read_hypergraph(str(path))
    path.write_text(json.dumps({"format": "nonsense", "version": 99, "n": 3, "r": 2, "edges": [[0, 1.9], [2, True]]}))
    with pytest.raises(HypergraphError, match="'nonsense' version 99"):
        read_hypergraph(str(path))
    path.write_text(json.dumps(good))
    assert read_hypergraph(str(path)).edges == ((0, 1), (1, 2))
