import concurrent.futures
import dataclasses
import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import kdg.enumeration
import kdg.rational
from kdg.cli import main
from kdg.enumeration import (
    ENUM_TASK_BUDGET,
    MAX_ENUM_VERTICES,
    EnumBounds,
    canonical_encoding,
    enumerate_admissible,
    enumerate_encodings,
    graph_from_encoding,
    random_admissible,
    spectrum_report,
)
from kdg.errors import InternalCheckError, PreconditionError
from kdg.graph import build_graph, validate

from .conftest import quick_k_squared, search_factorization
from .oracles import (
    _is_connected,
    brute_force_encodings,
    cofactor_det,
    encoded_matrix,
    leading_blocks_minimal,
    negdef_by_charpoly,
)


def test_bounds_validation():
    with pytest.raises(PreconditionError):
        EnumBounds(0)
    with pytest.raises(PreconditionError):
        EnumBounds(MAX_ENUM_VERTICES + 1)
    with pytest.raises(PreconditionError):
        EnumBounds(3, min_self=0)
    with pytest.raises(PreconditionError):
        EnumBounds(3, max_genus=-1)
    with pytest.raises(PreconditionError):
        EnumBounds(3, max_edge_multiplicity=0)
    with pytest.raises(PreconditionError):
        enumerate_admissible(EnumBounds(2, connected_only=False))


def test_single_vertex_box():
    encs = enumerate_encodings(EnumBounds(1, min_self=-3, max_genus=0))
    assert encs == ["0,-2|", "0,-3|"]


def test_two_vertex_box():
    entries = enumerate_admissible(EnumBounds(2, min_self=-3, max_genus=0))
    got = {e.encoding: e for e in entries}
    assert len(got) == 5
    assert set(got) == {
        "0,-2|",
        "0,-3|",
        "0,-2;0,-2|0-1:1",
        "0,-3;0,-2|0-1:1",
        "0,-3;0,-3|0-1:1",
    }
    assert got["0,-2|"].k_squared == 0
    assert got["0,-2|"].classification == "rational-double"
    assert got["0,-3|"].k_squared == Fraction(1, 3)
    assert got["0,-3;0,-2|0-1:1"].k_squared == Fraction(2, 5)
    assert got["0,-3;0,-3|0-1:1"].k_squared == 1
    assert got["0,-3;0,-3|0-1:1"].classification == "rational-other"
    assert got["0,-3;0,-3|0-1:1"].z_squared == -4
    assert got["0,-3;0,-3|0-1:1"].numerical_index == 2
    assert all(e.numerical_index >= 1 for e in entries)


def test_every_enumerated_graph_is_admissible():
    for enc in enumerate_encodings(EnumBounds(3, min_self=-4, max_genus=1, max_edge_multiplicity=2)):
        g = graph_from_encoding(enc)
        assert validate(g).admissible, enc
        assert canonical_encoding(g) == enc


def test_canonical_encoding_is_label_invariant():
    rng = random.Random(7)
    encs = enumerate_encodings(EnumBounds(4, min_self=-3, max_genus=0))
    for enc in encs:
        g = graph_from_encoding(enc)
        order = list(range(len(g)))
        rng.shuffle(order)
        relabeled = build_graph(
            [(f"p{k}", g.vertices[i].genus, g.vertices[i].self_int) for k, i in enumerate(order)],
            [
                (f"p{order.index(e.a)}", f"p{order.index(e.b)}", e.mult)
                for e in g.edges
            ],
        )
        assert canonical_encoding(relabeled) == enc


def _iso(g, h) -> bool:
    if len(g) != len(h):
        return False
    gd = [(v.genus, v.self_int) for v in g.vertices]
    hd = [(v.genus, v.self_int) for v in h.vertices]
    if sorted(gd) != sorted(hd):
        return False
    g_edges = {(e.a, e.b): e.mult for e in g.edges}
    for perm in permutations(range(len(g))):
        if any(gd[i] != hd[perm[i]] for i in range(len(g))):
            continue
        image = {}
        for (a, b), m in g_edges.items():
            x, y = sorted((perm[a], perm[b]))
            image[(x, y)] = m
        if image == {(e.a, e.b): e.mult for e in h.edges}:
            return True
    return False


def test_no_pair_of_encodings_is_isomorphic():
    encs = enumerate_encodings(EnumBounds(4, min_self=-3, max_genus=0, max_edge_multiplicity=2))
    graphs = [graph_from_encoding(e) for e in encs]
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert not _iso(graphs[i], graphs[j]), (encs[i], encs[j])


def test_monotone_coverage():
    base = set(enumerate_encodings(EnumBounds(3, min_self=-3, max_genus=0)))
    more_vertices = set(enumerate_encodings(EnumBounds(4, min_self=-3, max_genus=0)))
    deeper_weights = set(enumerate_encodings(EnumBounds(4, min_self=-4, max_genus=0)))
    genus_and_mult = set(
        enumerate_encodings(EnumBounds(4, min_self=-4, max_genus=1, max_edge_multiplicity=2))
    )
    assert base < more_vertices < deeper_weights < genus_and_mult


@pytest.mark.parametrize(
    "bounds",
    [
        EnumBounds(3, min_self=-4, max_genus=1, max_edge_multiplicity=2),
        EnumBounds(4, min_self=-3, max_genus=0, max_edge_multiplicity=2),
        EnumBounds(5, min_self=-2, max_genus=0),
        EnumBounds(3, min_self=-3, max_genus=1, connected_only=False),
        EnumBounds(4, min_self=-3, max_genus=1, max_edge_multiplicity=2, connected_only=False),
    ],
    ids=str,
)
def test_enumeration_is_complete(bounds):
    """Pruning drops no class: the pruned search finds exactly what filling
    every matrix of the box finds."""
    assert enumerate_encodings(bounds) == brute_force_encodings(bounds)


@pytest.mark.parametrize(
    "bounds",
    [
        EnumBounds(6, min_self=-3),
        EnumBounds(4, min_self=-3, max_genus=1, max_edge_multiplicity=2),
        EnumBounds(6, min_self=-2, max_genus=1),
    ],
    ids=str,
)
def test_connected_search_keeps_every_connected_class(bounds):
    """On boxes past the brute-force oracle's sizes, the search that cuts
    disconnected last columns entry by entry finds exactly the connected
    classes of the search that keeps every filling."""
    every = enumerate_encodings(dataclasses.replace(bounds, connected_only=False))
    connected = [enc for enc in every if _is_connected(encoded_matrix(enc)[1])]
    assert len(connected) < len(every)
    assert enumerate_encodings(bounds) == connected


def test_leading_blocks_are_minimal(e5_entries):
    """The prefix lemma behind orderly generation, checked by brute force:
    each leading block of a canonical encoding is itself minimal."""
    encodings = enumerate_encodings(EnumBounds(6, min_self=-3))
    encodings += enumerate_encodings(EnumBounds(6, min_self=-2, max_genus=1))
    encodings += [e.encoding for e in e5_entries[::7]]
    assert len(encodings) == 914 + 260 + 1683
    assert [enc for enc in encodings if not leading_blocks_minimal(enc)] == []


@st.composite
def negdef_intersection_matrices(draw):
    """Negative definite symmetric integer matrices with multiplicities
    0..3 off the diagonal, near the edge of definiteness."""
    n = draw(st.integers(min_value=2, max_value=6))
    m = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in range(j):
            m[i][j] = m[j][i] = draw(st.sampled_from([0, 0, 1, 1, 2, 3]))
    for i in range(n):
        m[i][i] = -sum(m[i]) - draw(st.integers(min_value=-1, max_value=2))
    assume(negdef_by_charpoly(m))
    return m


@given(negdef_intersection_matrices())
def test_bordered_minor_recurrence(m):
    """Walk the entries in search order, keeping the state `_search_data`
    keeps.  At each entry every value 0..m_ij + 2 is offered: the kept ones
    must be exactly those whose block on {0..i, j} has the sign of a
    negative definite matrix, each with that block's determinant."""

    def check(i, j, cap, kept):
        rows = [*range(i + 1), j]
        for v in range(cap + 1):
            block = [[m[a][b] for b in rows] for a in rows]
            block[i][-1] = block[-1][i] = v
            minor = cofactor_det(block)
            assert (v in kept) == ((-1) ** i * minor > 0)
            if v in kept:
                assert kept[v][1] == minor

    piv, _ = search_factorization(m, extra=2, check=check)
    for k in range(1, len(m) + 1):
        assert piv[k] == cofactor_det([row[:k] for row in m[:k]])


def test_jobs_do_not_change_results():
    bounds = EnumBounds(3, min_self=-4, max_genus=1, max_edge_multiplicity=2)
    assert enumerate_encodings(bounds, jobs=1) == enumerate_encodings(bounds, jobs=2)
    assert enumerate_admissible(bounds, jobs=2) == enumerate_admissible(bounds, jobs=1)
    # the workers compute the invariants too: a benchmark box, 914 classes
    bounds = EnumBounds(6, min_self=-3)
    serial = enumerate_admissible(bounds, jobs=1)
    assert len(serial) == 914
    assert enumerate_admissible(bounds, jobs=2) == serial


def test_spectrum_entries_come_from_the_search(monkeypatch):
    """Each class is factored once, by the search: no second elimination
    and no encoding parsed back."""

    def never(*args):
        raise AssertionError("a class was factored or decoded after the search")

    monkeypatch.setattr(kdg.rational, "sparse_bareiss", never)
    monkeypatch.setattr(kdg.enumeration, "_decode", never)
    bounds = EnumBounds(3, min_self=-4, max_genus=1, max_edge_multiplicity=2)
    entries = enumerate_admissible(bounds)
    assert [e.encoding for e in entries] == enumerate_encodings(bounds)


def test_task_budget_refuses_huge_box_before_searching(monkeypatch, capsys):
    def never(task):
        raise AssertionError("searched a box over the task budget")

    monkeypatch.setattr(kdg.enumeration, "_search_data", never)
    # genus 0 and self -1000..-2: 999 vertex data, multisets of 1..8 of them
    count = sum(comb(999 + r - 1, r) for r in range(1, 9))
    assert count > 10**19
    code = main(["enumerate", "--max-vertices", "8", "--min-self", "-1000"])
    err = capsys.readouterr().err
    assert code == 4
    assert f"has {count} vertex-data multisets" in err
    assert f"budget of {ENUM_TASK_BUDGET}" in err
    # one vertex, but 10^12 genus values: refused before any list is built
    code = main(["enumerate", "--max-vertices", "1", "--max-genus", str(10**12)])
    assert code == 4
    assert f"has {(10**12 + 1) * 6 - 1} vertex-data multisets" in capsys.readouterr().err


def test_task_budget_boundary(monkeypatch):
    bounds = EnumBounds(2, min_self=-3)  # data (0,-2), (0,-3): 2 + 3 tasks
    monkeypatch.setattr(kdg.enumeration, "ENUM_TASK_BUDGET", 5)
    assert len(enumerate_encodings(bounds)) == 5
    monkeypatch.setattr(kdg.enumeration, "ENUM_TASK_BUDGET", 4)
    with pytest.raises(PreconditionError, match="has 5 vertex-data multisets"):
        enumerate_encodings(bounds)


def test_node_budget_stops_a_task(monkeypatch, capsys):
    bounds = EnumBounds(6, min_self=-3)
    monkeypatch.setattr(kdg.enumeration, "ENUM_NODE_BUDGET", 200)
    with pytest.raises(PreconditionError) as exc:
        enumerate_encodings(bounds)
    assert str(bounds) in str(exc.value)
    assert "visited more than 200 nodes" in str(exc.value)
    code = main(["enumerate", "--max-vertices", "6", "--min-self", "-3", "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "search budget" in captured.err and "more than 200 nodes" in captured.err


def test_node_budget_boundary(monkeypatch):
    # data (0,-2),(0,-2): the root and the child for value 1 of the one
    # entry, 2 nodes; value 0 leaves the graph disconnected and is cut
    # before it becomes a node; a single vertex needs no search
    bounds = EnumBounds(2, min_self=-2)
    monkeypatch.setattr(kdg.enumeration, "ENUM_NODE_BUDGET", 2)
    assert enumerate_encodings(bounds) == ["0,-2;0,-2|0-1:1", "0,-2|"]
    monkeypatch.setattr(kdg.enumeration, "ENUM_NODE_BUDGET", 1)
    with pytest.raises(PreconditionError, match="visited more than 1 nodes"):
        enumerate_encodings(bounds)
    # disconnected graphs kept: the value-0 child is a node too, 3 in all
    bounds = EnumBounds(2, min_self=-2, connected_only=False)
    monkeypatch.setattr(kdg.enumeration, "ENUM_NODE_BUDGET", 3)
    assert enumerate_encodings(bounds) == ["0,-2;0,-2|", "0,-2;0,-2|0-1:1", "0,-2|"]
    monkeypatch.setattr(kdg.enumeration, "ENUM_NODE_BUDGET", 2)
    with pytest.raises(PreconditionError, match="visited more than 2 nodes"):
        enumerate_encodings(bounds)
    # three (0,-2)-vertices: the task visits the root (0,1); below value 0
    # there, (0,2) and (1,2), where value 0 would leave a vertex apart and
    # is not offered, and the path's leaf; below value 1, (0,2) and, under
    # each of its two values, (1,2), whose fillings are all non-minimal or
    # not negative definite: 7 nodes
    bounds = EnumBounds(3, min_self=-2)
    monkeypatch.setattr(kdg.enumeration, "ENUM_NODE_BUDGET", 7)
    assert enumerate_encodings(bounds) == ["0,-2;0,-2;0,-2|0-2:1;1-2:1", "0,-2;0,-2|0-1:1", "0,-2|"]
    monkeypatch.setattr(kdg.enumeration, "ENUM_NODE_BUDGET", 6)
    with pytest.raises(PreconditionError, match="visited more than 6 nodes"):
        enumerate_encodings(bounds)


def test_jobs_below_one_refused(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("searched with jobs < 1")

    monkeypatch.setattr(kdg.enumeration, "_search_data", never)
    bounds = EnumBounds(2, min_self=-3)
    for jobs in (0, -3):
        with pytest.raises(PreconditionError, match=f"jobs must be >= 1, got {jobs}"):
            enumerate_encodings(bounds, jobs=jobs)
        with pytest.raises(PreconditionError, match=f"jobs must be >= 1, got {jobs}"):
            enumerate_admissible(bounds, jobs=jobs)
    code = main(["enumerate", "--max-vertices", "2", "--min-self", "-3", "--jobs", "-3"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "jobs must be >= 1, got -3" in captured.err


def test_a_class_reached_twice_is_an_internal_error(monkeypatch, capsys):
    """The search must reach each class once; values are not deduplicated,
    so a class yielded twice (a canonicity failure) raises
    `InternalCheckError`, exit code 5 from the CLI, instead of being
    hidden."""
    bounds = EnumBounds(2, min_self=-3)
    twice = "0,-3;0,-2|0-1:1"
    assert twice in enumerate_encodings(bounds)
    search = kdg.enumeration._search_data

    def repeating(task, leaf, shared):
        for value in search(task, leaf, shared):
            yield value
            if (value if isinstance(value, str) else value.encoding) == twice:
                yield value

    monkeypatch.setattr(kdg.enumeration, "_search_data", repeating)
    message = f"enumeration reached the class {twice} more than once"
    for enumerate_values in (enumerate_encodings, enumerate_admissible):
        with pytest.raises(InternalCheckError) as info:
            enumerate_values(bounds)
        assert str(info.value) == message
    code = main(["enumerate", "--max-vertices", "2", "--min-self", "-3", "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_jobs_clamped_to_cpu_count(monkeypatch):
    started = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor and runs every task inline."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    # `_enumerate` imports the pool from concurrent.futures only when jobs > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    bounds = EnumBounds(2, min_self=-3)
    serial = enumerate_encodings(bounds, jobs=1)
    monkeypatch.setattr(kdg.enumeration.os, "cpu_count", lambda: 3)
    assert enumerate_encodings(bounds, jobs=5000) == serial
    assert enumerate_encodings(bounds, jobs=2) == serial
    monkeypatch.setattr(kdg.enumeration.os, "cpu_count", lambda: None)
    assert enumerate_encodings(bounds, jobs=5000) == serial
    assert started == [3, 2]


def test_spectrum_report():
    entries = enumerate_admissible(EnumBounds(3, min_self=-4, max_genus=1, max_edge_multiplicity=2))
    report = spectrum_report(entries, 0, 1)
    assert report.min_nonzero == Fraction(1, 3)
    assert report.values[0] == 0
    assert list(report.values) == sorted(set(report.values))
    assert all(gap > 0 for gap in report.gaps)
    assert len(report.gaps) == len(report.values) - 1
    assert dict(report.class_counts)["rational-double"] >= 1
    obj = report.to_obj()
    assert obj["interval"] == ["0", "1"]
    assert obj["min_nonzero"] == "1/3"
    text = report.to_text()
    assert "1/3" in text
    empty = spectrum_report(entries, 2, 1)
    assert empty.values == () and empty.min_nonzero is None


def test_random_admissible():
    bounds = EnumBounds(6, min_self=-5, max_genus=2, max_edge_multiplicity=2)
    first = random_admissible(random.Random(42), bounds)
    again = random_admissible(random.Random(42), bounds)
    assert first == again
    for seed in range(25):
        g = random_admissible(random.Random(seed), bounds)
        assert validate(g).admissible
        assert len(g) <= 6
        assert all(v.self_int >= -5 and v.genus <= 2 for v in g.vertices)
        assert all(e.mult <= 2 for e in g.edges)


def test_e4_values_match_graph_path(e4_values):
    """The E4 fixture's integer-matrix -K^2 agrees with building each graph."""
    for encoding, value in e4_values[::500]:
        assert value == quick_k_squared(graph_from_encoding(encoding)), encoding
