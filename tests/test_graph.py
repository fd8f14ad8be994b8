import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdg.checks import _family_corpus
from kdg.enumeration import EnumBounds, random_admissible
from kdg.errors import InvalidGraphError, PreconditionError
from kdg.families import generate
from kdg.graph import (
    Edge,
    VertexData,
    WeightedDualGraph,
    adjunction_degrees,
    build_graph,
    connected_components,
    graph_to_json,
    graph_to_obj,
    intersection_matrix,
    is_connected,
    load_graph,
    parse_graph_json,
    parse_graph_obj,
    subgraph,
    to_dot,
    validate,
)
from kdg.invariants import invariant_report
from kdg.rational import det, factor, is_negative_definite, solve
from kdg.transforms import detect_strings, with_string_length

from .oracles import char_poly, cofactor_det, fraction_solve


def x31() -> WeightedDualGraph:
    return build_graph([("e", 0, -3)], [])


def chain32() -> WeightedDualGraph:
    return build_graph([("a", 0, -3), ("b", 0, -2)], [("a", "b", 1)])


def test_build_graph_basic():
    g = chain32()
    assert len(g) == 2
    assert g.ids() == ("a", "b")
    assert g.index_of("b") == 1
    assert g.edge_mult(0, 1) == 1
    assert g.edge_mult(1, 0) == 1
    assert intersection_matrix(g) == ((-3, 1), (1, -2))
    assert adjunction_degrees(g) == (1, 0)


@st.composite
def small_graphs(draw):
    """Graphs on up to 10 vertices, admissible or not: a random tree with
    multiplicities up to 2 and perhaps one extra edge that closes a cycle."""
    r = draw(st.integers(min_value=1, max_value=10))
    verts = [
        (f"v{i}", draw(st.integers(0, 2)), draw(st.integers(-5, -1))) for i in range(r)
    ]
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, r)}
    if r >= 3 and draw(st.booleans()):
        pairs.add(tuple(sorted(draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True)))))
    edges = [(f"v{a}", f"v{b}", draw(st.integers(1, 2))) for a, b in sorted(pairs)]
    return build_graph(verts, edges)


@given(small_graphs())
def test_intersection_data_is_integer(g):
    m = intersection_matrix(g)
    assert all(type(x) is int for row in m for x in row)
    assert all(type(x) is int for x in adjunction_degrees(g))
    assert g._weights == tuple(m[i][i] for i in range(len(m)))


class NotDefinite(Exception):
    pass


class Singular(Exception):
    pass


def kernel_outcomes(f):
    """What det, solve and is_negative_definite give on the factorization
    f: a value, or the type of the error."""
    out = []
    for kernel in (det, lambda f: solve(f, NotDefinite(), Singular()), is_negative_definite):
        try:
            out.append(kernel(f))
        except (ValueError, NotDefinite, Singular) as exc:
            out.append(type(exc))
    return out


@given(small_graphs())
@settings(max_examples=200)
def test_graph_factorization_matches_dense_oracles(g):
    """A graph's own factorization of [M | c] against the dense oracles on
    its intersection matrix: definiteness by the characteristic
    polynomial, the determinant by cofactor expansion and the solution of
    M m = c by Gauss-Jordan elimination over `Fraction`s."""
    m = intersection_matrix(g)
    c = adjunction_degrees(g)
    f = g._factorization
    poly = char_poly(m)
    assert is_negative_definite(f) == all(x > 0 for x in poly[1:])
    semidefinite = all(x >= 0 for x in poly[1:])
    try:
        d = det(f)
    except ValueError:
        # only a matrix that is not negative semidefinite needs a row swap
        assert not semidefinite
        return
    assert type(d) is int and d == cofactor_det(m)
    try:
        y, d = solve(f, NotDefinite(), Singular())
    except NotDefinite:
        assert not semidefinite
        return
    except Singular:
        assert semidefinite and fraction_solve(m, c) is None
        return
    assert [Fraction(yi, d) for yi in y] == fraction_solve(m, c)


def test_graph_is_factored_once(monkeypatch):
    """A graph factors [M | c] on first use, by one `sparse_bareiss` on its
    own diagonal, adjacency maps and c, and keeps it: `validate` and the
    whole `invariant_report`, p_a search included, read that one
    factorization, on which every kernel gives what it gives on a new
    factorization of the same data.  Graphs that are not negative definite
    (indefinite, semidefinite), not connected or not minimal are factored
    once too."""
    import kdg.rational

    runs = []
    real = kdg.rational.sparse_bareiss

    def counted(diag, rows, rhs):
        runs.append(len(rows))
        return real(diag, rows, rhs)

    monkeypatch.setattr(kdg.rational, "sparse_bareiss", counted)
    bounds = EnumBounds(7, min_self=-5, max_genus=2, max_edge_multiplicity=2)
    graphs = [generate(spec) for spec in _family_corpus()]
    graphs += [random_admissible(random.Random(seed), bounds) for seed in range(60)]
    graphs += [
        build_graph([("a", 0, -1), ("b", 0, -1)], [("a", "b")]),
        build_graph([("a", 0, -2), ("b", 0, -2)], [("a", "b", 2)]),
        build_graph([("a", 0, -2), ("b", 0, -2), ("c", 0, -2)], [("a", "b"), ("b", "c"), ("a", "c")]),
        build_graph([("a", 0, -2), ("b", 0, -3)]),
        build_graph([("a", 0, -1), ("b", 1, -3)], [("a", "b", 3)]),
    ]
    for drawn in graphs:
        # a new graph on the same records: the generators validate theirs
        g = WeightedDualGraph(drawn.vertices, drawn.edges)
        del runs[:]
        assert "_factorization" not in g.__dict__
        if validate(g).admissible:
            invariant_report(g)
        f = g._factorization
        assert runs == [len(g)] and g._factorization is f
        fresh = factor([v.self_int for v in g.vertices], g.adjacency(), adjunction_degrees(g))
        assert fresh == f and kernel_outcomes(f) == kernel_outcomes(fresh)


BAD_RECORDS = [
    # (vertices, edges): a float or a bool where a plain int belongs
    ([("a", 0, -2.0), ("b", 0, -3)], [(0, 1, 1)]),
    ([("a", 0.0, -2), ("b", 0, -3)], [(0, 1, 1)]),
    ([("a", False, -2), ("b", 0, -3)], [(0, 1, 1)]),
    ([("a", 0, -3), ("b", 0, -2)], [(0, 1, True)]),
    ([("a", 0, -3), ("b", 0, -2)], [(0, 1, 1.0)]),
    ([("a", 0, -3.0), ("b", 1, -1.0)], [(0, 1, 2)]),
    # an exact rational that is not an int, and edge indices that are not ints
    ([("a", Fraction(0), -2), ("b", 0, -3)], [(0, 1, 1)]),
    ([("a", 0, Fraction(-2)), ("b", 0, -3)], [(0, 1, 1)]),
    ([("a", 0, -3), ("b", 0, -2)], [(0, 1, Fraction(1))]),
    ([("a", 0, -3), ("b", 0, -2)], [(0.0, 1, 1)]),
    ([("a", 0, -3), ("b", 0, -2)], [(0, 1.0, 1)]),
    ([("a", 0, -3), ("b", 0, -2)], [(False, True, 1)]),
    ([("a", 0, -3), ("b", 0, -2)], [("0", "1", 1)]),
]


@pytest.mark.parametrize("vertices, edges", BAD_RECORDS)
def test_float_or_bool_records_raise_at_construction(vertices, edges):
    """The constructor refuses a genus, self-intersection, edge index or
    multiplicity that is not a plain int (a float, a `Fraction`, a string,
    or a bool, as `isinstance(True, int)` holds) with `InvalidGraphError`,
    exit code 2, so no kernel ever sees one."""
    with pytest.raises(InvalidGraphError, match="integer") as info:
        WeightedDualGraph(tuple(map(VertexData._make, vertices)), tuple(map(Edge._make, edges)))
    assert info.value.exit_code == 2


def two_curves(edges):
    return (VertexData("a", 0, -3), VertexData("b", 0, -2)), tuple(map(Edge._make, edges))


BAD_STRUCTURE = [
    # (vertices, edges, message) for the constructor itself, no ids resolved
    ((), (), "at least one vertex"),
    ((VertexData("", 0, -2),), (), "non-empty string"),
    ((VertexData(7, 0, -2),), (), "non-empty string"),
    ((VertexData("a", 0, -2), VertexData("a", 0, -3)), (), "duplicate vertex id"),
    ((VertexData("a", -1, -2),), (), "genus must be >= 0"),
    ((VertexData("a", 0, 0),), (), "self-intersection must be <= -1"),
    (*two_curves([(-1, 1, 1)]), "references a missing vertex"),
    (*two_curves([(0, 2, 1)]), "references a missing vertex"),
    (*two_curves([(1, 1, 1)]), "self-loop at vertex index 1"),
    (*two_curves([(1, 0, 1)]), "must be ordered a < b"),
    (*two_curves([(0, 1, 0)]), "multiplicity must be >= 1"),
    (*two_curves([(0, 1, 1), (0, 1, 2)]), "duplicate edge pair"),
]


@pytest.mark.parametrize("vertices, edges, message", BAD_STRUCTURE)
def test_constructor_refuses_bad_structure(vertices, edges, message):
    """What `build_graph` cannot produce (an edge by index out of range or
    out of order) and what it passes on (empty, duplicate or bad ids, genus
    and self-intersection out of range, zero or repeated edges): the
    constructor refuses each with `InvalidGraphError`, exit code 2."""
    with pytest.raises(InvalidGraphError, match=message) as info:
        WeightedDualGraph(vertices, edges)
    assert info.value.exit_code == 2


def test_float_record_on_the_limit_path_raises_at_construction():
    """A chain a - b - c whose (-2)-string b a limit would stretch, with a
    self-intersection of -3.0: `build_graph` raises `InvalidGraphError`
    (exit code 2) before any limit system is built in floats."""
    with pytest.raises(InvalidGraphError, match="integer genus and self-intersection expected") as info:
        build_graph([("a", 0, -3.0), ("b", 0, -2), ("c", 0, -3)], [("a", "b"), ("b", "c")])
    assert info.value.exit_code == 2


@st.composite
def multigraph_records(draw):
    """(vertices, edges, the same edges reordered with some ends swapped)
    for a graph on up to 8 vertices with genus up to 2 and any pairs joined
    with multiplicity up to 3, so often with several components."""
    r = draw(st.integers(min_value=1, max_value=8))
    verts = [(f"v{i}", draw(st.integers(0, 2)), draw(st.integers(-5, -1))) for i in range(r)]
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    mults = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), min_size=len(pairs), max_size=len(pairs)))
    edges = [(f"v{i}", f"v{j}", m) for (i, j), m in zip(pairs, mults) if m]
    swaps = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    reordered = [(b, a, m) if swap else (a, b, m) for (a, b, m), swap in zip(edges, swaps)]
    return verts, edges, draw(st.permutations(reordered))


@settings(max_examples=200)
@given(multigraph_records())
def test_kept_maps_and_c_match_the_dense_matrix(records):
    """The adjacency maps, c and `edge_mult` a graph keeps from its
    constructor against the dense `intersection_matrix` and the vertex
    records; a graph built from the same records in another edge order
    compares equal, hashes equal, has the same repr and keeps the same maps."""
    verts, edges, reordered = records
    g = build_graph(verts, edges)
    m = intersection_matrix(g)
    n = len(m)
    off_diagonal = [[0 if i == j else m[i][j] for j in range(n)] for i in range(n)]
    assert g.adjacency() == tuple({j: x for j, x in enumerate(row) if x} for row in off_diagonal)
    assert [[g.edge_mult(i, j) for j in range(n)] for i in range(n)] == off_diagonal
    assert adjunction_degrees(g) == tuple(2 * genus - 2 - self_int for _, genus, self_int in verts)
    assert [m[i][i] for i in range(n)] == [self_int for _, _, self_int in verts]
    twin = build_graph(verts, reordered)
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    assert twin.adjacency() == g.adjacency() and adjunction_degrees(twin) == adjunction_degrees(g)


def test_lookups_leave_equality_and_hash_alone():
    vertices = [("a", 0, -2), ("b", 0, -3), ("c", 0, -2)]
    g = build_graph(vertices, [("a", "b", 2), ("b", "c", 1)])
    twin = build_graph(vertices, [("c", "b"), ("b", "a", 2)])
    assert [g.index_of(i) for i in ("a", "b", "c")] == [0, 1, 2]
    with pytest.raises(KeyError):
        g.index_of("z")
    assert [g.edge_mult(i, j) for i, j in ((0, 1), (1, 0), (1, 2), (0, 2), (2, 0))] == [2, 2, 1, 0, 0]
    # an index outside the graph joins nothing, even one a negative index would wrap to
    assert [g.edge_mult(i, j) for i, j in ((-1, 1), (1, -1), (3, 1), (1, 3))] == [0, 0, 0, 0]
    # the lookup maps are built on g only; twin still compares and hashes equal
    assert g == twin and hash(g) == hash(twin)
    assert g != build_graph(vertices, [("a", "b", 2)])
    assert repr(g) == repr(twin)


def test_cached_graph_data_stays_private():
    """Callers get new lists from `connected_components`, so changing them
    leaves the graph's cached components alone, and the report computed
    from the graph's caches stays the same; `adjacency` and
    `adjunction_degrees` hand out the same maps and tuple on every call;
    equal graphs stay equal and hash alike whether or not their caches,
    the factorization and the fundamental cycle's included, are filled."""
    vertices = [("a", 0, -2), ("b", 0, -3), ("c", 0, -2), ("d", 1, -4)]
    g = build_graph(vertices, [("a", "b", 2), ("b", "c", 1)])
    twin = build_graph(vertices, [("c", "b"), ("b", "a", 2)])
    assert g.adjacency() is g.adjacency()
    assert intersection_matrix(g) == ((-2, 2, 0, 0), (2, -3, 1, 0), (0, 1, -2, 0), (0, 0, 0, -4))
    comps = connected_components(g)
    comps[0].append(3)
    comps.pop()
    assert connected_components(g) == [[0, 1, 2], [3]]
    assert not is_connected(g)
    assert g == twin and hash(g) == hash(twin)
    validate(g)
    assert "_factorization" in g.__dict__ and "_factorization" not in twin.__dict__
    assert g == twin and hash(g) == hash(twin)
    # the same on a connected graph, through the report that reads the caches
    chain = build_graph(vertices, [("a", "b"), ("b", "c"), ("c", "d")])
    chain_twin = build_graph(vertices, [("d", "c"), ("c", "b"), ("b", "a")])
    first = invariant_report(chain)
    comps = connected_components(chain)
    comps[0].clear()
    assert invariant_report(chain) == first
    assert intersection_matrix(chain) == ((-2, 1, 0, 0), (1, -3, 1, 0), (0, 1, -2, 1), (0, 0, 1, -4))
    assert adjunction_degrees(chain) is adjunction_degrees(chain)
    assert adjunction_degrees(chain) == (0, 1, 0, 4)
    for graph in (chain, chain_twin):
        invariant_report(graph)
        connected_components(graph)
        graph.edge_mult(0, 1)
        graph.index_of("a")
    # the factorization, the fundamental cycle and its degrees are kept per graph too
    for graph in (chain, chain_twin):
        assert "_factorization" in graph.__dict__ and "_fundamental" in graph.__dict__
    assert chain == chain_twin and hash(chain) == hash(chain_twin)
    assert chain != build_graph(vertices, [("a", "b"), ("b", "c")])


def test_records_are_immutable_hashable_values():
    v = VertexData("a", 0, -2)
    e = Edge(0, 1)
    assert v == VertexData(id="a", genus=0, self_int=-2) and hash(v) == hash(VertexData("a", 0, -2))
    assert e == Edge(a=0, b=1, mult=1) == Edge(0, 1, 1) and hash(e) == hash(Edge(0, 1, 1))
    assert e.mult == 1 and Edge(0, 1, 3).mult == 3
    assert len({v, VertexData("a", 0, -2), VertexData("a", 1, -2)}) == 2
    for record, field in ((v, "id"), (v, "genus"), (v, "self_int"), (e, "a"), (e, "mult")):
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
    # transforms builds VertexData and Edge records by position; the graphs
    # they make equal those build_graph makes from plain tuples
    g = build_graph([("x", 0, -3), ("s1", 0, -2)], [("x", "s1")])
    (s,) = detect_strings(g)
    grown, _ = with_string_length(g, s, 3)
    ids = ["x", "s1", "w1", "w2"]
    built = build_graph([(i, 0, -3 if i == "x" else -2) for i in ids], list(zip(ids, ids[1:])))
    direct = WeightedDualGraph(
        (VertexData("x", 0, -3),) + tuple(VertexData(i, 0, -2) for i in ids[1:]),
        (Edge(0, 1), Edge(1, 2), Edge(2, 3)),
    )
    assert grown == built == direct and hash(grown) == hash(built) == hash(direct)


def test_build_graph_rejects_bad_input():
    with pytest.raises(InvalidGraphError, match="at least one vertex"):
        build_graph([], [])
    with pytest.raises(InvalidGraphError, match="duplicate vertex id"):
        build_graph([("a", 0, -2), ("a", 0, -2)], [])
    with pytest.raises(InvalidGraphError, match="genus must be >= 0"):
        build_graph([("a", -1, -2)], [])
    with pytest.raises(InvalidGraphError, match="self-intersection must be <= -1"):
        build_graph([("a", 0, 0)], [])
    with pytest.raises(InvalidGraphError, match="unknown vertex id"):
        build_graph([("a", 0, -2)], [("a", "z", 1)])
    with pytest.raises(InvalidGraphError, match="self-loop"):
        build_graph([("a", 0, -2)], [("a", "a", 1)])
    with pytest.raises(InvalidGraphError, match="multiplicity must be >= 1"):
        build_graph([("a", 0, -2), ("b", 0, -2)], [("a", "b", 0)])
    with pytest.raises(InvalidGraphError, match="duplicate edge"):
        build_graph([("a", 0, -2), ("b", 0, -2)], [("a", "b", 1), ("b", "a", 1)])


def test_adjacency_and_components():
    g = build_graph(
        [("a", 0, -2), ("b", 0, -2), ("c", 0, -5)],
        [("a", "b", 2)],
    )
    adj = g.adjacency()
    assert adj[0] == {1: 2}
    assert adj[2] == {}
    assert not is_connected(g)
    assert connected_components(g) == [[0, 1], [2]]


def test_validate_flags():
    assert validate(x31()).admissible
    ok = validate(chain32())
    assert ok.admissible and ok.connected and ok.negative_definite and ok.minimal

    res = validate(build_graph([("a", 0, -1)], []))
    assert not res.admissible
    assert any("not minimal: (-1)-curve" in m for m in res.messages)
    # genus > 0 makes a (-1)-vertex acceptable
    assert validate(build_graph([("a", 1, -1)], [])).admissible

    res = validate(build_graph([("a", 0, -2), ("b", 0, -2)], [("a", "b", 2)]))
    assert not res.negative_definite
    assert "not negative definite" in res.messages

    res = validate(build_graph([("a", 0, -2), ("b", 0, -2)], []))
    assert not res.connected
    assert any("not connected: 2 components" in m for m in res.messages)


def test_subgraph_induced():
    g = build_graph(
        [("a", 0, -3), ("b", 1, -2), ("c", 0, -4)],
        [("a", "b", 1), ("b", "c", 3)],
    )
    h = subgraph(g, [1, 2])
    assert h.ids() == ("b", "c")
    assert intersection_matrix(h) == ((-2, 3), (3, -4))
    assert h.vertices[0].genus == 1
    with pytest.raises(PreconditionError):
        subgraph(g, [0, 5])
    with pytest.raises(PreconditionError):
        subgraph(g, [])


def test_json_round_trip():
    g = build_graph(
        [("a", 0, -3), ("b", 2, -7)],
        [("a", "b", 2)],
    )
    text = graph_to_json(g)
    assert text.endswith("\n")
    back = parse_graph_json(text)
    assert back == g
    obj = graph_to_obj(g)
    assert obj["vertices"][1] == {"id": "b", "genus": 2, "self": -7}
    assert obj["edges"] == [{"a": "a", "b": "b", "m": 2}]
    assert parse_graph_obj(obj) == g


def test_json_defaults_and_strictness():
    obj = {"vertices": [{"id": "a", "self": -2}, {"id": "b", "self": -2}],
           "edges": [{"a": "a", "b": "b"}]}
    g = parse_graph_obj(obj)
    assert g.vertices[0].genus == 0
    assert g.edge_mult(0, 1) == 1

    with pytest.raises(InvalidGraphError, match="unknown keys"):
        parse_graph_obj({"vertices": [{"id": "a", "self": -2}], "edges": [], "extra": 1})
    with pytest.raises(InvalidGraphError, match=r"vertices\[0\]: unknown keys"):
        parse_graph_obj({"vertices": [{"id": "a", "self": -2, "w": 3}], "edges": []})
    with pytest.raises(InvalidGraphError, match=r"vertices\[0\].self: required"):
        parse_graph_obj({"vertices": [{"id": "a"}], "edges": []})
    with pytest.raises(InvalidGraphError, match="integer expected"):
        parse_graph_obj({"vertices": [{"id": "a", "self": -2.0}], "edges": []})
    with pytest.raises(InvalidGraphError, match="integer expected"):
        parse_graph_obj({"vertices": [{"id": "a", "self": True}], "edges": []})
    with pytest.raises(InvalidGraphError, match="invalid JSON at line"):
        parse_graph_json("{not json")
    with pytest.raises(InvalidGraphError, match="top level"):
        parse_graph_json("[1, 2]")


def _v(vid="a", **fields):
    return {"id": vid, "self": -2, **fields}


_AB = [_v("a"), _v("b")]

# (document, message) for each ingestion error, pinned to the byte.
_INGESTION_ERRORS = [
    ({"vertices": [_v(), 1]}, "vertices[1]: object expected"),
    ({"vertices": _AB, "edges": [{"a": "a", "b": "b"}, [1]]}, "edges[1]: object expected"),
    ({"vertices": [_v(w=3, x=1)]}, "vertices[0]: unknown keys ['w', 'x']"),
    ({"vertices": _AB, "edges": [{"a": "a", "b": "b", "x": 1}]}, "edges[0]: unknown keys ['x']"),
    ({"vertices": [_v(), {"self": -2}]}, "vertices[1].id: string expected"),
    ({"vertices": [{"id": "a"}]}, "vertices[0].self: required"),
    ({"vertices": [_v(genus=True)]}, "vertices[0].genus: integer expected, got True"),
    ({"vertices": [_v(genus=-2.0)]}, "vertices[0].genus: integer expected, got -2.0"),
    ({"vertices": [_v(genus="a")]}, "vertices[0].genus: integer expected, got 'a'"),
    ({"vertices": [_v(self=True)]}, "vertices[0].self: integer expected, got True"),
    ({"vertices": [_v(), _v("b", self=-2.0)]}, "vertices[1].self: integer expected, got -2.0"),
    ({"vertices": [_v(self="a")]}, "vertices[0].self: integer expected, got 'a'"),
    ({"vertices": _AB, "edges": [{"a": "a", "b": "b", "m": True}]}, "edges[0].m: integer expected, got True"),
    ({"vertices": _AB, "edges": [{"a": "a", "b": "b", "m": -2.0}]}, "edges[0].m: integer expected, got -2.0"),
    ({"vertices": _AB, "edges": [{"a": "a", "b": "b", "m": "a"}]}, "edges[0].m: integer expected, got 'a'"),
    ({"vertices": _AB, "edges": [{"a": "a"}]}, "edges[0].b: vertex id string expected"),
    ({"vertices": _AB, "edges": [{"a": "a", "b": "z"}]}, "edge references unknown vertex id 'z'"),
    ({"vertices": _AB, "edges": [{"a": "a", "b": "a"}]}, "self-loop at vertex index 0"),
    ({"vertices": _AB, "edges": [{"a": "a", "b": "b"}, {"a": "a", "b": "b"}]}, "duplicate edge pair (0, 1)"),
    ({"vertices": _AB, "edges": [{"a": "b", "b": "a"}, {"a": "a", "b": "b"}]}, "duplicate edge pair (0, 1)"),
    ({"vertices": _AB, "edges": [{"a": "b", "b": "a", "m": 0}]}, "edge (0, 1): multiplicity must be >= 1"),
    ({"vertices": [_v(), _v()]}, "duplicate vertex id 'a'"),
    ({"vertices": [_v(genus=-1)]}, "vertex 'a': genus must be >= 0, got -1"),
    ({"vertices": [_v(self=0)]}, "vertex 'a': self-intersection must be <= -1, got 0"),
    # two faults at once: the first one checked wins
    ({"vertices": _AB, "edges": [{"a": "z", "b": "z"}]}, "edge references unknown vertex id 'z'"),
    ({"vertices": _AB, "edges": [{"a": "a", "b": "b"}, {"a": "b", "b": "a", "m": 0}]},
     "edge (0, 1): multiplicity must be >= 1"),
    ({"vertices": [_v(), _v("b", genus=-1)], "edges": [{"a": "a", "b": "z"}]},
     "edge references unknown vertex id 'z'"),
    ({"vertices": [_v(), _v("b", genus=-1)], "edges": [{"a": "a", "b": "a"}]}, "vertex 'b': genus must be >= 0, got -1"),
]


@pytest.mark.parametrize("doc, message", _INGESTION_ERRORS)
def test_ingestion_error_messages_are_exact(doc, message):
    with pytest.raises(InvalidGraphError) as info:
        parse_graph_obj(doc)
    assert str(info.value) == message and info.value.exit_code == 2


def test_constructor_error_messages_are_exact():
    ab = [("a", 0, -2), ("b", 0, -2)]
    cases = [
        (lambda: build_graph(ab, [("a", "z")]), "edge references unknown vertex id 'z'"),
        (lambda: build_graph(ab, [("z", "a", 1)]), "edge references unknown vertex id 'z'"),
        (lambda: build_graph(ab, [("b", "b", 1)]), "self-loop at vertex index 1"),
        (lambda: build_graph(ab, [("b", "a"), ("a", "b", 2)]), "duplicate edge pair (0, 1)"),
        (lambda: build_graph(ab, [("a", "b", 0)]), "edge (0, 1): multiplicity must be >= 1"),
        (lambda: build_graph([], []), "graph needs at least one vertex"),
        (lambda: build_graph([("", 0, -2)]), "vertex id must be a non-empty string, got ''"),
    ]
    abc = tuple(VertexData(i, 0, -2) for i in "abc")
    for edges, message in (
        ((Edge(2, 1),), "edge (2, 1) must be ordered a < b"),
        ((Edge(0, 3),), "edge (0, 3) references a missing vertex"),
        ((Edge(1, 1),), "self-loop at vertex index 1"),
        ((Edge(0, 1), Edge(0, 1, 2)), "duplicate edge pair (0, 1)"),
        ((Edge(0, 1, 0),), "edge (0, 1): multiplicity must be >= 1"),
    ):
        cases.append((lambda edges=edges: WeightedDualGraph(abc, edges), message))
    for build, message in cases:
        with pytest.raises(InvalidGraphError) as info:
            build()
        assert str(info.value) == message


_AB_RECORDS = [("a", 0, -2), ("b", 0, -2)]
_ABC = tuple(VertexData(i, 0, -2) for i in "abc")
_BAD_B = (VertexData("a", 0, -2), VertexData("b", -1, -2), VertexData("c", 0, -2))

# Records with two faults at once, as `build_graph` and `WeightedDualGraph`
# take them, and the one message each raises: vertices are checked before
# edges, `build_graph` resolves ids before anything else, and an edge's
# faults are checked as missing vertex, self-loop, order, multiplicity and
# last duplicate pair.
_TWO_FAULTS = [
    # out of range and a self-loop
    (lambda: build_graph(_AB_RECORDS, [("z", "z")]), "edge references unknown vertex id 'z'"),
    (lambda: WeightedDualGraph(_ABC, (Edge(3, 3),)), "edge (3, 3) references a missing vertex"),
    (lambda: WeightedDualGraph(_ABC, (Edge(-1, -1),)), "edge (-1, -1) references a missing vertex"),
    (lambda: WeightedDualGraph(_ABC, (Edge(1, 5, 0),)), "edge (1, 5) references a missing vertex"),
    # unordered, with multiplicity 0 or mirroring an earlier pair; `build_graph` orders each pair itself
    (lambda: build_graph(_AB_RECORDS, [("b", "a", 0)]), "edge (0, 1): multiplicity must be >= 1"),
    (lambda: WeightedDualGraph(_ABC, (Edge(2, 1, 0),)), "edge (2, 1) must be ordered a < b"),
    (lambda: WeightedDualGraph(_ABC, (Edge(1, 2), Edge(2, 1))), "edge (2, 1) must be ordered a < b"),
    # a duplicate pair whose second copy has multiplicity 0
    (lambda: build_graph(_AB_RECORDS, [("a", "b"), ("b", "a", 0)]), "edge (0, 1): multiplicity must be >= 1"),
    (lambda: build_graph(_AB_RECORDS, [("a", "b", 0), ("b", "a")]), "edge (0, 1): multiplicity must be >= 1"),
    (lambda: WeightedDualGraph(_ABC, (Edge(0, 1), Edge(0, 1, 0))), "edge (0, 1): multiplicity must be >= 1"),
    # a third copy with multiplicity 0 comes after the duplicate
    (lambda: build_graph(_AB_RECORDS, [("a", "b"), ("b", "a"), ("a", "b", 0)]), "duplicate edge pair (0, 1)"),
    (lambda: WeightedDualGraph(_ABC, (Edge(0, 1), Edge(0, 1), Edge(0, 1, 0))), "duplicate edge pair (0, 1)"),
    # an unknown edge id, or an index out of range, beside a bad vertex
    (lambda: build_graph([("a", 0, -2), ("b", -1, -2)], [("a", "z")]), "edge references unknown vertex id 'z'"),
    (lambda: build_graph([("a", 0, -2), ("a", 0, -2)], [("a", "z")]), "edge references unknown vertex id 'z'"),
    (lambda: WeightedDualGraph(_BAD_B, (Edge(0, 5),)), "vertex 'b': genus must be >= 0, got -1"),
]


@pytest.mark.parametrize("build, message", _TWO_FAULTS)
def test_two_faults_raise_the_first_in_check_order(build, message):
    with pytest.raises(InvalidGraphError) as info:
        build()
    assert str(info.value) == message and info.value.exit_code == 2


def test_load_graph(tmp_path):
    p = tmp_path / "g.json"
    p.write_text(graph_to_json(chain32()))
    assert load_graph(str(p)) == chain32()
    with pytest.raises(InvalidGraphError, match="cannot read"):
        load_graph(str(tmp_path / "missing.json"))


def test_to_dot():
    text = to_dot(chain32())
    assert text.startswith("graph ")
    assert '"a"' in text and '"b"' in text
    assert "--" in text
    # multiplicity shows up as an edge label
    g = build_graph([("a", 0, -2), ("b", 0, -3)], [("a", "b", 2)])
    assert "2" in to_dot(g)



def test_to_dot_escapes_quotes_and_backslashes():
    """An id holding a double quote or a backslash stays inside its DOT
    quoted string: each quoted string on a line reads back as the id."""
    g = build_graph([('a"b', 0, -2), ("c\\", 0, -2), ("d", 0, -3)], [('a"b', "c\\"), ("c\\", "d")])
    lines = to_dot(g).splitlines()
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
    for line in lines[1:-1]:
        # no stray double quote is left once the quoted strings are taken out
        assert '"' not in quoted.sub("", line)
    ids = [quoted.findall(line)[0] for line in lines[1:4]]
    assert [re.sub(r"\\(.)", r"\1", x) for x in ids] == ['a"b', "c\\", "d"]
    assert lines[1] == '  "a\\"b" [label="a\\"b [0, -2]"];'
    assert lines[4] == '  "a\\"b" -- "c\\\\";'


# JSON documents biased towards the schema, so that most of them get past
# the top-level checks and reach the vertex, edge and build_graph checks.
_bad = st.sampled_from([None, True, 1.0, 0.5, "a", [], [1], {}, {"x": 1}])
_ids = st.sampled_from(["a", "b", "c", "a", "b", "c", None, 1])
_ints = st.sampled_from([-3, -2, -1, 0, 1, -3, -2, -1, 0, 1, None, True, 1.0, "a"])
_json_vertex = st.fixed_dictionaries(
    {"id": _ids, "self": _ints}, optional={"genus": _ints}
) | st.dictionaries(st.sampled_from(["id", "self", "x"]), _bad)
_json_edge = st.fixed_dictionaries(
    {"a": _ids, "b": _ids}, optional={"m": _ints}
) | st.dictionaries(st.sampled_from(["a", "b", "x"]), _bad)
_json_docs = st.fixed_dictionaries(
    {"vertices": st.lists(_json_vertex, max_size=3)},
    optional={"edges": st.lists(_json_edge, max_size=3) | _bad},
) | st.dictionaries(st.sampled_from(["vertices", "edges", "x"]), _bad) | _bad


@settings(max_examples=300)
@given(_json_docs)
def test_parse_graph_obj_raises_only_invalid_graph(doc):
    try:
        g = parse_graph_obj(doc)
    except InvalidGraphError:
        return
    assert isinstance(g, WeightedDualGraph)
    back = parse_graph_obj(graph_to_obj(g))
    assert back == g and hash(back) == hash(g)
