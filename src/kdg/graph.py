"""Weighted dual graphs of normal surface singularities.

A graph holds the combinatorics of an exceptional divisor: one vertex per
irreducible curve carrying its genus and self-intersection, one undirected
edge per intersecting pair carrying the intersection number.  A graph is
*admissible* when it is connected, its intersection matrix is negative
definite, and it is minimal (no genus-0 vertex of self-intersection -1).

Vertices and edges are `VertexData` and `Edge` named tuples: immutable and
hashable, they unpack and compare equal to plain tuples of their fields.
Ingestion (`parse_graph_obj` -> `build_graph` -> `WeightedDualGraph`)
reads each vertex and edge once: the JSON layer checks types and keys,
`build_graph` resolves ids to indices, and the graph's constructor is the
one place that checks values, plain ints included, building the graph's
lookup maps, the diagonal of M and c in the same loops.  Error text is
built only when one is raised.  A graph factors [M | c] once, on first use
(`rational.factor`), and definiteness, the canonical cycle, -K^2 and the
p_a search all read that factorization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import InvalidGraphError, PreconditionError
from .rational import Factorization, factor, is_negative_definite


class VertexData(NamedTuple):
    """One exceptional curve: stable id, genus >= 0, self-intersection <= -1."""

    id: str
    genus: int
    self_int: int


class Edge(NamedTuple):
    """Intersection of vertices a < b (indices) with multiplicity >= 1."""

    a: int
    b: int
    mult: int = 1


@dataclass(frozen=True)
class ValidationReport:
    connected: bool
    negative_definite: bool
    minimal: bool
    messages: tuple[str, ...]

    @property
    def admissible(self) -> bool:
        return self.connected and self.negative_definite and self.minimal


@dataclass(frozen=True)
class WeightedDualGraph:
    vertices: tuple[VertexData, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        """Checks each record once, building the id index, the diagonal of M,
        c and the adjacency maps as it goes; they live in the instance dict,
        not in fields, so equality and hashing still see only vertices and
        edges.  Every genus, self-intersection, edge index and multiplicity
        must be a plain int: a float or a bool raises `InvalidGraphError`."""
        if not self.vertices:
            raise InvalidGraphError("graph needs at least one vertex")
        index: dict[str, int] = {}
        weights = []
        degrees = []
        adj: list[dict[int, int]] = []
        for vid, genus, self_int in self.vertices:
            if not isinstance(vid, str) or not vid:
                raise InvalidGraphError(f"vertex id must be a non-empty string, got {vid!r}")
            if vid in index:
                raise InvalidGraphError(f"duplicate vertex id {vid!r}")
            if type(genus) is not int or type(self_int) is not int:
                raise InvalidGraphError(
                    f"vertex {vid!r}: integer genus and self-intersection expected,"
                    f" got {genus!r}, {self_int!r}"
                )
            if genus < 0:
                raise InvalidGraphError(f"vertex {vid!r}: genus must be >= 0, got {genus}")
            if self_int > -1:
                raise InvalidGraphError(
                    f"vertex {vid!r}: self-intersection must be <= -1, got {self_int}"
                )
            index[vid] = len(adj)
            weights.append(self_int)
            degrees.append(2 * genus - 2 - self_int)
            adj.append({})
        n = len(adj)
        for a, b, mult in self.edges:
            if type(a) is not int or type(b) is not int:
                raise InvalidGraphError(f"edge ({a!r}, {b!r}): integer vertex indices expected")
            if type(mult) is not int:
                raise InvalidGraphError(f"edge ({a}, {b}): integer multiplicity expected, got {mult!r}")
            if not (0 <= a < n and 0 <= b < n):
                raise InvalidGraphError(f"edge ({a}, {b}) references a missing vertex")
            if a == b:
                raise InvalidGraphError(f"self-loop at vertex index {a}")
            if a > b:
                raise InvalidGraphError(f"edge ({a}, {b}) must be ordered a < b")
            if mult < 1:
                raise InvalidGraphError(f"edge ({a}, {b}): multiplicity must be >= 1")
            row = adj[a]
            if b in row:
                raise InvalidGraphError(f"duplicate edge pair ({a}, {b})")
            row[b] = adj[b][a] = mult
        self.__dict__.update(
            _index=index, _weights=tuple(weights), _degrees=tuple(degrees), _adjacency=tuple(adj)
        )

    def __len__(self) -> int:
        return len(self.vertices)

    # Derived data built on first use, in the instance dict like the maps.
    @cached_property
    def _factorization(self) -> Factorization:
        """[M | c] factored once per graph, on its diagonal, adjacency maps
        and c; every kernel that asks about g reads it."""
        return factor(self._weights, self._adjacency, self._degrees)

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        adj = self._adjacency
        seen: set[int] = set()
        comps = []
        for start in range(len(self.vertices)):
            if start in seen:
                continue
            stack = [start]
            comp = []
            seen.add(start)
            while stack:
                i = stack.pop()
                comp.append(i)
                for j in adj[i]:
                    if j not in seen:
                        seen.add(j)
                        stack.append(j)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def index_of(self, vertex_id: str) -> int:
        return self._index[vertex_id]

    def ids(self) -> tuple[str, ...]:
        return tuple(self._index)

    def adjacency(self) -> tuple[dict[int, int], ...]:
        """Per-vertex map neighbor index -> intersection multiplicity.

        Like c and g's factorization, the maps are built once per graph and
        every call hands out the same ones, so they are read-only: a caller
        that changes a row copies it first."""
        return self._adjacency

    def edge_mult(self, i: int, j: int) -> int:
        return self._adjacency[i].get(j, 0) if 0 <= i < len(self._adjacency) else 0


def build_graph(
    vertices: Iterable[tuple[str, int, int]],
    edges: Iterable[tuple] = (),
) -> WeightedDualGraph:
    """Construct a graph from (id, genus, self_int) triples and edges given
    as (id_a, id_b) or (id_a, id_b, mult) tuples.  Resolves each edge's ids
    to indices, ordered (min, max); `WeightedDualGraph` checks the values."""
    vts = tuple(map(VertexData._make, vertices))
    index = {v.id: k for k, v in enumerate(vts)}
    pairs = []
    for spec in edges:
        if len(spec) == 2:
            ida, idb = spec
            m = 1
        else:
            ida, idb, m = spec
        try:
            a, b = index[ida], index[idb]
        except KeyError as exc:
            raise InvalidGraphError(f"edge references unknown vertex id {exc.args[0]!r}") from None
        pairs.append((a, b, m) if a < b else (b, a, m))
    pairs.sort(key=itemgetter(0, 1))
    # `Edge._make` less its length check: each pair is a triple built here
    return WeightedDualGraph(vts, tuple(map(tuple.__new__, repeat(Edge), pairs)))


def intersection_matrix(g: WeightedDualGraph) -> tuple[tuple[int, ...], ...]:
    """Symmetric integer matrix M with M[i][i] the self-intersection and
    M[i][j] the pairwise intersection number (0 off the edges)."""
    n = len(g)
    rows = [[0] * n for _ in range(n)]
    for i, v in enumerate(g.vertices):
        rows[i][i] = v.self_int
    for e in g.edges:
        rows[e.a][e.b] = rows[e.b][e.a] = e.mult
    return tuple(map(tuple, rows))


def adjunction_degrees(g: WeightedDualGraph) -> tuple[int, ...]:
    """The vector c with c_i = 2*genus_i - 2 - self_int_i, one tuple per graph.

    c_i is the intersection number of the canonical cycle with the i-th
    curve; it vanishes exactly on genus-0 (-2)-vertices.
    """
    return g._degrees


def connected_components(g: WeightedDualGraph) -> list[list[int]]:
    """Vertex indices of each connected component, sorted, in the order of
    their least index; new lists on every call."""
    return [list(comp) for comp in g._components]


def is_connected(g: WeightedDualGraph) -> bool:
    return len(g._components) == 1


def validate(g: WeightedDualGraph) -> ValidationReport:
    messages = []
    connected = is_connected(g)
    if not connected:
        messages.append(f"not connected: {len(g._components)} components")
    negdef = is_negative_definite(g._factorization)
    if not negdef:
        messages.append("not negative definite")
    minimal = True
    for v in g.vertices:
        if v.genus == 0 and v.self_int == -1:
            minimal = False
            messages.append(f"not minimal: (-1)-curve at {v.id!r}")
    return ValidationReport(connected, negdef, minimal, tuple(messages))


def subgraph(g: WeightedDualGraph, keep: Sequence[int]) -> WeightedDualGraph:
    """Induced subgraph on the given vertex indices (original order kept)."""
    idx = sorted(set(keep))
    if not idx:
        raise PreconditionError("subgraph needs a non-empty vertex subset")
    if idx[0] < 0 or idx[-1] >= len(g):
        raise PreconditionError(f"subgraph indices out of range: {keep}")
    remap = {old: new for new, old in enumerate(idx)}
    verts = tuple(g.vertices[i] for i in idx)
    edges = tuple(
        Edge(remap[e.a], remap[e.b], e.mult)
        for e in g.edges
        if e.a in remap and e.b in remap
    )
    return WeightedDualGraph(verts, edges)


# ---------------------------------------------------------------------------
# serialization

_VERTEX_KEYS = frozenset({"id", "genus", "self"})
_EDGE_KEYS = frozenset({"a", "b", "m"})


def _require_int(value, part: str, k: int, field: str) -> int:
    """value, when it is an integer and not a bool; otherwise raises with
    the location `part[k].field`."""
    if type(value) is int or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise InvalidGraphError(f"{part}[{k}].{field}: integer expected, got {value!r}")


def parse_graph_obj(doc) -> WeightedDualGraph:
    """The graph of a parsed JSON document.  Each vertex and edge is checked
    once, in document order; its error message is built only on failure."""
    if not isinstance(doc, dict):
        raise InvalidGraphError("top level: object with 'vertices' and 'edges' expected")
    unknown = set(doc) - {"vertices", "edges"}
    if unknown:
        raise InvalidGraphError(f"top level: unknown keys {sorted(unknown)}")
    raw_vertices = doc.get("vertices")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise InvalidGraphError("vertices: non-empty array expected")
    vertices = []
    for k, rv in enumerate(raw_vertices):
        if not isinstance(rv, dict):
            raise InvalidGraphError(f"vertices[{k}]: object expected")
        if not _VERTEX_KEYS.issuperset(rv):
            raise InvalidGraphError(f"vertices[{k}]: unknown keys {sorted(set(rv) - _VERTEX_KEYS)}")
        vid = rv.get("id")
        if not isinstance(vid, str):
            raise InvalidGraphError(f"vertices[{k}].id: string expected")
        genus = _require_int(rv.get("genus", 0), "vertices", k, "genus")
        if "self" not in rv:
            raise InvalidGraphError(f"vertices[{k}].self: required")
        vertices.append((vid, genus, _require_int(rv["self"], "vertices", k, "self")))
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise InvalidGraphError("edges: array expected")
    edges = []
    for k, re_ in enumerate(raw_edges):
        if not isinstance(re_, dict):
            raise InvalidGraphError(f"edges[{k}]: object expected")
        if not _EDGE_KEYS.issuperset(re_):
            raise InvalidGraphError(f"edges[{k}]: unknown keys {sorted(set(re_) - _EDGE_KEYS)}")
        ida, idb = re_.get("a"), re_.get("b")
        if not isinstance(ida, str):
            raise InvalidGraphError(f"edges[{k}].a: vertex id string expected")
        if not isinstance(idb, str):
            raise InvalidGraphError(f"edges[{k}].b: vertex id string expected")
        edges.append((ida, idb, _require_int(re_.get("m", 1), "edges", k, "m")))
    return build_graph(vertices, edges)


def parse_graph_json(text: str) -> WeightedDualGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidGraphError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise InvalidGraphError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer literal over the interpreter's digit limit
        raise InvalidGraphError("invalid JSON: an integer literal has too many digits") from None
    return parse_graph_obj(doc)


def graph_to_obj(g: WeightedDualGraph) -> dict:
    return {
        "vertices": [
            {"id": v.id, "genus": v.genus, "self": v.self_int} for v in g.vertices
        ],
        "edges": [
            {"a": g.vertices[e.a].id, "b": g.vertices[e.b].id, "m": e.mult}
            for e in sorted(g.edges)
        ],
    }


def graph_to_json(g: WeightedDualGraph) -> str:
    return json.dumps(graph_to_obj(g), indent=2) + "\n"


def load_graph(path: str) -> WeightedDualGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidGraphError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InvalidGraphError(f"cannot read {path}: not UTF-8 (byte {exc.start})") from None
    return parse_graph_json(text)


def _dot_id(text: str) -> str:
    """text as a DOT quoted string: a backslash and a double quote are
    escaped, so no id can end the string early."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: WeightedDualGraph) -> str:
    """Graphviz rendering: nodes labeled "id [genus, self]", edges labeled
    with their multiplicity when it exceeds 1."""
    lines = ["graph dual {"]
    for v in g.vertices:
        lines.append(f"  {_dot_id(v.id)} [label={_dot_id(f'{v.id} [{v.genus}, {v.self_int}]')}];")
    for e in sorted(g.edges):
        ends = f"{_dot_id(g.vertices[e.a].id)} -- {_dot_id(g.vertices[e.b].id)}"
        lines.append(f'  {ends} [label="{e.mult}"];' if e.mult > 1 else f"  {ends};")
    lines.append("}")
    return "\n".join(lines) + "\n"
