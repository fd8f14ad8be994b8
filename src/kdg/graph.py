"""Weighted dual graphs of normal surface singularities.

A graph holds the combinatorics of an exceptional divisor: one vertex per
irreducible curve carrying its genus and self-intersection, one undirected
edge per intersecting pair carrying the intersection number.  A graph is
*admissible* when it is connected, its intersection matrix is negative
definite, and it is minimal (no genus-0 vertex of self-intersection -1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidGraphError, PreconditionError
from .rational import is_negative_definite


@dataclass(frozen=True)
class VertexData:
    """One exceptional curve: stable id, genus >= 0, self-intersection <= -1."""

    id: str
    genus: int
    self_int: int


@dataclass(frozen=True)
class Edge:
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
        if not self.vertices:
            raise InvalidGraphError("graph needs at least one vertex")
        seen_ids = set()
        for v in self.vertices:
            if not isinstance(v.id, str) or not v.id:
                raise InvalidGraphError(f"vertex id must be a non-empty string, got {v.id!r}")
            if v.id in seen_ids:
                raise InvalidGraphError(f"duplicate vertex id {v.id!r}")
            seen_ids.add(v.id)
            if v.genus < 0:
                raise InvalidGraphError(f"vertex {v.id!r}: genus must be >= 0, got {v.genus}")
            if v.self_int > -1:
                raise InvalidGraphError(
                    f"vertex {v.id!r}: self-intersection must be <= -1, got {v.self_int}"
                )
        n = len(self.vertices)
        seen_pairs = set()
        for e in self.edges:
            if not (0 <= e.a < n and 0 <= e.b < n):
                raise InvalidGraphError(f"edge ({e.a}, {e.b}) references a missing vertex")
            if e.a == e.b:
                raise InvalidGraphError(f"self-loop at vertex index {e.a}")
            if e.a > e.b:
                raise InvalidGraphError(f"edge ({e.a}, {e.b}) must be ordered a < b")
            if e.mult < 1:
                raise InvalidGraphError(f"edge ({e.a}, {e.b}): multiplicity must be >= 1")
            if (e.a, e.b) in seen_pairs:
                raise InvalidGraphError(f"duplicate edge pair ({e.a}, {e.b})")
            seen_pairs.add((e.a, e.b))

    def __len__(self) -> int:
        return len(self.vertices)

    # Lookup maps and derived data, built on first use.  They live in the
    # instance dict, not in fields, so equality and hashing still see only
    # vertices and edges.
    @cached_property
    def _index(self) -> dict[str, int]:
        return {v.id: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _mults(self) -> dict[tuple[int, int], int]:
        return {(e.a, e.b): e.mult for e in self.edges}

    @cached_property
    def _adjacency(self) -> tuple[dict[int, int], ...]:
        adj: tuple[dict[int, int], ...] = tuple({} for _ in self.vertices)
        for e in self.edges:
            adj[e.a][e.b] = e.mult
            adj[e.b][e.a] = e.mult
        return adj

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
        return tuple(v.id for v in self.vertices)

    def adjacency(self) -> tuple[dict[int, int], ...]:
        """Per-vertex map neighbor index -> intersection multiplicity.

        The maps are built once per graph and every call hands out the same
        ones, so they are read-only: a caller that needs to change a row
        copies it first (`intersection_rows` returns new maps)."""
        return self._adjacency

    def edge_mult(self, i: int, j: int) -> int:
        return self._mults.get((min(i, j), max(i, j)), 0)


def build_graph(
    vertices: Iterable[tuple[str, int, int]],
    edges: Iterable[tuple] = (),
) -> WeightedDualGraph:
    """Construct a graph from (id, genus, self_int) triples and edges given
    as (id_a, id_b) or (id_a, id_b, mult) tuples."""
    vts = tuple(VertexData(i, g, w) for i, g, w in vertices)
    index = {v.id: k for k, v in enumerate(vts)}
    out = []
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
        out.append(Edge(min(a, b), max(a, b), m))
    return WeightedDualGraph(vts, tuple(sorted(out, key=lambda e: (e.a, e.b))))


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


def intersection_rows(g: WeightedDualGraph) -> list[dict[int, int]]:
    """The intersection matrix as map rows for the `rational` kernels: row
    i maps each neighbour of vertex i to the intersection number and i to
    its self-intersection.  Built in O(n + edges); new maps on every call."""
    return [row | {i: v.self_int} for i, (row, v) in enumerate(zip(g.adjacency(), g.vertices))]


def adjunction_degrees(g: WeightedDualGraph) -> tuple[int, ...]:
    """The vector c with c_i = 2*genus_i - 2 - self_int_i.

    c_i is the intersection number of the canonical cycle with the i-th
    curve; it vanishes exactly on genus-0 (-2)-vertices.
    """
    return tuple(2 * v.genus - 2 - v.self_int for v in g.vertices)


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
    negdef = is_negative_definite(intersection_rows(g))
    if not negdef:
        messages.append("not negative definite")
    minimal = True
    for v in g.vertices:
        if v.genus == 0 and v.self_int == -1:
            minimal = False
            messages.append(f"not minimal: (-1)-curve at {v.id!r}")
    return ValidationReport(connected, negdef, minimal, tuple(messages))


def is_admissible(g: WeightedDualGraph) -> bool:
    return validate(g).admissible


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

_VERTEX_KEYS = {"id", "genus", "self"}
_EDGE_KEYS = {"a", "b", "m"}


def _require_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidGraphError(f"{where}: integer expected, got {value!r}")
    return value


def parse_graph_obj(doc) -> WeightedDualGraph:
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
        where = f"vertices[{k}]"
        if not isinstance(rv, dict):
            raise InvalidGraphError(f"{where}: object expected")
        unknown = set(rv) - _VERTEX_KEYS
        if unknown:
            raise InvalidGraphError(f"{where}: unknown keys {sorted(unknown)}")
        if "id" not in rv or not isinstance(rv["id"], str):
            raise InvalidGraphError(f"{where}.id: string expected")
        genus = _require_int(rv.get("genus", 0), f"{where}.genus")
        if "self" not in rv:
            raise InvalidGraphError(f"{where}.self: required")
        self_int = _require_int(rv["self"], f"{where}.self")
        vertices.append((rv["id"], genus, self_int))
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise InvalidGraphError("edges: array expected")
    edges = []
    for k, re_ in enumerate(raw_edges):
        where = f"edges[{k}]"
        if not isinstance(re_, dict):
            raise InvalidGraphError(f"{where}: object expected")
        unknown = set(re_) - _EDGE_KEYS
        if unknown:
            raise InvalidGraphError(f"{where}: unknown keys {sorted(unknown)}")
        for key in ("a", "b"):
            if key not in re_ or not isinstance(re_[key], str):
                raise InvalidGraphError(f"{where}.{key}: vertex id string expected")
        m = _require_int(re_.get("m", 1), f"{where}.m")
        edges.append((re_["a"], re_["b"], m))
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
            for e in sorted(g.edges, key=lambda e: (e.a, e.b))
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


def to_dot(g: WeightedDualGraph) -> str:
    """Graphviz rendering: nodes labeled "id [genus, self]", edges labeled
    with their multiplicity when it exceeds 1."""
    lines = ["graph dual {"]
    for v in g.vertices:
        lines.append(f'  "{v.id}" [label="{v.id} [{v.genus}, {v.self_int}]"];')
    for e in sorted(g.edges, key=lambda e: (e.a, e.b)):
        ida = g.vertices[e.a].id
        idb = g.vertices[e.b].id
        if e.mult > 1:
            lines.append(f'  "{ida}" -- "{idb}" [label="{e.mult}"];')
        else:
            lines.append(f'  "{ida}" -- "{idb}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
