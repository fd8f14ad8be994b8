"""Graph surgeries and the exact identities that control -K^2 under them.

Three related pieces live here:

* chain insertion: replacing a multiplicity-1 edge between two genus-0
  (-2)-vertices by a chain of n fresh (-2)-vertices, together with the
  exact bookkeeping (`verify_insertion`) showing how -K^2 grows;
* string contraction: eliminating such a chain from the linear system.
  The Schur complement of an n-chain block is explicit: the two endpoint
  "props" get diagonal -(n+2)/(n+1) and mutual entry 1/(n+1), everything
  else is untouched;
* limits: letting designated string lengths go to infinity.  The contracted
  block converges entrywise to diagonal -1, coupling 0; strings whose two
  prop coefficients already agree contribute a constant and are frozen at
  their current length instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .errors import (
    InternalCheckError,
    NotNegativeDefiniteError,
    PreconditionError,
    SingularLimitError,
)
from .graph import (
    VertexData,
    WeightedDualGraph,
    adjunction_degrees,
    build_graph,
    validate,
)
from .invariants import _checked_k_squared, _graph_k_squared, _graph_system, _solution
from .rational import UNBOUNDED, lcm_denominators, nullspace, rat_str


@dataclass(frozen=True)
class InsertionSite:
    """A multiplicity-1 edge whose endpoints are both genus-0 (-2)-vertices."""

    a: int
    b: int


@dataclass(frozen=True)
class StringDescriptor:
    """A chain of genus-0 (-2)-vertices inside a graph.

    `chain` lists the vertex indices along the path; `left`/`right` are the
    indices of the vertices the two chain ends attach to, or None when a
    chain end touches nothing else.  detect_strings produces maximal such
    chains; contract_string accepts any insertion-shaped one.
    """

    chain: tuple[int, ...]
    left: Optional[int]
    right: Optional[int]

    def reversed(self) -> "StringDescriptor":
        return StringDescriptor(tuple(reversed(self.chain)), self.right, self.left)


class IdentityCheck(NamedTuple):
    name: str
    lhs: Optional[Fraction]
    rhs: Optional[Fraction]
    holds: bool


@dataclass(frozen=True)
class InsertionIdentityReport:
    """Exact before/after data for one chain insertion."""

    n: int
    site: tuple[str, str]
    det_base: Fraction
    det_contracted: Fraction
    m_site: tuple[Fraction, Fraction]
    m_site_after: tuple[Fraction, Fraction]
    k2_before: Fraction
    k2_after: Fraction
    identities: tuple[IdentityCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(check.holds for check in self.identities)

    def to_obj(self) -> dict:
        def show(x):
            return None if x is None else rat_str(x)

        return {
            "n": self.n,
            "site": list(self.site),
            "det_base": rat_str(self.det_base),
            "det_contracted": rat_str(self.det_contracted),
            "m_site": [rat_str(x) for x in self.m_site],
            "m_site_after": [rat_str(x) for x in self.m_site_after],
            "k2_before": rat_str(self.k2_before),
            "k2_after": rat_str(self.k2_after),
            "identities": [
                {"name": c.name, "lhs": show(c.lhs), "rhs": show(c.rhs), "holds": c.holds}
                for c in self.identities
            ],
            "all_hold": self.all_hold,
        }


def _is_minus2(g: WeightedDualGraph, i: int) -> bool:
    v = g.vertices[i]
    return v.genus == 0 and v.self_int == -2


def find_sites(g: WeightedDualGraph) -> list[InsertionSite]:
    """All multiplicity-1 edges joining two genus-0 (-2)-vertices."""
    return [
        InsertionSite(e.a, e.b)
        for e in sorted(g.edges, key=lambda e: (e.a, e.b))
        if e.mult == 1 and _is_minus2(g, e.a) and _is_minus2(g, e.b)
    ]


def _check_site(g: WeightedDualGraph, site: InsertionSite) -> None:
    n = len(g)
    if not (0 <= site.a < n and 0 <= site.b < n) or site.a == site.b:
        raise PreconditionError(f"bad insertion site ({site.a}, {site.b})")
    if g.edge_mult(site.a, site.b) != 1:
        raise PreconditionError("insertion site must be an edge of multiplicity 1")
    if not (_is_minus2(g, site.a) and _is_minus2(g, site.b)):
        raise PreconditionError("insertion site endpoints must be genus-0 (-2)-vertices")


def _fresh_ids(g: WeightedDualGraph, count: int, stem: str = "w") -> list[str]:
    used = set(g.ids())
    out = []
    k = 1
    while len(out) < count:
        cand = f"{stem}{k}"
        if cand not in used:
            used.add(cand)
            out.append(cand)
        k += 1
    return out


def insert_minus2(g: WeightedDualGraph, site: InsertionSite, n: int) -> WeightedDualGraph:
    """Replace the site edge by a chain of n new genus-0 (-2)-vertices.

    The new vertices are appended after the existing ones, so indices of the
    original vertices are unchanged in the result.
    """
    if n < 1:
        raise PreconditionError(f"insertion length must be >= 1, got {n}")
    _check_site(g, site)
    empty = StringDescriptor((), min(site.a, site.b), max(site.a, site.b))
    return _splice(g, empty, n)[0]


def _check_string_structure(g: WeightedDualGraph, s: StringDescriptor, allow_empty: bool) -> None:
    n = len(g)
    for label, idx in (("left", s.left), ("right", s.right)):
        if idx is not None and not (0 <= idx < n):
            raise PreconditionError(f"string {label} attachment out of range: {idx}")
    if len(set(s.chain)) != len(s.chain):
        raise PreconditionError("string chain repeats a vertex")
    if any(not (0 <= i < n) for i in s.chain):
        raise PreconditionError("string chain index out of range")
    adj = g.adjacency()
    if not s.chain:
        if not allow_empty:
            raise PreconditionError("string chain is empty")
        if s.left is None or s.right is None or s.left == s.right:
            raise PreconditionError("empty string needs two distinct attachments")
        if adj[s.left].get(s.right) != 1:
            raise PreconditionError("empty string attachments must share a multiplicity-1 edge")
        return
    chain_set = set(s.chain)
    if s.left in chain_set or s.right in chain_set:
        raise PreconditionError("string attachments must lie outside the chain")
    for i in s.chain:
        if not _is_minus2(g, i):
            raise PreconditionError(f"string vertex {g.vertices[i].id!r} is not a genus-0 (-2)-vertex")
        if any(m != 1 for m in adj[i].values()):
            raise PreconditionError("string vertices must meet everything with multiplicity 1")
    for u, v in zip(s.chain, s.chain[1:]):
        if adj[u].get(v) != 1:
            raise PreconditionError("string chain vertices must be consecutive neighbors")
    for pos in range(1, len(s.chain) - 1):
        if set(adj[s.chain[pos]]) != {s.chain[pos - 1], s.chain[pos + 1]}:
            raise PreconditionError("interior string vertex has an outside neighbor")
    first_outside = set(adj[s.chain[0]]) - chain_set
    last_outside = set(adj[s.chain[-1]]) - chain_set
    if len(s.chain) == 1:
        expected = {x for x in (s.left, s.right) if x is not None}
        if first_outside != expected or len(first_outside) > 2:
            raise PreconditionError("string attachments do not match the graph")
    else:
        if first_outside != ({s.left} if s.left is not None else set()):
            raise PreconditionError("left attachment does not match the graph")
        if last_outside != ({s.right} if s.right is not None else set()):
            raise PreconditionError("right attachment does not match the graph")


def contracted_indices(g: WeightedDualGraph, s: StringDescriptor) -> list[int]:
    """Vertex indices that survive contract_string, in original order."""
    chain_set = set(s.chain)
    return [i for i in range(len(g)) if i not in chain_set]


def contract_string(g: WeightedDualGraph, s: StringDescriptor) -> list[dict[int, Fraction]]:
    """Eliminate the chain from the intersection matrix.

    The descriptor's left/right vertices act as the props and must be
    genus-0 (-2)-vertices; the chain plays the inserted-string role.  The
    returned map rows (column -> entry, as `intersection_rows` gives them)
    are indexed by `contracted_indices(g, s)` and satisfy
    -t(c) M^{-1} c = -K^2 of the full graph exactly (the chain carries no
    adjunction weight, so this is plain block elimination).
    """
    weights, adj, _, local = _contracted(g, s)
    rows = [a | {i: w} for i, (w, a) in enumerate(zip(weights, adj))]
    k = len(s.chain) + 1
    for p in (local[s.left], local[s.right]):
        rows[p] = {j: Fraction(x, k) for j, x in rows[p].items()}
    return rows


def _contracted(
    g: WeightedDualGraph, s: StringDescriptor
) -> tuple[list[int], list[dict[int, int]], list[int], dict[int, int]]:
    """`contract_string`'s system as `_system_without` gives it, with the
    rows of the two props times n + 1 for an n-vertex chain, which makes
    it integral: -(n+2) on their diagonal and 1 between them.  c vanishes
    at the props, so this system has the same solution m and the same
    t(m) M m = m.c; its determinant is (n+1)^2 times that of the matrix."""
    _check_string_structure(g, s, allow_empty=True)
    if s.left is None or s.right is None:
        raise PreconditionError("contraction needs prop vertices on both ends")
    if s.left == s.right:
        raise PreconditionError("contraction needs two distinct prop vertices")
    if not (_is_minus2(g, s.left) and _is_minus2(g, s.right)):
        raise PreconditionError("props must be (-2)-curves")
    if s.chain and g.edge_mult(s.left, s.right) != 0:
        raise PreconditionError("props of a non-empty string must not be adjacent")
    weights, adj, c, local = _system_without(g, set(s.chain))
    k = len(s.chain) + 1
    p, q = local[s.left], local[s.right]
    for r in (p, q):
        weights[r] = -(k + 1)
        adj[r] = {j: k * mult for j, mult in adj[r].items()}
    adj[p][q] = adj[q][p] = 1
    return weights, adj, c, local


def _system_without(
    g: WeightedDualGraph, dropped: set[int]
) -> tuple[list[int], list[dict[int, int]], list[int], dict[int, int]]:
    """M m = c for g without the `dropped` vertices: (diagonal of M, new
    adjacency maps, c, position of each kept vertex of g), built from
    `g.adjacency()` in O(n + edges)."""
    adj = g.adjacency()
    degrees = adjunction_degrees(g)
    local = {v: k for k, v in enumerate(i for i in range(len(g)) if i not in dropped)}
    weights = [g.vertices[v].self_int for v in local]
    rows = [{local[j]: mult for j, mult in adj[v].items() if j in local} for v in local]
    return weights, rows, [degrees[v] for v in local], local


def verify_insertion(g: WeightedDualGraph, site: InsertionSite, n: int) -> InsertionIdentityReport:
    """Insert a chain of n (-2)-vertices at the site and check every exact
    identity relating the old and new canonical data.

    g, the inserted graph and the inserted graph with its new chain
    contracted are factored once each (`_solution`), -K^2 checked two ways.
    All comparisons are exact rational equalities; the report lists each
    one with its two sides so a failure is auditable.
    """
    _check_site(g, site)
    if n < 1:
        raise PreconditionError(f"insertion length must be >= 1, got {n}")

    def solved(weights, adj, c, not_definite):
        y, d = _solution(weights, adj, c, not_definite)
        k2 = _checked_k_squared(weights, adj, c, y, d)
        return tuple(Fraction(v, d) for v in y), k2, Fraction(d)

    m_before, k2_before, det_base = solved(
        *_graph_system(g), NotNegativeDefiniteError("base graph must be negative definite")
    )
    stretched = insert_minus2(g, site, n)
    # the notion is only defined between negative definite divisors;
    # long chains at a trivalent hub can leave that class
    m_full, k2_after, _ = solved(
        *_graph_system(stretched),
        NotNegativeDefiniteError(
            f"inserting {n} vertices at ({g.vertices[site.a].id}, "
            f"{g.vertices[site.b].id}) leaves the negative definite class"
        ),
    )
    # contracted system: the new chain eliminated, same index set as g; as
    # a Schur complement of a negative definite matrix it is one too
    a, b = site.a, site.b
    chain = StringDescriptor(tuple(range(len(g), len(stretched))), min(a, b), max(a, b))
    m_after, k2_contracted, det_scaled = solved(
        *_contracted(stretched, chain)[:3],
        InternalCheckError("contracted system is not negative definite"),
    )
    det_contracted = det_scaled / (n + 1) ** 2

    def equal(name, lhs, rhs):
        return IdentityCheck(name, lhs, rhs, lhs == rhs)

    ratio = det_base / det_contracted
    step = Fraction(n, n + 1)
    diff_before = m_before[a] - m_before[b]
    diff_after = m_after[a] - m_after[b]
    top = max(m_before + m_full)
    # -t(m) M m is -K^2 in each system (`_checked_k_squared`)
    checks = [
        equal("contraction_matches_direct", k2_contracted, k2_after),
        IdentityCheck("old_coefficients_survive", None, None, m_full[: len(g)] == m_after),
        equal("difference_identity", k2_contracted, k2_before + step * diff_before * diff_after),
        equal("determinant_ratio", diff_after, ratio * diff_before),
        equal("k2_increment", k2_after, k2_before + step * ratio * diff_before**2),
        IdentityCheck("coefficient_signs", top, Fraction(0), top <= 0),
        IdentityCheck("k2_monotone", k2_after, k2_before, k2_after >= k2_before),
        IdentityCheck("result_admissible", None, None, validate(stretched).admissible),
    ]
    if m_before[a] == m_before[b]:
        inserted = m_full[len(g) :]
        checks.append(equal("k2_preserved", k2_after, k2_before))
        checks.append(
            IdentityCheck(
                "coefficient_multiset_preserved",
                None,
                None,
                sorted(m_full[: len(g)]) == sorted(m_before)
                and all(x == m_before[a] for x in inserted),
            )
        )
        idx_before = Fraction(lcm_denominators(m_before))
        checks.append(equal("index_preserved", idx_before, Fraction(lcm_denominators(m_full))))
    return InsertionIdentityReport(
        n=n,
        site=(g.vertices[a].id, g.vertices[b].id),
        det_base=det_base,
        det_contracted=det_contracted,
        m_site=(m_before[a], m_before[b]),
        m_site_after=(m_after[a], m_after[b]),
        k2_before=k2_before,
        k2_after=k2_after,
        identities=tuple(checks),
    )


def detect_strings(g: WeightedDualGraph) -> list[StringDescriptor]:
    """Maximal chains of genus-0 (-2)-vertices.

    A vertex can sit on a chain when its total intersection degree is at
    most 2 and every incident edge has multiplicity 1; branch points are
    therefore never part of a chain.  Components that close into cycles are
    skipped (they are never negative definite).  Chains covering a whole
    connected component are reported with both attachments None.
    """
    adj = g.adjacency()

    def eligible(i: int) -> bool:
        return (
            _is_minus2(g, i)
            and sum(adj[i].values()) <= 2
            and all(m == 1 for m in adj[i].values())
        )

    eset = {i for i in range(len(g)) if eligible(i)}
    seen: set[int] = set()
    out = []
    for i in sorted(eset):
        if i in seen:
            continue
        comp = {i}
        frontier = [i]
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y in eset and y not in comp:
                    comp.add(y)
                    frontier.append(y)
        seen |= comp
        ends = [x for x in sorted(comp) if len([y for y in adj[x] if y in comp]) <= 1]
        if not ends:
            continue
        if len(comp) == 1:
            chain = [ends[0]]
            outs = sorted(y for y in adj[chain[0]] if y not in comp)
            left = outs[0] if outs else None
            right = outs[1] if len(outs) > 1 else None
        else:
            start = min(ends)
            chain = [start]
            prev = None
            cur = start
            while True:
                step = [y for y in adj[cur] if y in comp and y != prev]
                if not step:
                    break
                prev, cur = cur, step[0]
                chain.append(cur)
            first_out = sorted(y for y in adj[chain[0]] if y not in comp)
            last_out = sorted(y for y in adj[chain[-1]] if y not in comp)
            left = first_out[0] if first_out else None
            right = last_out[0] if last_out else None
        out.append(StringDescriptor(tuple(chain), left, right))
    out.sort(key=lambda s: min(s.chain))
    return out


def with_string_length(
    g: WeightedDualGraph, s: StringDescriptor, length: int
) -> tuple[WeightedDualGraph, Optional[StringDescriptor]]:
    """The family member with this string spliced to the given total length.

    Extending appends fresh (-2)-vertices (existing indices are preserved);
    shrinking removes chain vertices from the far end and, at length 0,
    joins the two attachments directly (bumping an existing edge).  Returns
    the new graph and the updated descriptor (None at length 0).
    """
    _check_string_structure(g, s, allow_empty=False)
    if length < 0:
        raise PreconditionError(f"string length must be >= 0, got {length}")
    return _splice(g, s, length)


def _splice(
    g: WeightedDualGraph, s: StringDescriptor, length: int
) -> tuple[WeightedDualGraph, Optional[StringDescriptor]]:
    """`with_string_length` on a checked descriptor, whose chain may also be
    empty between two adjacent attachments (an insertion site)."""
    k = len(s.chain)
    if length == k:
        return g, s
    ids = g.ids()
    chain_ids = [ids[i] for i in s.chain]
    left_id = ids[s.left] if s.left is not None else None
    right_id = ids[s.right] if s.right is not None else None
    pair_mult: dict[tuple[str, str], int] = {}
    for e in g.edges:
        key = tuple(sorted((ids[e.a], ids[e.b])))
        pair_mult[key] = e.mult

    def drop(u: str, v: str) -> None:
        pair_mult.pop(tuple(sorted((u, v))), None)

    def put(u: str, v: str, m: int = 1) -> None:
        key = tuple(sorted((u, v)))
        pair_mult[key] = pair_mult.get(key, 0) + m

    verts = list(g.vertices)
    if length > k:
        fresh = _fresh_ids(g, length - k)
        end = chain_ids[-1] if chain_ids else left_id
        if right_id is not None:
            drop(end, right_id)
        run = [end] + fresh
        for u, v in zip(run, run[1:]):
            put(u, v)
        if right_id is not None:
            put(fresh[-1], right_id)
        verts += [VertexData(i, 0, -2) for i in fresh]
        new_chain_ids = chain_ids + fresh
    else:
        removed = set(chain_ids[length:])
        verts = [v for v in verts if v.id not in removed]
        pair_mult = {
            key: m for key, m in pair_mult.items() if not (key[0] in removed or key[1] in removed)
        }
        if length == 0:
            if left_id is not None and left_id == right_id:
                # joining would turn the cycle into a self-intersecting curve
                raise PreconditionError(
                    "cannot shrink to length 0: both attachments are the same vertex"
                )
            if left_id is not None and right_id is not None:
                put(left_id, right_id)
        elif right_id is not None:
            put(chain_ids[length - 1], right_id)
        new_chain_ids = chain_ids[:length]
    built = build_graph(
        [(v.id, v.genus, v.self_int) for v in verts],
        [(u, v, m) for (u, v), m in sorted(pair_mult.items())],
    )
    if not new_chain_ids:
        return built, None
    descriptor = StringDescriptor(
        tuple(built.index_of(i) for i in new_chain_ids),
        built.index_of(left_id) if left_id is not None else None,
        built.index_of(right_id) if right_id is not None else None,
    )
    return built, descriptor


def _resolve_designated(
    g: WeightedDualGraph, strings: Sequence[StringDescriptor]
) -> list[StringDescriptor]:
    """The maximal strings of g that `strings` designate, in order, as
    `detect_strings` gives them; PreconditionError for any other
    descriptor.  What `detect_strings` gives passes `_check_string_structure`,
    so callers splice them with `_splice` and check nothing again."""
    if not strings:
        raise PreconditionError("at least one designated string is required")
    detected = {frozenset(s.chain): s for s in detect_strings(g)}
    resolved = []
    for s in strings:
        match = detected.get(frozenset(s.chain))
        if match is None or (s != match and s != match.reversed()):
            raise PreconditionError("designated string is not a maximal string of this graph")
        resolved.append(match)
    if len({frozenset(s.chain) for s in resolved}) != len(resolved):
        raise PreconditionError("designated strings must be pairwise distinct")
    for s in resolved:
        if s.left is None and s.right is None:
            raise PreconditionError("a string covering a whole component cannot be stretched")
    return resolved


def _limit_system(
    g: WeightedDualGraph, stretched: Sequence[StringDescriptor]
) -> tuple[list[int], list[dict[int, int]], list[int], dict[int, int]]:
    """The integer system of g with the `stretched` strings at their limit:
    (diagonal, adjacency maps, c, position of each kept vertex of g).

    A stretched n-interior string contracts to its two ends with
    -(n+2)/(n+1) on the diagonal and 1/(n+1) between them, which tends to
    -1 and 0, so its ends get -1, no entry between them, and its interior
    is dropped.  c is that of g: the ends are genus-0 (-2)-vertices.
    """
    weights, rows, c, local = _system_without(g, {i for s in stretched for i in s.chain[1:-1]})
    for s in stretched:
        p, q = local[s.chain[0]], local[s.chain[-1]]
        weights[p] = weights[q] = -1
        rows[p].pop(q, None)
        rows[q].pop(p, None)
    return weights, rows, c, local


def _definite_solution(g: WeightedDualGraph) -> tuple[list[int], int]:
    """(y, d) of g's own system M m = c (`_solution`); PreconditionError
    unless g is negative definite, as every limit needs."""
    return _solution(*_graph_system(g), PreconditionError("limit needs a negative definite graph"))


def limit_k_squared(g: WeightedDualGraph, strings: Sequence[StringDescriptor]) -> Fraction:
    """Limit of -K^2 as every designated string length goes to infinity.

    g must be negative definite (PreconditionError), and the strings must
    be maximal strings of g (`_resolve_designated`).  Strings are processed
    in designation order.  For each one the end coefficients m_p, m_q of
    the current system are compared: when they agree the value is constant
    in that direction and the string is frozen at its current length;
    otherwise it goes to its limit (`_limit_system`).  Every system is
    factored once by `_solution`, g included: the factorization that checks
    g also solves its system, which is the first one whenever no string
    has to be spliced longer first.  The pivots decide: a matrix that is
    not negative semidefinite means the stretched family leaves the
    negative definite class (PreconditionError); a singular one is
    reported via SingularLimitError, never guessed at.  `kdg limit` checks
    g and resolves the strings once for this and the cross-check, and
    calls `_limit_along`.
    """
    solved = _definite_solution(g)
    return _limit_along(g, _resolve_designated(g, strings), solved)


def _limit_along(
    g: WeightedDualGraph, strings: Sequence[StringDescriptor], solved: tuple[list[int], int]
) -> Fraction:
    """`limit_k_squared` on strings as `_resolve_designated` gives them, with
    `solved` g's (y, d) from `_definite_solution`."""
    descs = list(strings)
    work = g
    for i in range(len(descs)):
        if len(descs[i].chain) < 2:
            # splice to length 2 first: the limit direction only depends on
            # the family, and in the frozen branch the value is constant, so
            # the reported number is unchanged either way
            work, grown = _splice(work, descs[i], 2)
            assert grown is not None
            descs[i] = grown
    indefinite = PreconditionError(
        "limit matrix is not negative semidefinite;"
        " the stretched family leaves the negative definite class"
    )
    singular = SingularLimitError("intermediate limit matrix is singular; no finite limit reported")
    stretched: list[StringDescriptor] = []
    y = None
    if work is g:
        weights, adj, c = _graph_system(g)
        local = range(len(g))  # g's own system drops no vertex
        y, d = solved
    for s in descs:
        if y is None:
            weights, adj, c, local = _limit_system(work, stretched)
            y, d = _solution(weights, adj, c, indefinite, singular)
        if y[local[s.chain[0]]] != y[local[s.chain[-1]]]:
            stretched.append(s)
            y = None
    if y is None:
        weights, adj, c, _ = _limit_system(work, stretched)
        singular = SingularLimitError(
            "limit matrix is singular; the value diverges or needs analysis beyond this procedure"
        )
        y, d = _solution(weights, adj, c, indefinite, singular)
    return _checked_k_squared(weights, adj, c, y, d)


def mobius_limit_crosscheck(g: WeightedDualGraph, s: StringDescriptor) -> Union[Fraction, object]:
    """Independent check of a single-string limit.

    -K^2 along one stretched string is a degree-(1,1) rational function of
    the length L, so three exact samples pin it down.  Samples are taken at
    L in {0, 1, 2}; when length 0 cannot be built (both attachments on one
    vertex) the window shifts to the current length.  g must be negative
    definite, as `limit_k_squared` also checks first (PreconditionError),
    and s a maximal string of g.  Each member is factored once, -K^2
    checked two ways (`_graph_k_squared`); `kdg limit` checks g and
    resolves s once for both procedures and calls `_fitted_limit`.
    Shrinking a (-2) string keeps definiteness, so a member that is not
    definite has every longer one fail too, and its
    `NotNegativeDefiniteError` is raised as is.
    Returns the fitted limit a/c, or UNBOUNDED when the fit is linear
    (c = 0 with a != 0).  A fit (aL + b)/(cL + d) with a pole -d/c beyond
    the sampled lengths raises PreconditionError: up to the sign (-1)^L,
    the determinant of a member is affine in L, so the pole is where it
    vanishes, and the members past it are not negative definite.
    """
    _definite_solution(g)
    (desc,) = _resolve_designated(g, [s])
    return _fitted_limit(g, desc)


def _fitted_limit(g: WeightedDualGraph, desc: StringDescriptor) -> Union[Fraction, object]:
    """`mobius_limit_crosscheck` on a negative definite g and a string as
    `_resolve_designated` gives it."""

    def member_k2(length: int) -> Fraction:
        return _graph_k_squared(_splice(g, desc, length)[0])

    lengths = [0, 1, 2]
    try:
        values = [member_k2(0)]
    except PreconditionError:
        base = max(2, len(desc.chain))
        lengths = [base, base + 1, base + 2]
        values = [member_k2(base)]
    values += [member_k2(length) for length in lengths[1:]]
    if values[0] == values[1] == values[2]:
        return values[0]
    rows = [
        [Fraction(length), Fraction(1), -value * length, -value]
        for length, value in zip(lengths, values)
    ]
    kernel = nullspace(rows)
    if len(kernel) != 1:
        raise InternalCheckError("degenerate rational fit in limit cross-check")
    a, b, c, d = kernel[0]
    if c != 0:
        pole = -d / c
        if pole > lengths[-1]:
            raise PreconditionError(
                f"the fitted -K^2 has a pole at string length {rat_str(pole)};"
                " the stretched family leaves the negative definite class"
            )
        return a / c
    if a != 0:
        return UNBOUNDED
    raise InternalCheckError("rational fit collapsed to a constant unexpectedly")
