"""Graph surgeries and the exact identities that control -K^2 under them.

Three related pieces live here:

* chain insertion: replacing a multiplicity-1 edge between two genus-0
  (-2)-vertices by a chain of n fresh (-2)-vertices, together with the
  exact bookkeeping (`verify_insertion`) showing how -K^2 grows;
* string contraction: eliminating such a chain from the linear system
  (`_hirzebruch_jung`).  The Schur complement of an n-chain block is
  explicit: the two endpoint "props" get diagonal -(n+2)/(n+1) and mutual
  entry 1/(n+1), everything else is untouched;
* limits: letting designated string lengths go to infinity.  The contracted
  block converges entrywise to diagonal -1, coupling 0; strings whose two
  end coefficients already agree contribute a constant and are frozen at
  their current length instead.  After g's own factorization every limit
  system is the core of g, g less the interiors of the designated strings
  (`_limit_core`), so it is factored at the size of the core, not of g.
  `limit_k_squared` and its cross-check `mobius_limit_crosscheck` are the
  one entry point each, for the library and for `kdg limit` alike.

A graph's maximal strings are found by one walk and kept with it
(`_strings`), so every designation is resolved by one lookup; a
descriptor is accepted only when it is one of them, read in either
direction (`_maximal`), and `with_string_length` takes no other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from typing import NamedTuple, Optional, Sequence, Union

from .errors import (
    InternalCheckError,
    NotNegativeDefiniteError,
    PreconditionError,
    SingularLimitError,
)
from .graph import (
    Edge,
    VertexData,
    WeightedDualGraph,
    adjunction_degrees,
    validate,
)
from .invariants import _checked_k_squared, _graph_system, k_squared
from .rational import UNBOUNDED, factor, lcm_denominators, nullspace, rat_str, solve


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
    chains.
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


def _hirzebruch_jung(weights: list[int], rows: list[dict[int, int]], p: int, q: int, n: int) -> None:
    """Eliminate a chain of n (-2)-vertices between rows p and q in place,
    rows p and q of genus-0 (-2)-vertices already without it, or joined by
    the one edge that the chain replaces (an insertion site).  The chain
    carries no adjunction weight, so this is plain block elimination: it
    leaves -(n+2)/(n+1) on the diagonal of p and q and 1/(n+1) between
    them, and both rows are scaled by n + 1, which makes them integral.  c
    vanishes at p and q, so the system has the same solution m and the
    same t(m) M m = m.c as the block-eliminated one; its determinant is
    (n+1)^2 times that one's."""
    for r in (p, q):
        weights[r] = -(n + 2)
        rows[r] = {j: (n + 1) * mult for j, mult in rows[r].items()}
    rows[p][q] = rows[q][p] = 1


def _system_without(
    g: WeightedDualGraph, dropped: set[int]
) -> tuple[list[int], list[dict[int, int]], list[int], dict[int, int]]:
    """M m = c for g without the `dropped` vertices: (diagonal of M, new
    adjacency maps, c, position of each kept vertex of g), built from
    `g.adjacency()` in O(n + edges)."""
    adj = g.adjacency()
    degrees = adjunction_degrees(g)
    local = {v: k for k, v in enumerate(i for i in range(len(g)) if i not in dropped)}
    weights = [g._weights[v] for v in local]
    rows = [{local[j]: mult for j, mult in adj[v].items() if j in local} for v in local]
    return weights, rows, [degrees[v] for v in local], local


def verify_insertion(g: WeightedDualGraph, site: InsertionSite, n: int) -> InsertionIdentityReport:
    """Insert a chain of n (-2)-vertices at the site and check every exact
    identity relating the old and new canonical data.

    g, the inserted graph and the inserted graph with its new chain
    eliminated are factored once each, the two graphs by their own kept
    factorization, -K^2 checked two ways.  The last system is g's own with
    its site edge replaced by the chain's block (`_hirzebruch_jung` on a
    copy of g's rows).
    All comparisons are exact rational equalities; the report lists each
    one with its two sides so a failure is auditable.
    """
    _check_site(g, site)
    if n < 1:
        raise PreconditionError(f"insertion length must be >= 1, got {n}")

    def solved(system, f, not_definite):
        y, d = solve(f, not_definite)
        k2 = _checked_k_squared(*system, y, d)
        return tuple(Fraction(v, d) for v in y), k2, Fraction(d)

    m_before, k2_before, det_base = solved(
        _graph_system(g), g._factorization, NotNegativeDefiniteError("base graph must be negative definite")
    )
    stretched = insert_minus2(g, site, n)
    # the notion is only defined between negative definite divisors;
    # long chains at a trivalent hub can leave that class
    m_full, k2_after, _ = solved(
        _graph_system(stretched),
        stretched._factorization,
        NotNegativeDefiniteError(
            f"inserting {n} vertices at ({g.vertices[site.a].id}, "
            f"{g.vertices[site.b].id}) leaves the negative definite class"
        ),
    )
    # contracted system: the new chain eliminated, same index set as g; as
    # a Schur complement of a negative definite matrix it is one too
    a, b = site.a, site.b
    weights, rows, c = _graph_system(g)
    rows = list(rows)  # g's own maps stay as they are
    _hirzebruch_jung(weights, rows, a, b, n)
    m_after, k2_contracted, det_scaled = solved(
        (weights, rows, c),
        factor(weights, rows, c),
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
    """Maximal chains of genus-0 (-2)-vertices, in the order of their least
    vertex, each listed from its end of least index.

    A vertex can sit on a chain when its total intersection degree is at
    most 2 and every incident edge has multiplicity 1; branch points are
    therefore never part of a chain.  Components that close into cycles are
    skipped (they are never negative definite).  Chains covering a whole
    connected component are reported with both attachments None.  A new
    list on each call, of the strings g keeps (`_strings`).
    """
    return list(_strings(g).values())


def _strings(g: WeightedDualGraph) -> dict[int, StringDescriptor]:
    """`detect_strings(g)` keyed by each string's least end, found by one
    walk per graph over the adjacency maps: each chain is followed both
    ways from its least vertex, and every vertex is visited once.  Kept in
    g's instance dict beside its factorization, so equality and hashing
    never see it."""
    found = g.__dict__.get("_strings")
    if found is not None:
        return found
    adj = g.adjacency()
    # open_[i]: i may sit on a chain, and no walk has reached it yet
    open_ = [
        genus == 0 and self_int == -2 and len(row) <= 2 and sum(row.values()) == len(row)
        for (_, genus, self_int), row in zip(g.vertices, adj)
    ]
    found = {}
    for i, row in enumerate(adj):
        if not open_[i]:
            continue
        open_[i] = False
        halves = []
        for nxt in row:
            if not open_[nxt]:
                continue
            half = []
            while nxt is not None:
                cur, nxt = nxt, None
                open_[cur] = False
                half.append(cur)
                for k in adj[cur]:
                    if open_[k]:
                        nxt = k
                        break
            halves.append(half)
        if len(halves) == 1 and len(halves[0]) > 1 and i in adj[halves[0][-1]]:
            continue  # the walk went round a cycle
        first, second = (halves + [[], []])[:2]
        chain = first[::-1] + [i] + second
        if chain[-1] < chain[0]:
            chain.reverse()
        if len(chain) == 1:
            left, right = (sorted(row) + [None, None])[:2]
        else:
            left = next((k for k in adj[chain[0]] if k != chain[1]), None)
            right = next((k for k in adj[chain[-1]] if k != chain[-2]), None)
        found[chain[0]] = StringDescriptor(tuple(chain), left, right)
    g.__dict__["_strings"] = found
    return found


def _maximal(g: WeightedDualGraph, s: StringDescriptor) -> StringDescriptor:
    """The maximal string of g that s is, read in either direction, as
    `detect_strings` gives it; PreconditionError for any other descriptor."""
    match = _strings(g).get(min(s.chain[0], s.chain[-1])) if s.chain else None
    if match is None or (s != match and s != match.reversed()):
        raise PreconditionError("string is not a maximal string of this graph")
    return match


def with_string_length(
    g: WeightedDualGraph, s: StringDescriptor, length: int
) -> tuple[WeightedDualGraph, Optional[StringDescriptor]]:
    """The family member with this string spliced to the given total length.

    s must be a maximal string of g (`detect_strings`), read in either
    direction (PreconditionError).  Extending appends fresh (-2)-vertices
    at the far end of s (existing indices are preserved); shrinking removes
    chain vertices from the far end and, at length 0, joins the two
    attachments directly (bumping an existing edge).  Returns the new graph
    and the updated descriptor (None at length 0).
    """
    _maximal(g, s)
    if length < 0:
        raise PreconditionError(f"string length must be >= 0, got {length}")
    return _splice(g, s, length)


def _splice(
    g: WeightedDualGraph, s: StringDescriptor, length: int
) -> tuple[WeightedDualGraph, Optional[StringDescriptor]]:
    """`with_string_length` on a maximal string, or on the empty chain
    between two adjacent attachments (an insertion site).  Built by
    index from g's records in O(n + edges): the member's vertices are g's
    in order, less the removed chain vertices or followed by the new ones,
    and its edges are ordered by index pair."""
    k = len(s.chain)
    if length == k:
        return g, s
    left, right = s.left, s.right
    if length > k:
        n = len(g)
        vertices = g.vertices + tuple(VertexData(v, 0, -2) for v in _fresh_ids(g, length - k))
        chain = s.chain + tuple(range(n, n + length - k))
        run = (s.chain[-1] if s.chain else left,) + chain[k:]
        edges = list(g.edges)
        if right is not None:
            edges.remove(tuple(sorted((run[0], right))) + (1,))
            edges.append((right, run[-1], 1))
        edges += [(a, b, 1) for a, b in zip(run, run[1:])]
    else:
        if length == 0 and left is not None and left == right:
            # joining would turn the cycle into a self-intersecting curve
            raise PreconditionError("cannot shrink to length 0: both attachments are the same vertex")
        removed = set(s.chain[length:])
        vertices = tuple(v for i, v in enumerate(g.vertices) if i not in removed)
        pos = list(accumulate((i not in removed for i in range(len(g))), initial=0))
        edges = [(pos[a], pos[b], m) for a, b, m in g.edges if a not in removed and b not in removed]
        end = s.chain[length - 1] if length else left
        if end is not None and right is not None:
            # the chain's new last vertex, or at length 0 its left
            # attachment, meets its right one: a new edge or one more
            m = g.edge_mult(end, right)
            pair = tuple(sorted((pos[end], pos[right])))
            if m:
                edges.remove(pair + (m,))
            edges.append(pair + (m + 1,))
        chain = tuple(pos[i] for i in s.chain[:length])
        left, right = (None if x is None else pos[x] for x in (left, right))
    edges.sort()
    # `Edge._make` less its length check: each pair is a triple
    member = WeightedDualGraph(vertices, tuple(map(tuple.__new__, repeat(Edge), edges)))
    return member, (StringDescriptor(chain, left, right) if chain else None)


def _resolve_designated(
    g: WeightedDualGraph, strings: Sequence[StringDescriptor]
) -> list[StringDescriptor]:
    """The maximal strings of g that `strings` designate, in order, as
    `detect_strings` gives them (`_maximal`); PreconditionError for any
    other descriptor, for a repeated string and for one that covers a whole
    component."""
    if not strings:
        raise PreconditionError("at least one designated string is required")
    resolved = [_maximal(g, s) for s in strings]
    if len({s.chain[0] for s in resolved}) != len(resolved):
        raise PreconditionError("designated strings must be pairwise distinct")
    for s in resolved:
        if s.left is None and s.right is None:
            raise PreconditionError("a string covering a whole component cannot be stretched")
    return resolved


def _limit_core(
    g: WeightedDualGraph, strings: Sequence[StringDescriptor]
) -> tuple[list[int], list[dict[int, int]], list[int], dict[int, int], list[tuple[int, int]]]:
    """The core of g for `strings` as `_resolve_designated` gives them: g
    less the strings' interiors, each string held at its length by its two
    ends (`_hirzebruch_jung`); one of length 1 gets a second end, a new
    (-2) row before its right attachment, so it is held at length 2.
    Returns (diagonal, adjacency maps, c, the row of each kept vertex of g,
    the two end rows of each string).  The interiors are negative definite
    (A_n), so by inertia additivity (Haynsworth, Linear Algebra Appl. 1,
    1968) the core is negative definite, semidefinite or singular exactly
    when the graph it stands for is, and has its solution of M m = c on
    the kept vertices."""
    weights, rows, c, local = _system_without(g, {i for s in strings for i in s.chain[1:-1]})
    ends = []
    for s in strings:
        p = local[s.chain[0]]
        if len(s.chain) > 1:
            q = local[s.chain[-1]]
            if len(s.chain) > 2:
                _hirzebruch_jung(weights, rows, p, q, len(s.chain) - 2)
        else:
            q = len(rows)
            weights.append(-2)
            c.append(0)
            rows.append({p: 1})
            rows[p][q] = 1
            if s.right is not None:
                r = local[s.right]
                del rows[p][r], rows[r][p]
                rows[r][q] = rows[q][r] = 1
        ends.append((p, q))
    return weights, rows, c, local, ends


#: Designated strings times core rows (`_limit_core`) over which a limit
#: is refused with a `PreconditionError` (exit code 4) before any core
#: system is factored: it factors at most one per string, plus one.
LIMIT_WORK_BUDGET = 1_000_000


def limit_k_squared(g: WeightedDualGraph, strings: Sequence[StringDescriptor]) -> Fraction:
    """Limit of -K^2 as every designated string length goes to infinity.

    g must be negative definite (PreconditionError), and the strings must
    be maximal strings of g (`_resolve_designated`).  Strings are processed
    in designation order.  For each one the end coefficients m_p, m_q of
    the current system are compared: when they agree the value is constant
    in that direction and the string is frozen at its current length, a
    string of length 1 at length 2; otherwise it goes to its limit.

    Every system is the core of g (`_limit_core`), each designated string
    in it either at its length or at its limit (ends -1, no coupling),
    factored once (`solve(factor(...))`) at the size of the core.  The
    first one, every string at its length, has g's own solution on the
    core, read off g's factorization, so it is factored only when a string
    of length 1 added a row; each stretched string sets up the next one.
    More strings times core rows than `LIMIT_WORK_BUDGET` are refused
    before any of them is factored.  The pivots decide: a matrix that is
    not negative semidefinite means the stretched family leaves the
    negative definite class (PreconditionError); a singular one is
    reported via SingularLimitError, never guessed at.
    """
    y, d = solve(g._factorization, PreconditionError("limit needs a negative definite graph"))
    strings = _resolve_designated(g, strings)
    weights, rows, c, local, ends = _limit_core(g, strings)
    if len(strings) * len(rows) > LIMIT_WORK_BUDGET:
        raise PreconditionError(f"limit of {len(strings)} strings on a {len(rows)}-vertex core"
                                f" exceeds its budget of {LIMIT_WORK_BUDGET} strings times core vertices")
    indefinite = PreconditionError(
        "limit matrix is not negative semidefinite;"
        " the stretched family leaves the negative definite class"
    )
    singular = SingularLimitError("intermediate limit matrix is singular; no finite limit reported")
    # g's own solution on the core, unless a string of length 1 added a row
    y = [y[v] for v in local] if len(local) == len(rows) else None
    for p, q in ends:
        if y is None:
            y, d = solve(factor(weights, rows, c), indefinite, singular)
        if y[p] != y[q]:
            weights[p] = weights[q] = -1
            rows[p] = {j: 1 for j in rows[p] if j != q}
            rows[q] = {j: 1 for j in rows[q] if j != p}
            y = None
    if y is None:
        singular = SingularLimitError(
            "limit matrix is singular; the value diverges or needs analysis beyond this procedure"
        )
        y, d = solve(factor(weights, rows, c), indefinite, singular)
    return _checked_k_squared(weights, rows, c, y, d)


def mobius_limit_crosscheck(g: WeightedDualGraph, s: StringDescriptor) -> Union[Fraction, object]:
    """Independent check of a single-string limit.

    -K^2 along one stretched string is a degree-(1,1) rational function of
    the length L, so three exact samples pin it down.  Samples are taken at
    L in {0, 1, 2}; when length 0 cannot be built (both attachments on one
    vertex) the window shifts to the current length.  g must be negative
    definite, as `limit_k_squared` also checks first (PreconditionError),
    and s a maximal string of g.  Each member is factored once, -K^2
    checked two ways (`k_squared`); the member at the string's own length
    is g itself.
    Shrinking a (-2) string keeps definiteness, so a member that is not
    definite has every longer one fail too, and its
    `NotNegativeDefiniteError` is raised as is.
    Returns the fitted limit a/c, or UNBOUNDED when the fit is linear
    (c = 0 with a != 0).  A fit (aL + b)/(cL + d) with a pole -d/c beyond
    the sampled lengths raises PreconditionError: up to the sign (-1)^L,
    the determinant of a member is affine in L, so the pole is where it
    vanishes, and the members past it are not negative definite.
    """
    solve(g._factorization, PreconditionError("limit needs a negative definite graph"))
    (desc,) = _resolve_designated(g, [s])

    def member_k2(length: int) -> Fraction:
        # at the string's own length `_splice` returns g, factored already
        return k_squared(_splice(g, desc, length)[0])

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
