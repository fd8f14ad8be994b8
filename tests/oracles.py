"""Independent oracles used by the test suite.

Everything here is deliberately implemented by a different method than the
library code it checks: determinants by cofactor expansion instead of
fraction-free elimination, elimination by the textbook dense Bareiss update
of every row at every step instead of the lazily scaled sparse one,
definiteness through the characteristic
polynomial instead of pivots/minors, t(v) M v as the double sum over
every entry of the dense matrix instead of the sparse form over the
adjacency maps, fundamental cycles by brute
enumeration of a coefficient box instead of Laufer's algorithm, and the
maximal arithmetic genus by visiting every cycle of the box instead of the
pruned search, and the enumeration by filling every matrix of the box with
no pruning and minimizing over every vertex permutation instead of the
pruned search and its stabilizer scan, the orderly prefix lemma by
trying every permutation of each leading block instead of the search's
per-column data stabilizers, string limits by Schur contraction of
each string to its two ends and Gauss-Jordan elimination over `Fraction`s
instead of integer rows factored without row swaps, and again by the
sequential procedure on whole spliced graphs, one system per stretched
string, instead of the core systems; maximal strings by growing each
component of eligible vertices and then walking it, instead of one walk;
string splices by edge maps keyed by vertex ids and rebuilt through
`build_graph`, instead of by index; and the values of a
chain insertion from the dense inserted matrix, its chain eliminated by a
Schur complement computed column by column, instead of the closed-form
contraction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import prod
from typing import Optional, Sequence

import numpy as np

from kdg.errors import PreconditionError, SingularLimitError
from kdg.graph import VertexData, WeightedDualGraph, adjunction_degrees, build_graph, intersection_matrix
from kdg.invariants import _checked_k_squared, _graph_system, fundamental_cycle
from kdg.rational import factor, solve
from kdg.transforms import StringDescriptor, _is_minus2


def cofactor_det(m) -> Fraction:
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    sign = 1
    for col in range(n):
        if m[0][col] != 0:
            minor = [[row[c] for c in range(n) if c != col] for row in m[1:]]
            total += sign * Fraction(m[0][col]) * cofactor_det(minor)
        sign = -sign
    return total


def dense_bareiss(rows, cols: int):
    """Textbook fraction-free elimination (Bareiss, Math. Comp. 22, 1968).

    Every row below the pivot is updated at every step, zero multiplier or
    not, and each division is checked to be exact.  A zero pivot is
    replaced by the first row below with a nonzero in its column.  Returns
    (rows, swaps, None), or (None, None, k) when column k has no nonzero
    pivot candidate.
    """
    a = [list(row) for row in rows]
    n = len(a)
    swaps = 0
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            below = [i for i in range(k + 1, n) if a[i][k] != 0]
            if not below:
                return None, None, k
            a[k], a[below[0]] = a[below[0]], a[k]
            swaps += 1
        for i in range(k + 1, n):
            for j in range(k + 1, cols):
                q, r = divmod(a[k][k] * a[i][j] - a[i][k] * a[k][j], prev)
                assert r == 0, "Bareiss division is not exact"
                a[i][j] = q
            a[i][k] = 0
        prev = a[k][k]
    return a, swaps, None


def char_poly(m) -> list[Fraction]:
    """Coefficients [1, c1, ..., cn] of det(x*I - M), exact Faddeev-LeVerrier.

    A coefficient that is an integer is kept as an int, so an integer matrix
    (whose coefficients are all integers) is worked in integer arithmetic."""
    n = len(m)
    mm = [list(row) for row in m]
    coeffs = [Fraction(1)]
    ak = [row[:] for row in mm]
    for k in range(1, n + 1):
        ck = Fraction(-sum(ak[i][i] for i in range(n)), k)
        if ck.denominator == 1:
            ck = ck.numerator
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            ak[i][i] += ck
        ak = [
            [sum(mm[i][t] * ak[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def negdef_by_charpoly(m) -> bool:
    """All eigenvalues negative iff every char poly coefficient is positive.

    Symmetric input has real spectrum, so det(x*I - M) factors over the
    reals; all roots negative is then equivalent to all coefficients of the
    monic polynomial being strictly positive.
    """
    return all(c > 0 for c in char_poly(m)[1:])


def dense_form(m, v) -> Fraction:
    """t(v) M v as the double sum of v_i M_ij v_j over every entry of the
    dense matrix M."""
    n = len(m)
    return sum((Fraction(v[i]) * m[i][j] * v[j] for i in range(n) for j in range(n)), Fraction(0))


def fraction_solve(m, c):
    """x with m x = c, by Gauss-Jordan elimination over `Fraction`s with row
    swaps, or None when m is singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(ci)] for row, ci in zip(m, c)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return None
        a[k], a[pivot] = a[pivot], a[k]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][n] / a[i][i] for i in range(n)]


def schur_limit(g: WeightedDualGraph, strings):
    """Reference for `limit_k_squared` on maximal strings of g.

    Every string shorter than 2 is spliced to length 2, and every string of
    n interior vertices is eliminated from the intersection matrix: its two
    ends get -(n+2)/(n+1) on the diagonal and 1/(n+1) between them.  In
    designation order, a string whose end coefficients differ goes to its
    limit, -1 and 0, and one whose coefficients agree keeps its block.
    Returns (outcome, semidefinite): the limit of -K^2, or "intermediate" or
    "final" for the first matrix solved that is singular; and whether every
    matrix solved up to there is negative semidefinite, which for a
    symmetric matrix means every coefficient of det(x*I - M) is >= 0 (here
    of a positive integer multiple of M).
    """
    descs = list(strings)
    for i, s in enumerate(descs):
        if len(s.chain) < 2:
            g, descs[i] = id_splice(g, s, 2)
    interior = {v for s in descs for v in s.chain[1:-1]}
    keep = [v for v in range(len(g)) if v not in interior]
    local = {v: k for k, v in enumerate(keep)}
    full = intersection_matrix(g)
    m = [[Fraction(full[i][j]) for j in keep] for i in keep]
    ends = [(local[s.chain[0]], local[s.chain[-1]]) for s in descs]
    for (p, q), s in zip(ends, descs):
        n = len(s.chain) - 2
        m[p][p] = m[q][q] = Fraction(-(n + 2), n + 1)
        m[p][q] = m[q][p] = Fraction(1, n + 1)
    degrees = adjunction_degrees(g)
    c = [degrees[v] for v in keep]
    semidefinite = True

    def solved():
        nonlocal semidefinite
        scale = prod({x.denominator for row in m for x in row})
        poly = char_poly([[int(x * scale) for x in row] for row in m])
        semidefinite = semidefinite and all(x >= 0 for x in poly[1:])
        return fraction_solve(m, c)

    for p, q in ends:
        x = solved()
        if x is None:
            return "intermediate", semidefinite
        if x[p] != x[q]:
            m[p][p] = m[q][q] = Fraction(-1)
            m[p][q] = m[q][p] = Fraction(0)
    x = solved()
    if x is None:
        return "final", semidefinite
    return -sum(xi * ci for xi, ci in zip(x, c)), semidefinite


def insertion_values(g: WeightedDualGraph, a: int, b: int, n: int):
    """Reference for `verify_insertion(g, site(a, b), n)`: (det_base,
    det_contracted, m_site, m_site_after, k2_before, k2_after), or None
    when the inserted graph is not negative definite.

    The inserted matrix is written down densely (the edge a-b replaced by
    a - w1 - ... - wn - b, each w a (-2)-vertex), its chain block D is
    eliminated by the Schur complement S = A - B D^-1 t(B), one
    `fraction_solve` per column, and each system is solved by
    `fraction_solve`, its determinant taken by `cofactor_det`.
    """
    size = len(g)
    big = [[Fraction(x) for x in row] + [Fraction(0)] * n for row in intersection_matrix(g)]
    big += [[Fraction(0)] * (size + n) for _ in range(n)]
    big[a][b] = big[b][a] = Fraction(0)
    path = [a, *range(size, size + n), b]
    for u, v in zip(path, path[1:]):
        big[u][v] = big[v][u] = Fraction(1)
    for w in range(size, size + n):
        big[w][w] = Fraction(-2)
    if not negdef_by_charpoly(big):
        return None
    c = list(adjunction_degrees(g))
    chain = [row[size:] for row in big[size:]]
    reduced = [fraction_solve(chain, row[size:]) for row in big[:size]]  # D^-1 t(B), by columns
    schur = [
        [big[i][j] - sum(x * y for x, y in zip(big[i][size:], reduced[j])) for j in range(size)]
        for i in range(size)
    ]
    m_before = fraction_solve(intersection_matrix(g), c)
    m_full = fraction_solve(big, c + [0] * n)
    m_after = fraction_solve(schur, c)
    return (
        cofactor_det(intersection_matrix(g)),
        cofactor_det(schur),
        (m_before[a], m_before[b]),
        (m_after[a], m_after[b]),
        -sum(x * y for x, y in zip(m_before, c)),
        -sum(x * y for x, y in zip(m_full, c)),
    )


def quad_form_counterexample(m, vectors) -> tuple | None:
    """First nonzero v among the given ones with t(v) M v >= 0, else None."""
    n = len(m)
    for v in vectors:
        if all(x == 0 for x in v):
            continue
        value = sum(Fraction(m[i][j]) * v[i] * v[j] for i in range(n) for j in range(n))
        if value >= 0:
            return tuple(v)
    return None


def _box_chunks(box, chunk: int):
    """All integral points 0 <= D <= box, as int64 arrays of at most `chunk` rows."""
    dims = [int(b) + 1 for b in box]
    r = len(dims)
    total = prod(dims)
    strides = [0] * r
    acc = 1
    for i in range(r - 1, -1, -1):
        strides[i] = acc
        acc *= dims[i]
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cand = np.empty((idx.size, r), dtype=np.int64)
        for i in range(r):
            cand[:, i] = (idx // strides[i]) % dims[i]
        yield cand


def box_pa_max(g: WeightedDualGraph, bound: int, chunk: int = 200_000) -> int:
    """Max of p_a(D) = 1 + (D^2 + K.D)/2 over every integral 0 < D <= bound * Z,
    visiting each point of the box.  Z comes from Laufer's sequence, which
    the tests check against `box_min_anti_nef`."""
    z = fundamental_cycle(g).as_ints()
    m = np.array([[int(x) for x in row] for row in intersection_matrix(g)], dtype=np.int64)
    c = np.array([int(x) for x in adjunction_degrees(g)], dtype=np.int64)
    best = None
    for cand in _box_chunks([bound * zi for zi in z], chunk):
        cand = cand[cand.sum(axis=1) > 0]
        if cand.size == 0:
            continue
        twice = ((cand @ m) * cand).sum(axis=1) + cand @ c
        assert (twice % 2 == 0).all(), "D^2 + K.D must be even"
        top = 1 + int(twice.max()) // 2
        best = top if best is None else max(best, top)
    assert best is not None, "empty box"
    return best


def box_min_anti_nef(g: WeightedDualGraph, box, chunk: int = 200_000) -> tuple[int, ...]:
    """Componentwise-minimal cycle 0 < D <= box with D.A_i <= 0 for all i.

    The set of positive anti-nef cycles is closed under componentwise min,
    so it has a unique minimal element Z; whenever Z lies inside the box
    (true for the classical ADE boxes used by the tests), the minimum over
    the box equals Z.  Enumeration is vectorized and chunked so the E8 box
    (7^8 candidates) stays cheap.
    """
    m = np.array([[int(x) for x in row] for row in intersection_matrix(g)], dtype=np.int64)
    assert len(box) == len(g)
    best: np.ndarray | None = None
    for cand in _box_chunks(box, chunk):
        mask = ((cand @ m) <= 0).all(axis=1) & (cand.sum(axis=1) > 0)
        if mask.any():
            low = cand[mask].min(axis=0)
            best = low if best is None else np.minimum(best, low)
    assert best is not None, "no anti-nef cycle in the box"
    assert (best @ m <= 0).all() and best.sum() > 0, "componentwise min is not anti-nef"
    return tuple(int(x) for x in best)


ADE_BOX_BOUND = {"A": 1, "D": 2, "E6": 3, "E7": 4, "E8": 6}


def _is_connected(m) -> bool:
    n = len(m)
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if m[i][j] and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def brute_force_encodings(bounds) -> list[str]:
    """Sorted encodings of every admissible graph in an enumeration box.

    Vertex data are (genus, self) with genus <= max_genus and
    min_self <= self <= -1, except the genus-0 (-1)-vertex (not minimal).
    Every multiset of at most max_vertices of them gets every symmetric
    filling with multiplicities 0..max_edge_multiplicity, and the connected
    (when the box asks for it) negative definite ones, by the
    characteristic polynomial, are kept.  Each is encoded through the
    lexicographic minimum, over all vertex permutations, of the vertex data
    followed by the upper triangle read column by column.
    """
    options = [
        (g, w)
        for g in range(bounds.max_genus + 1)
        for w in range(bounds.min_self, 0)
        if (g, w) != (0, -1)
    ]
    found = set()
    for r in range(1, bounds.max_vertices + 1):
        pairs = [(i, j) for j in range(r) for i in range(j)]
        perms = list(permutations(range(r)))
        for data in combinations_with_replacement(options, r):
            for mults in product(range(bounds.max_edge_multiplicity + 1), repeat=len(pairs)):
                m = [[0] * r for _ in range(r)]
                for k, (_, w) in enumerate(data):
                    m[k][k] = w
                for (i, j), x in zip(pairs, mults):
                    m[i][j] = m[j][i] = x
                if bounds.connected_only and not _is_connected(m):
                    continue
                if not negdef_by_charpoly(m):
                    continue
                vertex_data, upper = min(
                    (tuple(data[p[k]] for k in range(r)), tuple(m[p[i]][p[j]] for i, j in pairs))
                    for p in perms
                )
                left = ";".join(f"{g},{w}" for g, w in vertex_data)
                right = ";".join(f"{i}-{j}:{x}" for (i, j), x in zip(pairs, upper) if x)
                found.add(f"{left}|{right}")
    return sorted(found)


def encoded_matrix(encoding: str) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The (genus, self) pairs of an encoded graph and its symmetric matrix
    of edge multiplicities (zero diagonal), parsed here."""
    head, _, tail = encoding.partition("|")
    data = [tuple(int(x) for x in part.split(",")) for part in head.split(";")]
    m = [[0] * len(data) for _ in data]
    for part in filter(None, tail.split(";")):
        pair, x = part.split(":")
        i, j = (int(v) for v in pair.split("-"))
        m[i][j] = m[j][i] = int(x)
    return data, m


def leading_blocks_minimal(encoding: str) -> bool:
    """Whether every leading block of an encoded graph, on vertices {0..k},
    read column by column, is lexicographically minimal among its images
    under the permutations of {0..k} that keep every vertex's (genus, self).
    Every permutation of {0..k} is tried."""
    data, m = encoded_matrix(encoding)
    r = len(data)
    for k in range(r):
        pairs = [(i, j) for j in range(k + 1) for i in range(j)]
        block = [m[i][j] for i, j in pairs]
        for p in permutations(range(k + 1)):
            if all(data[p[a]] == data[a] for a in range(k + 1)):
                if [m[p[i]][p[j]] for i, j in pairs] < block:
                    return False
    return True


# The sequential limit procedure: every string shorter than 2 is spliced to
# length 2 in the graph itself, and every limit system is that whole graph
# less the interiors of the strings stretched so far (`full_limit_system`),
# so the strings held at their length keep all their vertices.  With it,
# the string detection and the id-keyed splice it was written on.


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


def component_strings(g: WeightedDualGraph) -> list[StringDescriptor]:
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


def id_splice(
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


def full_limit_system(
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


def sequential_limit(
    g: WeightedDualGraph, strings: Sequence[StringDescriptor], solved: tuple[list[int], int]
) -> Fraction:
    """`limit_k_squared` on strings as `_resolve_designated` gives them, with
    `solved` g's (y, d) of M m = c, which the caller solves."""
    descs = list(strings)
    work = g
    for i in range(len(descs)):
        if len(descs[i].chain) < 2:
            # splice to length 2 first: the limit direction only depends on
            # the family, and in the frozen branch the value is constant, so
            # the reported number is unchanged either way
            work, grown = id_splice(work, descs[i], 2)
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
            weights, adj, c, local = full_limit_system(work, stretched)
            y, d = solve(factor(weights, adj, c), indefinite, singular)
        if y[local[s.chain[0]]] != y[local[s.chain[-1]]]:
            stretched.append(s)
            y = None
    if y is None:
        weights, adj, c, _ = full_limit_system(work, stretched)
        singular = SingularLimitError(
            "limit matrix is singular; the value diverges or needs analysis beyond this procedure"
        )
        y, d = solve(factor(weights, adj, c), indefinite, singular)
    return _checked_k_squared(weights, adj, c, y, d)
