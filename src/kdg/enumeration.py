"""Bounded exhaustive enumeration of admissible graphs up to isomorphism.

Generation walks vertex-data multisets first (non-decreasing (genus, self)
sequences), then fills the upper triangle of the intersection matrix column
by column.  The search keeps the fraction-free (Bareiss) factorization of
its negative definite prefix, one level of state per recursion depth: the
leading principal minors, the Bareiss entries below the diagonal, and for
the open column j the determinants of the bordered blocks on {0..i-1, j}.
Assigning entry (i, j) extends that factorization by one row in O(i) and
yields the determinant of the principal block on {0..i, j}; the block sits
inside every completion, so an entry whose block has the wrong sign for a
negative definite matrix is pruned with its whole subtree, long before the
column closes.  At i = j - 1 the block is the leading one, so only negative
definite prefixes are ever extended; a pair multiplicity m is also capped
by m^2 < w_i * w_j, the 2x2 case.

Isomorphism reduction is orderly generation (Read, Ann. Discrete Math. 2,
1978; Faradzev, 1978): a filling is kept only when its upper triangle, read
column by column, is lexicographically minimal among its images under the
permutations that fix the vertex-data sequence.  Every leading block of
such a filling is minimal among the data-preserving permutations of its
own vertices: extended by the identity, such a permutation preserves the
sorted data and maps the block, which comes first in the reading order,
onto itself, so a smaller image of the block makes a smaller filling.  The
test therefore runs as each column closes, on the block closed so far, and
cuts every subtree below a non-minimal block; at the last column it is the
full test.  The permutations are still listed
one by one, a product of factorials, which is why max_vertices is capped
at 8.  Connectivity, when required, is read from neighbour bitmasks kept as
entries are assigned, when the last entry is set and before that full test:
both cut only the leaf and connectivity is an isomorphism invariant, so the
order does not change the output, and connectivity is far the cheaper test
while many minimal fillings are disconnected.

Work is bounded twice.  The tasks, one per vertex-data multiset, are
counted with one binomial per vertex count before any is built, and a box
with more than ENUM_TASK_BUDGET of them is refused; a task that visits
more than ENUM_NODE_BUDGET search nodes stops the enumeration.  Both raise
`PreconditionError` (exit code 4).

Each class is factored once, by the search.  What a leaf yields is a
function of the search's state there: `enumerate_encodings` keeps the
encoding alone, and `enumerate_admissible` the spectrum entry, computed in
the search (and so in its worker when jobs > 1) by
`invariants._class_invariants` from the leaf's vertex data, adjacency maps,
leading minors and Bareiss entries.  It checks definiteness, reads -K^2
(cross-checked two ways), the numerical index, Z^2 and the class from that
factorization and one run of Laufer's sequence, with no graph object, no
`Fraction` matrix and no encoding parsed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, permutations, product
from math import comb, isqrt
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

from .errors import PreconditionError
from .graph import WeightedDualGraph, build_graph, validate
from .invariants import _class_invariants
from .rational import rat_str

MAX_ENUM_VERTICES = 8

#: Vertex-data multisets (search tasks) a box may have before
#: `enumerate_encodings` refuses it with a `PreconditionError` (exit code 4)
#: instead of starting a search it cannot finish.
ENUM_TASK_BUDGET = 100_000

#: Search nodes one task (one vertex-data multiset) may visit before
#: `enumerate_encodings` gives up with a `PreconditionError` (exit code 4)
#: instead of running unbounded.
ENUM_NODE_BUDGET = 1_000_000

VertexDatum = tuple[int, int]

T = TypeVar("T")

#: What the search yields at a leaf, from the vertex data, the (i, j, m)
#: pairs with m > 0, the leading principal minors piv[0..r] (piv[0] = 1)
#: and the Bareiss entries lower[j][k] = a^(k)_{j,k}, k < j.
Leaf = Callable[[Sequence[VertexDatum], list[tuple[int, int, int]], list[int], list[list[int]]], T]


@dataclass(frozen=True)
class EnumBounds:
    max_vertices: int
    min_self: int = -6
    max_genus: int = 0
    max_edge_multiplicity: int = 1
    connected_only: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.max_vertices <= MAX_ENUM_VERTICES:
            raise PreconditionError(
                f"max_vertices must be in 1..{MAX_ENUM_VERTICES}"
                " (canonical forms list the data-preserving vertex permutations)"
            )
        if self.min_self > -1:
            raise PreconditionError("min_self must be <= -1")
        if self.max_genus < 0:
            raise PreconditionError("max_genus must be >= 0")
        if self.max_edge_multiplicity < 1:
            raise PreconditionError("max_edge_multiplicity must be >= 1")


class SpectrumEntry(NamedTuple):
    encoding: str
    k_squared: Fraction
    classification: str
    z_squared: int
    numerical_index: int


def _data_stabilizer(data: Sequence[VertexDatum]) -> list[tuple[int, ...]]:
    """All permutations of positions preserving the (sorted) data sequence."""
    runs = []
    start = 0
    for i in range(1, len(data) + 1):
        if i == len(data) or data[i] != data[start]:
            runs.append(range(start, i))
            start = i
    perms = []
    for combo in product(*(permutations(run) for run in runs)):
        flat: list[int] = []
        for piece in combo:
            flat.extend(piece)
        perms.append(tuple(flat))
    return perms


def _positions(r: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, r) for i in range(j)]


def _encode(data: Sequence[VertexDatum], pairs: Sequence[tuple[int, int, int]]) -> str:
    left = ";".join(f"{g},{w}" for g, w in data)
    right = ";".join(f"{i}-{j}:{m}" for i, j, m in pairs)
    return f"{left}|{right}"


def _decode(encoding: str) -> tuple[list[VertexDatum], list[dict[int, int]]]:
    """The (genus, self) pairs and adjacency maps (neighbour index ->
    multiplicity) of an encoding that `_encode` wrote."""
    left, _, right = encoding.partition("|")
    data = []
    for item in left.split(";"):
        g, w = item.split(",")
        data.append((int(g), int(w)))
    adj: list[dict[int, int]] = [{} for _ in data]
    if right:
        for item in right.split(";"):
            pair, _, m = item.partition(":")
            i, _, j = pair.partition("-")
            a, b = int(i), int(j)
            adj[a][b] = adj[b][a] = int(m)
    return data, adj


def graph_from_encoding(encoding: str) -> WeightedDualGraph:
    """The graph, with vertex ids v0, v1, ..., of an encoding as the
    enumerator writes it; malformed encodings are not diagnosed."""
    data, adj = _decode(encoding)
    verts = [(f"v{i}", g, w) for i, (g, w) in enumerate(data)]
    edges = [(f"v{i}", f"v{j}", m) for i, nbrs in enumerate(adj) for j, m in nbrs.items() if i < j]
    return build_graph(verts, edges)


def canonical_encoding(g: WeightedDualGraph) -> str:
    """Encoding of the lexicographically minimal isomorphic labeling."""
    r = len(g)
    if r > MAX_ENUM_VERTICES:
        raise PreconditionError(f"canonical form is brute force; needs <= {MAX_ENUM_VERTICES} vertices")
    order = sorted(range(r), key=lambda i: (g.vertices[i].genus, g.vertices[i].self_int))
    data = tuple((g.vertices[i].genus, g.vertices[i].self_int) for i in order)
    adj = g.adjacency()
    positions = _positions(r)
    best: Optional[tuple[int, ...]] = None
    for perm in _data_stabilizer(data):
        full = tuple(order[p] for p in perm)
        key = tuple(adj[full[i]].get(full[j], 0) for i, j in positions)
        if best is None or key < best:
            best = key
    assert best is not None
    pairs = [(i, j, best[idx]) for idx, (i, j) in enumerate(positions) if best[idx] > 0]
    return _encode(data, pairs)


def _bordered_entries(
    piv: list[int], low_i: list[int], low_j: list[int], det_i: int, i: int, cap: int
) -> list[tuple[int, int, int]]:
    """The values m in 0..cap for entry (i, j), i < j, that some negative
    definite completion may hold, each with its Bareiss entry x and its
    bordered minor d.

    `piv[k]` is the k-th leading principal minor (piv[0] = 1), low_i[k] and
    low_j[k] for k < i are the Bareiss entries a^(k)_{i,k} and a^(k)_{j,k},
    and det_i is the determinant of the principal block on {0..i-1, j}.
    With m in place, x = a^(i)_{j,i} and d is the determinant of the block
    on {0..i, j}.  x follows the Bareiss recurrence from m, using
    a^(s)_{s,i} = a^(s)_{i,s} by symmetry; it is affine in m with slope
    piv[i], the cofactor of the entry, so the O(i) pass runs once, at m = 0.
    Every division is exact.  The block is a principal submatrix of every
    completion, so it must have the sign (-1)^(i+2) of a negative definite
    one (Sylvester); as piv[i] has sign (-1)^i, that is x^2 < piv[i+1] * det_i.
    """
    x0 = 0
    for s in range(i):
        x0 = (piv[s + 1] * x0 - low_j[s] * low_i[s]) // piv[s]
    p = piv[i]
    q = piv[i + 1] * det_i
    out = []
    for m in range(cap + 1):
        x = x0 + p * m
        if x * x < q:
            out.append((m, x, (q - x * x) // p))
    return out


def _reaches_all(nbr: list[int]) -> bool:
    """Whether vertex 0 reaches every vertex, given each vertex's neighbours
    as a bitmask."""
    seen = frontier = 1
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = nbr[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << len(nbr)) - 1


def _search_data(task: tuple[tuple[VertexDatum, ...], EnumBounds], leaf: Leaf[T]) -> list[T]:
    """`leaf` of every canonical admissible adjacency filling for one
    vertex-data multiset.

    The search keeps the fraction-free factorization of its negative
    definite prefix, one entry deeper at each level, and prunes every entry
    that leaves no negative definite completion (see `_bordered_entries`).
    When entry (j-1, j) closes column j, the leading block on {0..j} must be
    lexicographically minimal, in `_positions` order, among its images
    under the data-preserving permutations of {0..j}, or the subtree is cut.
    When the last entry closes the last column and `bounds.connected_only`
    is set, a disconnected filling is cut before that comparison.  A leaf
    is called with the full factorization of M; a single vertex, which
    needs no search, with piv = [1, w].  Raises `PreconditionError` past
    `ENUM_NODE_BUDGET` search nodes.
    """
    data, bounds = task
    max_mult = bounds.max_edge_multiplicity
    r = len(data)
    weights = [w for _, w in data]
    if r == 1:
        return [leaf(data, [], [1, weights[0]], [[0]])] if weights[0] <= -2 or data[0][0] > 0 else []
    positions = _positions(r)
    index = [[0] * r for _ in range(r)]
    for k, (a, b) in enumerate(positions):
        index[a][b] = index[b][a] = k
    # rivals[k]: when entry k closes column j, one getter per permutation of
    # {0..j} that preserves data[:j+1] (extended by the identity, it
    # preserves all the data, as the data is sorted) and moves some entry
    # of the leading block, reading that block's image in `_positions` order
    rivals: list[list[itemgetter]] = [[] for _ in positions]
    for j in range(1, r):
        n = j * (j + 1) // 2
        for perm in _data_stabilizer(data[:j + 1]):
            image = tuple(index[perm[a]][perm[b]] for a, b in positions[:n])
            if image != tuple(range(n)):
                rivals[n - 1].append(itemgetter(*image))
    # key[k]: the multiplicity at positions[k]; nbr[v]: bitmask of the
    # vertices joined to v so far
    key = [0] * len(positions)
    nbr = [0] * r
    last = len(positions) - 1
    found: list[T] = []
    piv = [1, weights[0]] + [0] * (r - 1)
    lower = [[0] * r for _ in range(r)]
    # diag[i]: determinant of the principal block on {0..i-1, j} for the
    # column j being filled.
    diag = [0] * r
    nodes = 0

    def rec(pos: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > ENUM_NODE_BUDGET:
            raise PreconditionError(
                f"enumeration box {bounds} is over its search budget: the task for"
                f" vertex data {data} visited more than {ENUM_NODE_BUDGET} nodes"
            )
        if pos > last:
            pairs = [(i, j, key[k]) for k, (i, j) in enumerate(positions) if key[k]]
            found.append(leaf(data, pairs, piv, lower))
            return
        i, j = positions[pos]
        if i == 0:
            diag[0] = weights[j]
        cap = min(max_mult, isqrt(weights[i] * weights[j] - 1))
        low_j = lower[j]
        bit_i, bit_j = 1 << i, 1 << j
        for m, x, d in _bordered_entries(piv, lower[i], low_j, diag[i], i, cap):
            key[pos] = m
            if m:
                nbr[i] |= bit_j
                nbr[j] |= bit_i
            low_j[i] = x
            diag[i + 1] = d
            if i == j - 1:
                piv[j + 1] = d
                if pos == last and bounds.connected_only and not _reaches_all(nbr):
                    continue
                block = tuple(key[: pos + 1])
                if any(image(key) < block for image in rivals[pos]):
                    continue
            rec(pos + 1)
        nbr[i] &= ~bit_j
        nbr[j] &= ~bit_i

    rec(0)
    # rec reaches itself through its closure; breaking that cycle frees the
    # task's search state now instead of at the next full collection
    del rec
    return found


def _tasks(bounds: EnumBounds) -> list[tuple[tuple[VertexDatum, ...], EnumBounds]]:
    """One task per vertex-data multiset.  Raises `PreconditionError` when
    there are more than `ENUM_TASK_BUDGET`, counted before any is built."""
    # (genus, self) pairs within bounds, less the genus-0 (-1)-vertex, which
    # is never minimal
    n_options = (bounds.max_genus + 1) * -bounds.min_self - 1
    count = sum(comb(n_options + r - 1, r) for r in range(1, bounds.max_vertices + 1))
    if count > ENUM_TASK_BUDGET:
        raise PreconditionError(
            f"enumeration box has {count} vertex-data multisets to search,"
            f" over the budget of {ENUM_TASK_BUDGET}"
        )
    options = [
        (g, w)
        for g in range(bounds.max_genus + 1)
        for w in range(bounds.min_self, 0)
        if not (g == 0 and w == -1)
    ]
    tasks = []
    for r in range(1, bounds.max_vertices + 1):
        for data in combinations_with_replacement(sorted(options), r):
            tasks.append((data, bounds))
    return tasks


def _enumerate(bounds: EnumBounds, jobs: int, leaf: Leaf[T]) -> list[T]:
    """Every leaf value of the search within bounds, sorted.

    `jobs` is clamped to the number of CPUs: the pool starts every worker
    at once.  The pool is imported only when it is used, since importing
    it loads `multiprocessing`."""
    tasks = _tasks(bounds)
    search = partial(_search_data, leaf=leaf)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(search, tasks, chunksize=16))
    else:
        chunks = [search(t) for t in tasks]
    merged = set()
    for chunk in chunks:
        merged.update(chunk)
    return sorted(merged)


def _encoding_leaf(data, pairs, piv, lower) -> str:
    return _encode(data, pairs)


def _entry_leaf(data, pairs, piv, lower) -> SpectrumEntry:
    adj: list[dict[int, int]] = [{} for _ in data]
    for i, j, m in pairs:
        adj[i][j] = adj[j][i] = m
    return SpectrumEntry(_encode(data, pairs), *_class_invariants(data, adj, piv, lower))


def enumerate_encodings(bounds: EnumBounds, jobs: int = 1) -> list[str]:
    """Sorted canonical encodings of every admissible graph within bounds."""
    return _enumerate(bounds, jobs, _encoding_leaf)


def enumerate_admissible(bounds: EnumBounds, jobs: int = 1) -> list[SpectrumEntry]:
    """Spectrum entries for every isomorphism class within bounds, sorted by
    encoding."""
    if not bounds.connected_only:
        raise PreconditionError("spectrum entries need connected graphs")
    return _enumerate(bounds, jobs, _entry_leaf)


@dataclass(frozen=True)
class SpectrumReport:
    lo: Fraction
    hi: Fraction
    values: tuple[Fraction, ...]
    gaps: tuple[Fraction, ...]
    class_counts: tuple[tuple[str, int], ...]
    min_nonzero: Optional[Fraction]

    def to_obj(self) -> dict:
        return {
            "interval": [rat_str(self.lo), rat_str(self.hi)],
            "values": [rat_str(v) for v in self.values],
            "gaps": [rat_str(v) for v in self.gaps],
            "class_counts": {name: count for name, count in self.class_counts},
            "min_nonzero": None if self.min_nonzero is None else rat_str(self.min_nonzero),
        }

    def to_text(self) -> str:
        lines = [f"spectrum in [{rat_str(self.lo)}, {rat_str(self.hi)}]:"]
        lines.append("  values: " + (", ".join(rat_str(v) for v in self.values) or "(none)"))
        lines.append("  gaps:   " + (", ".join(rat_str(v) for v in self.gaps) or "(none)"))
        for name, count in self.class_counts:
            lines.append(f"  {name}: {count}")
        if self.min_nonzero is not None:
            lines.append(f"  smallest nonzero value: {rat_str(self.min_nonzero)}")
        return "\n".join(lines)


def spectrum_report(entries: Sequence[SpectrumEntry], lo, hi) -> SpectrumReport:
    lo = Fraction(lo)
    hi = Fraction(hi)
    inside = [e for e in entries if lo <= e.k_squared <= hi]
    values = sorted({e.k_squared for e in inside})
    gaps = tuple(b - a for a, b in zip(values, values[1:]))
    counts: dict[str, int] = {}
    for e in inside:
        counts[e.classification] = counts.get(e.classification, 0) + 1
    nonzero = [v for v in values if v != 0]
    return SpectrumReport(
        lo=lo,
        hi=hi,
        values=tuple(values),
        gaps=gaps,
        class_counts=tuple(sorted(counts.items())),
        min_nonzero=min(nonzero) if nonzero else None,
    )


def random_admissible(rng: random.Random, bounds: EnumBounds, attempts: int = 2000) -> WeightedDualGraph:
    """Rejection-sample one admissible graph within the bounds.

    Candidates are random trees (connectivity for free) with occasional
    extra edges and random weights; non negative definite draws are thrown
    away.  Deterministic for a seeded rng.
    """
    for _ in range(attempts):
        r = rng.randint(1, bounds.max_vertices)
        verts = []
        for i in range(r):
            genus = rng.randint(0, bounds.max_genus) if rng.random() < 0.3 else 0
            lowest_allowed = -1 if genus > 0 else -2
            w = rng.randint(bounds.min_self, lowest_allowed)
            verts.append((f"v{i}", genus, w))
        edges = []
        for i in range(1, r):
            parent = rng.randrange(i)
            mult = rng.randint(1, bounds.max_edge_multiplicity) if rng.random() < 0.15 else 1
            edges.append((f"v{parent}", f"v{i}", mult))
        if r >= 3 and rng.random() < 0.1:
            i, j = sorted(rng.sample(range(r), 2))
            if all(not (e[0] == f"v{i}" and e[1] == f"v{j}") for e in edges):
                edges.append((f"v{i}", f"v{j}", 1))
        g = build_graph(verts, edges)
        if validate(g).admissible:
            return g
    raise PreconditionError("could not sample an admissible graph within the attempt budget")
