"""Numerical invariants of an admissible weighted dual graph.

The central object is the canonical cycle K = sum m_i A_i, the unique
rational solution of the adjunction equations

    M m = c,    c_i = 2 genus_i - 2 - self_int_i,

where M is the intersection matrix.  Its negative self-intersection
-K^2 = -t(m) M m = -sum m_i c_i is the invariant everything else here
revolves around.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence, Union

from .errors import (
    InternalCheckError,
    InvalidGraphError,
    KdgError,
    NotNegativeDefiniteError,
    PreconditionError,
)
from .graph import (
    WeightedDualGraph,
    adjunction_degrees,
    intersection_rows,
    is_connected,
    validate,
)
from .rational import (
    RatVector,
    back_substitute,
    is_negative_definite,
    lcm_denominators,
    negative_pivots,
    rat_decimal,
    rat_str,
    solve,
    sparse_bareiss,
    vec,
)

RATIONAL_DOUBLE = "rational-double"
RATIONAL_TRIPLE = "rational-triple"
RATIONAL_OTHER = "rational-other"
NON_RATIONAL = "non-rational-or-unknown"


@dataclass(frozen=True)
class Cycle:
    """A divisor supported on the exceptional curves: one rational
    coefficient per vertex, in vertex order."""

    coefficients: RatVector
    integral: bool

    @classmethod
    def from_coefficients(cls, coeffs: Sequence) -> "Cycle":
        c = vec(coeffs)
        return cls(c, all(x.denominator == 1 for x in c))

    def as_ints(self) -> tuple[int, ...]:
        if not self.integral:
            raise PreconditionError("cycle is not integral")
        return tuple(int(x) for x in self.coefficients)


class BoundCheck(NamedTuple):
    name: str
    lhs: Fraction
    rhs: Fraction
    holds: bool


@dataclass(frozen=True)
class InvariantReport:
    canonical: Cycle
    k_squared: Fraction
    fundamental: Cycle
    z_squared: int
    k_dot_z: int
    pa_z: int
    numerical_index: int
    classification: str
    bound_checks: tuple[BoundCheck, ...]


def _checked_matrix(g: WeightedDualGraph):
    """M as map rows (`intersection_rows`); NotNegativeDefiniteError
    unless it is negative definite."""
    m = intersection_rows(g)
    if not is_negative_definite(m):
        raise NotNegativeDefiniteError("intersection matrix is not negative definite")
    return m


def canonical_cycle(g: WeightedDualGraph) -> Cycle:
    """Coefficients of the numerical canonical cycle (M m = c)."""
    m = _checked_matrix(g)
    return Cycle.from_coefficients(solve(m, adjunction_degrees(g)))


def k_squared(g: WeightedDualGraph) -> Fraction:
    """-K^2, computed two ways (-t(m) M m and -sum m_i c_i) and cross-checked,
    in integers on y = den * m, den the common denominator of m."""
    # Not `_graph_k_squared` yet: the benchmark self-test pins these solve and definiteness counts.
    m = _checked_matrix(g)
    c = adjunction_degrees(g)
    coeffs = solve(m, c)
    den = lcm(*{x.denominator for x in coeffs})
    y = [x.numerator * (den // x.denominator) for x in coeffs]
    return _checked_k_squared([v.self_int for v in g.vertices], g.adjacency(), c, y, den)


def _checked_k_squared(weights: Sequence[int], adj, c: Sequence[int], y: Sequence[int], d: int) -> Fraction:
    """-K^2 = -y.c / d for the integer vector y = d m, M m = c, after
    checking that -t(y) M y / d^2 agrees: t(y) M y = d * y.c."""
    y_dot_c = sum(map(mul, y, c))
    y_form = _form(weights, adj, y)
    if y_form != d * y_dot_c:
        raise InternalCheckError(
            f"-K^2 mismatch: quadratic form {Fraction(-y_form, d * d)}"
            f" vs adjunction sum {Fraction(-y_dot_c, d)}"
        )
    return Fraction(-y_dot_c, d)


def _graph_system(g: WeightedDualGraph) -> tuple[list[int], Sequence[dict], Sequence[int]]:
    """M m = c for g: (diagonal of M, its adjacency maps, c)."""
    return [v.self_int for v in g.vertices], g.adjacency(), adjunction_degrees(g)


def _solution(
    weights: Sequence[int],
    adj: Sequence[dict[int, int]],
    c: Sequence[int],
    not_definite: KdgError,
    singular: Optional[KdgError] = None,
) -> tuple[list[int], int]:
    """(y, d) for M m = c, M given by its integer diagonal and adjacency
    maps, from one `sparse_bareiss`: d is the last pivot, det M, and
    y = d m.  Raises `not_definite` unless the pivot
    signs make M negative semidefinite, and `singular` (`not_definite`
    when None) when M is singular."""
    rows = [a | {i: w} for i, (w, a) in enumerate(zip(weights, adj))]
    rhs = list(c)
    done = sparse_bareiss(rows, rhs)
    if done is None or not negative_pivots([d for d in done[1] if d]):
        raise not_definite
    order, pivots = done
    if not all(pivots):
        raise singular or not_definite
    return back_substitute(rows, rhs, order, pivots), pivots[-1]


def _graph_k_squared(g: WeightedDualGraph) -> Fraction:
    """-K^2 of g as `k_squared` gives it, checked the same two ways, from one
    `sparse_bareiss` on g's adjacency rows (`_solution`).  Raises the same
    `NotNegativeDefiniteError` when M is not negative definite, singular
    included."""
    system = _graph_system(g)
    y, d = _solution(*system, NotNegativeDefiniteError("intersection matrix is not negative definite"))
    return _checked_k_squared(*system, y, d)


def _form(weights: Sequence[int], adj, v: Sequence) -> Union[int, Fraction]:
    """t(v) M v = sum_i v_i (w_i v_i + sum_j m_ij v_j), with M given by its
    diagonal `weights` and its adjacency maps (neighbour -> multiplicity)."""
    return sum(
        vi * (weights[i] * vi + sum(mult * v[j] for j, mult in adj[i].items()))
        for i, vi in enumerate(v)
    )


#: Steps Laufer's sequence may take before `_laufer` gives up with a
#: `PreconditionError` (exit code 4) instead of running on.  A valid input
#: takes sum(Z) - n steps (D(n) takes n - 3), so large graphs reach it.
LAUFER_STEP_BUDGET = 100_000


def fundamental_cycle(g: WeightedDualGraph) -> Cycle:
    """Smallest positive integral cycle Z with Z.A_i <= 0 for every vertex,
    by Laufer's sequence (`_laufer`).  Raises `PreconditionError` past
    `LAUFER_STEP_BUDGET` steps."""
    if not is_connected(g):
        raise InvalidGraphError("fundamental cycle needs a connected graph")
    _checked_matrix(g)
    z, _ = _laufer([v.self_int for v in g.vertices], g.adjacency())
    return Cycle.from_coefficients(z)


def _laufer(weights: Sequence[int], adj) -> tuple[list[int], list[int]]:
    """Laufer's sequence (Laufer, Amer. J. Math. 94, 1972) on a connected
    negative definite graph: the fundamental cycle Z and its products
    Z.A_i.

    Start with all coefficients 1 and add A_i while some vertex i has
    Z.A_i > 0.  The vertices with a positive product wait in a worklist;
    the order in which they are taken does not change the result, since
    every step stays below the unique smallest anti-nef cycle.
    """
    n = len(weights)
    z = [1] * n
    # products[i] = Z . A_i, maintained incrementally; `positive` holds each
    # vertex with a positive product exactly once
    products = [
        weights[i] + sum(mult for mult in adj[i].values()) for i in range(n)
    ]
    positive = [i for i in range(n) if products[i] > 0]
    steps = 0
    while positive:
        i = positive.pop()
        z[i] += 1
        products[i] += weights[i]
        if products[i] > 0:
            positive.append(i)
        for j, mult in adj[i].items():
            products[j] += mult
            if 0 < products[j] <= mult:  # just turned positive
                positive.append(j)
        steps += 1
        if steps > LAUFER_STEP_BUDGET:
            raise PreconditionError(
                f"Laufer's sequence on {n} vertices exceeded its budget of {LAUFER_STEP_BUDGET} steps"
            )
    return z, products


def _coefficients(g: WeightedDualGraph, d: Union[Cycle, Sequence]) -> RatVector:
    """D's coefficients as `Fraction`s; ValueError unless there is one per
    vertex of g."""
    coeffs = d.coefficients if isinstance(d, Cycle) else vec(d)
    if len(coeffs) != len(g):
        raise ValueError("dimension mismatch")
    return coeffs


def _degrees(g: WeightedDualGraph, coeffs: RatVector) -> tuple[Union[int, Fraction], Union[int, Fraction]]:
    """(D^2, K.D) with K.D = sum d_i c_i: ints, evaluated on the numerators,
    when every coefficient is integral, and `Fraction`s otherwise."""
    if all(x.denominator == 1 for x in coeffs):
        coeffs = [x.numerator for x in coeffs]
    weights = [v.self_int for v in g.vertices]
    return _form(weights, g.adjacency(), coeffs), sum(map(mul, coeffs, adjunction_degrees(g)))


def cycle_degrees(g: WeightedDualGraph, d: Union[Cycle, Sequence]) -> tuple[Fraction, Fraction]:
    """(D^2, K.D) as `Fraction`s for a cycle D with rational coefficients;
    K.D = sum d_i c_i.  ValueError unless D has one coefficient per vertex."""
    d_sq, k_dot = _degrees(g, _coefficients(g, d))
    return Fraction(d_sq), Fraction(k_dot)


def cycle_pa(g: WeightedDualGraph, d: Union[Cycle, Sequence]) -> int:
    """Arithmetic genus p_a(D) = 1 + (D^2 + K.D)/2 of an integral cycle.
    ValueError unless D has one coefficient per vertex, then
    PreconditionError unless every coefficient is an integer."""
    coeffs = _coefficients(g, d)
    if any(x.denominator != 1 for x in coeffs):
        raise PreconditionError("p_a is defined for integral cycles only")
    return _pa_from_twice(sum(_degrees(g, coeffs)))


def _pa_from_twice(twice: Union[int, Fraction]) -> int:
    """p_a = 1 + twice/2 for twice = D^2 + K.D, which must be an even integer."""
    if twice.denominator != 1 or int(twice) % 2 != 0:
        raise InternalCheckError(f"D^2 + K.D = {twice} is not an even integer")
    return 1 + int(twice) // 2


#: Nodes the pruned p_a search may visit before `pa_max_bounded` gives up
#: with a `PreconditionError` (exit code 4) instead of running unbounded.
PA_SEARCH_BUDGET = 1_000_000


def _pa_of(weights, adj, c, d) -> int:
    """p_a(D) = 1 + (D^2 + K.D)/2 in integers."""
    return 1 + (_form(weights, adj, d) + sum(map(mul, d, c))) // 2


def pa_max_bounded(g: WeightedDualGraph, bound: int = 3) -> int:
    """Max of p_a(D) = 1 + (D^2 + K.D)/2 over all integral cycles D with
    0 < D <= bound * Z componentwise, Z the fundamental cycle.

    The value is exact, the same as visiting every point of the box; the
    search skips only cycles that provably cannot raise the maximum.

    1. Artin's criterion (Artin, Amer. J. Math. 88, 1966): Z lies in the
       box, and p_a(Z) = 0 forces p_a(D) <= 0 for every D > 0, so the
       answer is then 0.  Otherwise the search starts from
       best = max p_a(t Z) over t = 1..bound.
    2. Anti-nef, locally maximal cycles suffice: if D.A_i >= 1 then
       p_a(D + A_i) = p_a(D) + genus_i + D.A_i - 1 >= p_a(D), and D + A_i
       stays in the box because bound * Z is anti-nef.  Repeating this
       (Laufer's sequence, Laufer, Amer. J. Math. 94, 1972) from a
       maximizer ends at an anti-nef maximizer, which is >= Z like every
       nonzero anti-nef cycle.  A maximizer D other than A_i also has
       p_a(D - A_i) = p_a(D) + 1 + self_i - genus_i - D.A_i <= p_a(D).  So
       only Z <= D <= bound * Z with self_i + 1 - genus_i <= D.A_i <= 0
       for every i is searched.
    3. Ellipsoid pruning (Fincke & Pohst, Math. Comp. 44, 1985): with
       D* = -m/2 and M m = c, p_a(D) = 1 + (-K^2)/8 - (D - D*)^T (-M) (D - D*)/2,
       so p_a(D) > best confines D to an ellipsoid that shrinks as best
       rises.  Its levels are the pivots D_k and rows of -M as
       `sparse_bareiss` leaves them (Bareiss, Math. Comp. 22, 1968), last
       eliminated first, so breadth-first on a connected graph: the form is
       sum_k u_k^2 / (4 D_k D_(k-1)), u_k affine in the coordinate of level
       k and those before it.  Coordinates are fixed depth-first, each one
       within the exact projection of the ellipsoid given the coordinates
       fixed before it, and within the bounds of step 2 that those
       coordinates imply.  It all runs on integers scaled by the lcm of the
       4 D_k D_(k-1).

    Raises `PreconditionError` (exit code 4) when the search visits more
    than `PA_SEARCH_BUDGET` nodes.
    """
    if bound < 1:
        raise PreconditionError(f"bound must be >= 1, got {bound}")
    z = fundamental_cycle(g).as_ints()
    n = len(g)
    adj = g.adjacency()
    weights = [v.self_int for v in g.vertices]
    c = adjunction_degrees(g)
    best = _pa_of(weights, adj, c, z)
    if best == 0:
        return 0
    best = max(_pa_of(weights, adj, c, [t * zi for zi in z]) for t in range(1, bound + 1))
    # Level k holds the vertex that `sparse_bareiss` eliminates k-th from
    # last in the rows of -M, c riding along; piv[k] is its pivot D_k and
    # piv[k + 1] the one before it, D_(k-1) (1 for the first).  Times unit,
    # the form is sum_k scale[k] * u_k^2, with u_k = den[k] * x_k - (cst[k]
    # - sum f * x_l over (l, f) in low[k]); at x = 0 it is base = unit * -K^2/4.
    rows = [{j: -mult for j, mult in adj[v].items()} | {v: -w} for v, w in enumerate(weights)]
    rhs = list(c)
    elim, pivots = sparse_bareiss(rows, rhs)
    order = elim[::-1]
    piv = pivots[::-1] + [1]
    level = {v: k for k, v in enumerate(order)}
    w = [weights[v] for v in order]
    nbrs = [[(level[j], mult) for j, mult in adj[v].items()] for v in order]
    den = [2 * d for d in piv[:n]]
    cst = [rhs[v] for v in order]
    low = [[(level[j], 2 * f) for j, f in rows[v].items() if f] for v in order]
    quad = [4 * piv[k] * piv[k + 1] for k in range(n)]
    unit = lcm(*quad)
    scale = [unit // q for q in quad]
    base = sum(s * b * b for s, b in zip(scale, cst))
    limit = base - 2 * best * unit  # find D with form * unit <= limit
    if limit < 0:
        return best

    slack = [g.vertices[v].genus - weights[v] - 1 for v in order]
    z_lv = [z[v] for v in order]
    earlier = [[(l, mult) for l, mult in nbrs[k] if l < k] for k in range(n)]
    # Range of sum_j mult * x_j over the neighbours of each level, taking
    # x_j = z_j (low) or bound * z_j (high) for the levels not yet fixed.
    low_sum = [sum(mult * z_lv[l] for l, mult in nbrs[k]) for k in range(n)]
    high_sum = [bound * s for s in low_sum]
    x = [0] * n  # 0 while the level is not fixed
    first = [0] * n
    hi = [0] * n
    mid = [0] * n  # den[k] * mid_k
    partial = [0] * (n + 1)
    nodes = 0

    def enter(k: int) -> None:
        """Set level k up to try, in increasing order, the values that keep
        -slack <= D.A <= 0 possible at k and at the levels fixed before it."""
        m_k = cst[k] - sum(f * x[l] for l, f in low[k])
        mid[k] = m_k
        lo = max(z_lv[k], -(low_sum[k] // w[k]))
        top = min(bound * z_lv[k], (high_sum[k] + slack[k]) // -w[k])
        for l, mult in earlier[k]:
            own = w[l] * x[l]
            top = min(top, z_lv[k] + -(own + low_sum[l]) // mult)
            lo = max(lo, bound * z_lv[k] - ((own + high_sum[l] + slack[l]) // mult))
        room = limit - partial[k]
        if room < 0:
            top = lo - 1
        else:
            r = isqrt(room // scale[k])
            lo = max(lo, -((r - m_k) // den[k]))
            top = min(top, (m_k + r) // den[k])
        first[k] = lo
        hi[k] = top

    def fix(k: int, value: int) -> None:
        """Set x[k] (0 releases the level) and update the neighbour sums."""
        old = x[k]
        x[k] = value
        d_low = (value or z_lv[k]) - (old or z_lv[k])
        d_high = (value or bound * z_lv[k]) - (old or bound * z_lv[k])
        for l, mult in nbrs[k]:
            low_sum[l] += mult * d_low
            high_sum[l] += mult * d_high

    k = 0
    enter(0)
    while k >= 0:
        value = x[k] + 1 if x[k] else first[k]
        if value > hi[k]:
            fix(k, 0)
            k -= 1
            continue
        fix(k, value)
        nodes += 1
        if nodes > PA_SEARCH_BUDGET:
            raise PreconditionError(
                f"p_a search on {n} vertices exceeded its budget of {PA_SEARCH_BUDGET} nodes"
            )
        u = den[k] * value - mid[k]
        total = partial[k] + scale[k] * u * u
        if total > limit:
            # the ellipsoid shrank since level k was entered
            if u > 0:
                hi[k] = value
            continue
        partial[k + 1] = total
        if k + 1 < n:
            k += 1
            enter(k)
            continue
        d = [0] * n
        for lv, v in enumerate(order):
            d[v] = x[lv]
        pa = _pa_of(weights, adj, c, d)
        if 2 * pa * unit != 2 * unit + base - total:
            raise InternalCheckError(f"p_a search: ellipsoid form disagrees with p_a = {pa}")
        best = pa
        limit = base - 2 * best * unit
        if limit < 0:
            break
    return best


def numerical_index(g: WeightedDualGraph) -> int:
    """Least positive integer r such that r*K has integer coefficients."""
    return lcm_denominators(canonical_cycle(g).coefficients)


def classify(g: WeightedDualGraph) -> str:
    """Coarse singularity class read off the invariants.

    rational-double          -K^2 = 0 (equivalently all genus-0 (-2)-curves)
    rational-triple          p_a(Z) = 0 and -Z^2 = 3
    rational-other           p_a(Z) = 0 otherwise
    non-rational-or-unknown  p_a(Z) > 0
    """
    k2 = k_squared(g)
    z_sq = pa = None
    if k2 != 0:
        z_sq, _, pa = _z_data(g, fundamental_cycle(g))
    return _class_of(k2, [(v.genus, v.self_int) for v in g.vertices], z_sq, pa)


def _z_data(g: WeightedDualGraph, z: Cycle) -> tuple[int, int, int]:
    """(Z^2, K.Z, p_a(Z)) of the fundamental cycle Z, in integers."""
    z_sq, k_dot_z = _degrees(g, z.coefficients)
    return z_sq, k_dot_z, _pa_from_twice(z_sq + k_dot_z)


def _class_of(k2: Fraction, data: Sequence[tuple[int, int]], z_sq, pa: Optional[int]) -> str:
    """`classify`'s rules on -K^2, the (genus, self-intersection) pairs,
    Z^2 and p_a(Z); the last two are read only when -K^2 != 0."""
    if k2 == 0:
        if any(datum != (0, -2) for datum in data):
            raise InternalCheckError("-K^2 = 0 on a graph with a non-(-2) vertex")
        return RATIONAL_DOUBLE
    if pa == 0:
        return RATIONAL_TRIPLE if z_sq == -3 else RATIONAL_OTHER
    return NON_RATIONAL


def _class_invariants(
    data: Sequence[tuple[int, int]], adj, piv: Sequence[int], lower: Sequence[Sequence[int]]
) -> tuple[Fraction, str, int, int]:
    """(-K^2, classification, Z^2, numerical index) of a connected graph,
    given its (genus, self-intersection) pairs, its adjacency maps
    (neighbour index -> multiplicity) and the fraction-free (Bareiss)
    factorization of M in vertex order that the enumerator's search holds
    at a leaf: `piv[k]` is the k-th leading principal minor (piv[0] = 1)
    and `lower[j][k]`, for k < j, the Bareiss entry a^(k)_{j,k}.  As M is
    symmetric, a^(k)_{k,j} = a^(k)_{j,k}, so `lower` is the upper factor too.

    The values and checks are those of `k_squared`, `classify`,
    `cycle_degrees` on `fundamental_cycle`, and `numerical_index`, read off
    that factorization with no `Fraction` matrix:

    - negative definiteness from the pivot signs, as in
      `is_negative_definite`; `NotNegativeDefiniteError` otherwise;
    - c reduced forward, b_j <- (piv[k+1] b_j - a^(k)_{j,k} b_k) / piv[k],
      then y = d m by back substitution, d = det M and M m = c;
    - -K^2 both as -y.c / d and as -t(y) M y / d^2, which must agree;
    - the numerical index |d| / gcd(d, y_1, ..., y_n);
    - Z by Laufer's sequence, whose final products Z.A_i give Z^2, and
      p_a(Z) from Z^2 + K.Z;
    - the class by `classify`'s rules.

    Every division is exact.
    """
    n = len(data)
    if not negative_pivots(piv[1 : n + 1]):
        raise NotNegativeDefiniteError("intersection matrix is not negative definite")
    weights = [w for _, w in data]
    c = [2 * genus - 2 - w for genus, w in data]
    b = c.copy()
    for k in range(n - 1):
        p, q, bk = piv[k + 1], piv[k], b[k]
        for j in range(k + 1, n):
            b[j] = (p * b[j] - lower[j][k] * bk) // q
    d = piv[n]
    y = [0] * n
    for k in range(n - 1, -1, -1):
        acc = d * b[k]
        for j in range(k + 1, n):
            acc -= lower[j][k] * y[j]
        y[k] = acc // piv[k + 1]
    k2 = _checked_k_squared(weights, adj, c, y, d)
    index = abs(d) // gcd(d, *y)
    z, products = _laufer(weights, adj)
    z_sq = sum(map(mul, z, products))
    pa = _pa_from_twice(z_sq + sum(map(mul, z, c)))
    return k2, _class_of(k2, data, z_sq, pa), z_sq, index


def bound_checks(g: WeightedDualGraph, pa_bound: int = 3) -> tuple[BoundCheck, ...]:
    """Inequalities every admissible graph must satisfy, instantiated with
    exact values so failures are auditable.

    component_sum        -K^2 >= sum c_i^2 / (-self_int_i)
    nonzero_minimum      -K^2 >= 1/3 whenever it is nonzero
    multiplicity         -K^2 >= mult - 4 (rational case, mult = -Z^2)
    embedding_dimension  -K^2 >= embdim - 5 (rational case, embdim = -Z^2 + 1)
    arithmetic_genus     -K^2 >= 4 * pa_max_bounded - 3
    """
    k2 = k_squared(g)
    checks = []
    # sum c_i^2 / (-self_int_i) as one numerator over one common denominator
    den = lcm(*(-v.self_int for v in g.vertices))
    csum = Fraction(
        sum(c * c * (den // -v.self_int) for c, v in zip(adjunction_degrees(g), g.vertices)), den
    )
    checks.append(BoundCheck("component_sum", k2, csum, k2 >= csum))
    if k2 != 0:
        checks.append(BoundCheck("nonzero_minimum", k2, Fraction(1, 3), k2 >= Fraction(1, 3)))
    z_sq, _, pa = _z_data(g, fundamental_cycle(g))
    if pa == 0:
        mult = -z_sq
        rhs = Fraction(mult - 4)
        checks.append(BoundCheck("multiplicity", k2, rhs, k2 >= rhs))
        embdim = mult + 1
        rhs = Fraction(embdim - 5)
        checks.append(BoundCheck("embedding_dimension", k2, rhs, k2 >= rhs))
    pa_best = pa_max_bounded(g, pa_bound)
    rhs = Fraction(4 * pa_best - 3)
    checks.append(BoundCheck("arithmetic_genus", k2, rhs, k2 >= rhs))
    return tuple(checks)


def invariant_report(g: WeightedDualGraph, pa_bound: int = 3) -> InvariantReport:
    """All invariants of a connected admissible graph in one shot."""
    report = validate(g)
    if not report.negative_definite:
        raise NotNegativeDefiniteError("; ".join(report.messages) or "not negative definite")
    if not (report.connected and report.minimal):
        raise InvalidGraphError("; ".join(report.messages))
    canonical = canonical_cycle(g)
    k2 = k_squared(g)
    z = fundamental_cycle(g)
    z_sq, k_dot_z, pa_z = _z_data(g, z)
    return InvariantReport(
        canonical=canonical,
        k_squared=k2,
        fundamental=z,
        z_squared=z_sq,
        k_dot_z=k_dot_z,
        pa_z=pa_z,
        numerical_index=numerical_index(g),
        classification=classify(g),
        bound_checks=bound_checks(g, pa_bound),
    )


def report_to_obj(report: InvariantReport, g: WeightedDualGraph) -> dict:
    """JSON form: rationals as "p/q" strings, cycles keyed by vertex id."""
    ids = g.ids()

    def cycle_obj(cycle: Cycle) -> dict:
        return {
            "coefficients": {i: rat_str(x) for i, x in zip(ids, cycle.coefficients)},
            "integral": cycle.integral,
        }

    return {
        "canonical": cycle_obj(report.canonical),
        "k_squared": rat_str(report.k_squared),
        "fundamental": cycle_obj(report.fundamental),
        "z_squared": report.z_squared,
        "k_dot_z": report.k_dot_z,
        "pa_z": report.pa_z,
        "numerical_index": report.numerical_index,
        "classification": report.classification,
        "bound_checks": [
            {"name": b.name, "lhs": rat_str(b.lhs), "rhs": rat_str(b.rhs), "holds": b.holds}
            for b in report.bound_checks
        ],
    }


def report_to_text(report: InvariantReport, g: WeightedDualGraph) -> str:
    ids = g.ids()
    lines = [
        f"vertices: {len(g)}  edges: {len(g.edges)}",
        f"-K^2: {rat_str(report.k_squared)} ({rat_decimal(report.k_squared)})",
        "canonical cycle: "
        + "  ".join(f"{i}={rat_str(x)}" for i, x in zip(ids, report.canonical.coefficients)),
        "fundamental cycle: "
        + "  ".join(f"{i}={rat_str(x)}" for i, x in zip(ids, report.fundamental.coefficients)),
        f"Z^2: {report.z_squared}  K.Z: {report.k_dot_z}  p_a(Z): {report.pa_z}",
        f"numerical index: {report.numerical_index}",
        f"classification: {report.classification}",
        "bounds:",
    ]
    for b in report.bound_checks:
        verdict = "ok" if b.holds else "VIOLATED"
        lines.append(f"  {b.name}: {rat_str(b.lhs)} >= {rat_str(b.rhs)}  [{verdict}]")
    return "\n".join(lines) + "\n"
