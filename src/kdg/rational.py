"""Exact rational scalars, vectors and matrices.

Scalars are `int` or `fractions.Fraction` (arbitrary precision, always in
lowest terms with positive denominator); vectors are immutable tuples, and
every rational result is a `Fraction`.  No floating point enters any
computation; decimal strings are produced for display only.

Every symmetric integer system M m = c in kdg, M given by its diagonal and
its map rows (row i a dict column -> entry over the nonzeros of row i), is
factored once, by `factor`: one fraction-free elimination of [M | c]
(`sparse_bareiss`; Bareiss, Math. Comp. 22, 1968), leaf-first and without
row swaps, kept with its definiteness as a `Factorization`.  A graph keeps
the factorization of its own system; the limit cores and the contracted
insertion system are factored where they are built.  The kernels read
it: `is_negative_definite`, `solve` (one integer back substitution per
factorization, kept) and `det` (`closed_det`); `quadratic_form`
evaluates t(v) M v on the diagonal and the maps.  Nothing here checks
its input: every system comes from a graph, whose constructor admits
only plain ints, or is built by kdg from one.  A symmetric matrix needs a
row swap only when it is indefinite, so every negative (semi)definite
matrix, the only kind kdg solves, eliminates without one.  The
enumerator keeps a Bareiss factorization in vertex order in its search
and reads each class's invariants off that (`negative_pivots`); only
`nullspace`, the kernel of a rectangular matrix, runs its own rational
elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Optional, Sequence, Union

RatLike = Union[int, Fraction]
RatVector = tuple[Fraction, ...]


class _Unbounded:
    """Marker for a limit that grows without bound."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "+inf"

    __str__ = __repr__


#: Singleton returned in place of a rational when a limit diverges.
UNBOUNDED = _Unbounded()


def rat(x: RatLike) -> Fraction:
    """Coerce an int or Fraction to Fraction.  Floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact rational expected, got {type(x).__name__}")


def vec(entries: Iterable[RatLike]) -> tuple[Fraction, ...]:
    return tuple(rat(x) for x in entries)


def _leaf_order(rows: list[dict[int, int]]) -> list[int]:
    """Reverse breadth-first order over the nonzero pattern, one component
    after another.  On a tree every vertex comes after all of its children,
    so eliminating in this order fills in nothing (Parter, SIAM Review 3,
    1961): a star costs the same with its centre listed first as last."""
    n = len(rows)
    seen = [False] * n
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        k = len(order)
        order.append(root)
        while k < len(order):
            for j in rows[order[k]]:
                if not seen[j]:
                    seen[j] = True
                    order.append(j)
            k += 1
    order.reverse()
    return order


def sparse_bareiss(
    diag: list[int], rows: list[dict[int, int]], rhs: list[int]
) -> Optional[tuple[list[int], list[int]]]:
    """Fraction-free elimination of a symmetric matrix, given by its
    diagonal and its map rows, in `_leaf_order` and without row swaps,
    dividing each update by what the rows it combines share.

    The lists are changed in place, the maps in `rows` never: after step
    p, diag[p] holds the pivot N_p, rhs[p] the right-hand side of row p
    and rows[p] a new map from each column eliminated after p to its
    entry.  Returns the order and, per vertex, the scale s_p its row had
    when it was eliminated; or None when a pivot vanishes over a nonzero
    entry of its remaining row: only a row swap could go on, and the Schur
    complement then holds a block [[0, b], [b, x]] with b != 0, so the
    matrix is indefinite.  A pivot that vanishes over a zero row means
    the matrix is singular: the step is skipped, and as a zero row changes
    no other row, the rest is the elimination of the matrix without that
    vertex.  Row i maps column j to entry (i, j); zeros may be left out,
    and an entry (i, i) is ignored.  `rhs` rides along like a last column
    and may be empty.

    Each row i still to be eliminated holds s_i times its row of the
    Schur complement S, where s_i is the product of the determinants of
    the components of eliminated vertices that i meets (Bareiss, Math.
    Comp. 22, 1968, with the divisor of the component, not of all that is
    eliminated).  So the pivot N_p = s_p S_pp is the determinant of the
    component that p's step closes: p and the components it meets.  The
    rows that step updates are those with a nonzero in column p, which
    are the columns of row p as the pattern stays symmetric, and each i
    of them becomes (N_p x_ij - x_ip x_pj) / g, g the product of the
    determinants of the components that both i and p meet.  The stored
    entries are not symmetric: x_ij / s_i = x_ji / s_j, and s_i != s_j in
    general, so both x_ip and x_pi are read.  On a tree
    eliminated leaf first nothing fills in (Parter, SIAM Review 3, 1961),
    row p holds only its parent and g = 1, so only that parent's diagonal
    and right-hand side change and the rest of its row is scaled by N_p,
    which a per-row multiplier keeps until the row is read: every step
    costs the same, up to the growth of the integers.
    """
    n = len(diag)
    order = _leaf_order(rows)
    done = [False] * n
    mult = [1] * n  # the entries of row i off its diagonal are mult[i] times rows[i]
    scale = [1] * n
    # i -> the components that i meets and that met more than one row when
    # they were closed, each named by its last vertex q, whose pivot diag[q]
    # is its determinant: no other component can be shared by two rows
    shared_by: dict[int, set[int]] = {}
    for p in order:
        done[p] = True
        m = mult[p]
        row_p = {j: m * x for j, x in rows[p].items() if not done[j]}
        rows[p] = row_p
        pivot = diag[p]
        if not pivot:
            if any(row_p.values()):
                return None
            continue
        met = shared_by.pop(p, None)
        lazy = len(row_p) == 1
        for i, x_pi in row_p.items():
            x_ip = mult[i] * rows[i][p]
            g = 1
            if met and i in shared_by:
                shared = met & shared_by[i]
                if shared:
                    g = math.prod(diag[q] for q in shared)
                    shared_by[i] -= shared
            if not lazy:
                shared_by.setdefault(i, set()).add(p)
            if lazy and g == 1:
                mult[i] *= pivot
            else:
                m = pivot * mult[i]
                row_i = {
                    j: (m * x - x_ip * row_p.get(j, 0)) // g
                    for j, x in rows[i].items()
                    if not done[j] and j != i
                }
                for j, v in row_p.items():
                    if j not in row_i and j != i:
                        row_i[j] = -x_ip * v // g
                rows[i] = row_i
                mult[i] = 1
            scale[i] = scale[i] // g * pivot
            diag[i] = (pivot * diag[i] - x_ip * x_pi) // g
            if rhs:
                rhs[i] = (pivot * rhs[i] - x_ip * rhs[p]) // g
    return order, scale


def closed_det(diag: Sequence[int], rows: Sequence[dict[int, int]]) -> int:
    """The determinant of a matrix as `sparse_bareiss` leaves it factored:
    0 when a pivot vanished, else the product of the pivots whose rows are
    empty, one for each component, which that pivot closes."""
    return math.prod(d for d, row in zip(diag, rows) if not row) if all(diag) else 0


def back_substitute(
    diag: Sequence[int], rows: Sequence[dict[int, int]], rhs: Sequence[int], order: Sequence[int], d: int
) -> list[int]:
    """The integer vector y = d x, where x solves the system that
    `sparse_bareiss` factored in `order`, leaving pivot `diag[p]`,
    right-hand side `rhs[p]` and row `rows[p]` (each column eliminated
    after p to its entry) at step p, all scaled by the same s_p.

    d is the determinant of that system (`closed_det`), so y is integral
    (Cramer) and every division is exact.
    """
    y = [0] * len(diag)
    for p in reversed(order):
        acc = d * rhs[p]
        for j, v in rows[p].items():
            acc -= v * y[j]
        y[p] = acc // diag[p]
    return y


@dataclass(frozen=True)
class Factorization:
    """[M | c] as `sparse_bareiss` leaves it: per vertex p its pivot N_p,
    its eliminated row (each column eliminated after p to its entry) and
    right-hand side, all scaled by s_p, with the elimination order and
    the scales s_p; order and scales are None when a pivot vanished over a
    nonzero entry, so that only a row swap could go on.  M is negative
    definite when every Schur pivot S_pp = N_p / s_p is negative, that is
    N_p s_p < 0 (Sylvester), and negative semidefinite when every
    N_p s_p <= 0 and no row swap was needed.  Read-only by convention."""

    pivots: list[int]
    rows: list[dict[int, int]]
    rhs: list[int]
    order: Optional[list[int]]
    scales: Optional[list[int]]
    definite: bool
    semidefinite: bool

    @cached_property
    def solution(self) -> tuple[list[int], int]:
        """(y, d) for a nonsingular M that needed no row swap: d = det M
        (`closed_det`) and the integer vector y = d m, M m = c, from one
        back substitution on the first read, kept."""
        d = closed_det(self.pivots, self.rows)
        return back_substitute(self.pivots, self.rows, self.rhs, self.order, d), d


def factor(diag: Sequence[int], rows: Sequence[dict[int, int]], rhs: Sequence[int] = ()) -> Factorization:
    """[M | c] factored by one `sparse_bareiss` on copies of the lists, M
    given by its diagonal and its map rows, which are never changed."""
    diag, rows, rhs = list(diag), list(rows), list(rhs)
    order, scales = sparse_bareiss(diag, rows, rhs) or (None, None)
    top = 1 if scales is None else max(map(mul, diag, scales), default=-1)
    return Factorization(diag, rows, rhs, order, scales, top < 0, top <= 0)


def is_negative_definite(f: Factorization) -> bool:
    """Whether the factored M is negative definite."""
    return f.definite


def solve(
    f: Factorization, not_definite: Exception, singular: Optional[Exception] = None
) -> tuple[list[int], int]:
    """(y, d) for the factored M m = c: d = det M (`closed_det`) and the
    integer vector y = d m.  Raises `not_definite` unless M is negative
    semidefinite, and `singular` (`not_definite` when None) when M is
    semidefinite and singular.  The pair is `f.solution`, computed once
    and read-only."""
    if not f.definite:
        raise (singular or not_definite) if f.semidefinite else not_definite
    return f.solution


def det(f: Factorization) -> int:
    """The determinant of the factored M (`closed_det`).  Raises ValueError
    when elimination needed a row swap, which a symmetric M needs only
    when it is indefinite."""
    if f.scales is None:
        raise ValueError("a pivot vanishes over a nonzero row: the determinant needs a row swap")
    return closed_det(f.pivots, f.rows)


def quadratic_form(weights: Sequence[int], adj: Sequence[dict[int, int]], v: Sequence[RatLike]) -> RatLike:
    """t(v) M v = sum_i v_i (w_i v_i + sum_j m_ij v_j), with M given by its
    diagonal `weights` and its adjacency maps (neighbour -> multiplicity):
    an int on ints, exact on `Fraction`s."""
    total = 0
    for vi, w, row in zip(v, weights, adj):
        row_dot = w * vi
        for j, mult in row.items():
            row_dot += mult * v[j]
        total += vi * row_dot
    return total


def negative_pivots(pivots: Sequence[int]) -> bool:
    """Whether the leading principal minors D_1, D_2, ... in `pivots` come
    from a negative definite matrix: (-1)^k D_k > 0 for every k.  The
    pivots of a Bareiss factorization in vertex order, with the global
    divisor, are those minors; the enumerator's search holds one."""
    return all(d < 0 if k % 2 == 0 else d > 0 for k, d in enumerate(pivots))


def nullspace(m: Sequence[Sequence[RatLike]]) -> list[tuple[Fraction, ...]]:
    """Basis of the kernel of a (possibly rectangular) rational matrix."""
    rows = [list(vec(row)) for row in m]
    if not rows:
        return []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append(tuple(v))
    return basis


def lcm_denominators(v: Sequence[RatLike]) -> int:
    """Least positive integer r with r*x integral for every entry x."""
    out = 1
    for x in v:
        out = math.lcm(out, rat(x).denominator)
    return out


def rat_str(q: RatLike) -> str:
    """Canonical "p/q" rendering ("p" when the denominator is 1)."""
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_DECIMAL_12 = Context(prec=12, rounding=ROUND_HALF_EVEN)


def rat_decimal(q: RatLike, digits: int = 12) -> str:
    """Display-only decimal string: `digits` significant digits, banker's
    rounding.  The exact value is always the "p/q" string next to it."""
    q = rat(q)
    ctx = _DECIMAL_12 if digits == 12 else Context(prec=digits, rounding=ROUND_HALF_EVEN)
    return str(ctx.divide(q.numerator, q.denominator))
