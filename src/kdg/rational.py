"""Exact rational scalars, vectors and matrices.

Scalars are `int` or `fractions.Fraction` (arbitrary precision, always in
lowest terms with positive denominator); vectors are immutable tuples.
Intersection matrices are all integers, contracted systems carry
`Fraction`s, and every rational result is a `Fraction` either way.

A square matrix of n rows comes in one of two forms, and `dim`,
`is_symmetric`, `det`, `solve`, `is_negative_definite` and
`quadratic_form` accept both:

* dense rows, each a sequence of n entries;
* map rows, each a dict column -> entry over some of the columns
  0..n-1, the entries it leaves out being 0.  A graph's intersection
  matrix in this form is its adjacency maps plus the diagonal
  (`graph.intersection_rows`), and callers that hold a graph pass that.

Map rows are read in O(n + stored entries), dense rows in O(n^2); both
follow the same rules (every stored entry is read, so a float raises
wherever it stands) and go into the same elimination.  A map row naming a
column outside 0..n-1 raises ValueError.  Kernels copy what they
eliminate, so the caller's rows are never changed.

`det`, `solve` and `is_negative_definite` eliminate sparse integer rows:
one map column -> entry per row, over its nonzeros, each row multiplied by
the lcm of its denominators, which leaves the signs of the leading
principal minors unchanged.  `sparse_bareiss` runs fraction-free
elimination (Bareiss, Math. Comp. 22, 1968) on them in leaf-first order,
reverse breadth-first over the nonzero pattern, without row swaps.  Step k
touches only the rows that meet the pivot, and on a tree nothing fills in
(Parter, SIAM Review 3, 1961), whatever the vertex order, so a tree given
by map rows costs time linear in its size, up to the growth of the
integers.  Rows are scaled lazily: a step whose pivot column is zero in a
row only multiplies that row by a factor, and those factors telescope, so
the row is skipped and brought up to date when it is next used.
Determinants are the last pivot, solves back substitute in integers
(`back_substitute`), and negative definiteness is read off the signs of
the pivots (`negative_pivots`).  A pivot that vanishes over a zero row
makes the matrix singular: `det` gives 0 and `solve` raises
`SingularMatrixError`.  One that vanishes over a nonzero entry would need
a row swap, which a symmetric matrix needs only when it is indefinite, so
`det` and `solve` raise ValueError there, as they do for a nonzero pattern
that is not symmetric; either way the matrix is not definite.  Every
negative (semi)definite matrix, the only kind kdg solves, eliminates
without a swap.  Callers that build rows of their own from adjacency maps
call `sparse_bareiss` directly: the p_a ellipsoid, and
`invariants._solution`, which factors once each `sweep` member, each
`limit` graph, limit system and cross-check member, and each insertion
and contraction system of `transforms`; the enumerator
keeps a Bareiss factorization in vertex order in its search and reads each
class's invariants off that.  Only `nullspace`, the kernel of a rectangular matrix, runs its
own rational elimination.  No floating point enters any computation; a
float entry raises, and decimal strings are produced for display only.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import Iterable, Optional, Sequence, Union

from .errors import KdgError

Rat = Fraction
RatLike = Union[int, Fraction]
RatVector = tuple[Fraction, ...]
RatMatrix = tuple[tuple[Fraction, ...], ...]
#: A square matrix as dense rows or as map rows (column -> entry).
Matrix = Sequence[Union[Sequence[RatLike], dict[int, RatLike]]]


class SingularMatrixError(KdgError):
    """Raised by `solve` when a pivot vanishes over a zero row.

    `stage` is the zero-based step, in elimination order, where it did.
    """

    exit_code = 5

    def __init__(self, stage: int):
        self.stage = stage
        super().__init__(f"singular matrix: no pivot at elimination stage {stage}")


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


def _shape(m: Matrix) -> tuple[int, bool]:
    """(n, whether the rows are maps) for a square matrix m of n rows.

    Raises ValueError unless every row is a dense sequence of n entries or
    every row is a dict whose columns lie in 0..n-1."""
    n = len(m)
    maps = sum(map(isinstance, m, repeat(dict)))
    if maps and maps == n:
        columns = set().union(*m)
        if columns and (min(columns) < 0 or max(columns) >= n):
            raise ValueError(f"map row with a column outside 0..{n - 1}")
        return n, True
    if maps or set(map(len, m)) - {n}:
        raise ValueError("square matrix expected")
    return n, False


def dim(m: Matrix) -> int:
    return _shape(m)[0]


def is_symmetric(m: Matrix) -> bool:
    if _shape(m)[1]:
        # every stored entry against its mirror, a missing one read as 0
        for i, row in enumerate(m):
            for j, x in row.items():
                if m[j].get(i, 0) != x:
                    return False
        return True
    # Whole rows against whole columns: tuple comparison runs in C.
    return all(tuple(row) == col for row, col in zip(m, zip(*m)))


def dot(u: Sequence[RatLike], v: Sequence[RatLike]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum((rat(a) * rat(b) for a, b in zip(u, v)), Fraction(0))


def _sparse_rows(m: Matrix, c: Sequence[RatLike] = ()) -> tuple[list[dict[int, int]], list[int], int]:
    """Each row of m, dense or a map, as a new map column -> entry over its
    nonzeros, times the lcm of its denominators (c[i] included when c is
    given); c scaled alike; and the product of those positive multipliers.
    Every entry a row holds, zeros included, is read, so a float raises
    wherever it stands; rows of plain ints, the common case, need no
    denominators."""
    rows = []
    rhs = []
    scale = 1
    for i, row in enumerate(m):
        extra = (c[i],) if c else ()
        if isinstance(row, dict):
            entries, values = row.items(), row.values()
        else:
            entries, values = enumerate(row), row
        if set(map(type, chain(values, extra))) == {int}:
            r = 1
            rows.append(dict(compress(entries, values)))
        else:
            r = math.lcm(*set(map(attrgetter("denominator"), chain(values, extra))))
            rows.append({j: x.numerator * (r // x.denominator) for j, x in compress(entries, values)})
        if c:
            rhs.append(c[i].numerator * (r // c[i].denominator))
        scale *= r
    return rows, rhs, scale


def _symmetric_pattern(rows: list[dict[int, int]]) -> bool:
    """Whether row i stores column j exactly when row j stores column i."""
    return all(i in rows[j] for i, row in enumerate(rows) for j in row)


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


def sparse_bareiss(rows: list[dict[int, int]], rhs: list[int]) -> Optional[tuple[list[int], list[int]]]:
    """Fraction-free elimination of sparse rows with a symmetric nonzero
    pattern, in place, in `_leaf_order` and without row swaps.

    Returns the order and the pivots, or None when a pivot vanishes over a
    nonzero entry of its remaining row: only a row swap could go on, and
    the Schur complement then holds a block [[0, b], [b, x]] with b != 0,
    so a symmetric matrix is indefinite.  A pivot that vanishes over a
    zero row means the matrix is singular: it is recorded as 0 and the
    step is skipped.  A zero row changes no other row, and its column only
    rides along like `rhs`, so the rest of the elimination is that of the
    matrix without that vertex, and each nonzero pivot is a leading
    principal minor of the reordered matrix with the skipped vertices left
    out.  Only a zero pivot pays for the test of its row.  Row i maps
    column j to entry (i, j); zeros may be left out.  The entries
    `back_substitute` reads right of each pivot stay in that pivot's row,
    and `rhs` rides along like a last column.

    The pattern being symmetric, the rows with a nonzero in the pivot
    column are the columns of the pivot row, so step k touches only those
    rows, and fill-in stays symmetric.  Scaling is lazy: a row untouched
    by a step would only be multiplied by pivot / previous pivot, and
    those factors telescope, so a row last updated when divisor[s] was
    current holds its true entries times divisor[s] / divisor[t] at step
    t.  The catch-up folds into the row's next update: (pivot x - a v) /
    divisor[t] on caught-up x and a is (pivot x - a v) / divisor[s] on the
    stale ones, exact either way.
    """
    order = _leaf_order(rows)
    since = [0] * len(rows)
    divisor = [1]
    pivots = []
    for p in order:
        t = len(divisor) - 1
        prev = divisor[t]
        row_p = rows[p]
        pivot = row_p.pop(p, 0)
        s = since[p]
        if s != t:
            old = divisor[s]
            pivot = pivot * prev // old
            for j, x in row_p.items():
                row_p[j] = x * prev // old
            if rhs:
                rhs[p] = rhs[p] * prev // old
        pivots.append(pivot)
        if not pivot:
            if any(row_p.values()):
                return None
            continue
        for i in row_p:
            row_i = rows[i]
            a = row_i.pop(p)
            old = divisor[since[i]]
            row_i = {j: (pivot * x - a * row_p.get(j, 0)) // old for j, x in row_i.items()}
            for j, v in row_p.items():
                if j not in row_i:
                    row_i[j] = -a * v // old
            rows[i] = row_i
            if rhs:
                rhs[i] = (pivot * rhs[i] - a * rhs[p]) // old
            since[i] = t + 1
        divisor.append(pivot)
    return order, pivots


def _factor(
    m: Matrix, c: Sequence[RatLike] = ()
) -> tuple[list[dict[int, int]], list[int], list[int], list[int], int]:
    """Factor the rows [m | c] of a square m for `det` and `solve`.

    Returns (rows, rhs, order, pivots) as `sparse_bareiss` leaves them and
    the product of the row multipliers.  Raises ValueError when the
    nonzero pattern of m is not symmetric, or when elimination would need
    a row swap, which on a symmetric m means it is indefinite.
    """
    rows, rhs, scale = _sparse_rows(m, c)
    if not _symmetric_pattern(rows):
        raise ValueError("matrix with a symmetric nonzero pattern expected")
    done = sparse_bareiss(rows, rhs)
    if done is None:
        raise ValueError(
            "a pivot vanishes over a nonzero row: elimination needs a row swap,"
            " which a symmetric matrix needs only when it is indefinite"
        )
    return (rows, rhs, *done, scale)


def det(m: Matrix) -> Fraction:
    """Exact determinant.  Raises ValueError as `_factor` does."""
    if dim(m) == 0:
        return Fraction(1)
    _, _, _, pivots, scale = _factor(m)
    return Fraction(pivots[-1], scale) if all(pivots) else Fraction(0)


def solve(m: Matrix, c: Sequence[RatLike]) -> tuple[Fraction, ...]:
    """Solve m x = c exactly.  Raises SingularMatrixError(stage) when m is
    singular, stage counted in elimination order, and ValueError as
    `_factor` does."""
    n = dim(m)
    if len(c) != n:
        raise ValueError("dimension mismatch")
    if n == 0:
        return ()
    rows, rhs, order, pivots, _ = _factor(m, c)
    if not all(pivots):
        raise SingularMatrixError(pivots.index(0))
    d = pivots[-1]
    return tuple(Fraction(yi, d) for yi in back_substitute(rows, rhs, order, pivots))


def back_substitute(
    rows: list[dict[int, int]], rhs: list[int], order: Sequence[int], pivots: list[int]
) -> list[int]:
    """The integer vector y = d x, where x solves the system whose rows
    were factored in `order` with these `pivots`, and d = pivots[-1].

    Row `order[k]` maps each column eliminated after step k to its entry
    and `rhs` holds the right-hand side, as `sparse_bareiss` leaves them.
    d is the determinant of that system, so y is integral (Cramer) and
    every division is exact.
    """
    d = pivots[-1]
    y = [0] * len(rows)
    for p, pivot in zip(reversed(order), reversed(pivots)):
        y[p] = (d * rhs[p] - sum(v * y[j] for j, v in rows[p].items())) // pivot
    return y


def negative_pivots(pivots: Sequence[int]) -> bool:
    """Whether the leading principal minors D_1, D_2, ... in `pivots` come
    from a negative definite matrix: (-1)^k D_k > 0 for every k.  Of a
    symmetric matrix that `sparse_bareiss` factored, the nonzero pivots
    pass exactly when it is negative semidefinite: a skipped zero row only
    drops its vertex."""
    return all(d < 0 if k % 2 == 0 else d > 0 for k, d in enumerate(pivots))


def is_negative_definite(m: Matrix) -> bool:
    """True iff the symmetric matrix m is negative definite.

    Decided exactly: the leading principal minors D_k of m in leaf-first
    order must satisfy (-1)^k D_k > 0 for every k.  A zero D_k means m is
    not definite.  Non-symmetric input is rejected.
    """
    if not is_symmetric(m):
        raise ValueError("symmetric matrix expected")
    rows, _, _ = _sparse_rows(m)
    done = sparse_bareiss(rows, [])
    return done is not None and negative_pivots(done[1])


def quadratic_form(m: Matrix, v: Sequence[RatLike]) -> Fraction:
    """The value t(v) m v, exactly."""
    n = dim(m)
    if len(v) != n:
        raise ValueError("dimension mismatch")
    w = vec(v)
    total = Fraction(0)
    for i, wi in enumerate(w):
        if wi:
            row = m[i]
            entries = row.items() if isinstance(row, dict) else enumerate(row)
            total += wi * sum((rat(x) * w[j] for j, x in entries if x and w[j]), Fraction(0))
    return total


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


def parse_rat(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {s!r}") from exc


def rat_decimal(q: RatLike, digits: int = 12) -> str:
    """Display-only decimal string: `digits` significant digits, banker's
    rounding.  The exact value is always the "p/q" string next to it."""
    q = rat(q)
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(q.numerator) / Decimal(q.denominator))
