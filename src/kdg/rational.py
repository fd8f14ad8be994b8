"""Exact rational scalars, vectors and matrices.

Scalars are `int` or `fractions.Fraction` (arbitrary precision, always in
lowest terms with positive denominator); vectors and matrices are immutable
tuples.  Intersection matrices are all integers, contracted systems carry
`Fraction`s, and every rational result is a `Fraction` either way.
`det`, `solve` and `is_negative_definite` eliminate sparse integer rows:
one map column -> entry per row, over its nonzeros, each row multiplied by
the lcm of its denominators, which leaves the signs of the leading
principal minors unchanged.  `sparse_bareiss` runs fraction-free
elimination (Bareiss, Math. Comp. 22, 1968) on them in leaf-first order,
reverse breadth-first over the nonzero pattern, without row swaps.  Step k
touches only the rows that meet the pivot, and on a tree nothing fills in
(Parter, SIAM Review 3, 1961), whatever the vertex order.  Determinants
are the last pivot, solves back substitute in integers
(`back_substitute`), and negative definiteness is read off the signs of
the pivots (`negative_pivots`); a zero pivot means the matrix is not
definite.  Callers that hold a graph's adjacency maps build the rows
themselves and call the same three.  When a pivot vanishes, or the
nonzero pattern is not symmetric, `det` and `solve` fall back to `bareiss`
on dense integer rows in the given order, with row swaps.  Both kernels
scale rows lazily: a step whose pivot column is zero in a row only
multiplies that row by a factor, and those factors telescope, so the row
is skipped and brought up to date with one exact multiply and divide when
it is next used.  Only `nullspace`, the kernel of a rectangular matrix,
runs its own rational elimination.  No floating point enters any
computation; a float entry raises, and decimal strings are produced for
display only.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from itertools import chain, compress
from operator import attrgetter
from typing import Iterable, Optional, Sequence, Union

from .errors import KdgError

Rat = Fraction
RatLike = Union[int, Fraction]
RatVector = tuple[Fraction, ...]
RatMatrix = tuple[tuple[Fraction, ...], ...]


class SingularMatrixError(KdgError):
    """Raised by `bareiss`, and so by `solve`, when elimination finds no pivot.

    `stage` is the zero-based elimination column where every candidate
    pivot vanished.
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


def dim(m: Sequence[Sequence[RatLike]]) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("square matrix expected")
    return n


def is_symmetric(m: Sequence[Sequence[RatLike]]) -> bool:
    dim(m)
    # Whole rows against whole columns: tuple comparison runs in C.
    return all(tuple(row) == col for row, col in zip(m, zip(*m)))


def dot(u: Sequence[RatLike], v: Sequence[RatLike]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum((rat(a) * rat(b) for a, b in zip(u, v)), Fraction(0))


def bareiss(a: list[list[int]], cols: int) -> int:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968), in place.

    Triangularizes the integer rows `a` over their first len(a) columns;
    columns len(a)..cols-1 ride along.  Every division is exact, and on
    return a[k][j] is the k-th pivot a[k-1][k-1] times the entry rational
    elimination would give, so a[k][k] is the (k+1)-st leading principal
    minor of the row-swapped matrix.  Returns the number of row swaps, or
    raises SingularMatrixError(k) when column k has no nonzero pivot
    candidate.

    Scaling is lazy, so sparse rows cost little.  Step k only multiplies a
    row with a zero in column k by pivot / prev, and those factors
    telescope: a row last brought up to date before step s holds its true
    entries times divisor[s] / divisor[k] at step k, where divisor[k] is
    the pivot of step k - 1.  Such a row is skipped, and is brought up to
    date with one exact multiply and divide just before it is next used,
    as the pivot row or as a row with a nonzero in the pivot column.  A
    zero test needs no update, since the factor is never zero.
    """
    n = len(a)
    swaps = 0
    divisor = [1]
    since = [0] * n
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    since[k], since[i] = since[i], since[k]
                    swaps += 1
                    break
            else:
                raise SingularMatrixError(k)
        prev = divisor[k]
        row_k = a[k]
        s = since[k]
        if s != k:
            old = divisor[s]
            for j in range(k, cols):
                row_k[j] = row_k[j] * prev // old
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            if row_i[k] == 0:
                continue
            s = since[i]
            if s != k:
                old = divisor[s]
                for j in range(k, cols):
                    row_i[j] = row_i[j] * prev // old
            aik = row_i[k]
            for j in range(k + 1, cols):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
            since[i] = k + 1
        divisor.append(pivot)
    return swaps


def _scaled_rows(m: Iterable[Sequence[RatLike]]) -> list[list[int]]:
    """Each row times the lcm of its denominators.  Entries are ints or
    Fractions, read through their numerator and denominator, so a float
    raises; zeros need no multiply.  The lcm runs over the distinct
    denominators only, since `math.lcm` costs per argument."""
    rows = []
    for row in m:
        r = math.lcm(*set(map(attrgetter("denominator"), row)))
        rows.append([x.numerator * (r // x.denominator) if x else 0 for x in row])
    return rows


def _sparse_rows(
    m: Sequence[Sequence[RatLike]], c: Sequence[RatLike] = ()
) -> tuple[list[dict[int, int]], list[int], int]:
    """Each row of m as a map column -> entry over its nonzeros, times the
    lcm of its denominators (c[i] included when c is given); c scaled
    alike; and the product of those positive multipliers.  Every entry,
    zeros included, is read, so a float raises wherever it stands; rows of
    plain ints, the common case, need no denominators."""
    rows = []
    rhs = []
    scale = 1
    for i, row in enumerate(m):
        extra = (c[i],) if c else ()
        if set(map(type, chain(row, extra))) == {int}:
            r = 1
            rows.append(dict(compress(enumerate(row), row)))
        else:
            r = math.lcm(*set(map(attrgetter("denominator"), chain(row, extra))))
            rows.append({j: x.numerator * (r // x.denominator) for j, x in compress(enumerate(row), row)})
        rhs.extend(x.numerator * (r // x.denominator) for x in extra)
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

    Returns the order and the pivots, pivot k being the (k+1)-st leading
    principal minor of the reordered matrix, or None when one is zero.
    Row i maps column j to entry (i, j); zeros may be left out.  The
    entries `bareiss` would leave right of each pivot stay in that pivot's
    row, and `rhs` rides along like a last column.

    The pattern being symmetric, the rows with a nonzero in the pivot
    column are the columns of the pivot row, so step k touches only those
    rows, and fill-in stays symmetric.  Scaling is lazy as in `bareiss`,
    and a row's catch-up factor divisor[k] / divisor[s] folds into its
    update: (pivot x - a v) / divisor[k] on caught-up x and a is
    (pivot x - a v) / divisor[s] on the stale ones, exact either way.
    """
    order = _leaf_order(rows)
    since = [0] * len(rows)
    divisor = [1]
    for k, p in enumerate(order):
        prev = divisor[k]
        row_p = rows[p]
        pivot = row_p.pop(p, 0)
        s = since[p]
        if s != k:
            old = divisor[s]
            pivot = pivot * prev // old
            for j, x in row_p.items():
                row_p[j] = x * prev // old
            if rhs:
                rhs[p] = rhs[p] * prev // old
        if not pivot:
            return None
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
            since[i] = k + 1
        divisor.append(pivot)
    return order, divisor[1:]


def _factor(
    m: Sequence[Sequence[RatLike]], c: Sequence[RatLike] = ()
) -> tuple[list[dict[int, int]], list[int], Sequence[int], list[int], int, int]:
    """Factor the rows [m | c] of a square m for `det` and `solve`.

    Returns (rows, rhs, order, pivots) as `back_substitute` reads them, the
    number of row swaps and the product of the row multipliers.  The rows
    go to `sparse_bareiss`; when a pivot vanishes, or the nonzero pattern
    is not symmetric, they go to `bareiss` as dense rows in the given
    order instead, and row i of the triangle is the map of its nonzeros
    right of the diagonal.  Raises SingularMatrixError(stage) when the
    dense run finds no pivot.
    """
    rows, rhs, scale = _sparse_rows(m, c)
    if _symmetric_pattern(rows):
        done = sparse_bareiss(rows, rhs)
        if done is not None:
            return (rows, rhs, *done, 0, scale)
    n = len(m)
    a = _scaled_rows([*row, *c[i : i + 1]] for i, row in enumerate(m))
    swaps = bareiss(a, len(a[0]))
    rows = [{j: row[j] for j in range(i + 1, n) if row[j]} for i, row in enumerate(a)]
    rhs = [row[n] for row in a] if c else []
    return rows, rhs, range(n), [row[i] for i, row in enumerate(a)], swaps, scale


def det(m: Sequence[Sequence[RatLike]]) -> Fraction:
    """Exact determinant."""
    if dim(m) == 0:
        return Fraction(1)
    try:
        _, _, _, pivots, swaps, scale = _factor(m)
    except SingularMatrixError:
        return Fraction(0)
    return Fraction((-1) ** swaps * pivots[-1], scale)


def solve(m: Sequence[Sequence[RatLike]], c: Sequence[RatLike]) -> tuple[Fraction, ...]:
    """Solve m x = c exactly.  Raises SingularMatrixError(stage) when
    singular, with stage counted in the given order."""
    n = dim(m)
    if len(c) != n:
        raise ValueError("dimension mismatch")
    if n == 0:
        return ()
    rows, rhs, order, pivots, _, _ = _factor(m, c)
    d = pivots[-1]
    return tuple(Fraction(yi, d) for yi in back_substitute(rows, rhs, order, pivots))


def back_substitute(
    rows: list[dict[int, int]], rhs: list[int], order: Sequence[int], pivots: list[int]
) -> list[int]:
    """The integer vector y = d x, where x solves the system whose rows
    were factored in `order` with these `pivots`, and d = pivots[-1].

    Row `order[k]` maps each column eliminated after step k to its entry
    and `rhs` holds the right-hand side, as `sparse_bareiss` leaves them.
    d is +-det, so y is integral (Cramer) and every division is exact.
    """
    d = pivots[-1]
    y = [0] * len(rows)
    for p, pivot in zip(reversed(order), reversed(pivots)):
        y[p] = (d * rhs[p] - sum(v * y[j] for j, v in rows[p].items())) // pivot
    return y


def negative_pivots(pivots: Sequence[int]) -> bool:
    """Whether the leading principal minors D_1, D_2, ... in `pivots` come
    from a negative definite matrix: (-1)^k D_k > 0 for every k."""
    return all((d < 0) == (k % 2 == 0) for k, d in enumerate(pivots))


def is_negative_definite(m: Sequence[Sequence[RatLike]]) -> bool:
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


def quadratic_form(m: Sequence[Sequence[RatLike]], v: Sequence[RatLike]) -> Fraction:
    """The value t(v) m v, exactly."""
    n = dim(m)
    if len(v) != n:
        raise ValueError("dimension mismatch")
    w = vec(v)
    support = [j for j in range(n) if w[j]]
    total = Fraction(0)
    for i in support:
        row = m[i]
        terms = (rat(row[j]) * w[j] for j in support if row[j])
        total += w[i] * sum(terms, Fraction(0))
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
