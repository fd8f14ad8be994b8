"""Exact rational scalars, vectors and matrices.

Scalars are `int` or `fractions.Fraction` (arbitrary precision, always in
lowest terms with positive denominator); vectors are immutable tuples, and
every rational result is a `Fraction`.

`det`, `solve`, `is_negative_definite` and `quadratic_form` take one
matrix form, `SymmetricIntRows`: the map rows of a symmetric matrix of
plain ints, row i a dict column -> entry over the nonzeros of row i.  A
graph builds its intersection matrix in this form once
(`graph.intersection_rows` copies it), and callers that hold a graph pass
that.  Rows of that type are used as they are; any other rows go through
`SymmetricIntRows(...)`, which raises ValueError for dense rows, an entry
that is not a nonzero plain int, a column outside 0..n-1 and values that
are not symmetric.  The right-hand side c of `solve` holds n plain ints:
other lengths raise ValueError, other entries TypeError.  Kernels copy
what they eliminate, so the caller's rows are never changed.  A rows
object keeps two answers in its instance dict: `is_negative_definite`
its definiteness, and `solve` one pair, a copy of the last c it was
given (after c's checks) and the solution.  So a graph's rows are
eliminated once for definiteness and once for M m = c, however many
invariants ask; a different c is eliminated and replaces the kept pair.
Errors are never kept: a singular or indefinite system raises on every
call, and rows of any other type are checked and eliminated anew on
every call.  The read-only convention of `SymmetricIntRows` covers the
kept answers too.

`sparse_bareiss` runs fraction-free elimination (Bareiss, Math. Comp. 22,
1968) on a copy of the rows in leaf-first order, reverse breadth-first
over the nonzero pattern, without row swaps.  Step k touches only the
rows that meet the pivot, and on a tree nothing fills in (Parter, SIAM
Review 3, 1961), whatever the vertex order, so a tree costs time linear in
its size, up to the growth of the integers.  Rows are scaled lazily: a
step whose pivot column is zero in a row only multiplies that row by a
factor, and those factors telescope, so the row is skipped and brought up
to date when it is next used.  Determinants are the last pivot, solves
back substitute in integers (`back_substitute`), and negative
definiteness is read off the signs of the pivots (`negative_pivots`).  A
pivot that vanishes over a zero row makes the matrix singular: `det` gives
0 and `solve` raises `SingularMatrixError`.  One that vanishes over a
nonzero entry would need a row swap, which a symmetric matrix needs only
when it is indefinite, so `det` and `solve` raise ValueError there; the
matrix is not definite.  Every negative (semi)definite matrix, the only
kind kdg solves, eliminates without a swap.  Callers that build rows of
their own from adjacency maps call `sparse_bareiss` directly: the p_a
ellipsoid, and `invariants._solution`, which factors once each `sweep`
member, each `limit` graph, limit system and cross-check member, and each
insertion and contraction system of `transforms`; the enumerator keeps a
Bareiss factorization in vertex order in its search and reads each
class's invariants off that.  Only `nullspace`, the kernel of a
rectangular matrix, runs its own rational elimination.  No floating point
enters any computation; a float entry raises, and decimal strings are
produced for display only.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

from .errors import KdgError

RatLike = Union[int, Fraction]
RatVector = tuple[Fraction, ...]


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


class SymmetricIntRows(tuple):
    """Map rows of a symmetric matrix of nonzero plain ints, checked once,
    when built: every row a dict, every column a plain int in 0..n-1, every
    stored entry a nonzero plain int and each entry equal to its mirror.
    Raises ValueError otherwise.  The one matrix form of `det`, `solve`,
    `is_negative_definite` and `quadratic_form`, which use such rows as
    they are; `is_negative_definite` decides them once and `solve` keeps
    its last c with the solution, both in their instance dict.  The rows
    are read-only by convention: changing one after the check voids it
    and those answers."""

    def __new__(cls, rows: Iterable[dict[int, int]]) -> "SymmetricIntRows":
        self = super().__new__(cls, rows)
        n = len(self)
        if not all(type(row) is dict for row in self):
            raise ValueError("map rows expected")
        entries = list(chain.from_iterable(map(dict.values, self)))
        if set(map(type, chain(chain.from_iterable(self), entries))) - {int} or not all(entries):
            raise ValueError("nonzero plain int entries expected")
        columns = set().union(*self)
        if columns and (min(columns) < 0 or max(columns) >= n):
            raise ValueError(f"map row with a column outside 0..{n - 1}")
        # every stored entry against its mirror, a missing one read as 0
        if not all(self[j].get(i, 0) == x for i, row in enumerate(self) for j, x in row.items()):
            raise ValueError("symmetric matrix expected")
        return self


def _checked(m: Sequence[dict[int, int]]) -> SymmetricIntRows:
    """m itself when it is `SymmetricIntRows`, else m checked as such."""
    return m if type(m) is SymmetricIntRows else SymmetricIntRows(m)


def _sparse_rows(m: Sequence[dict[int, int]], c: Sequence[int] = ()) -> tuple[list[dict[int, int]], list[int]]:
    """New copies of the rows of m (`_checked`) and of c, to eliminate."""
    return list(map(dict.copy, _checked(m))), list(c)


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
    m: Sequence[dict[int, int]], c: Sequence[int] = ()
) -> tuple[list[dict[int, int]], list[int], list[int], list[int]]:
    """Factor the rows [m | c] for `det` and `solve`: (rows, rhs, order,
    pivots) as `sparse_bareiss` leaves them.  Raises ValueError as
    `_checked` does, and when elimination would need a row swap, which on
    a symmetric m means it is indefinite.
    """
    rows, rhs = _sparse_rows(m, c)
    done = sparse_bareiss(rows, rhs)
    if done is None:
        raise ValueError(
            "a pivot vanishes over a nonzero row: elimination needs a row swap,"
            " which a symmetric matrix needs only when it is indefinite"
        )
    return (rows, rhs, *done)


def det(m: Sequence[dict[int, int]]) -> Fraction:
    """Exact determinant.  Raises ValueError as `_factor` does."""
    if not len(m):
        return Fraction(1)
    pivots = _factor(m)[3]
    return Fraction(pivots[-1]) if all(pivots) else Fraction(0)


def solve(m: Sequence[dict[int, int]], c: Sequence[int]) -> tuple[Fraction, ...]:
    """Solve m x = c exactly.  Raises SingularMatrixError(stage) when m is
    singular, stage counted in elimination order, ValueError as `_factor`
    does and unless c has one entry per row, and TypeError for an entry of
    c that is not a plain int.  The rows object (`_checked`) keeps its
    last c, once c is checked, with the answer: the same c again is
    answered without an elimination, another c replaces the pair.  An
    error is not kept, so it is raised on every call."""
    m = _checked(m)
    key = tuple(c)
    if len(key) != len(m):
        raise ValueError("dimension mismatch")
    for x in key:
        if type(x) is not int:
            raise TypeError(f"plain int expected, got {type(x).__name__}")
    kept = m.__dict__.get("_solved")
    if kept is not None and kept[0] == key:
        return kept[1]
    rows, rhs, order, pivots = _factor(m, key)
    if not pivots:
        return ()
    if not all(pivots):
        raise SingularMatrixError(pivots.index(0))
    d = pivots[-1]
    x = tuple(Fraction(yi, d) for yi in back_substitute(rows, rhs, order, pivots))
    m._solved = (key, x)
    return x


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


def is_negative_definite(m: Sequence[dict[int, int]]) -> bool:
    """True iff the symmetric matrix m is negative definite.

    Decided exactly: the leading principal minors D_k of m in leaf-first
    order must satisfy (-1)^k D_k > 0 for every k.  A zero D_k means m is
    not definite.  Raises ValueError as `SymmetricIntRows` does.  The
    rows object (`_checked`) is decided on the first call, which keeps the
    answer on it.
    """
    m = _checked(m)
    known = m.__dict__.get("_negative_definite")
    if known is None:
        done = sparse_bareiss(_sparse_rows(m)[0], [])
        known = m._negative_definite = done is not None and negative_pivots(done[1])
    return known


def quadratic_form(m: Sequence[dict[int, int]], v: Sequence[RatLike]) -> Fraction:
    """The value t(v) m v, exactly, for v of ints or `Fraction`s."""
    m = _checked(m)
    if len(v) != len(m):
        raise ValueError("dimension mismatch")
    w = vec(v)
    return sum((wi * sum(x * w[j] for j, x in row.items()) for row, wi in zip(m, w) if wi), Fraction(0))


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
