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
other lengths raise ValueError, other entries TypeError.  Kernels read
the caller's maps and never change them.  A rows
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
1968) on a diagonal, map rows and a right-hand side in leaf-first order,
reverse breadth-first over the nonzero pattern, without row swaps.  Each
row is scaled by the determinants of the eliminated components it meets,
not by the leading minor of all that is eliminated, so the integers are
the size of the determinants they stand for, and each pivot is the
determinant of the component its step closes.  Step p touches only the
rows that meet p, and on a tree nothing fills in (Parter, SIAM Review 3,
1961), whatever the vertex order: row p holds only its parent, whose
diagonal and right-hand side change while the rest of its row takes a
factor kept apart, so a tree, a star included, costs time linear in its
size, up to the growth of the integers.  A determinant is the product of
the pivots that close a component (`closed_det`), solves back substitute
in integers (`back_substitute`), and m is negative definite when every
pivot N_p has the opposite sign of its row's scale s_p.  A pivot that
vanishes over a zero row makes the matrix singular: `det` gives 0 and
`solve` raises `SingularMatrixError`.  One that vanishes over a nonzero
entry would need a row swap, which a symmetric matrix needs only when it
is indefinite, so `det` and `solve` raise ValueError there; the matrix is
not definite.  Every negative (semi)definite matrix, the only kind kdg
solves, eliminates without a swap.  Callers that hold a diagonal and
adjacency maps call `sparse_bareiss` directly: the p_a ellipsoid, and
`invariants._solution`, which factors once each `sweep` member, each
`limit` graph, limit system and cross-check member, and each insertion
and contraction system of `transforms`; the enumerator keeps a Bareiss
factorization in vertex order in its search and reads each class's
invariants off that (`negative_pivots`).  Only `nullspace`, the kernel of a
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


def _diagonal(m: SymmetricIntRows) -> list[int]:
    """A new list of the diagonal entries of m."""
    return [row.get(i, 0) for i, row in enumerate(m)]


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


def _factor(
    m: Sequence[dict[int, int]], c: Sequence[int] = ()
) -> tuple[list[int], list[dict[int, int]], list[int], list[int]]:
    """Factor [m | c] for `det` and `solve`: (diag, rows, rhs, order) as
    `sparse_bareiss` leaves them, on m's own maps (`_checked`).  Raises
    ValueError as `_checked` does, and when elimination would need a row
    swap, which on a symmetric m means it is indefinite.
    """
    m = _checked(m)
    diag, rows, rhs = _diagonal(m), list(m), list(c)
    done = sparse_bareiss(diag, rows, rhs)
    if done is None:
        raise ValueError(
            "a pivot vanishes over a nonzero row: elimination needs a row swap,"
            " which a symmetric matrix needs only when it is indefinite"
        )
    return diag, rows, rhs, done[0]


def det(m: Sequence[dict[int, int]]) -> Fraction:
    """Exact determinant.  Raises ValueError as `_factor` does."""
    if not len(m):
        return Fraction(1)
    diag, rows, _, _ = _factor(m)
    return Fraction(closed_det(diag, rows))


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
    diag, rows, rhs, order = _factor(m, key)
    if not all(diag):
        raise SingularMatrixError(next(k for k, p in enumerate(order) if not diag[p]))
    d = closed_det(diag, rows)
    x = tuple(Fraction(yi, d) for yi in back_substitute(diag, rows, rhs, order, d))
    m._solved = (key, x)
    return x


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


def negative_pivots(pivots: Sequence[int]) -> bool:
    """Whether the leading principal minors D_1, D_2, ... in `pivots` come
    from a negative definite matrix: (-1)^k D_k > 0 for every k.  The
    pivots of a Bareiss factorization in vertex order, with the global
    divisor, are those minors; the enumerator's search holds one."""
    return all(d < 0 if k % 2 == 0 else d > 0 for k, d in enumerate(pivots))


def is_negative_definite(m: Sequence[dict[int, int]]) -> bool:
    """True iff the symmetric matrix m is negative definite.

    Decided exactly by `sparse_bareiss`: m is negative definite iff each
    Schur pivot S_pp = N_p / s_p is negative, that is N_p s_p < 0 for
    every p (Sylvester).  A zero pivot, or one that needs a row swap,
    means m is not definite.  Raises ValueError as `SymmetricIntRows`
    does.  The rows object (`_checked`) is decided on the first call,
    which keeps the answer on it.
    """
    m = _checked(m)
    known = m.__dict__.get("_negative_definite")
    if known is None:
        diag = _diagonal(m)
        done = sparse_bareiss(diag, list(m), [])
        known = m._negative_definite = done is not None and all(d * s < 0 for d, s in zip(diag, done[1]))
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
