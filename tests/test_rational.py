import math
import random
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kdg.rational
from kdg.rational import (
    UNBOUNDED,
    SingularMatrixError,
    SymmetricIntRows,
    closed_det,
    det,
    is_negative_definite,
    lcm_denominators,
    nullspace,
    quadratic_form,
    rat,
    rat_decimal,
    rat_str,
    solve,
    sparse_bareiss,
)

from .oracles import (
    char_poly,
    cofactor_det,
    dense_bareiss,
    dense_form,
    fraction_solve,
    negdef_by_charpoly,
    quad_form_counterexample,
)

ints = st.integers(min_value=-9, max_value=9)


def square(n, elems=ints):
    return st.lists(st.lists(elems, min_size=n, max_size=n), min_size=n, max_size=n)


def symmetric(n, elems=ints):
    def build(vals):
        m = [[0] * n for _ in range(n)]
        it = iter(vals)
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = next(it)
        return m

    return st.lists(elems, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2).map(build)


def maps(m):
    """The map rows of the dense matrix m: the nonzeros of each row, the
    only form the kernels take."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


@st.composite
def patterned(draw, n, elems=ints):
    """Symmetric integer matrices: as drawn, or negative semidefinite
    (-t(B) B, often singular)."""
    if draw(st.booleans()):
        return draw(symmetric(n, elems))
    k = draw(st.integers(min_value=1, max_value=n))
    b = draw(st.lists(st.lists(elems, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[-sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]


def semidefinite(m):
    """Negative semidefinite, for a symmetric m: every coefficient of
    det(x*I - M) is >= 0, its roots being real."""
    return all(x >= 0 for x in char_poly(m)[1:])


def dense_det(m):
    """det(m) by `dense_bareiss`, row swaps and all."""
    n = len(m)
    rows, swaps, _ = dense_bareiss(m, n)
    return 0 if rows is None else (-1) ** swaps * rows[n - 1][n - 1]


def checked_det(m):
    """det of m's map rows: cofactor_det(m), or a ValueError, which only a
    matrix that is not negative semidefinite may get, and then None."""
    try:
        got = det(maps(m))
    except ValueError:
        assert not semidefinite(m)
        return None
    assert got == cofactor_det(m)
    return got


def checked_solve(m, b):
    """solve(., b) on m's map rows held to the contract of `checked_det`:
    the solution `fraction_solve` finds, or SingularMatrixError exactly
    where it finds none."""
    want = fraction_solve(m, b)
    try:
        x = solve(maps(m), b)
    except ValueError:
        assert not semidefinite(m)
        return
    except SingularMatrixError:
        assert want is None
        return
    assert list(x) == want and all(type(xi) is Fraction for xi in x)


# about half zeros, toward the sparsity of intersection matrices
sparse_ints = st.one_of(st.just(0), st.integers(min_value=-5, max_value=5))


def d4_tail(weights, parents):
    """A tree: vertices 0..r-1 with the given weights, vertex i > 0 joined
    to parents[i - 1] < i, and an all-(-2) D~4 block whose centre meets
    vertex 0 (no rest when r = 0).  With a rest vertex first, leaf-first
    elimination reaches the centre right after its four leaves, where the
    pivot is -2 - 4 * (1 / -2) = 0."""
    rest = len(weights)
    n = rest + 5
    a = [[0] * n for _ in range(n)]
    for i, w in enumerate(weights):
        a[i][i] = w
    for i, parent in enumerate(parents, start=1):
        a[i][parent] = a[parent][i] = 1
    centre = rest
    if rest:
        a[centre][0] = a[0][centre] = 1
    for i in range(centre, n):
        a[i][i] = -2
    for i in range(centre + 1, n):
        a[i][centre] = a[centre][i] = 1
    return a


def permuted(a, perm):
    n = len(a)
    return [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@st.composite
def elimination_inputs(draw):
    """(matrix, right-hand side or None) for `sparse_bareiss`: zero-heavy
    symmetric matrices, symmetric tree patterns in shuffled vertex order,
    singular ones (a row and its column a multiple of another's), or the
    singular, semidefinite D~4 beside another component, so that
    elimination goes on past the zero row."""
    n = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(["sparse", "tree", "singular", "d4"]))
    if kind == "tree":
        # a zero or positive diagonal makes a pivot vanish or flip sign
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = draw(st.integers(min_value=-4, max_value=1))
        for i in range(1, n):
            parent = draw(st.integers(min_value=0, max_value=i - 1))
            a[i][parent] = a[parent][i] = draw(st.sampled_from([-1, 1, 2, 3]))
        a = permuted(a, draw(st.permutations(range(n))))
    elif kind == "d4":
        k = draw(st.integers(min_value=0, max_value=3))
        other = draw(symmetric(k, sparse_ints)) if k else []
        n = 5 + k
        a = [row + [0] * k for row in d4_tail([], [])] + [[0] * 5 + row for row in other]
        a = permuted(a, draw(st.permutations(range(n))))
    else:
        a = draw(symmetric(n, sparse_ints))
    if kind == "singular" and n > 1:
        rows = st.integers(min_value=0, max_value=n - 1)
        src, dst = draw(st.lists(rows, min_size=2, max_size=2, unique=True))
        factor = draw(st.integers(min_value=-2, max_value=2))
        a[dst] = [factor * x for x in a[src]]
        for row in a:
            row[dst] = factor * row[src]
    c = draw(st.lists(sparse_ints, min_size=n, max_size=n)) if draw(st.booleans()) else None
    return a, c


def components(a, vertices):
    """The connected components of the nonzero pattern of a on `vertices`."""
    left, out = set(vertices), []
    while left:
        part, stack = set(), [left.pop()]
        while stack:
            i = stack.pop()
            part.add(i)
            near = {j for j in left if a[i][j]}
            left -= near
            stack.extend(near)
        out.append(part)
    return out


def minor(a, vertices):
    """The principal minor of a on `vertices`, by cofactor expansion."""
    vs = sorted(vertices)
    return cofactor_det([[a[i][j] for j in vs] for i in vs])


@settings(max_examples=300)
@given(elimination_inputs(), st.booleans())
@example(([[0, 1, 0], [1, 0, 2], [0, 2, -3]], None), True)  # a zero pivot over a nonzero row
@example((d4_tail([], []), [1, 0, 0, 0, 0]), False)  # singular at the last step
def test_bareiss_matches_dense_oracle(case, with_diagonal):
    """`sparse_bareiss` against textbook dense Bareiss on the vertices it
    keeps: each kept row over its scale is the dense row over the leading
    minor before it, each pivot is the determinant of the component its
    step closes and each scale the product of those of the components the
    row meets, so the closing pivots multiply to det a.  The maps may hold
    the diagonal or not, and are never changed."""
    a, c = case
    n = len(a)
    rows = [{j: x for j, x in enumerate(row) if x and (with_diagonal or j != i)} for i, row in enumerate(a)]
    copies = [dict(row) for row in rows]
    diag = [a[i][i] for i in range(n)]
    rhs = list(c) if c else []
    work = list(rows)
    done = sparse_bareiss(diag, work, rhs)
    assert rows == copies
    poly = char_poly(a)
    nsd = all(x >= 0 for x in poly[1:])
    if done is None:
        # only an indefinite matrix needs a row swap
        assert not nsd
        return
    order, scale = done
    assert sorted(order) == list(range(n))
    # a skipped step drops its vertex: the rest, in the same order, must
    # eliminate like the textbook dense rows, with no swap
    kept = [v for v in order if diag[v]]
    dense = [[a[i][j] for j in kept] + ([c[i]] if c else []) for i in kept]
    want, swaps, stage = dense_bareiss(dense, len(kept) + bool(c))
    assert stage is None and swaps == 0
    for k, v in enumerate(kept):
        prev = want[k - 1][k - 1] if k else 1
        s = scale[v]
        assert Fraction(diag[v], s) == Fraction(want[k][k], prev)
        got = {j: Fraction(x, s) for j, x in work[v].items() if x and j in kept}
        assert got == {kept[j]: Fraction(want[k][j], prev) for j in range(k + 1, len(kept)) if want[k][j]}
        if c:
            assert Fraction(rhs[v], s) == Fraction(want[k][-1], prev)
        before = kept[:k]
        closed = next(part for part in components(a, before + [v]) if v in part)
        assert diag[v] == minor(a, closed)
        met = [part for part in components(a, before) if any(a[v][j] for j in part)]
        assert s == math.prod(minor(a, part) for part in met)
    assert (not all(diag)) == (poly[-1] == 0)
    if all(diag):
        assert closed_det(diag, work) == cofactor_det(a)
    assert all(diag[v] * scale[v] <= 0 for v in order) == nsd


def random_tree_matrix(n, seed, definite):
    """Intersection-style matrix of a random tree on n vertices: weight
    -(degree + 1) makes it diagonally dominant, hence negative definite;
    otherwise every weight is -2, which for the seeds used here gives a
    nonsingular matrix that is not negative definite."""
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = -(degree[i] + 1) if definite else -2
    for a, b in edges:
        m[a][b] = m[b][a] = 1
    return m


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("definite", [True, False])
def test_tree_kernels_invariant_under_permutation(seed, definite):
    n = 60
    m = random_tree_matrix(n, seed, definite)
    c = [i % 5 - 2 for i in range(n)]
    perm = list(range(n))
    random.Random(100 + seed).shuffle(perm)
    pm = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    pc = [c[perm[i]] for i in range(n)]

    rows, prows = maps(m), maps(pm)
    assert det(prows) == det(rows) == dense_det(m)
    assert is_negative_definite(rows) == is_negative_definite(prows) == definite
    x = solve(rows, c)
    assert solve(prows, pc) == tuple(x[perm[i]] for i in range(n))
    for i in range(n):
        assert sum(map(mul, m[i], x)) == c[i]


@given(st.one_of(patterned(2), patterned(3), patterned(4)))
@example([[0, 1], [1, 0]])
def test_det_matches_cofactor_expansion(m):
    checked_det(m)


@given(st.one_of(patterned(3), patterned(4)), st.data())
def test_solve_satisfies_system(m, data):
    n = len(m)
    b = data.draw(st.lists(ints, min_size=n, max_size=n))
    checked_solve(m, b)


@st.composite
def large_sparse_matrices(draw):
    """Zero-heavy symmetric matrices, or forests in shuffled vertex order,
    which have several components."""
    n = draw(st.integers(min_value=9, max_value=10))
    if draw(st.booleans()):
        return draw(symmetric(n, sparse_ints))
    a = [[0] * n for _ in range(n)]
    for i in range(1, n):
        parent = draw(st.integers(min_value=-1, max_value=i - 1))
        if parent >= 0:
            a[i][parent] = a[parent][i] = draw(st.sampled_from([1, 1, 2]))
    # strict diagonal dominance (definite) or a slack that may break it
    low = draw(st.sampled_from([-1, 1]))
    for i in range(n):
        a[i][i] = -sum(a[i]) - draw(st.integers(min_value=low, max_value=2))
    return permuted(a, draw(st.permutations(range(n))))


@settings(max_examples=100)
@given(large_sparse_matrices(), st.data())
def test_kernels_on_reordered_sparse_patterns(m, data):
    n = len(m)
    b = data.draw(st.lists(ints, min_size=n, max_size=n))
    rows = maps(m)
    assert is_negative_definite(rows) == negdef_by_charpoly(m)
    want_det = dense_det(m)
    try:
        got_det = det(rows)
    except ValueError:
        assert not semidefinite(m)
        with pytest.raises(ValueError):
            solve(rows, b)
        return
    assert got_det == want_det
    if want_det == 0:
        with pytest.raises(SingularMatrixError):
            solve(rows, b)
        return
    assert list(solve(rows, b)) == fraction_solve(m, b)


@st.composite
def vanishing_pivot_inputs(draw):
    """(matrix, what `det` and `solve` must do, or None when the contract of
    `checked_det` decides): symmetric trees whose leaf-first pivot
    vanishes, over a zero row (D~4 alone: singular) or over a nonzero one
    (a D~4 block inside a larger tree: refused), zero-heavy symmetric
    matrices, and integer multiples."""
    if draw(st.booleans()):
        rest = draw(st.integers(min_value=0, max_value=3))
        weights = draw(st.lists(st.integers(min_value=-4, max_value=-1), min_size=rest, max_size=rest))
        parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, rest)]
        a = d4_tail(weights, parents)
        n = len(a)
        perm = draw(st.permutations(range(n)))
        if rest:
            # a rest vertex first, so the breadth-first search enters the
            # block through its centre
            k = next(k for k, v in enumerate(perm) if v < rest)
            perm = [perm[k]] + perm[:k] + perm[k + 1 :]
        a = permuted(a, perm)
        outcome = "refused" if rest else "singular"
    else:
        n = draw(st.integers(min_value=2, max_value=6))
        a = draw(symmetric(n, sparse_ints))
        outcome = None
    factor = draw(st.sampled_from([1, 2, -3]))
    return [[factor * x for x in row] for row in a], outcome


@settings(max_examples=150)
@given(vanishing_pivot_inputs(), st.data())
@example((d4_tail([], []), "singular"), None)
@example((d4_tail([-2, -3], [0]), "refused"), None)
@example(([[0, 1], [1, 0]], "refused"), None)
def test_kernels_on_vanishing_pivots(case, data):
    m, outcome = case
    n = len(m)
    b = [1] * n if data is None else data.draw(st.lists(ints, min_size=n, max_size=n))
    rows = maps(m)
    if outcome == "refused":
        for kernel in (det, lambda m: solve(m, b)):
            with pytest.raises(ValueError, match="row swap"):
                kernel(rows)
    elif outcome == "singular":
        assert det(rows) == 0
        with pytest.raises(SingularMatrixError):
            solve(rows, b)
    assert is_negative_definite(rows) == negdef_by_charpoly(m)
    checked_det(m)
    checked_solve(m, b)


def test_negdef_exhaustive_2x2():
    for a, b, d in product(range(-5, 6), repeat=3):
        m = [[a, b], [b, d]]
        assert is_negative_definite(maps(m)) == negdef_by_charpoly(m)
    a3 = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    assert is_negative_definite(maps(a3))
    assert [det(maps([row[: k + 1] for row in a3[: k + 1]])) for k in range(3)] == [-2, 3, -4]


@given(st.one_of(symmetric(3), symmetric(4)))
@example([[-1, 1, 0], [1, -2, 1], [0, 1, -1]])  # semidefinite, singular
def test_negdef_matches_charpoly_oracle(m):
    assert is_negative_definite(maps(m)) == negdef_by_charpoly(m)


@given(symmetric(3))
def test_negdef_has_no_nonnegative_vector(m):
    rows = maps(m)
    vectors = list(product(range(-2, 3), repeat=3))
    witness = quad_form_counterexample(m, vectors)
    if is_negative_definite(rows):
        assert witness is None
    # a found witness proves non-definiteness outright
    if witness is not None:
        assert not is_negative_definite(rows)
        v = list(witness)
        assert quadratic_form(rows, v) == dense_form(m, v) >= 0


@given(st.one_of(square(3), square(4)))
def test_nullspace_is_kernel_basis(m):
    basis = nullspace(m)
    n = len(m)
    for v in basis:
        for row in m:
            assert sum(map(mul, row, v)) == 0
    if cofactor_det(m) != 0:
        assert basis == []
    else:
        assert len(basis) >= 1
    # rank-nullity: kernel dimension equals n minus the count of nonzero
    # char poly tail coefficients is awkward; check dimension via a doubled
    # construction instead
    doubled = [row[:] + row[:] for row in m] + [row[:] + row[:] for row in m]
    assert len(nullspace(doubled)) == 2 * n - (n - len(basis))


def test_char_poly_oracle_sanity():
    # eigenvalues of [[-2, 1], [1, -2]] are -1 and -3
    assert char_poly([[-2, 1], [1, -2]]) == [Fraction(1), Fraction(4), Fraction(3)]


def test_rat_str_and_parse_round_trip():
    for x in [Fraction(1, 3), Fraction(-71, 11), Fraction(4), Fraction(0)]:
        assert Fraction(rat_str(x)) == x
    assert rat_str(Fraction(5, 1)) == "5"
    assert rat_str(Fraction(-2, 7)) == "-2/7"


def test_rat_decimal_is_display_only():
    assert rat_decimal(Fraction(1, 3)).startswith("0.3333")
    assert rat_decimal(Fraction(0)) == "0"
    assert rat_decimal(Fraction(-13, 11)).startswith("-1.1818")
    # 12 significant digits
    assert rat_decimal(Fraction(1, 3)) == "0.333333333333"
    # ties round to even, at 12 digits and at other counts
    assert rat_decimal(Fraction(10**12 + 5, 10)) == "100000000000"
    assert rat_decimal(Fraction(10**12 + 15, 10)) == "100000000002"
    assert rat_decimal(Fraction(-(10**12 + 5), 10)) == "-100000000000"
    assert rat_decimal(Fraction(5, 8), digits=2) == "0.62"
    assert rat_decimal(Fraction(7, 8), digits=2) == "0.88"
    assert rat_decimal(Fraction(-5, 8), digits=2) == "-0.62"
    # negative values, and numerators longer than 12 digits
    assert rat_decimal(Fraction(-1, 7)) == "-0.142857142857"
    assert rat_decimal(Fraction(123456789012345, 7)) == "1.76366841446E+13"
    assert rat_decimal(Fraction(-(10**30) - 1, 3)) == "-3.33333333333E+29"
    assert rat_decimal(-(10**15)) == "-1.00000000000E+15"
    assert rat_decimal(Fraction(2, 3), digits=20) == "0.66666666666666666667"


def test_unbounded_sentinel():
    assert repr(UNBOUNDED) == "+inf"
    assert UNBOUNDED != Fraction(10**9)
    assert (UNBOUNDED == UNBOUNDED) is True


def test_lcm_denominators():
    assert lcm_denominators([Fraction(1, 3), Fraction(5, 6), Fraction(2)]) == 6
    assert lcm_denominators([]) == 1
    assert lcm_denominators([Fraction(7)]) == 1


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat(3) == Fraction(3)
    assert rat(Fraction(2, 5)) == Fraction(2, 5)


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError, match="map rows expected"):
        det([[1, 2], [3]])
    with pytest.raises(ValueError, match="map rows expected"):
        solve([[1, 2], [3, 4]], [1])




# ---------------------------------------------------------------------------
# map rows in any column order, and the input contract of the kernels


@st.composite
def map_rows_of(draw, m):
    """m as map rows: the nonzeros of each row, off the diagonal in a drawn
    column order and the diagonal last, as `graph.intersection_rows`
    stores them."""
    rows = []
    for i, row in enumerate(m):
        off = draw(st.permutations([j for j in range(len(m)) if j != i]))
        rows.append({j: row[j] for j in off + [i] if row[j]})
    return rows


def outcome(kernel, m):
    """What kernel(m) returns, or the error it raises (with its stage)."""
    try:
        return kernel(m)
    except SingularMatrixError as exc:
        return SingularMatrixError, exc.stage
    except ValueError:
        return ValueError


@settings(max_examples=200)
@given(st.one_of(patterned(3), patterned(4), large_sparse_matrices()), st.data())
@example(d4_tail([-2, -3], [0]), None)  # a zero pivot over a nonzero row
@example(d4_tail([], []), None)  # singular at the last step
def test_map_rows_match_dense_rows(m, data):
    """The kernels on map rows, in any column order, against the dense
    oracles on the same matrix; the rows are left as they were."""
    n = len(m)
    if data is None:
        rows, b = maps(m), [1] * n
    else:
        rows = data.draw(map_rows_of(m))
        b = data.draw(st.lists(ints, min_size=n, max_size=n))
    snapshot = [list(row.items()) for row in rows]
    assert is_negative_definite(rows) == negdef_by_charpoly(m)
    assert quadratic_form(rows, b) == dense_form(m, b)
    got_det, got_x = outcome(det, rows), outcome(lambda a: solve(a, b), rows)
    if got_det is ValueError:
        assert not semidefinite(m) and got_x is ValueError
    else:
        assert got_det == dense_det(m)
        if got_det:
            assert list(got_x) == fraction_solve(m, b)
        else:
            assert got_x[0] is SingularMatrixError and fraction_solve(m, b) is None
    assert [list(row.items()) for row in rows] == snapshot


def test_float_in_map_row_raises():
    """A float entry, a stored 0.0 too, raises ValueError in every kernel,
    and a float in c raises TypeError."""
    rows = [{0: -3, 1: 1}, {0: 1, 1: -2, 2: 1}, {1: 1, 2: -2}]
    c = [1, 0, 0]
    for i, j, x in ((0, 0, -3.0), (0, 2, 0.0)):
        bad = [dict(row) for row in rows]
        bad[i][j] = bad[j][i] = x
        for kernel in (det, is_negative_definite, lambda m: solve(m, c), lambda m: quadratic_form(m, c)):
            with pytest.raises(ValueError, match="nonzero plain int entries expected"):
                kernel(bad)
    with pytest.raises(TypeError, match="plain int expected, got float"):
        solve(rows, [1.0, 0, 0])


def test_only_checked_rows_keep_their_definiteness(monkeypatch):
    """`is_negative_definite` decides `SymmetricIntRows` once per rows
    object and keeps the answer on it; plain map rows are checked as new
    `SymmetricIntRows` and eliminated on every call, so changing them
    between two calls gives the new answer."""
    runs = []
    real = kdg.rational.sparse_bareiss

    def counted(diag, rows, rhs):
        runs.append(len(rows))
        return real(diag, rows, rhs)

    monkeypatch.setattr(kdg.rational, "sparse_bareiss", counted)
    m = [{0: -2, 1: 1}, {0: 1, 1: -2}]
    assert is_negative_definite(m)
    m[0][0] = m[1][1] = 2
    assert not is_negative_definite(m)
    m[0][0] = m[1][1] = -2
    assert is_negative_definite(m) and is_negative_definite(m)
    assert len(runs) == 4
    for m, definite in (([{0: -2, 1: 1}, {0: 1, 1: -2}], True), ([{0: -1, 1: 1}, {0: 1, 1: -1}], False)):
        rows = SymmetricIntRows(m)
        before = len(runs)
        assert [is_negative_definite(rows) for _ in range(3)] == [definite] * 3
        assert len(runs) == before + 1
        # the answer belongs to the rows object: equal rows are decided anew
        twin = SymmetricIntRows(m)
        assert twin == rows and is_negative_definite(twin) == definite
        assert len(runs) == before + 2
    # `det` still eliminates checked rows on every call
    semidefinite = SymmetricIntRows([{0: -1, 1: 1}, {0: 1, 1: -1}])
    before = len(runs)
    assert det(semidefinite) == 0 and det(semidefinite) == 0
    assert len(runs) == before + 2


def test_checked_rows_keep_their_last_solve(monkeypatch):
    """`solve` keeps one pair on `SymmetricIntRows`, the last checked c and
    its answer: the same c again eliminates nothing, another c is
    eliminated and replaces it.  c is checked before the kept c is read,
    errors are never kept, and plain map rows are eliminated every time."""
    runs = []
    real = kdg.rational.sparse_bareiss

    def counted(diag, rows, rhs):
        runs.append(len(rows))
        return real(diag, rows, rhs)

    monkeypatch.setattr(kdg.rational, "sparse_bareiss", counted)
    dense = [[-2, 1, 0], [1, -3, 1], [0, 1, -2]]
    rows = SymmetricIntRows(maps(dense))
    c, other = [1, 0, -1], (0, 2, 1)
    first = solve(rows, c)
    assert list(first) == fraction_solve(dense, c)
    assert solve(rows, c) == first and solve(rows, tuple(c)) == first
    assert len(runs) == 1
    assert list(solve(rows, other)) == fraction_solve(dense, other)
    assert len(runs) == 2
    assert solve(rows, c) == first and len(runs) == 3
    # a kept c equal to the bad one does not answer it
    for bad, error in (
        ([True, 0, -1], TypeError),
        ([1.0, 0, -1], TypeError),
        ([1, 0], ValueError),
        (c + [0], ValueError),
    ):
        with pytest.raises(error):
            solve(rows, bad)
    assert solve(rows, c) == first and len(runs) == 3
    singular = SymmetricIntRows([{0: -1, 1: 1}, {0: 1, 1: -1}])
    for _ in range(2):
        with pytest.raises(SingularMatrixError):
            solve(singular, [0, 0])
    assert len(runs) == 5 and "_solved" not in singular.__dict__
    plain = maps(dense)
    assert solve(plain, c) == first and solve(plain, c) == first
    assert len(runs) == 7


@pytest.mark.parametrize("row", [{0: -2, 2: 1}, {-1: 1, 0: -2}])
def test_map_row_column_out_of_range(row):
    rows = [row, {1: -2}]
    for kernel in (det, is_negative_definite, lambda m: solve(m, [0, 0]), lambda m: quadratic_form(m, [1, 1])):
        with pytest.raises(ValueError, match="outside 0..1"):
            kernel(rows)


def test_mixed_row_forms_rejected():
    for m in ([{0: -2}, [0, -2]], [[-2, 0], {1: -2}]):
        with pytest.raises(ValueError, match="map rows expected"):
            det(m)


MAPS = (ValueError, "map rows expected")
ENTRIES = (ValueError, "nonzero plain int entries expected")
RANGE = (ValueError, "map row with a column outside 0..1")
ASYMMETRIC = (ValueError, "symmetric matrix expected")
MISMATCH = (ValueError, "dimension mismatch")
SWAP = (ValueError, "a pivot vanishes over a nonzero row")
SINGULAR = (SingularMatrixError, "singular matrix: no pivot at elimination stage 1")
F = Fraction
A2 = [{0: -2, 1: 1}, {0: 1, 1: -2}]
A3 = [{0: -2, 1: 1}, {0: 1, 1: -2, 2: 1}, {1: 1, 2: -2}]


def int_in_c(name):
    return TypeError, f"plain int expected, got {name}"


def rational_in_v(name):
    return TypeError, f"exact rational expected, got {name}"


#: (m, c, det(m), solve(m, c), is_negative_definite(m), quadratic_form(m, c))
KERNEL_CONTRACT = [
    # dense, tuple, mixed and ragged rows
    ([[-2, 1], [1, -2]], [1, 1], MAPS, MAPS, MAPS, MAPS),
    ([(-2, 1), (1, -2)], [1, 1], MAPS, MAPS, MAPS, MAPS),
    ([{0: -2}, [0, -2]], [1, 1], MAPS, MAPS, MAPS, MAPS),
    ([[-2, 1.0], [1]], [1], MAPS, MAPS, MAPS, MAPS),
    # a Fraction, a float, a bool, a stored zero and a stored 0.0
    ([{0: F(-1, 2), 1: 1}, {0: 1, 1: -2}], [1, 1], ENTRIES, ENTRIES, ENTRIES, ENTRIES),
    ([{0: -2, 1: F(1)}, {0: F(1), 1: -2}], [1, 1], ENTRIES, ENTRIES, ENTRIES, ENTRIES),
    ([{0: -2.0, 1: 1}, {0: 1, 1: -2}], [1, 1], ENTRIES, ENTRIES, ENTRIES, ENTRIES),
    ([{0: -2, 1: True}, {0: True, 1: -2}], [1, 1], ENTRIES, ENTRIES, ENTRIES, ENTRIES),
    ([{0: -2, 1: 0}, {0: 0, 1: -2}], [1, 1], ENTRIES, ENTRIES, ENTRIES, ENTRIES),
    ([{0: -2, 1: 0.0}, {0: 0.0, 1: -2}], [1, 1], ENTRIES, ENTRIES, ENTRIES, ENTRIES),
    # a column key that is a string or a bool
    ([{0: -2, "1": 1}, {1: -2}], [1, 1], ENTRIES, ENTRIES, ENTRIES, ENTRIES),
    ([{0: -2, True: 1}, {0: 1, 1: -2}], [1, 1], ENTRIES, ENTRIES, ENTRIES, ENTRIES),
    # a column out of range; a float beside it is found first
    ([{-1: 1, 0: -2}, {1: -2}], [1, 1], RANGE, RANGE, RANGE, RANGE),
    ([{0: -2, 2: 1}, {1: -2}], [1], RANGE, RANGE, RANGE, RANGE),
    ([{0: -2.0}, {1: -2, 2: 1}], [1, 1], ENTRIES, ENTRIES, ENTRIES, ENTRIES),
    # values or pattern not symmetric
    ([{0: -2, 1: 1}, {0: 2, 1: -2}], [1, 0], ASYMMETRIC, ASYMMETRIC, ASYMMETRIC, ASYMMETRIC),
    ([{0: -2, 1: 1}, {1: -2}], [1, 0], ASYMMETRIC, ASYMMETRIC, ASYMMETRIC, ASYMMETRIC),
    # c of the wrong length, or holding other than plain ints; quadratic_form takes a rational v
    (A2, [1], F(3), MISMATCH, True, MISMATCH),
    (A2, [1, 0, 0], F(3), MISMATCH, True, MISMATCH),
    (A2, [1, 0.5], F(3), int_in_c("float"), True, rational_in_v("float")),
    (A2, [F(1, 5), 1], F(3), int_in_c("Fraction"), True, F(-42, 25)),
    (A2, [True, 0], F(3), int_in_c("bool"), True, F(-2)),
    # plain ints, as rows or as checked rows
    (A2, [1, 1], F(3), (F(-1), F(-1)), True, F(-2)),
    (SymmetricIntRows(A2), [1, 0], F(3), (F(-2, 3), F(-1, 3)), True, F(-2)),
    (A3, [1, 0, 0], F(-4), (F(-3, 4), F(-1, 2), F(-1, 4)), True, F(-2)),
    (A3, [1, 0, -1], F(-4), (F(-1, 2), F(0), F(1, 2)), True, F(-4)),
    ([{0: -3, 1: 2}, {0: 2, 1: -3}], [1, 1], F(5), (F(-1), F(-1)), True, F(-2)),
    ([{0: -2}, {1: -3}], [1, 1], F(6), (F(-1, 2), F(-1, 3)), True, F(-5)),
    ([], [], F(1), (), True, F(0)),
    # singular, and a pivot that vanishes over a nonzero row
    ([{0: -1, 1: 1}, {0: 1, 1: -1}], [1, 1], F(0), SINGULAR, False, F(0)),
    ([{1: 1}, {0: 1}], [1, 1], SWAP, SWAP, False, F(2)),
]


def snapshot(m):
    return [list(row.items()) if isinstance(row, dict) else list(row) for row in m]


@pytest.mark.parametrize("case", KERNEL_CONTRACT)
def test_kernel_input_contract(case):
    """Every kernel gives the same answer, or raises the same error, on
    malformed and mixed-type input, and leaves the caller's rows alone."""
    m, c, *expected = case
    before, c_before = snapshot(m), list(c)
    kernels = (det, lambda a: solve(a, c), is_negative_definite, lambda a: quadratic_form(a, c))
    for kernel, want in zip(kernels, expected):
        if isinstance(want, tuple) and want and isinstance(want[0], type):
            error, message = want
            with pytest.raises(error) as info:
                kernel(m)
            assert type(info.value) is error and str(info.value).startswith(message)
        else:
            got = kernel(m)
            assert got == want and type(got) is type(want)
            if isinstance(got, tuple):
                assert all(type(x) is Fraction for x in got)
        assert snapshot(m) == before and list(c) == c_before
