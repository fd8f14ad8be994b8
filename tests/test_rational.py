import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kdg.rational
from kdg.rational import (
    UNBOUNDED,
    SingularMatrixError,
    SymmetricIntRows,
    det,
    dim,
    dot,
    is_negative_definite,
    is_symmetric,
    lcm_denominators,
    negative_pivots,
    nullspace,
    parse_rat,
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
    negdef_by_charpoly,
    quad_form_counterexample,
)

ints = st.integers(min_value=-9, max_value=9)
fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


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


@st.composite
def patterned(draw, n, elems=ints):
    """Square matrices: symmetric, negative semidefinite (-t(B) B, often
    singular), with a symmetric nonzero pattern but unequal entries, or as
    drawn, which mostly leaves the pattern asymmetric."""
    kind = draw(st.sampled_from(["symmetric", "semidefinite", "pattern", "any"]))
    if kind == "symmetric":
        return draw(symmetric(n, elems))
    if kind == "semidefinite":
        k = draw(st.integers(min_value=1, max_value=n))
        b = draw(st.lists(st.lists(elems, min_size=n, max_size=n), min_size=k, max_size=k))
        return [[-sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]
    m = draw(square(n, elems))
    if kind == "pattern":
        for i in range(n):
            for j in range(i):
                if (m[i][j] == 0) != (m[j][i] == 0):
                    m[i][j] = m[j][i] = 0
    return m


def symmetric_pattern(m):
    return all((m[i][j] == 0) == (m[j][i] == 0) for i in range(len(m)) for j in range(i))


def semidefinite(m):
    """Symmetric and negative semidefinite: every coefficient of
    det(x*I - M) is >= 0, its roots being real."""
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i)) and all(
        x >= 0 for x in char_poly(m)[1:]
    )


def checked_det(m):
    """det(m), or None where it may refuse: a ValueError on an asymmetric
    nonzero pattern, and otherwise cofactor_det(m), which a matrix that is
    not negative semidefinite may get a ValueError for instead."""
    if not symmetric_pattern(m):
        with pytest.raises(ValueError):
            det(m)
        return None
    try:
        got = det(m)
    except ValueError:
        assert not semidefinite(m)
        return None
    assert got == cofactor_det(m)
    return got


def checked_solve(m, b):
    """solve(m, b) held to the contract of `checked_det`, with a
    SingularMatrixError exactly on a singular m it does not refuse."""
    if not symmetric_pattern(m):
        with pytest.raises(ValueError):
            solve(m, b)
        return
    want_det = cofactor_det(m)
    try:
        x = solve(m, b)
    except ValueError:
        assert not semidefinite(m)
        return
    except SingularMatrixError:
        assert want_det == 0
        return
    assert want_det != 0
    for i in range(len(m)):
        assert dot(m[i], x) == b[i]


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


@settings(max_examples=300)
@given(elimination_inputs())
@example(([[0, 1, 0], [1, 0, 2], [0, 2, -3]], None))  # a zero pivot over a nonzero row
@example((d4_tail([], []), [1, 0, 0, 0, 0]))  # singular at the last step
def test_bareiss_matches_dense_oracle(case):
    a, c = case
    n = len(a)
    rows = [{j: x for j, x in enumerate(row) if x} for row in a]
    rhs = list(c) if c else []
    done = sparse_bareiss(rows, rhs)
    poly = char_poly(a)
    nsd = all(x >= 0 for x in poly[1:])
    if done is None:
        # only an indefinite matrix needs a row swap
        assert not nsd
        return
    order, pivots = done
    assert sorted(order) == list(range(n))
    # a skipped step drops its vertex: the rest, in the same order, must
    # eliminate like the textbook dense rows, with no swap
    kept = [v for v, d in zip(order, pivots) if d]
    dense = [[a[i][j] for j in kept] + ([c[i]] if c else []) for i in kept]
    want, swaps, stage = dense_bareiss(dense, len(kept) + bool(c))
    assert stage is None and swaps == 0
    assert [d for d in pivots if d] == [want[k][k] for k in range(len(kept))]
    for k, v in enumerate(kept):
        got = {j: x for j, x in rows[v].items() if x and j in kept}
        assert got == {kept[j]: want[k][j] for j in range(k + 1, len(kept)) if want[k][j]}
        if c:
            assert rhs[v] == want[k][-1]
    assert (0 in pivots) == (poly[-1] == 0)
    assert negative_pivots([d for d in pivots if d]) == nsd


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
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = Fraction(-(degree[i] + 1) if definite else -2)
    for a, b in edges:
        m[a][b] = m[b][a] = Fraction(1)
    return m


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("definite", [True, False])
def test_tree_kernels_invariant_under_permutation(seed, definite):
    n = 60
    m = random_tree_matrix(n, seed, definite)
    c = [Fraction(i % 5 - 2) for i in range(n)]
    perm = list(range(n))
    random.Random(100 + seed).shuffle(perm)
    pm = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    pc = [c[perm[i]] for i in range(n)]

    assert det(pm) == det(m)
    rows, swaps, _ = dense_bareiss([[int(x) for x in row] for row in m], n)
    assert det(m) == (-1) ** swaps * rows[n - 1][n - 1]
    assert is_negative_definite(m) == is_negative_definite(pm) == definite
    x = solve(m, c)
    assert solve(pm, pc) == tuple(x[perm[i]] for i in range(n))
    for i in range(n):
        assert dot(m[i], x) == c[i]


@given(st.one_of(patterned(2), patterned(3), patterned(4)))
@example([[0, 1], [1, 0]])
def test_det_matches_cofactor_expansion(m):
    checked_det(m)


@given(st.one_of(patterned(3), patterned(4)))
def test_det_transpose_invariant(m):
    mt = [list(row) for row in zip(*m)]
    got, got_t = checked_det(m), checked_det(mt)
    if got is not None and got_t is not None:
        assert got == got_t


@given(patterned(3, fracs))
def test_det_rational_entries(m):
    checked_det(m)


@given(st.one_of(patterned(3), patterned(4), patterned(3, fracs)), st.data())
def test_solve_satisfies_system(m, data):
    n = len(m)
    b = data.draw(st.lists(st.one_of(ints, fracs), min_size=n, max_size=n))
    checked_solve(m, b)


@st.composite
def large_sparse_matrices(draw):
    """Zero-heavy square matrices with a symmetric nonzero pattern (or, now
    and then, an asymmetric one), symmetric matrices, or forests in
    shuffled vertex order, which have several components."""
    n = draw(st.integers(min_value=9, max_value=10))
    kind = draw(st.sampled_from(["square", "symmetric", "forest"]))
    if kind == "square":
        a = draw(square(n, sparse_ints))
        if draw(st.integers(min_value=0, max_value=4)):
            for i in range(n):
                for j in range(i):
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        a[i][j] = a[j][i] = 0
        return a
    if kind == "symmetric":
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
    if not symmetric_pattern(m):
        for kernel in (det, lambda m: solve(m, b)):
            with pytest.raises(ValueError):
                kernel(m)
        return
    if all(m[i][j] == m[j][i] for i in range(n) for j in range(i)):
        assert is_negative_definite(m) == negdef_by_charpoly(m)
    rows, swaps, _ = dense_bareiss(m, n)
    want_det = 0 if rows is None else (-1) ** swaps * rows[n - 1][n - 1]
    try:
        got_det = det(m)
    except ValueError:
        assert not semidefinite(m)
        with pytest.raises(ValueError):
            solve(m, b)
        return
    assert got_det == want_det
    if want_det == 0:
        with pytest.raises(SingularMatrixError):
            solve(m, b)
        return
    x = solve(m, b)
    for i in range(n):
        assert dot(m[i], x) == b[i]


@st.composite
def vanishing_pivot_inputs(draw):
    """(matrix, what `det` and `solve` must do, or None when the contract of
    `checked_det` decides): symmetric trees whose leaf-first pivot
    vanishes, over a zero row (D~4 alone: singular) or over a nonzero one
    (a D~4 block inside a larger tree: refused), square matrices whose
    nonzero pattern is mostly not symmetric, and `Fraction` multiples."""
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
        a = draw(square(n, sparse_ints))
        outcome = None
    factor = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(-2, 3)]))
    if factor != 1:
        a = [[factor * x for x in row] for row in a]
    return a, outcome


@settings(max_examples=150)
@given(vanishing_pivot_inputs(), st.data())
@example((d4_tail([], []), "singular"), None)
@example((d4_tail([-2, -3], [0]), "refused"), None)
@example(([[0, 1], [1, 0]], "refused"), None)
@example(([[0, 1], [0, 1]], None), None)
def test_kernels_on_vanishing_pivots(case, data):
    m, outcome = case
    n = len(m)
    b = [1] * n if data is None else data.draw(st.lists(st.one_of(ints, fracs), min_size=n, max_size=n))
    if outcome == "refused":
        for kernel in (det, lambda m: solve(m, b)):
            with pytest.raises(ValueError, match="row swap"):
                kernel(m)
    elif outcome == "singular":
        assert det(m) == 0
        with pytest.raises(SingularMatrixError):
            solve(m, b)
    if all(m[i][j] == m[j][i] for i in range(n) for j in range(i)):
        assert is_negative_definite(m) == negdef_by_charpoly(m)
    else:
        with pytest.raises(ValueError):
            is_negative_definite(m)
    checked_det(m)
    checked_solve(m, b)


def test_negdef_exhaustive_2x2():
    for a, b, d in product(range(-5, 6), repeat=3):
        m = [[a, b], [b, d]]
        assert is_negative_definite(m) == negdef_by_charpoly(m)
    a3 = [[-2, 1, 0], [1, -2, 1], [0, 1, -2]]
    assert is_negative_definite(a3)
    assert [det([row[: k + 1] for row in a3[: k + 1]]) for k in range(3)] == [-2, 3, -4]


@given(st.one_of(symmetric(3), symmetric(4), symmetric(3, fracs)))
@example(
    [
        [Fraction(-1, 2), Fraction(1, 3), 0],
        [Fraction(1, 3), Fraction(-2, 5), Fraction(1, 7)],
        [0, Fraction(1, 7), -3],
    ]
)
def test_negdef_matches_charpoly_oracle(m):
    assert is_negative_definite(m) == negdef_by_charpoly(m)


@given(symmetric(3))
def test_negdef_has_no_nonnegative_vector(m):
    vectors = list(product(range(-2, 3), repeat=3))
    witness = quad_form_counterexample(m, vectors)
    if is_negative_definite(m):
        assert witness is None
    # a found witness proves non-definiteness outright
    if witness is not None:
        assert not is_negative_definite(m)
        v = list(witness)
        assert quadratic_form(m, v) >= 0


@given(st.one_of(square(3), square(4)))
def test_nullspace_is_kernel_basis(m):
    basis = nullspace(m)
    n = len(m)
    for v in basis:
        for row in m:
            assert dot(row, v) == 0
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
        assert parse_rat(rat_str(x)) == x
    assert rat_str(Fraction(5, 1)) == "5"
    assert rat_str(Fraction(-2, 7)) == "-2/7"
    with pytest.raises(ValueError):
        parse_rat("one third")
    with pytest.raises(ValueError):
        parse_rat("1/0")


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
    with pytest.raises(ValueError):
        det([[1, 2], [3]])
    with pytest.raises(ValueError):
        solve([[1, 2], [3, 4]], [1])


# ---------------------------------------------------------------------------
# map rows: the same matrix given as one dict column -> entry per row


@st.composite
def map_rows_of(draw, m):
    """m as map rows: the nonzeros of each row and some of its zeros, off
    the diagonal in column order and the diagonal last, as
    `graph.intersection_rows` stores them."""
    rows = []
    for i, row in enumerate(m):
        stored = [j for j in range(len(m)) if j != i] + [i]
        rows.append({j: row[j] for j in stored if row[j] or draw(st.booleans())})
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
@given(
    st.one_of(patterned(3), patterned(4), patterned(3, fracs), large_sparse_matrices()),
    st.data(),
)
@example([[-2, 1, 0], [0, -2, 1], [0, 1, -2]], None)  # an entry above without its mirror
@example([[-2, 0], [1, -2]], None)  # an entry below without its mirror
@example(d4_tail([-2, -3], [0]), None)  # a zero pivot over a nonzero row
def test_map_rows_match_dense_rows(m, data):
    n = len(m)
    if data is None:
        rows = [{j: x for j, x in enumerate(row) if x} for row in m]
        b = [1] * n
    else:
        rows = data.draw(map_rows_of(m))
        b = data.draw(st.lists(st.one_of(ints, fracs), min_size=n, max_size=n))
    snapshot = [list(row.items()) for row in rows]
    assert is_symmetric(rows) == is_symmetric(m)
    for kernel in (det, lambda a: solve(a, b), is_negative_definite, lambda a: quadratic_form(a, b)):
        assert outcome(kernel, rows) == outcome(kernel, m)
        assert [list(row.items()) for row in rows] == snapshot
    if not is_symmetric(m):
        with pytest.raises(ValueError, match="symmetric"):
            is_negative_definite(rows)


def test_float_in_map_row_raises():
    rows = [{0: -3, 1: 1}, {0: 1, 1: -2, 2: 1}, {1: 1, 2: -2}]
    c = [1, 0, 0]
    for i, j, x in ((0, 0, -3.0), (0, 2, 0.0)):
        bad = [dict(row) for row in rows]
        bad[i][j] = bad[j][i] = x
        for kernel in (det, is_negative_definite, lambda m: solve(m, c)):
            with pytest.raises(TypeError, match="exact rational expected, got float"):
                kernel(bad)
    with pytest.raises(TypeError, match="exact rational expected, got float"):
        solve(rows, [1.0, 0, 0])


def test_only_checked_rows_keep_their_definiteness(monkeypatch):
    """`is_negative_definite` decides `SymmetricIntRows` once per rows
    object and keeps the answer on it; dense rows, plain map rows and rows
    holding `Fraction`s are eliminated on every call, so changing them
    between two calls gives the new answer."""
    runs = []
    real = kdg.rational.sparse_bareiss

    def counted(rows, rhs):
        runs.append(len(rows))
        return real(rows, rhs)

    monkeypatch.setattr(kdg.rational, "sparse_bareiss", counted)
    maps = [{0: -2, 1: 1}, {0: 1, 1: -2}]
    dense = [[-2, 1], [1, -2]]
    fractions = [[Fraction(-1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(-1)]]
    for m in (maps, dense, fractions):
        before = len(runs)
        assert is_negative_definite(m)
        m[0][0] = m[1][1] = -m[0][0]
        assert not is_negative_definite(m)
        m[0][0] = m[1][1] = -m[0][0]
        assert is_negative_definite(m) and is_negative_definite(m)
        assert len(runs) == before + 4
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


@pytest.mark.parametrize("row", [{0: -2, 2: 1}, {-1: 1, 0: -2}])
def test_map_row_column_out_of_range(row):
    rows = [row, {1: -2}]
    for kernel in (det, is_symmetric, is_negative_definite, lambda m: solve(m, [0, 0])):
        with pytest.raises(ValueError, match="outside 0..1"):
            kernel(rows)
    with pytest.raises(ValueError, match="outside 0..1"):
        quadratic_form(rows, [1, 1])


def test_mixed_row_forms_rejected():
    for m in ([{0: -2}, [0, -2]], [[-2, 0], {1: -2}]):
        with pytest.raises(ValueError, match="square"):
            det(m)


# ---------------------------------------------------------------------------
# the input contract of the kernels: which error wins, or which value comes out

SQUARE = (ValueError, "square matrix expected")
RANGE = (ValueError, "map row with a column outside 0..1")
FLOAT = (TypeError, "exact rational expected, got float")
ASYMMETRIC = (ValueError, "symmetric matrix expected")
MISMATCH = (ValueError, "dimension mismatch")
SWAP = (ValueError, "a pivot vanishes over a nonzero row")
STR_KEY = (TypeError, "'<' not supported between instances of 'str' and 'int'")
F = Fraction
NAN = float("nan")
FRACS = [[F(-1, 2), F(1, 3)], [F(1, 3), F(-3, 4)]]

#: (m, c, det(m), solve(m, c), is_negative_definite(m), is_symmetric(m), dim(m))
KERNEL_CONTRACT = [
    # mixed row forms and a ragged dense row: the form is checked first
    ([{0: -2}, [0, -2]], [1, 1], SQUARE, SQUARE, SQUARE, SQUARE, SQUARE),
    ([[-2, 0.5], {1: -2}], [1], SQUARE, SQUARE, SQUARE, SQUARE, SQUARE),
    ([[-2, 1.0], [1]], [1], SQUARE, SQUARE, SQUARE, SQUARE, SQUARE),
    ([{-1: 1, 0: -2}, {1: -2}], [1, 1], RANGE, RANGE, RANGE, RANGE, RANGE),
    ([{0: -2, 2: 1}, {1: -2}], [1], RANGE, RANGE, RANGE, RANGE, RANGE),
    # a float on the diagonal, as a stored 0, and in c
    ([[-2.0, 1], [1, -2]], [1, 1], FLOAT, FLOAT, FLOAT, True, 2),
    ([{0: -2.0, 1: 1}, {0: 1, 1: -2}], [1, 1], FLOAT, FLOAT, FLOAT, True, 2),
    ([[-2, 0.0], [0.0, -2]], [1, 1], FLOAT, FLOAT, FLOAT, True, 2),
    ([{0: -2, 1: 0.0}, {0: 0.0, 1: -2}], [1, 1], FLOAT, FLOAT, FLOAT, True, 2),
    ([[-2.0, 1], [1, -2]], [1], FLOAT, MISMATCH, FLOAT, True, 2),
    ([[-2, 1], [1, -2]], [0, 1.5], F(3), FLOAT, True, True, 2),
    ([{0: -2, 1: 1}, {0: 1, 1: -2}], [0.0, 1], F(3), FLOAT, True, True, 2),
    # a float beside an out-of-range column: the range wins
    ([{0: -2.0}, {1: -2, 2: 1}], [1, 1], RANGE, RANGE, RANGE, RANGE, RANGE),
    ([{0: -2, 1: 0.5}, {-1: 1, 1: -2}], [0.5, 1], RANGE, RANGE, RANGE, RANGE, RANGE),
    # a non-symmetric matrix holding a float
    ([[-2, 1.0], [0, -2]], [1, 1], FLOAT, FLOAT, ASYMMETRIC, False, 2),
    ([{0: -2, 1: 1.0}, {1: -2}], [1, 1], FLOAT, FLOAT, ASYMMETRIC, False, 2),
    ([[-2, 1], [0.0, -2]], [1, 1], FLOAT, FLOAT, ASYMMETRIC, False, 2),
    # a NaN on the diagonal equals itself in a dense row, not in a map row
    ([[NAN, 1], [1, -2]], [1, 1], FLOAT, FLOAT, FLOAT, True, 2),
    ([{0: NAN, 1: 1}, {0: 1, 1: -2}], [1, 1], FLOAT, FLOAT, ASYMMETRIC, False, 2),
    # symmetric nonzero pattern, non-symmetric values
    ([[-2, 1], [2, -2]], [1, 0], F(2), (F(-1), F(-1)), ASYMMETRIC, False, 2),
    # bools count as 0 and 1
    ([[-2, True], [True, -2]], [True, False], F(3), (F(-2, 3), F(-1, 3)), True, True, 2),
    ([{0: -2, 1: True}, {0: True, 1: -2, 2: False}, {2: -1}], [1, 1, False], F(-3),
     (F(-1), F(-1), F(0)), True, True, 3),
    ([{0: -2, 1: True}, {0: True, 1: False}], [1, 1], SWAP, SWAP, False, True, 2),
    # a string column key
    ([{0: -2, "1": 1}, {1: -2}], [1, 1], STR_KEY, STR_KEY, STR_KEY, STR_KEY, STR_KEY),
    # Fraction rows with different denominators, and a Fraction in c
    (FRACS, [F(1, 5), 1], F(19, 72), (F(-174, 95), F(-204, 95)), True, True, 2),
    ([dict(enumerate(row)) for row in FRACS], [F(1, 5), 1], F(19, 72),
     (F(-174, 95), F(-204, 95)), True, True, 2),
    ([[F(-1, 2), 1], [1, -3]], [1, 1], F(1, 2), (F(-8), F(-3)), True, True, 2),
]


def snapshot(m):
    return [list(row.items()) if isinstance(row, dict) else list(row) for row in m]


@pytest.mark.parametrize("case", KERNEL_CONTRACT)
def test_kernel_input_contract(case):
    """Every kernel gives the same answer, or raises the same error, on
    malformed and mixed-type input, and leaves the caller's rows alone."""
    m, c, *expected = case
    before, c_before = snapshot(m), list(c)
    kernels = (det, lambda a: solve(a, c), is_negative_definite, is_symmetric, dim)
    for kernel, want in zip(kernels, expected):
        if isinstance(want, tuple) and isinstance(want[0], type):
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
