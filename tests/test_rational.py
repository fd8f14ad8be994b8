import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdg import rational
from kdg.rational import (
    UNBOUNDED,
    SingularMatrixError,
    bareiss,
    det,
    dot,
    is_negative_definite,
    is_symmetric,
    lcm_denominators,
    nullspace,
    parse_rat,
    quadratic_form,
    rat,
    rat_decimal,
    rat_str,
    solve,
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


# about half zeros, toward the sparsity of intersection matrices
sparse_ints = st.one_of(st.just(0), st.integers(min_value=-5, max_value=5))


@st.composite
def elimination_inputs(draw):
    """(rows, cols) for `bareiss`: zero-heavy square matrices, symmetric tree
    patterns in shuffled vertex order, or rank-deficient ones, optionally
    with a right-hand-side column riding along."""
    n = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(["sparse", "tree", "singular"]))
    if kind == "tree":
        # a zero or positive diagonal forces row swaps
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = draw(st.integers(min_value=-4, max_value=1))
        for i in range(1, n):
            parent = draw(st.integers(min_value=0, max_value=i - 1))
            a[i][parent] = a[parent][i] = draw(st.sampled_from([-1, 1, 2, 3]))
        perm = draw(st.permutations(range(n)))
        a = [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    else:
        a = draw(square(n, sparse_ints))
    if kind == "singular" and n > 1:
        rows = st.integers(min_value=0, max_value=n - 1)
        src, dst = draw(st.lists(rows, min_size=2, max_size=2, unique=True))
        factor = draw(st.integers(min_value=-2, max_value=2))
        a[dst] = [factor * x for x in a[src]]
    if draw(st.booleans()):
        for row in a:
            row.append(draw(sparse_ints))
    return a, len(a[0])


@settings(max_examples=300)
@given(elimination_inputs())
@example(([[0, 1, 0], [1, 0, 2], [0, 2, -3]], 3))  # swap at the first step
@example(([[-2, 1, 0, 1], [1, -2, 0, 0], [2, -4, 0, 5]], 4))  # singular at stage 2
def test_bareiss_matches_dense_oracle(case):
    rows, cols = case
    want_rows, want_swaps, want_stage = dense_bareiss(rows, cols)
    a = [list(row) for row in rows]
    if want_stage is not None:
        with pytest.raises(SingularMatrixError) as info:
            bareiss(a, cols)
        assert info.value.stage == want_stage
        return
    assert bareiss(a, cols) == want_swaps
    assert a == want_rows


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


@given(st.one_of(square(2), square(3), square(4)))
def test_det_matches_cofactor_expansion(m):
    assert det(m) == cofactor_det(m)


@given(st.one_of(square(3), square(4)))
def test_det_transpose_invariant(m):
    mt = [list(row) for row in zip(*m)]
    assert det(m) == det(mt)


@given(square(3, fracs))
def test_det_rational_entries(m):
    assert det(m) == cofactor_det(m)


@given(st.one_of(square(3), square(4), square(3, fracs)), st.data())
def test_solve_satisfies_system(m, data):
    n = len(m)
    b = data.draw(st.lists(st.one_of(ints, fracs), min_size=n, max_size=n))
    if det(m) == 0:
        with pytest.raises(SingularMatrixError):
            solve(m, b)
        return
    x = solve(m, b)
    for i in range(n):
        assert dot(m[i], x) == b[i]


@st.composite
def large_sparse_matrices(draw):
    """Zero-heavy square or symmetric matrices, or forests in shuffled
    vertex order, which have several components."""
    n = draw(st.integers(min_value=9, max_value=10))
    kind = draw(st.sampled_from(["square", "symmetric", "forest"]))
    if kind == "square":
        return draw(square(n, sparse_ints))
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
    perm = draw(st.permutations(range(n)))
    return [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@settings(max_examples=100)
@given(large_sparse_matrices(), st.data())
def test_kernels_on_reordered_sparse_patterns(m, data):
    n = len(m)
    rows, swaps, _ = dense_bareiss(m, n)
    want_det = 0 if rows is None else (-1) ** swaps * rows[n - 1][n - 1]
    assert det(m) == want_det
    if all(m[i][j] == m[j][i] for i in range(n) for j in range(i)):
        assert is_negative_definite(m) == negdef_by_charpoly(m)
    b = data.draw(st.lists(ints, min_size=n, max_size=n))
    if want_det == 0:
        with pytest.raises(SingularMatrixError):
            solve(m, b)
        return
    x = solve(m, b)
    for i in range(n):
        assert dot(m[i], x) == b[i]


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


@st.composite
def fallback_inputs(draw):
    """(matrix, whether `det` and `solve` must take the dense fallback, or
    None when either path may serve): symmetric trees whose leaf-first
    pivot vanishes, singular (D~4 alone) or not, square matrices whose
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
        a = [[a[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        must_fall_back = True
    else:
        n = draw(st.integers(min_value=2, max_value=6))
        a = draw(square(n, sparse_ints))
        lopsided = any((a[i][j] == 0) != (a[j][i] == 0) for i in range(n) for j in range(i))
        must_fall_back = True if lopsided else None
    factor = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(-2, 3)]))
    if factor != 1:
        a = [[factor * x for x in row] for row in a]
    return a, must_fall_back


@settings(max_examples=150)
@given(fallback_inputs(), st.data())
@example((d4_tail([], []), True), None)  # D~4 alone: singular
@example((d4_tail([-2, -3], [0]), True), None)
@example(([[0, 1], [0, 1]], True), None)
def test_kernels_fall_back_when_sparse_elimination_cannot(case, data):
    m, must_fall_back = case
    n = len(m)
    calls = []
    b = [1] * n if data is None else data.draw(st.lists(st.one_of(ints, fracs), min_size=n, max_size=n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rational, "bareiss", lambda a, cols: calls.append(cols) or bareiss(a, cols))
        got_det = det(m)
        if must_fall_back is not None:
            assert bool(calls) == must_fall_back
        if is_symmetric(m):
            calls.clear()
            # a zero pivot already means not definite: no dense run
            assert is_negative_definite(m) == negdef_by_charpoly(m)
            assert not calls
        calls.clear()
        if got_det == 0:
            with pytest.raises(SingularMatrixError):
                solve(m, b)
        else:
            x = solve(m, b)
            for i in range(n):
                assert dot(m[i], x) == b[i]
        if must_fall_back is not None:
            assert bool(calls) == must_fall_back
    assert got_det == cofactor_det(m)


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
    if det(m) != 0:
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
