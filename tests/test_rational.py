from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kdg.rational import (
    UNBOUNDED,
    SingularMatrixError,
    det,
    dot,
    is_negative_definite,
    lcm_denominators,
    nullspace,
    parse_rat,
    quadratic_form,
    rat,
    rat_decimal,
    rat_str,
    solve,
)

from .oracles import char_poly, cofactor_det, negdef_by_charpoly, quad_form_counterexample

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
