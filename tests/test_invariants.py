import copy
import json
from fractions import Fraction
from math import prod
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kdg import invariants
from kdg.checks import _family_corpus
from kdg.enumeration import EnumBounds, graph_from_encoding, random_admissible
from kdg.errors import (
    InternalCheckError,
    InvalidGraphError,
    NotNegativeDefiniteError,
    PreconditionError,
)
from kdg.families import family_spec, generate
from kdg.graph import (
    Edge,
    VertexData,
    WeightedDualGraph,
    adjunction_degrees,
    build_graph,
    graph_to_json,
    intersection_matrix,
    parse_graph_json,
    validate,
)
from kdg.invariants import (
    NON_RATIONAL,
    RATIONAL_DOUBLE,
    RATIONAL_OTHER,
    RATIONAL_TRIPLE,
    Cycle,
    _class_invariants,
    _pa_levels,
    bound_checks,
    canonical_cycle,
    classify,
    cycle_degrees,
    cycle_pa,
    fundamental_cycle,
    invariant_report,
    k_squared,
    numerical_index,
    pa_max_bounded,
    report_to_obj,
    report_to_text,
)

from kdg.rational import is_negative_definite, quadratic_form, sparse_bareiss

from .conftest import search_factorization
from .oracles import ADE_BOX_BOUND, box_min_anti_nef, box_pa_max, dense_form, fraction_solve

import random


def x31():
    return build_graph([("e", 0, -3)], [])


def test_single_minus3_vertex():
    g = x31()
    m = canonical_cycle(g)
    assert m.coefficients == (Fraction(-1, 3),)
    assert not m.integral
    assert k_squared(g) == Fraction(1, 3)
    assert numerical_index(g) == 3
    assert classify(g) == RATIONAL_TRIPLE
    assert fundamental_cycle(g).as_ints() == (1,)
    assert pa_max_bounded(g) == 0


def test_minus3_minus2_chain():
    g = build_graph([("a", 0, -3), ("b", 0, -2)], [("a", "b", 1)])
    assert canonical_cycle(g).coefficients == (Fraction(-2, 5), Fraction(-1, 5))
    assert k_squared(g) == Fraction(2, 5)
    assert numerical_index(g) == 5
    assert classify(g) == RATIONAL_TRIPLE
    z2, kz = cycle_degrees(g, fundamental_cycle(g))
    assert (z2, kz) == (-3, 1)


def test_canonical_cycle_solves_adjunction():
    g = generate(family_spec("II", n=2, s=1))
    m = canonical_cycle(g).coefficients
    mat = intersection_matrix(g)
    c = adjunction_degrees(g)
    for i in range(len(g)):
        assert sum(map(mul, mat[i], m)) == c[i]


def test_ade_vanishing():
    for spec in [family_spec("A", n=5), family_spec("D", n=6), family_spec("E7")]:
        g = generate(spec)
        assert k_squared(g) == 0
        cyc = canonical_cycle(g)
        assert cyc.integral and set(cyc.as_ints()) == {0}
        assert classify(g) == RATIONAL_DOUBLE
        assert numerical_index(g) == 1


def test_fundamental_cycle_frozen_values():
    d4 = generate(family_spec("D", n=4))
    assert d4.ids() == ("c1", "c2", "f1", "f2")
    assert fundamental_cycle(d4).as_ints() == (1, 2, 1, 1)
    e8 = generate(family_spec("E8"))
    # the classical highest-root coefficients, center c3 carrying 6
    assert fundamental_cycle(e8).as_ints() == (2, 4, 6, 5, 4, 3, 2, 3)
    an = generate(family_spec("A", n=7))
    assert fundamental_cycle(an).as_ints() == (1,) * 7


def test_fundamental_cycle_matches_box_oracle():
    cases = [
        (family_spec("A", n=3), ADE_BOX_BOUND["A"]),
        (family_spec("D", n=5), ADE_BOX_BOUND["D"]),
        (family_spec("E6"), ADE_BOX_BOUND["E6"]),
    ]
    for spec, bound in cases:
        g = generate(spec)
        z = fundamental_cycle(g).as_ints()
        assert z == box_min_anti_nef(g, [bound] * len(g))


def test_non_lc_star_values():
    g = generate(family_spec("non_lc_star"))
    r = invariant_report(g)
    assert r.k_squared == Fraction(71, 11)
    assert r.canonical.coefficients == (
        Fraction(-13, 11),
        Fraction(-8, 11),
        Fraction(-8, 11),
        Fraction(-8, 11),
        Fraction(-8, 11),
    )
    assert r.numerical_index == 11
    assert r.z_squared == -9 and r.pa_z == 0
    assert r.classification == RATIONAL_OTHER


def test_simple_elliptic_values():
    g = generate(family_spec("simple_elliptic", w=3))
    r = invariant_report(g)
    assert r.k_squared == 3
    assert r.canonical.integral and r.canonical.as_ints() == (-1,)
    assert r.numerical_index == 1
    assert r.pa_z == 1
    assert r.classification == NON_RATIONAL
    assert pa_max_bounded(g) == 1


def test_cycle_pa_requires_integral():
    g = x31()
    with pytest.raises(PreconditionError):
        cycle_pa(g, [Fraction(1, 2)])
    assert cycle_pa(g, [1]) == 0
    assert cycle_pa(g, [2]) == -4


@given(st.integers(min_value=0, max_value=10**6), st.data())
@settings(max_examples=60)
def test_cycle_pa_is_integer_on_integral_cycles(seed, data):
    rng = random.Random(seed)
    g = random_admissible(rng, EnumBounds(6, min_self=-6, max_genus=2, max_edge_multiplicity=2))
    d = data.draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=len(g), max_size=len(g)))
    assert isinstance(cycle_pa(g, d), int)


def test_pa_max_bound_validated():
    with pytest.raises(PreconditionError):
        pa_max_bounded(x31(), bound=0)


# Largest box, prod(bound * z_i + 1) points, the exhaustive oracle visits.
ORACLE_BOX_POINTS = 10**4


def compare_pa_max_with_box(g) -> list[int]:
    """Check pa_max_bounded against the box oracle for every bound in 1..3
    whose box is small enough; return the values compared."""
    z = fundamental_cycle(g).as_ints()
    values = []
    for bound in (1, 2, 3):
        if prod(bound * zi + 1 for zi in z) > ORACLE_BOX_POINTS:
            break
        value = pa_max_bounded(g, bound)
        assert value == box_pa_max(g, bound), (g, bound)
        values.append(value)
    return values


def test_pa_max_matches_box_oracle_on_corpora(e5_entries, e4_values):
    encodings = [
        e.encoding
        for i, e in enumerate(e5_entries)
        if i % 12 == 0 or e.classification != NON_RATIONAL
    ] + [enc for enc, _ in e4_values[::200]]
    compared = rational = non_rational = raised = 0
    for enc in encodings:
        g = graph_from_encoding(enc)
        pa_z = cycle_pa(g, fundamental_cycle(g))
        values = compare_pa_max_with_box(g)
        compared += len(values)
        rational += pa_z == 0 and bool(values)
        non_rational += pa_z >= 1 and bool(values)
        raised += sum(v > pa_z for v in values)
    # the sample must reach both Artin's shortcut and the search, and the
    # search must find maxima above p_a(Z)
    assert compared >= 4000
    assert rational >= 50 and non_rational >= 1000 and raised >= 1000


@st.composite
def small_admissible_graphs(draw):
    """Admissible graphs with at most 5 vertices, genus <= 2, multiplicity <= 2."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    return random_admissible(rng, EnumBounds(5, min_self=-4, max_genus=2, max_edge_multiplicity=2))


@given(small_admissible_graphs())
@settings(max_examples=150)
def test_pa_max_matches_box_oracle_random(g):
    values = compare_pa_max_with_box(g)
    assert values == sorted(values)  # the boxes are nested


@st.composite
def cyclic_definite_graphs(draw):
    """Negative definite graphs on 2 to 9 vertices with many cycles: any
    pair joined with multiplicity up to 2, genus up to 2, and each
    self-intersection at most 2 below minus the vertex's edge count, so
    that often only just definite."""
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mults = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2]), min_size=len(pairs), max_size=len(pairs)))
    edges = [(f"v{i}", f"v{j}", m) for (i, j), m in zip(pairs, mults) if m]
    meets = [sum(m for (i, j), m in zip(pairs, mults) if v in (i, j)) for v in range(n)]
    verts = [
        (f"v{v}", draw(st.integers(0, 2)), -max(1, meets[v] + draw(st.integers(-1, 2)))) for v in range(n)
    ]
    g = build_graph(verts, edges)
    assume(is_negative_definite(g._factorization))
    return g


@given(cyclic_definite_graphs())
@settings(max_examples=200)
@example(build_graph([("a", 1, -3), ("b", 0, -3), ("c", 2, -4)], [("a", "b", 2), ("b", "c"), ("a", "c")]))
def test_pa_levels_match_elimination_of_minus_m(g):
    """The p_a search's levels, read off g's own factorization of [M | c]
    with one sign per level, equal those of a separate `sparse_bareiss` on
    -M with c riding along: the order, den = 2 N_k, cst = rhs_k, the
    doubled rows and quad = 4 N_k s_k."""
    want = minus_m_levels(g)
    assert _pa_levels(g) == want
    assert all(q > 0 for q in want[-1])


def minus_m_levels(g):
    """The p_a search's levels from a `sparse_bareiss` of its own on -M
    with c riding along."""
    adj = g.adjacency()
    diag = [-v.self_int for v in g.vertices]
    rows = [{j: -mult for j, mult in a.items()} for a in adj]
    rhs = list(adjunction_degrees(g))
    elim, row_scale = sparse_bareiss(diag, rows, rhs)
    order = elim[::-1]
    level = {v: k for k, v in enumerate(order)}
    return (
        order,
        [2 * diag[v] for v in order],
        [rhs[v] for v in order],
        [[(level[j], 2 * x) for j, x in rows[v].items() if x] for v in order],
        [4 * diag[v] * row_scale[v] for v in order],
    )


def grid_of_minus_five_curves(r=10):
    ids = [[f"{i}_{j}" for j in range(r)] for i in range(r)]
    edges = [(ids[i][j], ids[i][j + 1]) for i in range(r) for j in range(r - 1)]
    edges += [(ids[i][j], ids[i + 1][j]) for i in range(r - 1) for j in range(r)]
    return build_graph([(v, 0, -5) for row in ids for v in row], edges)


def complete_graph_of_curves(n=30):
    """K_n with every self-intersection -n: M = J - (n + 1) I and c = n - 2,
    so m = -(n - 2) and -K^2 = n (n - 2)^2."""
    ids = [f"v{i}" for i in range(n)]
    return build_graph([(v, 0, -n) for v in ids], [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]])


@pytest.mark.parametrize(
    "make, k2, pa_z, pa_max",
    [
        # -K^2 as `fraction_solve` finds it on the dense 100 x 100 matrix
        (grid_of_minus_five_curves, Fraction(971610095340, 1390356463), 81, 81),
        (complete_graph_of_curves, Fraction(30 * 28**2), 406, 1126),
    ],
    ids=["grid_10x10", "k30"],
)
def test_pa_search_on_graphs_with_many_cycles(make, k2, pa_z, pa_max):
    """Two graphs with many cycles, where a level's sign decides its
    bounds: the search's levels equal those of -M's own elimination, and
    the report holds -K^2, p_a(Z), the searched p_a bound and every bound
    check; the search finds the same p_a bound on its own."""
    g = make()
    assert _pa_levels(g) == minus_m_levels(g)
    report = invariant_report(g)
    assert (report.k_squared, report.pa_z) == (k2, pa_z)
    assert all(check.holds for check in report.bound_checks)
    assert report.bound_checks[-1].rhs == 4 * pa_max - 3
    assert pa_max_bounded(g) == pa_max


@given(small_admissible_graphs())
@settings(max_examples=100)
@example(build_graph([("a", 0, -13), ("b", 0, -2)], [("a", "b", 5)]))
def test_fundamental_cycle_is_least_anti_nef_cycle(g):
    # in the example, b still has Z.A_b > 0 right after it is added
    z = fundamental_cycle(g).as_ints()
    assert box_min_anti_nef(g, z) == z


def invariants_by_fractions(g):
    """(-K^2, class, Z^2, index) through the public `Fraction` functions."""
    z_sq, _ = cycle_degrees(g, fundamental_cycle(g))
    return k_squared(g), classify(g), int(z_sq), numerical_index(g)


def integer_invariants(g):
    """`_class_invariants` on the factorization the enumerator's search
    holds at the leaf of g, in vertex order."""
    piv, lower = search_factorization(intersection_matrix(g))
    return _class_invariants([(v.genus, v.self_int) for v in g.vertices], g.adjacency(), piv, lower)


def test_class_invariants_match_fraction_path_on_e5(e5_entries):
    # every 7th class holds no rational triple, so the rational classes join it
    sample = [e for i, e in enumerate(e5_entries) if i % 7 == 0 or e.classification != NON_RATIONAL]
    for entry in sample:
        g = graph_from_encoding(entry.encoding)
        expected = invariants_by_fractions(g)
        assert integer_invariants(g) == expected, entry.encoding
        assert tuple(entry[1:]) == expected, entry.encoding
    classes = {entry.classification for entry in sample}
    assert classes == {RATIONAL_DOUBLE, RATIONAL_TRIPLE, RATIONAL_OTHER, NON_RATIONAL}


@st.composite
def admissible_graphs_up_to_8(draw):
    """Admissible graphs with at most 8 vertices, genus <= 2, multiplicity <= 2."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    return random_admissible(rng, EnumBounds(8, min_self=-6, max_genus=2, max_edge_multiplicity=2))


@given(admissible_graphs_up_to_8())
@settings(max_examples=150)
def test_class_invariants_match_fraction_path(g):
    """The leaf reader against the public `Fraction` functions."""
    assert integer_invariants(g) == invariants_by_fractions(g)


@given(admissible_graphs_up_to_8(), st.data())
@settings(max_examples=150)
def test_form_matches_dense_quadratic_form(g, data):
    """The sparse t(v) M v against the dense double sum of `oracles.dense_form`."""
    n = len(g)
    weights = [v.self_int for v in g.vertices]
    m = intersection_matrix(g)
    v_int = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    v_rat = data.draw(
        st.lists(st.fractions(-5, 5, max_denominator=7), min_size=n, max_size=n)
    )
    form = quadratic_form(weights, g.adjacency(), v_int)
    assert type(form) is int and form == dense_form(m, v_int)
    assert quadratic_form(weights, g.adjacency(), v_rat) == dense_form(m, v_rat)


@given(st.integers(min_value=0, max_value=10**6), st.booleans(), st.booleans(), st.data())
@settings(max_examples=150)
def test_cycle_degrees_match_dense_form(seed, integral, as_cycle, data):
    """`cycle_degrees` and `cycle_pa` against the dense `oracles.dense_form`
    and a plain sum of products, on integral cycles (their integer path)
    and on rational ones."""
    rng = random.Random(seed)
    g = random_admissible(rng, EnumBounds(6, min_self=-6, max_genus=2, max_edge_multiplicity=2))
    n = len(g)
    entries = st.integers(-9, 9)
    if not integral:
        entries = entries | st.fractions(-5, 5, max_denominator=7)
    d = data.draw(st.lists(entries, min_size=n, max_size=n))
    arg = Cycle.from_coefficients(d) if as_cycle else d
    d_sq = dense_form(intersection_matrix(g), d)
    k_dot = sum(map(mul, d, adjunction_degrees(g)))
    degrees = cycle_degrees(g, arg)
    assert degrees == (d_sq, k_dot)
    assert all(type(x) is Fraction for x in degrees)
    if all(Fraction(x).denominator == 1 for x in d):
        pa = cycle_pa(g, arg)
        assert type(pa) is int and pa == 1 + (d_sq + k_dot) / 2
    else:
        with pytest.raises(PreconditionError):
            cycle_pa(g, arg)
    for wrong in (d + [Fraction(1, 2)], d[:-1]):
        with pytest.raises(ValueError):
            cycle_degrees(g, wrong)
        with pytest.raises(ValueError):
            cycle_pa(g, wrong)


def test_cycle_degrees_of_canonical_cycle_on_family_grid():
    """K^2 and K.K both equal -(-K^2), from rational coefficients, and
    every value is a Fraction, also the zeros of ADE graphs."""
    for spec in _family_corpus():
        g = generate(spec)
        k2 = k_squared(g)
        degrees = cycle_degrees(g, canonical_cycle(g))
        assert degrees == (-k2, -k2), str(spec)
        assert all(type(x) is Fraction for x in (k2, *degrees)), str(spec)


def dense_k_squared(g) -> Fraction:
    """-K^2 = -sum m_i c_i with m from Gauss-Jordan elimination over
    `Fraction`s on the dense intersection matrix (`oracles.fraction_solve`)."""
    c = adjunction_degrees(g)
    return -sum(map(mul, fraction_solve(intersection_matrix(g), c), c))


def test_k_squared_matches_dense_solve_on_family_grid():
    """-K^2 read off each graph's one factorization against the dense
    solve, on every member of the family corpus."""
    for spec in _family_corpus():
        g = generate(spec)
        assert k_squared(g) == dense_k_squared(g), str(spec)


@given(admissible_graphs_up_to_8())
@settings(max_examples=150)
def test_k_squared_matches_dense_solve(g):
    assert k_squared(g) == dense_k_squared(g)
    assert list(canonical_cycle(g).coefficients) == fraction_solve(intersection_matrix(g), adjunction_degrees(g))


def test_k_squared_refuses_indefinite_and_singular():
    """An indefinite graph and a singular one (affine D4: a (-2)-centre with
    four (-2)-arms, negative semidefinite) raise the same error in
    `k_squared` and `canonical_cycle`."""
    indefinite = build_graph([("a", 0, -2), ("b", 0, -2)], [("a", "b", 2)])
    arms = [(f"a{i}", 0, -2) for i in range(4)]
    affine_d4 = build_graph([("x", 0, -2)] + arms, [("x", a[0]) for a in arms])
    for g in (indefinite, affine_d4):
        for route in (k_squared, canonical_cycle):
            with pytest.raises(NotNegativeDefiniteError) as exc:
                route(g)
            assert str(exc.value) == "intersection matrix is not negative definite"


def test_class_invariants_cross_check_k_squared(monkeypatch):
    """A wrong solution of M m = c must trip the two-way -K^2 comparison."""
    real = invariants._checked_k_squared
    monkeypatch.setattr(
        invariants,
        "_checked_k_squared",
        lambda weights, adj, c, y, d: real(weights, adj, c, [v + 1 for v in y], d),
    )
    with pytest.raises(InternalCheckError, match="-K\\^2 mismatch"):
        integer_invariants(x31())


def test_class_invariants_pivot_sign_guard():
    """A factorization whose leading minors do not alternate in sign from
    negative, a zero one included, is refused before any division."""
    g = build_graph([("a", 0, -3), ("b", 0, -2)], [("a", "b", 1)])
    data = [(v.genus, v.self_int) for v in g.vertices]
    piv, lower = search_factorization(intersection_matrix(g))
    assert piv == [1, -3, 5]
    for wrong in ([1, 3, 5], [1, -3, -5], [1, -3, 0], [1, 0, 5]):
        with pytest.raises(NotNegativeDefiniteError):
            _class_invariants(data, g.adjacency(), wrong, lower)


def test_k_squared_cross_check_trips(monkeypatch):
    """A solution off by one in any entry must trip the integer two-way
    comparison of `k_squared`."""
    real = invariants.solve
    g = build_graph([("a", 0, -3), ("b", 0, -2), ("c", 1, -4)], [("a", "b"), ("b", "c")])
    for k in range(len(g)):

        def wrong(f, *errors):
            y, d = real(f, *errors)
            return [v + (i == k) for i, v in enumerate(y)], d

        monkeypatch.setattr(invariants, "solve", wrong)
        with pytest.raises(InternalCheckError, match="-K\\^2 mismatch"):
            k_squared(g)


def tail_graph(genus: int, self_int: int, length: int):
    """One vertex of the given genus and self-intersection with a tail of
    `length` genus-0 (-2)-curves."""
    vertices = [("e", genus, self_int)] + [(f"t{i}", 0, -2) for i in range(length)]
    edges = [("e", "t0")] + [(f"t{i}", f"t{i + 1}") for i in range(length - 1)]
    return build_graph(vertices, edges)


def test_pa_max_on_non_rational_tails():
    # p_a(Z) = genus; the maximum over 0 < D <= 3Z lies above it once genus >= 2
    assert pa_max_bounded(tail_graph(1, -1, 40)) == 1
    assert pa_max_bounded(tail_graph(2, -1, 40)) == 4
    assert pa_max_bounded(tail_graph(3, -1, 40)) == 7
    # a long tree through the sparse ellipsoid
    assert pa_max_bounded(tail_graph(1, -1, 1500)) == 1
    for g in (tail_graph(2, -1, 4), tail_graph(3, -2, 3)):
        assert compare_pa_max_with_box(g)


def test_pa_search_budget_guard(monkeypatch):
    g = tail_graph(2, -1, 10)
    monkeypatch.setattr(invariants, "PA_SEARCH_BUDGET", 5)
    with pytest.raises(PreconditionError, match="p_a search on 11 vertices exceeded its budget of 5 nodes"):
        pa_max_bounded(g)
    # Artin's shortcut does no search, so a rational graph never trips the guard
    assert pa_max_bounded(generate(family_spec("E8"))) == 0


def d_chain_json(n):
    """D(n) as graph JSON, built without `family` and its vertex budget: the
    chain c1 .. c(n-2) with the leaves f1 and f2 on c(n-2)."""
    ids = [f"c{i}" for i in range(1, n - 1)] + ["f1", "f2"]
    pairs = list(zip(ids[: n - 3], ids[1 : n - 2])) + [(ids[n - 3], "f1"), (ids[n - 3], "f2")]
    return json.dumps(
        {
            "vertices": [{"id": i, "self": -2} for i in ids],
            "edges": [{"a": a, "b": b} for a, b in pairs],
        }
    )


def test_laufer_step_budget(monkeypatch):
    """Laufer's sequence takes sum(Z) - n steps, n - 3 on D(n): a valid
    input past the budget is refused as a precondition (exit code 4), not
    reported as an internal failure."""
    g = parse_graph_json(d_chain_json(100_010))
    assert invariants.LAUFER_STEP_BUDGET == 100_000
    with pytest.raises(
        PreconditionError, match="Laufer's sequence on 100010 vertices exceeded its budget of 100000 steps"
    ):
        fundamental_cycle(g)
    # the boundary on D(10), 7 steps, which is the family's D(10)
    small = parse_graph_json(d_chain_json(10))
    assert small == generate(family_spec("D", n=10))
    monkeypatch.setattr(invariants, "LAUFER_STEP_BUDGET", 7)
    assert fundamental_cycle(small).as_ints() == (1,) + (2,) * 7 + (1, 1)
    monkeypatch.setattr(invariants, "LAUFER_STEP_BUDGET", 6)
    # Z is kept per graph once found, so the smaller budget meets a new D(10)
    with pytest.raises(PreconditionError, match="exceeded its budget of 6 steps"):
        fundamental_cycle(parse_graph_json(d_chain_json(10)))


def test_laufer_runs_once_per_graph(monkeypatch):
    """`invariant_report` runs Laufer's sequence once per graph, and
    `fundamental_cycle` returns equal cycles on every call; its checks run
    on every call, so an error comes back the same each time."""
    runs = []

    def counted(weights, adj):
        runs.append(len(weights))
        return laufer(weights, adj)

    laufer = invariants._laufer
    monkeypatch.setattr(invariants, "_laufer", counted)
    specs = [family_spec("II", n=1, s=2), family_spec("E8"), family_spec("A", n=5), family_spec("tail", r=2, k=1, n=2)]
    graphs = [generate(spec) for spec in specs] + [
        random_admissible(random.Random(seed), EnumBounds(6, min_self=-6, max_genus=2, max_edge_multiplicity=2))
        for seed in range(10)
    ]
    for g in graphs:
        before = len(runs)
        first = invariant_report(g)
        assert len(runs) == before + 1
        z = fundamental_cycle(g)
        assert z == fundamental_cycle(g) == first.fundamental == invariant_report(g).fundamental
        assert len(runs) == before + 1
        fresh = parse_graph_json(graph_to_json(g))
        assert fundamental_cycle(fresh) == z and invariant_report(fresh) == first
    disconnected = build_graph([("a", 0, -2), ("b", 0, -3)])
    indefinite = build_graph([("a", 0, -1), ("b", 0, -1)], [("a", "b")])
    over_budget = generate(family_spec("D", n=10))
    monkeypatch.setattr(invariants, "LAUFER_STEP_BUDGET", 6)
    for g, error in (
        (disconnected, InvalidGraphError),
        (indefinite, NotNegativeDefiniteError),
        (over_budget, PreconditionError),
    ):
        raised = []
        for _ in range(2):
            with pytest.raises(error) as info:
                fundamental_cycle(g)
            raised.append(str(info.value))
        assert raised[0] == raised[1]
        assert "_fundamental" not in g.__dict__
    # a float genus is refused by the constructor, before any invariant is read
    with pytest.raises(InvalidGraphError, match="integer genus"):
        WeightedDualGraph((VertexData("a", 1.0, -3), VertexData("b", 0, -2)), (Edge(0, 1),))


@pytest.mark.parametrize("mult", [3, 2], ids=["indefinite", "semidefinite"])
def test_not_definite_graph_fails_alike_on_every_call(mult):
    """Each graph's factorization is built once and kept, yet every check
    still runs: on a graph that is not negative definite, `validate`
    reports it and each invariant raises the same text on every call, in
    any order, as on a fresh graph."""
    vertices, edges = [("a", 0, -2), ("b", 0, -2)], [("a", "b", mult)]
    checks = (canonical_cycle, fundamental_cycle, k_squared, invariant_report)
    expected = ["intersection matrix is not negative definite"] * 3 + ["not negative definite"]

    def outcomes(g, order):
        out = {}
        for check in order:
            with pytest.raises(NotNegativeDefiniteError) as info:
                check(g)
            out[check.__name__] = str(info.value)
        return [out[check.__name__] for check in checks]

    for order in (checks, checks[::-1]):
        g = build_graph(vertices, edges)
        for _ in range(2):
            report = validate(g)
            assert not report.negative_definite and report.messages == ("not negative definite",)
            assert outcomes(g, order) == expected
    for check in checks:
        assert outcomes(build_graph(vertices, edges), (check,) + checks) == expected


def test_graph_copies_report_alike():
    """A graph's JSON round trip and its deep copies, taken before or after
    its definiteness is kept on its rows, give the same report, or raise
    the same error."""
    graphs = [generate(family_spec("II", n=1, s=2)), generate(family_spec("E8")), generate(family_spec("A", n=5))]
    graphs += [
        random_admissible(random.Random(seed), EnumBounds(6, min_self=-6, max_genus=2, max_edge_multiplicity=2))
        for seed in range(10)
    ]
    for g in graphs:
        early = copy.deepcopy(g)
        first = invariant_report(g)
        for twin in (parse_graph_json(graph_to_json(g)), copy.deepcopy(g), early):
            assert twin == g and invariant_report(twin) == first
    g = build_graph([("a", 0, -2), ("b", 0, -2)], [("a", "b", 3)])
    assert not validate(g).negative_definite
    for twin in (parse_graph_json(graph_to_json(g)), copy.deepcopy(g)):
        with pytest.raises(NotNegativeDefiniteError, match="^intersection matrix is not negative definite$"):
            canonical_cycle(twin)


@pytest.mark.parametrize(
    "g, pa, nodes",
    [
        (tail_graph(3, -1, 40), 7, 121),
        (tail_graph(2, -1, 40), 4, 120),
        (generate(family_spec("tail", r=6, k=1, n=40)), 4, 75),
    ],
    ids=["tail_graph(3,-1,40)", "tail_graph(2,-1,40)", "tail(r=6,k=1,n=40)"],
)
def test_pa_search_node_counts(monkeypatch, g, pa, nodes):
    """The pruning's strength, pinned: the search visits exactly `nodes`
    nodes, so it passes at that budget and gives up one node below."""
    monkeypatch.setattr(invariants, "PA_SEARCH_BUDGET", nodes)
    assert pa_max_bounded(g) == pa
    monkeypatch.setattr(invariants, "PA_SEARCH_BUDGET", nodes - 1)
    with pytest.raises(PreconditionError, match=f"exceeded its budget of {nodes - 1} nodes"):
        pa_max_bounded(g)


def test_classify_other():
    g = build_graph([("a", 0, -3), ("b", 0, -3)], [("a", "b", 1)])
    # -Z^2 = 4 rules out double and triple
    assert classify(g) == RATIONAL_OTHER


def test_numerical_index_times_k_is_integral():
    for spec in [family_spec("I", n=2, s=3, t=4), family_spec("V", n=2)]:
        g = generate(spec)
        r = numerical_index(g)
        coeffs = canonical_cycle(g).coefficients
        assert all((r * x).denominator == 1 for x in coeffs)
        assert r >= 1
        if r > 1:
            assert any(((r // p) * x).denominator > 1 for x in coeffs for p in
                       {p for p in range(2, r + 1) if r % p == 0})


def test_bound_check_names_and_holds():
    g = x31()
    checks = bound_checks(g)
    names = [c.name for c in checks]
    assert names == [
        "component_sum",
        "nonzero_minimum",
        "multiplicity",
        "embedding_dimension",
        "arithmetic_genus",
    ]
    assert all(c.holds for c in checks)
    by_name = {c.name: c for c in checks}
    # the single (-3)-vertex attains the global nonzero minimum exactly
    assert by_name["nonzero_minimum"].lhs == by_name["nonzero_minimum"].rhs == Fraction(1, 3)
    assert by_name["component_sum"].rhs == Fraction(1, 3)


def test_report_errors():
    disconnected = build_graph([("a", 0, -2), ("b", 0, -2)], [])
    with pytest.raises(InvalidGraphError):
        invariant_report(disconnected)
    blown_up = build_graph([("a", 0, -1)], [])
    with pytest.raises(InvalidGraphError, match="minimal"):
        invariant_report(blown_up)
    indefinite = build_graph([("a", 0, -2), ("b", 0, -2)], [("a", "b", 2)])
    with pytest.raises(NotNegativeDefiniteError):
        invariant_report(indefinite)
    with pytest.raises(NotNegativeDefiniteError):
        k_squared(indefinite)


def test_report_serialization():
    g = build_graph([("a", 0, -3), ("b", 0, -2)], [("a", "b", 1)])
    r = invariant_report(g)
    obj = report_to_obj(r, g)
    assert set(obj) == {
        "canonical",
        "k_squared",
        "fundamental",
        "z_squared",
        "k_dot_z",
        "pa_z",
        "numerical_index",
        "classification",
        "bound_checks",
    }
    assert obj["k_squared"] == "2/5"
    assert obj["canonical"]["coefficients"] == {"a": "-2/5", "b": "-1/5"}
    assert obj["canonical"]["integral"] is False
    assert obj["fundamental"]["coefficients"] == {"a": "1", "b": "1"}
    json.dumps(obj)  # must be plain JSON data
    text = report_to_text(r, g)
    assert "-K^2" in text and "2/5" in text
    assert "rational-triple" in text
