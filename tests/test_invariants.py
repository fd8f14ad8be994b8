import json
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
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
from kdg.graph import adjunction_degrees, build_graph, intersection_matrix, parse_graph_json
from kdg.invariants import (
    NON_RATIONAL,
    RATIONAL_DOUBLE,
    RATIONAL_OTHER,
    RATIONAL_TRIPLE,
    Cycle,
    _class_invariants,
    _form,
    _graph_k_squared,
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
from kdg.rational import dot, quadratic_form

from .conftest import search_factorization
from .oracles import ADE_BOX_BOUND, box_min_anti_nef, box_pa_max

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
        assert dot(mat[i], m) == c[i]


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
    """The sparse t(v) M v against the dense `rational.quadratic_form`."""
    n = len(g)
    weights = [v.self_int for v in g.vertices]
    m = intersection_matrix(g)
    v_int = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    v_rat = data.draw(
        st.lists(st.fractions(-5, 5, max_denominator=7), min_size=n, max_size=n)
    )
    form = _form(weights, g.adjacency(), v_int)
    assert type(form) is int and form == quadratic_form(m, v_int)
    assert _form(weights, g.adjacency(), v_rat) == quadratic_form(m, v_rat)


@given(st.integers(min_value=0, max_value=10**6), st.booleans(), st.booleans(), st.data())
@settings(max_examples=150)
def test_cycle_degrees_match_dense_form(seed, integral, as_cycle, data):
    """`cycle_degrees` and `cycle_pa` against the dense `quadratic_form` and
    `dot`, on integral cycles (their integer path) and on rational ones."""
    rng = random.Random(seed)
    g = random_admissible(rng, EnumBounds(6, min_self=-6, max_genus=2, max_edge_multiplicity=2))
    n = len(g)
    entries = st.integers(-9, 9)
    if not integral:
        entries = entries | st.fractions(-5, 5, max_denominator=7)
    d = data.draw(st.lists(entries, min_size=n, max_size=n))
    arg = Cycle.from_coefficients(d) if as_cycle else d
    d_sq = quadratic_form(intersection_matrix(g), d)
    k_dot = dot(d, adjunction_degrees(g))
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


def test_graph_k_squared_matches_k_squared_on_family_grid():
    """One factorization gives what the definiteness check and the solve
    give, on every member of the family corpus."""
    for spec in _family_corpus():
        g = generate(spec)
        assert _graph_k_squared(g) == k_squared(g), str(spec)


@given(admissible_graphs_up_to_8())
@settings(max_examples=150)
def test_graph_k_squared_matches_k_squared(g):
    assert _graph_k_squared(g) == k_squared(g)


def test_graph_k_squared_refuses_as_k_squared_does():
    """An indefinite graph and a singular one (affine D4: a (-2)-centre with
    four (-2)-arms, negative semidefinite) raise the same error both ways."""
    indefinite = build_graph([("a", 0, -2), ("b", 0, -2)], [("a", "b", 2)])
    arms = [(f"a{i}", 0, -2) for i in range(4)]
    affine_d4 = build_graph([("x", 0, -2)] + arms, [("x", a[0]) for a in arms])
    for g in (indefinite, affine_d4):
        for route in (k_squared, _graph_k_squared):
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
    """A form off by one must trip the integer two-way comparison of
    `k_squared` and of `_graph_k_squared`."""
    real = invariants._form
    monkeypatch.setattr(invariants, "_form", lambda weights, adj, v: real(weights, adj, v) + 1)
    for route in (k_squared, _graph_k_squared):
        with pytest.raises(InternalCheckError, match="-K\\^2 mismatch"):
            route(x31())


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
    with pytest.raises(PreconditionError, match="exceeded its budget of 6 steps"):
        fundamental_cycle(small)


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
