from fractions import Fraction
from itertools import combinations, product

import pytest

import kdg.families
from kdg.checks import _family_corpus
from kdg.errors import PreconditionError, SingularLimitError
from kdg.families import (
    closed_form_k2,
    expected_limit,
    family_names,
    family_spec,
    generate,
    stretch_descriptor,
    stretchable_parameters,
    two_curve_coefficient,
    vertex_count,
)
from kdg.graph import adjunction_degrees, validate
from kdg.invariants import canonical_cycle, k_squared
from kdg.rational import UNBOUNDED, det
from kdg.transforms import detect_strings, limit_k_squared


def test_family_names_complete():
    names = family_names()
    assert set(names) == {
        "A", "D", "E6", "E7", "E8",
        "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX",
        "two_curve", "tail", "two_tail",
        "double_three", "simple_elliptic", "non_lc_star",
    }


def test_spec_validation():
    with pytest.raises(PreconditionError, match="unknown family"):
        family_spec("Z")
    with pytest.raises(PreconditionError, match="takes parameters"):
        family_spec("I", n=1)
    with pytest.raises(PreconditionError, match="takes parameters"):
        family_spec("E6", n=1)
    with pytest.raises(PreconditionError, match="integer"):
        family_spec("A", n=True)
    for bad in [
        lambda: family_spec("A", n=0),
        lambda: family_spec("D", n=3),
        lambda: family_spec("III", n=0, s=1),
        lambda: family_spec("VI", n=0),
        lambda: family_spec("two_curve", k=3, m=1, n=1),
        lambda: family_spec("two_curve", k=2, m=0, n=1),
        lambda: family_spec("tail", r=3, k=1, n=0),
        lambda: family_spec("two_tail", r=2, k=1, n=0, s=0),
        lambda: family_spec("simple_elliptic", w=0),
        lambda: family_spec("I", n=-1, s=0, t=0),
    ]:
        with pytest.raises(PreconditionError):
            bad()


def test_spec_accessors():
    spec = family_spec("I", t=2, n=0, s=1)
    assert spec["n"] == 0 and spec["s"] == 1 and spec["t"] == 2
    assert str(spec) == "I(n=0, s=1, t=2)"
    assert str(family_spec("E8")) == "E8"
    with pytest.raises(KeyError):
        spec["q"]


def test_cartan_determinants_anchor_shapes():
    # |det| of the intersection matrix pins down the Dynkin type exactly
    for n in range(1, 9):
        g = generate(family_spec("A", n=n))
        assert abs(det(g._factorization)) == n + 1
    for n in range(4, 9):
        g = generate(family_spec("D", n=n))
        assert abs(det(g._factorization)) == 4
    for name, want in [("E6", 3), ("E7", 2), ("E8", 1)]:
        g = generate(family_spec(name))
        assert abs(det(g._factorization)) == want


def test_star_shapes_small_values():
    assert closed_form_k2(family_spec("I", n=0, s=0, t=0)) == Fraction(1, 3)
    assert len(generate(family_spec("I", n=0, s=0, t=0))) == 1
    assert closed_form_k2(family_spec("I", n=1, s=1, t=1)) == Fraction(2, 3)
    assert closed_form_k2(family_spec("III", n=0, s=2)) == Fraction(3, 7)
    assert closed_form_k2(family_spec("IV", n=0)) == Fraction(4, 7)
    assert closed_form_k2(family_spec("V", n=0)) == Fraction(3, 5)
    assert closed_form_k2(family_spec("VII")) == Fraction(2, 3)
    assert closed_form_k2(family_spec("VIII")) == Fraction(4, 5)
    assert closed_form_k2(family_spec("IX")) == Fraction(2, 3)
    assert closed_form_k2(family_spec("non_lc_star")) == Fraction(71, 11)


def small_corpus():
    specs = []
    for n in range(3):
        for s in range(3):
            specs.append(family_spec("II", n=n, s=s))
            for t in range(3):
                specs.append(family_spec("I", n=n, s=s, t=t))
    for s in range(2, 5):
        specs.append(family_spec("III", n=1, s=s))
    specs += [family_spec(name, n=2) for name in ("IV", "V", "VI")]
    specs += [family_spec(name) for name in ("VII", "VIII", "IX", "non_lc_star", "E6", "E7", "E8")]
    specs += [family_spec("two_curve", k=k, m=m, n=2) for k in (2, 4) for m in (1, 2)]
    specs += [family_spec("tail", r=4, k=1, n=n) for n in range(3)]
    specs += [family_spec("two_tail", r=3, k=1, n=1, s=s) for s in range(3)]
    specs += [family_spec("double_three", n=n) for n in range(4)]
    specs += [family_spec("simple_elliptic", w=w) for w in (1, 2, 5)]
    specs += [family_spec("A", n=3), family_spec("D", n=5)]
    return specs


def test_generated_members_match_closed_forms():
    for spec in small_corpus():
        g = generate(spec)
        assert validate(g).admissible, str(spec)
        assert k_squared(g) == closed_form_k2(spec), str(spec)


def test_vertex_count_is_the_built_size():
    for spec in _family_corpus():
        assert vertex_count(spec) == len(generate(spec)), str(spec)


def test_vertex_budget_is_checked_before_building(monkeypatch):
    """generate refuses a member over FAMILY_VERTEX_BUDGET by its count
    alone; at the budget it builds."""
    spec = family_spec("I", n=1, s=2, t=3)
    monkeypatch.setattr(kdg.families, "FAMILY_VERTEX_BUDGET", 7)
    assert len(generate(spec)) == 7
    monkeypatch.setattr(kdg.families, "build_graph", None)  # building would raise
    monkeypatch.setattr(kdg.families, "FAMILY_VERTEX_BUDGET", 6)
    with pytest.raises(PreconditionError, match="family I with these parameters has more than 6 vertices"):
        generate(spec)


def test_two_curve_values():
    spec = family_spec("two_curve", k=2, m=1, n=1)
    g = generate(spec)
    assert k_squared(g) == Fraction(72, 5)
    coeffs = canonical_cycle(g).coefficients
    want = two_curve_coefficient(spec)
    assert want == Fraction(-6, 5)
    for cid in ("e1", "e2"):
        assert coeffs[g.index_of(cid)] == want
    # the two curves have genus k/2 and self-intersection -(2km+2)
    for cid in ("e1", "e2"):
        v = g.vertices[g.index_of(cid)]
        assert v.genus == 1 and v.self_int == -6


def test_tail_adjunction_degree_is_r():
    for r, k in [(2, 1), (4, 1), (4, 3), (6, 5)]:
        spec = family_spec("tail", r=r, k=k, n=2)
        g = generate(spec)
        assert adjunction_degrees(g)[g.index_of("x")] == r
    for r, k in [(1, 1), (3, 1), (5, 3)]:
        spec = family_spec("two_tail", r=r, k=k, n=1, s=2)
        g = generate(spec)
        assert adjunction_degrees(g)[g.index_of("x")] == r


def test_expected_limits():
    assert expected_limit(family_spec("I", n=1, s=1, t=0), ["n", "s"]) == 1
    assert expected_limit(family_spec("I", n=1, s=1, t=1), ["n", "s", "t"]) is UNBOUNDED
    assert expected_limit(family_spec("II", n=2, s=1), ["n"]) == 1
    assert expected_limit(family_spec("II", n=2, s=1), ["s"]) == Fraction(3, 4)
    assert expected_limit(family_spec("III", n=1, s=3), ["n", "s"]) is UNBOUNDED
    assert expected_limit(family_spec("VI", n=2), ["n"]) is UNBOUNDED
    assert expected_limit(family_spec("tail", r=4, k=1, n=1), ["n"]) == 16
    assert expected_limit(family_spec("two_tail", r=3, k=3, n=1, s=1), ["n", "s"]) == 3
    assert expected_limit(family_spec("double_three", n=1), ["n"]) == 1
    assert expected_limit(family_spec("two_curve", k=2, m=1, n=2), ["n"]) == 18
    with pytest.raises(PreconditionError):
        expected_limit(family_spec("VII"), ["n"])
    with pytest.raises(PreconditionError):
        expected_limit(family_spec("II", n=1, s=1), [])


def test_stretchable_parameters():
    assert stretchable_parameters(family_spec("I", n=0, s=0, t=0)) == ("n", "s", "t")
    assert stretchable_parameters(family_spec("E8")) == ()
    assert stretchable_parameters(family_spec("two_curve", k=2, m=1, n=1)) == ("n",)


def test_stretch_descriptor_matches_detection():
    spec = family_spec("II", n=2, s=1)
    g = generate(spec)
    for param in ("n", "s"):
        d = stretch_descriptor(spec, g, param)
        assert d in detect_strings(g) or d.reversed() in detect_strings(g)


def test_stretch_descriptor_preconditions():
    with pytest.raises(PreconditionError, match="n >= 2"):
        spec = family_spec("two_curve", k=2, m=1, n=1)
        stretch_descriptor(spec, generate(spec), "n")
    with pytest.raises(PreconditionError):
        spec = family_spec("VI", n=1)
        stretch_descriptor(spec, generate(spec), "n")
    with pytest.raises(PreconditionError):
        spec = family_spec("III", n=1, s=2)
        stretch_descriptor(spec, generate(spec), "s")
    with pytest.raises(PreconditionError):
        spec = family_spec("IV", n=1)
        stretch_descriptor(spec, generate(spec), "m")


def test_limits_realized_by_machinery():
    cases = [
        (family_spec("tail", r=2, k=1, n=1), ["n"]),
        (family_spec("two_curve", k=2, m=1, n=2), ["n"]),
        (family_spec("double_three", n=2), ["n"]),
        (family_spec("II", n=1, s=2), ["s"]),
    ]
    for spec, params in cases:
        g = generate(spec)
        strings = [stretch_descriptor(spec, g, p) for p in params]
        assert limit_k_squared(g, strings) == expected_limit(spec, params), str(spec)
    spec = family_spec("VI", n=2)
    g = generate(spec)
    with pytest.raises(SingularLimitError):
        limit_k_squared(g, [stretch_descriptor(spec, g, "n")])
    assert expected_limit(spec, ["n"]) is UNBOUNDED


def test_expected_limits_match_limit_machinery_on_every_small_member():
    """`expected_limit`, the closed form with its stretched arm factors at
    1, against `limit_k_squared` on every nonempty set of stretchable
    parameters of every member with n, s <= 4, t <= 3, k in {2, 4},
    m in {1, 2} and r <= 6 whose strings `stretch_descriptor` finds; a
    singular limit system meets UNBOUNDED."""
    ranges = {"n": range(5), "s": range(5), "t": range(4), "k": (2, 4), "m": (1, 2), "r": range(7)}
    pairs = 0
    for name in family_names():
        keys = kdg.families._PARAMS[name]
        for values in product(*(ranges.get(k, ()) for k in keys)):
            try:
                spec = family_spec(name, **dict(zip(keys, values)))
            except PreconditionError:
                continue
            stretchable = stretchable_parameters(spec)
            if not stretchable:
                continue
            g = generate(spec)
            for size in range(1, len(stretchable) + 1):
                for params in combinations(stretchable, size):
                    try:
                        strings = [stretch_descriptor(spec, g, p) for p in params]
                    except PreconditionError:
                        continue
                    try:
                        got = limit_k_squared(g, strings)
                    except SingularLimitError:
                        got = UNBOUNDED
                    assert got == expected_limit(spec, params), (str(spec), params)
                    pairs += 1
    assert pairs == 872
