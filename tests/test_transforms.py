import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kdg import invariants, rational, transforms
from kdg.checks import _family_corpus
from kdg.enumeration import EnumBounds, random_admissible
from kdg.errors import NotNegativeDefiniteError, PreconditionError, SingularLimitError
from kdg.families import family_spec, generate, stretch_descriptor
from kdg.graph import (
    Edge,
    VertexData,
    WeightedDualGraph,
    build_graph,
    intersection_matrix,
    intersection_rows,
)
from kdg.invariants import k_squared, numerical_index
from kdg.rational import UNBOUNDED, is_negative_definite
from kdg.transforms import (
    InsertionSite,
    StringDescriptor,
    contract_string,
    contracted_indices,
    detect_strings,
    find_sites,
    insert_minus2,
    limit_k_squared,
    mobius_limit_crosscheck,
    verify_insertion,
    with_string_length,
)

from .oracles import insertion_values, schur_limit

ALWAYS_IDENTITIES = {
    "contraction_matches_direct",
    "old_coefficients_survive",
    "difference_identity",
    "determinant_ratio",
    "k2_increment",
    "coefficient_signs",
    "k2_monotone",
    "result_admissible",
}
CONDITIONAL_IDENTITIES = {
    "k2_preserved",
    "coefficient_multiset_preserved",
    "index_preserved",
}


def a_chain(n):
    return build_graph(
        [(f"c{i}", 0, -2) for i in range(1, n + 1)],
        [(f"c{i}", f"c{i+1}", 1) for i in range(1, n)],
    )


def triangle():
    return build_graph(
        [("x", 0, -3), ("o1", 0, -2), ("o2", 0, -2)],
        [("x", "o1", 1), ("o1", "o2", 1), ("o2", "x", 1)],
    )


def test_contract_a3_middle():
    g = a_chain(3)
    s = StringDescriptor((1,), 0, 2)
    m = contract_string(g, s)
    assert m == [
        {0: Fraction(-3, 2), 1: Fraction(1, 2)},
        {0: Fraction(1, 2), 1: Fraction(-3, 2)},
    ]
    assert contracted_indices(g, s) == [0, 2]


def test_contract_empty_chain_is_original_matrix():
    g = a_chain(2)
    s = StringDescriptor((), 0, 1)
    assert contract_string(g, s) == intersection_rows(g)


def test_contract_rejects_bad_props():
    g = build_graph(
        [("x", 0, -3), ("o", 0, -2), ("y", 0, -3)],
        [("x", "o", 1), ("o", "y", 1)],
    )
    with pytest.raises(PreconditionError, match=r"props must be \(-2\)"):
        contract_string(g, StringDescriptor((1,), 0, 2))
    # adjacent props with a nonempty chain in between is inconsistent
    cyc = build_graph(
        [("a", 0, -2), ("b", 0, -2), ("c", 0, -2)],
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)],
    )
    with pytest.raises(PreconditionError, match="adjacent"):
        contract_string(cyc, StringDescriptor((1,), 0, 2))


def test_find_sites():
    g = a_chain(4)
    assert find_sites(g) == [InsertionSite(0, 1), InsertionSite(1, 2), InsertionSite(2, 3)]
    assert find_sites(build_graph([("a", 0, -3)], [])) == []
    # multiplicity-2 edges and non-(-2) endpoints are not sites
    h = build_graph([("a", 0, -2), ("b", 0, -2)], [("a", "b", 2)])
    assert find_sites(h) == []


def test_insert_minus2_structure():
    g = a_chain(2)
    out = insert_minus2(g, InsertionSite(0, 1), 2)
    assert len(out) == 4
    assert out.ids()[:2] == ("c1", "c2")
    new_ids = out.ids()[2:]
    assert all(out.vertices[out.index_of(i)].self_int == -2 for i in new_ids)
    # old edge is gone, chain runs a - w1 - w2 - b
    assert out.edge_mult(0, 1) == 0
    assert k_squared(out) == 0


def test_insert_minus2_exact_graph():
    # site given high index first, id w1 already taken, a vertex after the site
    g = build_graph(
        [("x", 0, -3), ("w1", 0, -2), ("o", 0, -2), ("y", 0, -3)],
        [("x", "w1"), ("w1", "o"), ("o", "y")],
    )
    out = insert_minus2(g, InsertionSite(2, 1), 2)
    assert out == WeightedDualGraph(
        g.vertices + (VertexData("w2", 0, -2), VertexData("w3", 0, -2)),
        (Edge(0, 1), Edge(1, 4), Edge(2, 3), Edge(2, 5), Edge(4, 5)),
    )
    # the public splice still refuses the empty chain that insertion uses
    with pytest.raises(PreconditionError, match="empty"):
        with_string_length(g, StringDescriptor((), 1, 2), 2)


def test_insert_rejects_bad_sites():
    g = build_graph([("x", 0, -3), ("o", 0, -2)], [("x", "o", 1)])
    with pytest.raises(PreconditionError):
        insert_minus2(g, InsertionSite(0, 1), 1)
    with pytest.raises(PreconditionError):
        insert_minus2(a_chain(2), InsertionSite(0, 1), 0)
    with pytest.raises(PreconditionError):
        insert_minus2(a_chain(3), InsertionSite(0, 2), 1)


def test_verify_insertion_identities():
    g = generate(family_spec("I", n=2, s=2, t=1))
    sites = find_sites(g)
    assert sites
    for site in sites[:2]:
        for n in (1, 2, 5):
            report = verify_insertion(g, site, n)
            names = {c.name for c in report.identities}
            assert ALWAYS_IDENTITIES <= names
            assert report.all_hold
            assert report.k2_after >= report.k2_before
            obj = report.to_obj()
            assert obj["all_hold"] is True
            assert obj["n"] == n


def test_verify_insertion_equal_multiplicity_branch():
    # inserting into D4 keeps the graph of ADE type, K = 0 on both sides
    g = generate(family_spec("D", n=4))
    site = find_sites(g)[0]
    report = verify_insertion(g, site, 3)
    names = {c.name for c in report.identities}
    assert CONDITIONAL_IDENTITIES <= names
    assert report.all_hold
    assert report.k2_before == report.k2_after == 0
    assert report.m_site == (0, 0)


def test_verify_insertion_unequal_multiplicity_skips_conditional():
    g = generate(family_spec("II", n=1, s=2))
    site = find_sites(g)[0]
    report = verify_insertion(g, site, 1)
    if report.m_site[0] != report.m_site[1]:
        assert not (CONDITIONAL_IDENTITIES & {c.name for c in report.identities})
    assert report.all_hold


def test_index_preserved_is_numerical_index_on_family_grid():
    """At sites with equal coefficients, the two sides of index_preserved
    are the numerical indices of the graph and of the inserted graph."""
    seen = 0
    for spec in _family_corpus():
        g = generate(spec)
        for site in find_sites(g):
            for n in (1, 3):
                try:
                    report = verify_insertion(g, site, n)
                except NotNegativeDefiniteError:
                    continue
                if report.m_site[0] != report.m_site[1]:
                    continue
                (check,) = [c for c in report.identities if c.name == "index_preserved"]
                assert check.lhs == numerical_index(g), str(spec)
                assert check.rhs == numerical_index(insert_minus2(g, site, n)), str(spec)
                seen += 1
    assert seen > 0


INSERTION_BOUNDS = EnumBounds(6, min_self=-3, max_genus=1, max_edge_multiplicity=2)


def test_insertion_values_match_dense_oracle():
    """Every report value against the dense `Fraction` oracle, at each site
    of a seeded random corpus and of family members, for n = 1..4."""
    corpus = [random_admissible(random.Random(seed), INSERTION_BOUNDS) for seed in range(80)]
    corpus += [
        generate(spec)
        for spec in [
            family_spec("D", n=5),
            family_spec("E6"),
            family_spec("II", n=1, s=2),
            family_spec("I", n=1, s=1, t=2),
        ]
    ]
    checked = refused = 0
    for g in corpus:
        for site in find_sites(g):
            for n in range(1, 5):
                want = insertion_values(g, site.a, site.b, n)
                try:
                    report = verify_insertion(g, site, n)
                except NotNegativeDefiniteError:
                    assert want is None
                    refused += 1
                    continue
                got = (report.det_base, report.det_contracted, report.m_site,
                       report.m_site_after, report.k2_before, report.k2_after)
                assert got == want
                assert report.all_hold
                checked += 1
    assert checked >= 100 and refused >= 1


def test_transforms_factor_each_system_once(monkeypatch):
    """Each system is factored once, by one `sparse_bareiss` on its
    adjacency rows: none of the dense or per-invariant kernels is called."""

    def never(*args):
        raise AssertionError("transforms called a dense or per-invariant kernel")

    for name in ("intersection_matrix", "k_squared", "solve", "det", "is_negative_definite"):
        monkeypatch.setattr(transforms, name, never, raising=False)
    sizes = []
    real = rational.sparse_bareiss

    def counted(rows, rhs):
        sizes.append(len(rows))
        return real(rows, rhs)

    monkeypatch.setattr(rational, "sparse_bareiss", counted)
    monkeypatch.setattr(invariants, "sparse_bareiss", counted)
    spec = family_spec("II", n=2, s=1)
    g = generate(spec)
    v = len(g)
    for site in find_sites(g):
        for n in (1, 3):
            sizes.clear()
            assert verify_insertion(g, site, n).all_hold
            # g, the inserted graph, its contraction, and `validate` of the
            # inserted graph (the independent result_admissible check)
            assert sizes == [v, v + n, v, v + n]
    sizes.clear()
    s = stretch_descriptor(spec, g, "s")
    assert mobius_limit_crosscheck(g, s) == Fraction(3, 4)
    # g, then the members with the string at length 0, 1 and 2
    base = v - len(s.chain)
    assert sizes == [v, base, base + 1, base + 2]


def test_detect_strings_star():
    g = generate(family_spec("I", n=1, s=1, t=1))
    strings = detect_strings(g)
    assert len(strings) == 3
    x = g.index_of("x")
    for s in strings:
        assert len(s.chain) == 1
        assert (s.left, s.right).count(None) == 1
        assert x in (s.left, s.right)


def test_detect_strings_interior():
    g = generate(family_spec("double_three", n=2))
    (s,) = detect_strings(g)
    assert len(s.chain) == 2
    assert {s.left, s.right} == {g.index_of("x1"), g.index_of("x2")}


def test_detect_whole_component_chain():
    g = a_chain(4)
    (s,) = detect_strings(g)
    assert s.left is None and s.right is None
    assert sorted(s.chain) == [0, 1, 2, 3]


def test_detect_cycle_attachments_coincide():
    (s,) = detect_strings(triangle())
    assert s.left == s.right == 0
    assert sorted(s.chain) == [1, 2]


def test_detect_skips_ineligible_vertices():
    # genus, self-intersection, multiplicity and degree all disqualify
    g = build_graph(
        [("a", 1, -2), ("b", 0, -3), ("c", 0, -2), ("d", 0, -2)],
        [("a", "b", 1), ("b", "c", 2), ("c", "d", 1)],
    )
    (s,) = detect_strings(g)
    assert s.chain == (g.index_of("d"),)
    hub = build_graph(
        [("h", 0, -2), ("p", 0, -3), ("q", 0, -3), ("r", 0, -3)],
        [("h", "p", 1), ("h", "q", 1), ("h", "r", 1)],
    )
    assert detect_strings(hub) == []
    pure_cycle = build_graph(
        [("a", 0, -2), ("b", 0, -2), ("c", 0, -2)],
        [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)],
    )
    assert detect_strings(pure_cycle) == []


def test_with_string_length_extend_and_shrink():
    g = generate(family_spec("double_three", n=1))
    (s,) = detect_strings(g)
    longer, desc = with_string_length(g, s, 4)
    assert len(longer) == 6
    assert desc is not None and len(desc.chain) == 4
    assert k_squared(longer) == closed_double_three(4)
    # shrinking back down recovers the original -K^2
    shorter, desc1 = with_string_length(longer, desc, 1)
    assert k_squared(shorter) == k_squared(g)
    joined, none_desc = with_string_length(g, s, 0)
    assert none_desc is None
    assert len(joined) == 2
    assert joined.edge_mult(0, 1) == 1
    assert k_squared(joined) == closed_double_three(0)


def closed_double_three(n):
    # two (-3)s joined by n (-2)s always give 1
    return Fraction(1)


def test_with_string_length_zero_bumps_existing_edge():
    g = build_graph(
        [("x", 0, -3), ("o", 0, -2), ("y", 0, -3)],
        [("x", "o", 1), ("o", "y", 1), ("x", "y", 1)],
    )
    (s,) = detect_strings(g)
    joined, _ = with_string_length(g, s, 0)
    assert len(joined) == 2
    assert joined.edge_mult(0, 1) == 2


def test_with_string_length_zero_rejected_on_cycle():
    g = triangle()
    (s,) = detect_strings(g)
    with pytest.raises(PreconditionError, match="same vertex"):
        with_string_length(g, s, 0)
    grown, desc = with_string_length(g, s, 5)
    assert len(grown) == 6
    assert is_negative_definite(intersection_matrix(grown))
    assert desc is not None and desc.left == desc.right


def test_limit_two_tail_order_independent():
    g = generate(family_spec("two_tail", r=2, k=2, n=1, s=1))
    d1 = stretch_descriptor(family_spec("two_tail", r=2, k=2, n=1, s=1), g, "n")
    d2 = stretch_descriptor(family_spec("two_tail", r=2, k=2, n=1, s=1), g, "s")
    assert limit_k_squared(g, [d1, d2]) == limit_k_squared(g, [d2, d1]) == Fraction(4, 2)


def test_limit_rejects_bad_designations():
    g = generate(family_spec("double_three", n=2))
    (s,) = detect_strings(g)
    with pytest.raises(PreconditionError):
        limit_k_squared(g, [])
    with pytest.raises(PreconditionError):
        limit_k_squared(g, [s, s])
    not_maximal = StringDescriptor(s.chain[:1], s.left, s.chain[1])
    with pytest.raises(PreconditionError):
        limit_k_squared(g, [not_maximal])
    whole = detect_strings(a_chain(3))[0]
    with pytest.raises(PreconditionError):
        limit_k_squared(a_chain(3), [whole])


def test_limit_singular_direction():
    # stretching all three arms of the (-3) star at once has no finite limit
    spec = family_spec("I", n=1, s=1, t=1)
    g = generate(spec)
    strings = detect_strings(g)
    assert len(strings) == 3
    with pytest.raises(SingularLimitError):
        limit_k_squared(g, strings)


def test_limit_on_cycle_graph():
    g = triangle()
    (s,) = detect_strings(g)
    assert limit_k_squared(g, [s]) == 1
    assert mobius_limit_crosscheck(g, s) == 1


def test_mobius_matches_closed_forms():
    # single arm of the (-3) star: values 1/3, 2/5, 3/7, ... limit 1/2
    spec = family_spec("I", n=1, s=0, t=0)
    g = generate(spec)
    d = stretch_descriptor(spec, g, "n")
    assert k_squared(g) == Fraction(2, 5)
    assert limit_k_squared(g, [d]) == Fraction(1, 2)
    assert mobius_limit_crosscheck(g, d) == Fraction(1, 2)

    spec2 = family_spec("II", n=2, s=1)
    g2 = generate(spec2)
    d2 = stretch_descriptor(spec2, g2, "s")
    assert limit_k_squared(g2, [d2]) == Fraction(3, 4)
    assert mobius_limit_crosscheck(g2, d2) == Fraction(3, 4)


def test_mobius_unbounded():
    spec = family_spec("VI", n=2)
    g = generate(spec)
    d = stretch_descriptor(spec, g, "n")
    assert mobius_limit_crosscheck(g, d) is UNBOUNDED
    with pytest.raises(SingularLimitError):
        limit_k_squared(g, [d])


def test_mobius_constant_direction():
    # family II: -K^2 does not depend on the spine length
    spec = family_spec("II", n=3, s=2)
    g = generate(spec)
    d = stretch_descriptor(spec, g, "n")
    assert limit_k_squared(g, [d]) == 1
    assert k_squared(g) != 1  # genuinely a limit, not the member value


def test_mobius_refuses_graph_not_negative_definite():
    # T(2,3,7): E8 with its long arm stretched to 6; its members with that
    # arm at lengths 0-2 are definite, so only a check of g itself refuses
    spec = family_spec("E8")
    e8 = generate(spec)
    (long_arm,) = [s for s in detect_strings(e8) if len(s.chain) == 4]
    g, arm = with_string_length(e8, long_arm, 6)
    assert not is_negative_definite(intersection_matrix(g))
    with pytest.raises(PreconditionError, match="negative definite graph"):
        mobius_limit_crosscheck(g, arm)
    with pytest.raises(PreconditionError, match="negative definite graph"):
        limit_k_squared(g, [arm])


def test_mobius_refuses_pole_beyond_window():
    # II(0,1) along f1: -K^2 = 4/(9 - L) at L = 0, 1, 2 and the member at
    # L = 9 is singular, so the fitted limit 0 is no limit of the family
    spec = family_spec("II", n=0, s=1)
    g = generate(spec)
    (f1,) = [s for s in detect_strings(g) if s.chain == (g.index_of("f1"),)]
    assert [k_squared(with_string_length(g, f1, L)[0]) for L in (0, 1, 2)] == [
        Fraction(4, 9 - L) for L in (0, 1, 2)
    ]
    member, _ = with_string_length(g, f1, 9)
    assert not is_negative_definite(intersection_matrix(member))
    with pytest.raises(PreconditionError, match="pole at string length 9"):
        mobius_limit_crosscheck(g, f1)


LIMIT_BOUNDS = EnumBounds(8, min_self=-4, max_genus=1, max_edge_multiplicity=2)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), st.data())
@example(0, None)  # a value
@example(5, None)  # a limit matrix with a positive pivot
@example(276, None)  # a zero pivot over a nonzero row
@example(29, None)  # a singular limit matrix
@example(71, None)  # a singular intermediate matrix
def test_limit_matches_schur_oracle(seed, data):
    g = random_admissible(random.Random(seed), LIMIT_BOUNDS)
    strings = [s for s in detect_strings(g) if s.left is not None or s.right is not None]
    assume(strings)
    if data is None:  # the explicit examples
        picked = strings[:3]
    else:
        picked = data.draw(st.lists(st.sampled_from(strings), min_size=1, max_size=3, unique=True))
    want, semidefinite = schur_limit(g, picked)
    try:
        got = limit_k_squared(g, picked)
    except PreconditionError:
        assert not semidefinite
        return
    except SingularLimitError as exc:
        got = "intermediate" if str(exc).startswith("intermediate") else "final"
    assert semidefinite
    assert got == want


def check_detected_strings(g):
    for s in detect_strings(g):
        transforms._check_string_structure(g, s, allow_empty=False)


def test_detected_strings_pass_the_structure_check_on_family_corpus():
    for spec in _family_corpus():
        check_detected_strings(generate(spec))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_detected_strings_pass_the_structure_check(seed):
    """`limit_k_squared` and `mobius_limit_crosscheck` splice what
    `_resolve_designated` matched to `detect_strings` without checking it
    again, so every detected string must pass `with_string_length`'s check."""
    check_detected_strings(random_admissible(random.Random(seed), LIMIT_BOUNDS))


def test_mobius_window_shift_on_member_not_negative_definite(monkeypatch):
    sizes = []
    real = transforms._splice

    def spy(g, s, length):
        member = real(g, s, length)
        sizes.append(len(member[0]))
        return member

    monkeypatch.setattr(transforms, "_splice", spy)
    # E8 = T(2,3,5) is definite, and so are its members with the short arm
    # at length 0 and 1; at length 2 it is T(3,3,5), which is not, and its
    # error is raised as is
    spec = family_spec("E8")
    g = generate(spec)
    (arm,) = [s for s in detect_strings(g) if len(s.chain) == 1]
    with pytest.raises(NotNegativeDefiniteError):
        mobius_limit_crosscheck(g, arm)
    assert sizes == [7, 8, 9]
    # the chain -1, -2, -2, -2, -1 (genus-1 ends) is singular at every
    # string length: g itself is refused before any member is built
    sizes.clear()
    g = build_graph(
        [("x", 1, -1), ("s0", 0, -2), ("s1", 0, -2), ("s2", 0, -2), ("y", 1, -1)],
        [("x", "s0"), ("s0", "s1"), ("s1", "s2"), ("s2", "y")],
    )
    (s,) = detect_strings(g)
    assert len(s.chain) == 3 and s.left is not None and s.right is not None
    with pytest.raises(PreconditionError, match="negative definite graph"):
        mobius_limit_crosscheck(g, s)
    assert sizes == []
