import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kdg import invariants, rational, transforms
from kdg.checks import _family_corpus, _stretch_cases
from kdg.enumeration import EnumBounds, enumerate_admissible, graph_from_encoding, random_admissible
from kdg.errors import (
    InvalidGraphError,
    KdgError,
    NotNegativeDefiniteError,
    PreconditionError,
    SingularLimitError,
)
from kdg.families import family_spec, generate, stretch_descriptor
from kdg.graph import (
    Edge,
    VertexData,
    WeightedDualGraph,
    build_graph,
)
from kdg.invariants import k_squared, numerical_index
from kdg.rational import UNBOUNDED, is_negative_definite
from kdg.transforms import (
    InsertionSite,
    StringDescriptor,
    detect_strings,
    find_sites,
    insert_minus2,
    limit_k_squared,
    mobius_limit_crosscheck,
    verify_insertion,
    with_string_length,
)

from .oracles import component_strings, id_splice, insertion_values, schur_limit, sequential_limit

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
    """Eliminating the middle of A3 leaves the 2x2 matrix -1/2 [[3, -1],
    [-1, 3]] on the props; `_hirzebruch_jung` scales both rows by n + 1 = 2.
    Contracting the edge of A2, A3's insertion site, to a chain of one
    vertex gives the same rows, as in `verify_insertion`, and leaves A2's
    own maps as they were."""

    def contracted(weights, rows, p, q):
        rows = list(rows)
        transforms._hirzebruch_jung(weights, rows, p, q, 1)
        return [r | {i: w} for i, (w, r) in enumerate(zip(weights, rows))]

    weights, rows, _, local = transforms._system_without(a_chain(3), {1})
    assert local == {0: 0, 2: 1}
    assert contracted(weights, rows, 0, 1) == [{0: -3, 1: 1}, {0: 1, 1: -3}]
    a2 = a_chain(2)
    weights, rows, _ = invariants._graph_system(a2)
    assert contracted(weights, rows, 0, 1) == [{0: -3, 1: 1}, {0: 1, 1: -3}]
    assert a2.adjacency() == ({1: 1}, {0: 1})


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
    with pytest.raises(PreconditionError, match="maximal"):
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
    adjacency rows, and each graph once, however many of its invariants
    are read: neither dense kernel is called."""

    def never(*args):
        raise AssertionError("transforms called a dense kernel")

    for name in ("intersection_matrix", "det"):
        monkeypatch.setattr(transforms, name, never, raising=False)
    sizes = []
    real = rational.sparse_bareiss

    def counted(diag, rows, rhs):
        sizes.append(len(rows))
        return real(diag, rows, rhs)

    monkeypatch.setattr(rational, "sparse_bareiss", counted)
    spec = family_spec("II", n=2, s=1)
    g = generate(spec)
    v = len(g)
    for site in find_sites(g):
        for n in (1, 3):
            g = generate(spec)
            sizes.clear()
            assert verify_insertion(g, site, n).all_hold
            # g, the inserted graph and its contraction; `validate` of the
            # inserted graph (the independent result_admissible check)
            # reads the inserted graph's kept factorization
            assert sizes == [v, v + n, v]
            # g keeps its factorization
            sizes.clear()
            assert verify_insertion(g, site, n).all_hold
            assert sizes == [v + n, v]
    g = generate(spec)
    sizes.clear()
    s = stretch_descriptor(spec, g, "s")
    assert mobius_limit_crosscheck(g, s) == Fraction(3, 4)
    # g, then the members with the string at length 0 and 2; the member at
    # length 1 is g, whose -K^2 is read from g's own factorization
    base = v - len(s.chain)
    assert len(s.chain) == 1
    assert sizes == [v, base, base + 2]


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
    assert is_negative_definite(grown._factorization)
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
    assert not is_negative_definite(g._factorization)
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
    assert not is_negative_definite(member._factorization)
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


def test_with_string_length_takes_only_maximal_strings():
    """A sub-chain of a maximal string, one with a wrong attachment and
    one whose vertices are not a string at all are refused; the maximal
    string passes in either direction."""
    g = build_graph(
        [("x", 0, -3), ("s0", 0, -2), ("s1", 0, -2), ("s2", 0, -2), ("y", 0, -3)],
        [("x", "s0"), ("s0", "s1"), ("s1", "s2"), ("s2", "y")],
    )
    (s,) = detect_strings(g)
    assert s == StringDescriptor((1, 2, 3), 0, 4)
    for bad in (
        StringDescriptor((1, 2), 0, 3),
        StringDescriptor((2,), 1, 3),
        StringDescriptor((1, 2, 3), 0, None),
        StringDescriptor((1, 2, 3), 4, 0),
        StringDescriptor((0, 1, 2, 3, 4), None, None),
        StringDescriptor((9,), None, None),
    ):
        with pytest.raises(PreconditionError, match="not a maximal string"):
            with_string_length(g, bad, 5)
    assert with_string_length(g, s.reversed(), 3) == (g, s.reversed())


def test_with_string_length_splices_a_reversed_string_at_its_far_end():
    """A maximal string given from its other end is spliced in that
    orientation: it grows and shrinks at the end it lists last, as the
    oracle splices it, on every family corpus member at lengths 0-4."""
    grown_at_least_end = 0
    for spec in _family_corpus():
        g = generate(spec)
        for s in detect_strings(g):
            back = s.reversed()
            for length in range(5):
                got = outcome(lambda: with_string_length(g, back, length))
                assert got == outcome(lambda: id_splice(g, back, length)), (spec, s, length)
                if length > len(s.chain) and len(s.chain) > 1 and s.left is not None:
                    member, desc = got
                    assert desc.chain[: len(s.chain)] == back.chain
                    grown_at_least_end += member.edge_mult(s.left, desc.chain[-1]) == 1
    assert grown_at_least_end > 0


def test_detect_strings_returns_a_new_list_of_the_kept_strings():
    """Changing the list `detect_strings` returned changes neither a later
    call nor a later limit: g keeps its strings, and each call copies
    them out."""
    spec = family_spec("II", n=2, s=1)
    g = generate(spec)
    d = stretch_descriptor(spec, g, "s")
    first = detect_strings(g)
    want = list(first)
    first.clear()
    first.append(StringDescriptor((0,), None, None))
    assert detect_strings(g) == want == detect_strings(generate(spec))
    assert limit_k_squared(g, [d]) == Fraction(3, 4)
    assert mobius_limit_crosscheck(g, d) == Fraction(3, 4)


def test_mobius_window_shift_on_member_not_negative_definite(monkeypatch):
    sizes = []
    real = transforms._splice

    def spy(g, s, length):
        member = real(g, s, length)
        if member[0] is not g:
            sizes.append(len(member[0]))
        return member

    monkeypatch.setattr(transforms, "_splice", spy)
    # E8 = T(2,3,5) is definite, and so are its members with the short arm
    # at length 0 and 1; at length 2 it is T(3,3,5), which is not, and its
    # error is raised as is.  The member at length 1 is g itself, not a
    # new graph.
    spec = family_spec("E8")
    g = generate(spec)
    (arm,) = [s for s in detect_strings(g) if len(s.chain) == 1]
    with pytest.raises(NotNegativeDefiniteError):
        mobius_limit_crosscheck(g, arm)
    assert sizes == [7, 9]
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


def outcome(run):
    """run()'s value, or the class and message of the KdgError it raises."""
    try:
        return run()
    except KdgError as exc:
        return type(exc), str(exc)


def limit_against_sequential(g, picked):
    """`limit_k_squared`'s outcome on the picked strings, after checking
    that the sequential procedure gives the same value, or the same error
    class and message."""
    got = outcome(lambda: limit_k_squared(g, picked))

    def sequential():
        solved = rational.solve(g._factorization, PreconditionError("limit needs a negative definite graph"))
        return sequential_limit(g, transforms._resolve_designated(g, picked), solved)

    assert got == outcome(sequential), (g, picked)
    return got


def stretchable(g):
    return [s for s in detect_strings(g) if s.left is not None or s.right is not None]


def outcome_kind(got):
    return got[0] if isinstance(got, tuple) else type(got)


def test_limit_matches_sequential_oracle_on_family_stretch_cases():
    for spec, params in _stretch_cases():
        g = generate(spec)
        got = limit_against_sequential(g, [stretch_descriptor(spec, g, p) for p in params])
        assert outcome_kind(got) in (Fraction, SingularLimitError)


def test_limit_matches_sequential_oracle_on_the_6_vertex_box():
    """Every designation of 1-3 stretchable strings, in detection order, of
    every genus-0 class with at most 6 vertices and self >= -3."""
    kinds = Counter()
    for entry in enumerate_admissible(EnumBounds(6, min_self=-3)):
        g = graph_from_encoding(entry.encoding)
        strings = stretchable(g)
        for k in (1, 2, 3):
            for picked in combinations(strings, k):
                kinds[outcome_kind(limit_against_sequential(g, list(picked)))] += 1
    assert kinds == {Fraction: 1483, PreconditionError: 460, SingularLimitError: 295}


def test_limit_matches_sequential_oracle_on_random_graphs():
    """Every designation of 1-3 stretchable strings, each in a seeded
    order, on 400 seeded random admissible graphs, and on 400 more of
    (-2)-curves only, whose strings are longer: a string of length 1
    designated with one of length 3 or more is where a core that holds
    the longer one at the wrong length goes wrong."""
    kinds = Counter()
    for bounds in (LIMIT_BOUNDS, EnumBounds(8, min_self=-2, max_genus=1)):
        for seed in range(400):
            rng = random.Random(seed)
            g = random_admissible(rng, bounds)
            strings = stretchable(g)
            for k in (1, 2, 3):
                for picked in combinations(strings, k):
                    kinds[outcome_kind(limit_against_sequential(g, rng.sample(picked, k)))] += 1
    assert sum(kinds.values()) >= 400
    assert set(kinds) == {Fraction, PreconditionError, SingularLimitError}


def string_rich_graph(rng):
    """A random graph, neither connected nor definite as a rule, rich in
    strings and in what ends them: paths of mostly genus-0 (-2)-vertices,
    listed in a shuffled vertex order, some genus-1 (-2)-vertices and
    (-3)-vertices, multiplicity-2 edges, and chords that close (-2)-cycles
    or cycles through one other vertex.  Components that are one chain
    arise wherever a path is cut."""
    n = rng.randint(1, 9)
    names = [f"v{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    data = [(rng.choice((0, 0, 0, 0, 1)), rng.choice((-2, -2, -2, -3))) for _ in range(n)]
    verts = [(names[i], *data[i]) for i in order]
    pairs = {}

    def join(a, b):
        pairs.setdefault(frozenset((a, b)), (names[a], names[b], rng.choice((1, 1, 1, 1, 2))))

    for i in range(1, n):
        if rng.random() < 0.85:
            join(i - 1 if rng.random() < 0.7 else rng.randrange(i), i)
    if n >= 3:
        for _ in range(rng.randint(0, 2)):
            join(*rng.sample(range(n), 2))
    return build_graph(verts, list(pairs.values()))


def splices_against_oracles(g, kinds):
    """Check `detect_strings` and `_splice`, at every length up to two past
    each detected string's and every insertion site's, against the
    oracles: equal graphs, edge order included, equal descriptors, or the
    same error class and message."""
    strings = detect_strings(g)
    assert strings == component_strings(g)
    sites = [StringDescriptor((), site.a, site.b) for site in find_sites(g)]
    for s in strings + sites:
        for length in range(len(s.chain) + 3):
            got = outcome(lambda: transforms._splice(g, s, length))
            assert got == outcome(lambda: id_splice(g, s, length)), (g, s, length)
            if isinstance(got[0], type):
                kinds[got] += 1
                continue
            assert all(type(e) is Edge for e in got[0].edges)
            if length < len(s.chain):
                end = s.chain[length - 1] if length else s.left
                if None not in (end, s.right) and g.edge_mult(end, s.right):
                    kinds["bumped"] += 1  # the new end already met its right attachment


def test_detect_strings_and_splice_match_oracles():
    kinds = Counter()
    for spec in _family_corpus():
        splices_against_oracles(generate(spec), kinds)
    for seed in range(500):
        splices_against_oracles(string_rich_graph(random.Random(seed)), kinds)
    for g in (triangle(), a_chain(1), a_chain(4)):
        splices_against_oracles(g, kinds)
    same_vertex = "cannot shrink to length 0: both attachments are the same vertex"
    assert kinds[PreconditionError, same_vertex] > 0
    assert kinds[InvalidGraphError, "graph needs at least one vertex"] > 0
    assert kinds["bumped"] > 0
