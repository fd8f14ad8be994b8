from __future__ import annotations

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import HealthCheck, settings

from kdg.enumeration import (
    EnumBounds,
    _bordered_entries,
    _decode,
    _positions,
    enumerate_admissible,
    enumerate_encodings,
)
from kdg.graph import adjunction_degrees
from kdg.rational import factor, solve

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Exhaustive corpora used by the acceptance tests.  The box of interest for
# the small-value criteria is genus-0 vertices of self-intersection -2/-3
# (anything else forces -K^2 >= 1 through the component-sum bound), and that
# box sits inside E5; E4 widens the weight range as an independent probe.
E5_BOUNDS = EnumBounds(5, min_self=-3, max_genus=1, max_edge_multiplicity=2)
E4_BOUNDS = EnumBounds(4, min_self=-6, max_genus=1, max_edge_multiplicity=2)


def encoding_vertex_data(encoding: str) -> list[tuple[int, int]]:
    """(genus, self-intersection) pairs from an enumeration encoding."""
    head = encoding.split("|", 1)[0]
    out = []
    for part in head.split(";"):
        g, w = part.split(",")
        out.append((int(g), int(w)))
    return out


def search_factorization(m, extra=0, check=None):
    """(piv, lower) as `_search_data` holds them at the leaf of the
    negative definite integer matrix m: walk its entries in search order,
    offering the values 0..m_ij + extra at each through `_bordered_entries`
    and keeping m_ij.  `check(i, j, cap, kept)`, if given, sees each offer,
    kept mapping every value that survives to its (Bareiss entry, minor)."""
    n = len(m)
    piv = [1, m[0][0]] + [0] * (n - 1)
    lower = [[0] * n for _ in range(n)]
    diag = [0] * n
    for i, j in _positions(n):
        if i == 0:
            diag[0] = m[j][j]
        cap = m[i][j] + extra
        kept = {v: (x, d) for v, x, d in _bordered_entries(piv, lower[i], lower[j], diag[i], i, cap)}
        if check is not None:
            check(i, j, cap, kept)
        x, d = kept[m[i][j]]
        lower[j][i] = x
        diag[i + 1] = d
        if i == j - 1:
            piv[j + 1] = d
    return piv, lower


def direct_k_squared(diag, rows, c) -> Fraction:
    """-K^2 = -sum m_i c_i by one solve of M m = c, M given by its diagonal
    and map rows and known negative definite."""
    y, d = solve(factor(diag, rows, c), AssertionError("not negative definite"))
    return Fraction(-sum(map(mul, y, c)), d)


def quick_k_squared(g) -> Fraction:
    """-K^2 by direct solve, for graphs already known negative definite."""
    return direct_k_squared([v.self_int for v in g.vertices], g.adjacency(), adjunction_degrees(g))


@pytest.fixture(scope="session")
def e5_entries():
    return enumerate_admissible(E5_BOUNDS)


def encoding_k_squared(encoding: str) -> Fraction:
    """-K^2 by direct solve on the integer map rows of an encoding already
    known negative definite, with no graph built."""
    data, adj = _decode(encoding)
    return direct_k_squared([w for _, w in data], adj, [2 * g - 2 - w for g, w in data])


@pytest.fixture(scope="session")
def e4_values():
    return [(enc, encoding_k_squared(enc)) for enc in enumerate_encodings(E4_BOUNDS)]
