"""Named graph families with closed-form -K^2 oracles.

Each family is a parametrized dual-graph shape together with the exact
rational value of -K^2 as a function of the parameters, so the linear-algebra
pipeline and the formulas can be cross-asserted.  Writing x for a genus-0
(-3)-curve and o for a genus-0 (-2)-curve: A/D/E are the Dynkin
configurations of o's (-K^2 = 0); I..IX the nine star-like shapes around
one x whose fundamental cycle has self-intersection -3; two_curve(k, m, n)
an o-chain with two genus-(k/2) curves of self-intersection -(2km+2) on its
first curve; tail and two_tail one or two o-arms on a curve of adjunction
degree r; double_three(n) x - o^n - x; simple_elliptic(w) one genus-1
curve of self-intersection -w; non_lc_star a (-5)-curve with four (-3)-leaves.

A family is written in two tables, its shape just above its closed form.
Its layout (`_LAYOUTS`) lists its curves in vertex order, single curves
and (-2)-chains, with the paths that join them.  `vertex_count` sums the
layout's counts, so `generate` refuses a member over FAMILY_VERTEX_BUDGET
before any chain is expanded or any id formatted, and `_expand` builds
the records and the sorted edges by index.

Its -K^2 (`_K2_FORMS`) is a (numerator, denominator) pair in the factors
a_x = x/(x+1) of its arm parameters x.  Each counts the vertices of a
(-2)-string, up to a fixed offset, and a string of length L enters -K^2 only
through its Hirzebruch-Jung factor L/(L+1).  `closed_form_k2` reads the pair
at the member.  `expected_limit` reads it with every stretched factor at its
limit 1, UNBOUNDED when the denominator vanishes there.  `stretch_descriptor`
points at the maximal string of a generated member that realizes an arm
parameter, so the limit machinery can be checked end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Union

from .errors import PreconditionError
from .graph import Edge, VertexData, WeightedDualGraph
from .rational import UNBOUNDED
from .transforms import StringDescriptor, detect_strings

LimitValue = Union[Fraction, object]

_PARAMS = {
    "A": ("n",),
    "D": ("n",),
    "E6": (),
    "E7": (),
    "E8": (),
    "I": ("n", "s", "t"),
    "II": ("n", "s"),
    "III": ("n", "s"),
    "IV": ("n",),
    "V": ("n",),
    "VI": ("n",),
    "VII": (),
    "VIII": (),
    "IX": (),
    "two_curve": ("k", "m", "n"),
    "tail": ("r", "k", "n"),
    "two_tail": ("r", "k", "n", "s"),
    "double_three": ("n",),
    "simple_elliptic": ("w",),
    "non_lc_star": (),
}


@dataclass(frozen=True)
class FamilySpec:
    name: str
    params: tuple[tuple[str, int], ...]

    def __getitem__(self, key: str) -> int:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def __str__(self) -> str:
        if not self.params:
            return self.name
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})"


def family_names() -> tuple[str, ...]:
    return tuple(_PARAMS)


def family_spec(name: str, **params: int) -> FamilySpec:
    """Validated family spec; raises PreconditionError off-domain."""
    if name not in _PARAMS:
        known = ", ".join(_PARAMS)
        raise PreconditionError(f"unknown family {name!r} (known: {known})")
    expected = _PARAMS[name]
    if set(params) != set(expected):
        want = ", ".join(expected) if expected else "none"
        raise PreconditionError(f"family {name} takes parameters: {want}")
    for key, value in params.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise PreconditionError(f"parameter {key} must be an integer")
    spec = FamilySpec(name, tuple((k, params[k]) for k in expected))
    _check_domain(spec)
    return spec


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PreconditionError(message)


def _check_domain(spec: FamilySpec) -> None:
    p = dict(spec.params)
    name = spec.name
    if name == "A":
        _require(p["n"] >= 1, "A needs n >= 1")
    elif name == "D":
        _require(p["n"] >= 4, "D needs n >= 4")
    elif name == "I":
        _require(min(p["n"], p["s"], p["t"]) >= 0, "I needs n, s, t >= 0")
    elif name == "II":
        _require(min(p["n"], p["s"]) >= 0, "II needs n, s >= 0")
    elif name == "III":
        _require(p["n"] >= 0, "III needs n >= 0")
        _require(p["s"] >= 2, "III needs s >= 2 (the chain is attached at its second vertex)")
    elif name in ("IV", "V"):
        _require(p["n"] >= 0, f"{name} needs n >= 0")
    elif name == "VI":
        _require(p["n"] >= 1, "VI needs n >= 1 (the chain needs a third vertex)")
    elif name == "two_curve":
        _require(p["k"] >= 2 and p["k"] % 2 == 0, "two_curve needs k even and >= 2")
        _require(p["m"] >= 1, "two_curve needs m >= 1")
        _require(p["n"] >= 1, "two_curve needs n >= 1")
    elif name == "tail":
        _require(p["k"] >= 1, "tail needs k >= 1")
        _require(p["n"] >= 0, "tail needs n >= 0")
        _require(p["r"] - p["k"] >= 1 and (p["r"] - p["k"]) % 2 == 1, "tail needs r - k odd and >= 1")
    elif name == "two_tail":
        _require(p["k"] >= 1, "two_tail needs k >= 1")
        _require(min(p["n"], p["s"]) >= 0, "two_tail needs n, s >= 0")
        _require(
            p["r"] - p["k"] >= 0 and (p["r"] - p["k"]) % 2 == 0,
            "two_tail needs r - k even and >= 0",
        )
    elif name == "double_three":
        _require(p["n"] >= 0, "double_three needs n >= 0")
    elif name == "simple_elliptic":
        _require(p["w"] >= 1, "simple_elliptic needs w >= 1")


#: Vertices `generate` may build for one spec; a larger member is refused
#: with a `PreconditionError` (exit code 4), counted before anything is built.
FAMILY_VERTEX_BUDGET = 100_000


def vertex_count(spec: FamilySpec) -> int:
    """Vertices of `generate(spec)`, read off its layout."""
    entries, _ = _LAYOUTS[spec.name](**dict(spec.params))
    return sum(1 if len(entry) == 3 else entry[1] for entry in entries)


def generate(spec: FamilySpec) -> WeightedDualGraph:
    """The dual graph of this family member.  PreconditionError when it
    would have more than FAMILY_VERTEX_BUDGET vertices."""
    _check_domain(spec)
    if vertex_count(spec) > FAMILY_VERTEX_BUDGET:
        # the count itself may have too many digits to print
        raise PreconditionError(
            f"family {spec.name} with these parameters has more than"
            f" {FAMILY_VERTEX_BUDGET} vertices, its vertex budget"
        )
    return _expand(*_LAYOUTS[spec.name](**dict(spec.params)))


def _expand(entries: list[tuple], paths: str) -> WeightedDualGraph:
    """The graph of a layout (see `_LAYOUTS`), its records and sorted edges
    built by index."""
    new = tuple.__new__  # `VertexData._make` and `Edge._make` less their length checks
    vertices: list[VertexData] = []
    pairs: list[tuple[int, int, int]] = []
    spans = {}  # entry name -> (first, last) vertex index; last < first for an empty chain
    for entry in entries:
        first = len(vertices)
        if len(entry) == 3:
            vertices.append(VertexData(*entry))
        else:
            prefix, count = entry[0][:-1], entry[1]
            vertices += [new(VertexData, (f"{prefix}{i}", 0, -2)) for i in range(1, count + 1)]
            pairs += [(k, k + 1, 1) for k in range(first, len(vertices) - 1)]
        spans[entry[0]] = (first, len(vertices) - 1)
    for path in paths.split(","):
        names = path.split()
        if not spans.keys() >= set(names):  # the path names a curve inside a chain
            spans.update((v.id, (k, k)) for k, v in enumerate(vertices))
        ends = [spans[name] for name in names if spans[name][0] <= spans[name][1]]
        pairs += [(min(a, b), max(a, b), 1) for (_, a), (b, _) in zip(ends, ends[1:])]
    pairs.sort()
    return WeightedDualGraph(tuple(vertices), tuple(map(new, repeat(Edge), pairs)))


# Each family's member as (entries, paths), given its parameters.  The
# entries list its curves in vertex order: a curve (id, genus, self), or a
# (-2)-chain (prefix + "*", count) of the curves prefix1..prefix<count>,
# each joined to the next.  Each comma-separated path joins each name to
# the next; a chain there stands for its curves in order (its first curve
# on the left, its last on the right), an empty chain joins its two
# neighbours, and a path may also name a curve inside a chain.
_X, _B, _F1, _F2 = ("x", 0, -3), ("b", 0, -2), ("f1", 0, -2), ("f2", 0, -2)
_LAYOUTS = {
    "A": lambda n: ([("c*", n)], ""),
    "D": lambda n: ([("c*", n - 2), _F1, _F2], "c* f1, c* f2"),
    "E6": lambda: ([("c*", 5), _B], "c3 b"),
    "E7": lambda: ([("c*", 6), _B], "c3 b"),
    "E8": lambda: ([("c*", 7), _B], "c3 b"),
    "I": lambda n, s, t: ([_X, ("n*", n), ("s*", s), ("t*", t)], "x n*, x s*, x t*"),
    "II": lambda n, s: ([_X, ("n*", n), ("s*", s), _B, _F1, _F2], "x n*, x s* b f1, b f2"),
    "III": lambda n, s: ([_X, ("n*", n), ("c*", s)], "x n*, x c2"),
    "IV": lambda n: ([_X, ("n*", n), ("c*", 3), _F1, _F2], "x n*, c* f1 x, c* f2"),
    "V": lambda n: ([_X, ("n*", n), ("c*", 5), _B], "x n*, x c*, c3 b"),
    "VI": lambda n: ([_X, ("c*", n + 2)], "x c3"),
    "VII": lambda: ([_X, ("c*", 4), _F1, _F2], "c* f1 x, c* f2"),
    "VIII": lambda: ([_X, ("c*", 5), _F1, _F2], "c* f1 x, c* f2"),
    "IX": lambda: ([_X, ("c*", 6), _B], "c3 b, c* x"),
    "two_curve": lambda k, m, n: (
        [(e, k // 2, -(2 * k * m + 2)) for e in ("e1", "e2")] + [("f*", n)], "e1 f*, e2 f*"
    ),
    "tail": lambda r, k, n: ([("x", (r - k + 1) // 2, -(k + 1)), ("n*", n)], "x n*"),
    "two_tail": lambda r, k, n, s: ([("x", (r - k) // 2, -(k + 2)), ("n*", n), ("s*", s)], "x n*, x s*"),
    "double_three": lambda n: ([("x1", 0, -3), ("n*", n), ("x2", 0, -3)], "x1 n* x2"),
    "simple_elliptic": lambda w: ([("e", 1, -w)], ""),
    "non_lc_star": lambda: ([("z", 0, -5)] + [(f"y{i}", 0, -3) for i in "1234"], "z y1, z y2, z y3, z y4"),
}


# -K^2 of each family as (numerator, denominator), given the parameters p
# and a(x) = x/(x+1) for each arm parameter x (`_STRETCH`).
_K2_FORMS = {
    "A": lambda p, a: (0, 1),
    "D": lambda p, a: (0, 1),
    "E6": lambda p, a: (0, 1),
    "E7": lambda p, a: (0, 1),
    "E8": lambda p, a: (0, 1),
    "I": lambda p, a: (1, 3 - a("n") - a("s") - a("t")),
    "II": lambda p, a: (1, 2 - a("n")),
    "III": lambda p, a: (1, 5 - a("n") - 4 * a("s")),
    "IV": lambda p, a: (4, 7 - 4 * a("n")),
    "V": lambda p, a: (3, 5 - 3 * a("n")),
    "VI": lambda p, a: (3 - 2 * a("n"), 9 * (1 - a("n"))),
    "VII": lambda p, a: (2, 3),
    "VIII": lambda p, a: (4, 5),
    "IX": lambda p, a: (2, 3),
    "two_curve": lambda p, a: (p["k"] ** 2 * (2 * p["m"] + 1) ** 2, p["k"] * p["m"] + 1 - a("n")),
    "tail": lambda p, a: (p["r"] ** 2, p["k"] + 1 - a("n")),
    "two_tail": lambda p, a: (p["r"] ** 2, p["k"] + 2 - a("n") - a("s")),
    "double_three": lambda p, a: (1, 1),
    "simple_elliptic": lambda p, a: (p["w"], 1),
    "non_lc_star": lambda p, a: (71, 11),
}


def _arm(p: int) -> Fraction:
    return Fraction(p, p + 1)


def closed_form_k2(spec: FamilySpec) -> Fraction:
    """-K^2 of the family member, straight from the closed form."""
    _check_domain(spec)
    p = dict(spec.params)
    num, den = _K2_FORMS[spec.name](p, lambda x: _arm(p[x]))
    return Fraction(num) / den


def two_curve_coefficient(spec: FamilySpec) -> Fraction:
    """Canonical coefficient shared by the two genus curves of two_curve."""
    if spec.name != "two_curve":
        raise PreconditionError("only two_curve has this coefficient formula")
    _check_domain(spec)
    p = dict(spec.params)
    k, m, n = p["k"], p["m"], p["n"]
    top = (1 + Fraction(1, n)) * k * (2 * m + 1)
    bottom = (2 * k * m + 2) * (-1 - Fraction(1, n)) + 2
    return top / bottom


# The (-2)-arm each stretchable parameter counts: a vertex on it, and the
# least value of the parameter at which that vertex sits on a maximal
# string.  III's chain c is attached at its second vertex, so its
# stretchable part starts at c3, and VI's at its third, so at c4.  At
# two_curve's n = 1 the only maximal string runs between the two genus
# curves, a different direction entirely; the dangling tail f that
# realizes n only becomes a string from n = 2 on.
_STRETCH = {
    "I": {"n": ("n1", 1), "s": ("s1", 1), "t": ("t1", 1)},
    "II": {"n": ("n1", 1), "s": ("s1", 1)},
    "III": {"n": ("n1", 1), "s": ("c3", 3)},
    "IV": {"n": ("n1", 1)},
    "V": {"n": ("n1", 1)},
    "VI": {"n": ("c4", 2)},
    "two_curve": {"n": ("f2", 2)},
    "tail": {"n": ("n1", 1)},
    "two_tail": {"n": ("n1", 1), "s": ("s1", 1)},
    "double_three": {"n": ("n1", 1)},
}


def stretchable_parameters(spec: FamilySpec) -> tuple[str, ...]:
    return tuple(_STRETCH.get(spec.name, ()))


def _check_stretched(spec: FamilySpec, stretched: Iterable[str]) -> set[str]:
    allowed = stretchable_parameters(spec)
    chosen = set(stretched)
    if not chosen:
        raise PreconditionError("no stretched parameters given")
    bad = chosen - set(allowed)
    if bad:
        raise PreconditionError(
            f"family {spec.name} cannot stretch {sorted(bad)}; stretchable: {list(allowed)}"
        )
    return chosen


def expected_limit(spec: FamilySpec, stretched: Iterable[str]) -> LimitValue:
    """Exact limit of closed_form_k2 as the chosen parameters go to infinity:
    the closed form with each chosen arm factor at its limit 1.

    Returns UNBOUNDED when that leaves its denominator 0.
    """
    _check_domain(spec)
    chosen = _check_stretched(spec, stretched)
    p = dict(spec.params)
    num, den = _K2_FORMS[spec.name](p, lambda x: 1 if x in chosen else _arm(p[x]))
    return UNBOUNDED if den == 0 else Fraction(num) / den


def stretch_descriptor(spec: FamilySpec, g: WeightedDualGraph, param: str) -> StringDescriptor:
    """The maximal string of this member realizing the given arm parameter.

    The member must be large enough for the arm's marker vertex (`_STRETCH`)
    to sit on that string.
    """
    _check_stretched(spec, [param])
    marker, least = _STRETCH[spec.name][param]
    _require(
        spec[param] >= least,
        f"{spec.name} {param}-stretch needs {param} >= {least} in the starting member",
    )
    target = g.index_of(marker)
    for s in detect_strings(g):
        if target in s.chain:
            return s
    raise PreconditionError(
        f"vertex {marker!r} does not sit on a maximal string of this member"
    )  # pragma: no cover
