"""Named graph families with closed-form -K^2 oracles.

Each family is a parametrized dual-graph shape together with the exact
rational value of -K^2 as a function of the parameters, so the linear-algebra
pipeline and the formulas can be cross-asserted.  Conventions used by the
shapes below, writing x for a genus-0 (-3)-vertex and o for a genus-0
(-2)-vertex:

* A/D/E: the usual Dynkin configurations of o's; -K^2 = 0.
* I..IX: the nine star-like shapes around a single x whose resolutions have
  fundamental cycle of self-intersection -3.  Their values follow the
  pattern 1/(3 - sum of branch factors), each branch factor being a ratio
  of two Dynkin determinants.
* two_curve(k, m, n): a chain o^n with two genus-(k/2) curves of
  self-intersection -(2km+2) attached to its first vertex.
* tail(r, k, n): an o^n chain ending in a genus-((r-k+1)/2) vertex of
  self-intersection -(k+1); its adjunction degree is exactly r.
* two_tail(r, k, n, s): a genus-((r-k)/2) vertex of self-intersection
  -(k+2) carrying two o-arms; adjunction degree again r.
* double_three(n): x - o^n - x; simple_elliptic(w): one genus-1 vertex of
  self-intersection -w; non_lc_star: a (-5)-vertex with four (-3)-leaves.

Each family's -K^2 is written once (`_K2_FORMS`), as a (numerator,
denominator) pair in the factors a_x = x/(x+1) of its arm parameters x.
Each counts the vertices of a (-2)-string, up to a fixed offset, and a
string of length L enters -K^2 only through its Hirzebruch-Jung factor
L/(L+1).  `closed_form_k2` reads the pair at the member.  `expected_limit`
reads it with every stretched factor at its limit 1, UNBOUNDED when the
denominator vanishes there.  `stretch_descriptor`
points at the maximal string of a generated member that realizes an arm
parameter, so the limit machinery can be checked end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import PreconditionError
from .graph import WeightedDualGraph, build_graph
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

# Vertices of each family's member besides its chains of lengths n, s and t.
_FIXED_VERTICES = {
    "A": 0, "D": 0, "E6": 6, "E7": 7, "E8": 8,
    "I": 1, "II": 4, "III": 1, "IV": 6, "V": 7, "VI": 3, "VII": 7, "VIII": 8, "IX": 8,
    "two_curve": 2, "tail": 1, "two_tail": 1, "double_three": 2,
    "simple_elliptic": 1, "non_lc_star": 5,
}


def vertex_count(spec: FamilySpec) -> int:
    """Vertices of `generate(spec)`, from the parameters alone."""
    return _FIXED_VERTICES[spec.name] + sum(v for k, v in spec.params if k in ("n", "s", "t"))


def _chain_ids(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def _chain_edges(ids: Sequence[str]) -> list[tuple[str, str]]:
    return list(zip(ids, ids[1:]))


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
    p = dict(spec.params)
    name = spec.name
    verts: list[tuple[str, int, int]] = []
    edges: list[tuple[str, str]] = []

    def arm(prefix: str, count: int, root: str) -> None:
        ids = _chain_ids(prefix, count)
        verts.extend((i, 0, -2) for i in ids)
        edges.extend(_chain_edges(ids))
        if ids:
            edges.append((root, ids[0]))

    if name == "A":
        ids = _chain_ids("c", p["n"])
        verts = [(i, 0, -2) for i in ids]
        edges = _chain_edges(ids)
    elif name == "D":
        ids = _chain_ids("c", p["n"] - 2)
        verts = [(i, 0, -2) for i in ids] + [("f1", 0, -2), ("f2", 0, -2)]
        edges = _chain_edges(ids) + [(ids[-1], "f1"), (ids[-1], "f2")]
    elif name in ("E6", "E7", "E8"):
        ids = _chain_ids("c", int(name[1]) - 1)
        verts = [(i, 0, -2) for i in ids] + [("b", 0, -2)]
        edges = _chain_edges(ids) + [("c3", "b")]
    elif name == "I":
        verts = [("x", 0, -3)]
        arm("n", p["n"], "x")
        arm("s", p["s"], "x")
        arm("t", p["t"], "x")
    elif name == "II":
        verts = [("x", 0, -3)]
        arm("n", p["n"], "x")
        sids = _chain_ids("s", p["s"])
        verts.extend((i, 0, -2) for i in sids)
        verts += [("b", 0, -2), ("f1", 0, -2), ("f2", 0, -2)]
        spine = ["x"] + sids + ["b"]
        edges.extend(_chain_edges(spine))
        edges += [("b", "f1"), ("b", "f2")]
    elif name == "III":
        verts = [("x", 0, -3)]
        arm("n", p["n"], "x")
        cids = _chain_ids("c", p["s"])
        verts.extend((i, 0, -2) for i in cids)
        edges.extend(_chain_edges(cids))
        edges.append(("x", "c2"))
    elif name in ("IV", "V"):
        verts = [("x", 0, -3)]
        arm("n", p["n"], "x")
        if name == "IV":
            cids = _chain_ids("c", 3)
            verts.extend((i, 0, -2) for i in cids)
            verts += [("f1", 0, -2), ("f2", 0, -2)]
            edges.extend(_chain_edges(cids))
            edges += [("c3", "f1"), ("c3", "f2"), ("x", "f1")]
        else:
            cids = _chain_ids("c", 5)
            verts.extend((i, 0, -2) for i in cids)
            verts.append(("b", 0, -2))
            edges.extend(_chain_edges(cids))
            edges += [("c3", "b"), ("x", "c1")]
    elif name == "VI":
        cids = _chain_ids("c", p["n"] + 2)
        verts = [("x", 0, -3)] + [(i, 0, -2) for i in cids]
        edges = _chain_edges(cids) + [("x", "c3")]
    elif name in ("VII", "VIII"):
        count = 4 if name == "VII" else 5
        cids = _chain_ids("c", count)
        verts = [("x", 0, -3)] + [(i, 0, -2) for i in cids]
        verts += [("f1", 0, -2), ("f2", 0, -2)]
        edges = _chain_edges(cids) + [(cids[-1], "f1"), (cids[-1], "f2"), ("x", "f1")]
    elif name == "IX":
        cids = _chain_ids("c", 6)
        verts = [("x", 0, -3)] + [(i, 0, -2) for i in cids] + [("b", 0, -2)]
        edges = _chain_edges(cids) + [("c3", "b"), ("x", "c6")]
    elif name == "two_curve":
        k, m, n = p["k"], p["m"], p["n"]
        fids = _chain_ids("f", n)
        verts = [("e1", k // 2, -(2 * k * m + 2)), ("e2", k // 2, -(2 * k * m + 2))]
        verts += [(i, 0, -2) for i in fids]
        edges = _chain_edges(fids) + [("e1", "f1"), ("e2", "f1")]
    elif name == "tail":
        r, k = p["r"], p["k"]
        verts = [("x", (r - k + 1) // 2, -(k + 1))]
        arm("n", p["n"], "x")
    elif name == "two_tail":
        r, k = p["r"], p["k"]
        verts = [("x", (r - k) // 2, -(k + 2))]
        arm("n", p["n"], "x")
        arm("s", p["s"], "x")
    elif name == "double_three":
        nids = _chain_ids("n", p["n"])
        verts = [("x1", 0, -3)] + [(i, 0, -2) for i in nids] + [("x2", 0, -3)]
        edges = _chain_edges(["x1"] + nids + ["x2"])
    elif name == "simple_elliptic":
        verts = [("e", 1, -p["w"])]
    elif name == "non_lc_star":
        verts = [("z", 0, -5)] + [(f"y{i}", 0, -3) for i in range(1, 5)]
        edges = [("z", f"y{i}") for i in range(1, 5)]
    else:  # pragma: no cover - family_spec already rejects unknown names
        raise PreconditionError(f"unknown family {name!r}")
    return build_graph(verts, edges)


def _arm(p: int) -> Fraction:
    return Fraction(p, p + 1)


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
