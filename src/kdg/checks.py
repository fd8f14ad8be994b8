"""Self-contained verification suites behind the `verify` CLI subcommand.

Each suite runs a batch of exact checks and reports pass/fail counts with
messages for every failure.  They are smaller, randomized companions to the
full test suite: handy for a quick health check of an installed build.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .enumeration import EnumBounds, enumerate_admissible, graph_from_encoding, random_admissible
from .errors import NotNegativeDefiniteError, PreconditionError, SingularLimitError
from .families import (
    closed_form_k2,
    expected_limit,
    family_spec,
    generate,
    stretch_descriptor,
    two_curve_coefficient,
)
from .graph import adjunction_degrees, connected_components, subgraph, validate
from .invariants import bound_checks, canonical_cycle, invariant_report, k_squared
from .rational import UNBOUNDED, rat_str
from .transforms import (
    find_sites,
    limit_k_squared,
    mobius_limit_crosscheck,
    verify_insertion,
)

SUITES = ("lemmas", "families", "spectrum")


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def check(self, condition: bool, message: str) -> None:
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 25:
                self.failures.append(message)

    def to_text(self) -> str:
        status = "ok" if self.ok else "FAILED"
        lines = [f"suite {self.name}: {self.passed} passed, {self.failed} failed [{status}]"]
        lines.extend(f"  - {msg}" for msg in self.failures)
        return "\n".join(lines)


def suite_lemmas(seed: int = 0, trials: int = 150) -> SuiteResult:
    """Bounds, sign constraints, insertion identities, and subgraph
    monotonicity on a stream of random admissible graphs."""
    rng = random.Random(seed)
    result = SuiteResult("lemmas")
    bounds = EnumBounds(max_vertices=6, min_self=-6, max_genus=2, max_edge_multiplicity=2)
    for t in range(trials):
        g = random_admissible(rng, bounds)
        label = f"trial {t}"
        rep = invariant_report(g)
        for chk in rep.bound_checks:
            result.check(
                chk.holds, f"{label}: bound {chk.name} violated ({rat_str(chk.lhs)} < {rat_str(chk.rhs)})"
            )
        result.check(
            all(x <= 0 for x in rep.canonical.coefficients),
            f"{label}: positive canonical coefficient",
        )
        result.check(rep.k_squared >= 0, f"{label}: negative -K^2")
        sites = find_sites(g)
        for site in sites[:2]:
            n = rng.randint(1, 4)
            try:
                ins = verify_insertion(g, site, n)
            except NotNegativeDefiniteError:
                # not a (-2)-insertion: the extended graph left the class
                continue
            result.check(ins.all_hold, f"{label}: insertion identity failed at {ins.site}, n={n}")
        if len(g) <= 5:
            full = k_squared(g)
            for size in range(1, len(g)):
                for keep in combinations(range(len(g)), size):
                    sub = subgraph(g, keep)
                    if len(connected_components(sub)) != 1:
                        continue
                    result.check(
                        k_squared(sub) <= full,
                        f"{label}: induced subgraph on {keep} has larger -K^2",
                    )
    return result


def _family_corpus() -> list:
    specs = []
    for n in range(4):
        for s in range(4):
            for t in range(4):
                specs.append(family_spec("I", n=n, s=s, t=t))
            specs.append(family_spec("II", n=n, s=s))
            specs.append(family_spec("III", n=n, s=s + 2))
        specs.append(family_spec("IV", n=n))
        specs.append(family_spec("V", n=n))
        specs.append(family_spec("VI", n=n + 1))
    specs += [family_spec("VII"), family_spec("VIII"), family_spec("IX")]
    for k in (2, 4):
        for m in (1, 2):
            for n in range(1, 5):
                specs.append(family_spec("two_curve", k=k, m=m, n=n))
    for k in range(1, 4):
        for r in range(k + 1, 7, 2):
            for n in range(3):
                specs.append(family_spec("tail", r=r, k=k, n=n))
        for r in range(k, 7, 2):
            for n in range(3):
                for s in range(3):
                    specs.append(family_spec("two_tail", r=r, k=k, n=n, s=s))
    specs += [family_spec("double_three", n=n) for n in range(6)]
    specs += [family_spec("simple_elliptic", w=w) for w in range(1, 7)]
    specs.append(family_spec("non_lc_star"))
    specs += [family_spec("A", n=n) for n in range(1, 9)]
    specs += [family_spec("D", n=n) for n in range(4, 9)]
    specs += [family_spec("E6"), family_spec("E7"), family_spec("E8")]
    return specs


def _stretch_cases() -> list:
    """The members and stretched parameters of `suite_families`' limits."""
    return [
        (family_spec("I", n=1, s=1, t=0), ("n", "s")),
        (family_spec("II", n=2, s=1), ("n",)),
        (family_spec("II", n=2, s=1), ("s",)),
        (family_spec("III", n=1, s=3), ("n",)),
        (family_spec("IV", n=1), ("n",)),
        (family_spec("V", n=1), ("n",)),
        (family_spec("VI", n=2), ("n",)),
        (family_spec("two_curve", k=2, m=1, n=2), ("n",)),
        (family_spec("tail", r=2, k=1, n=1), ("n",)),
        (family_spec("two_tail", r=1, k=1, n=1, s=1), ("n", "s")),
        (family_spec("double_three", n=1), ("n",)),
    ]


def suite_families() -> SuiteResult:
    """Closed forms vs direct computation across the family corpus, plus the
    stretch limits against their expected values: a fixed grid, with no
    seed or trial count."""
    result = SuiteResult("families")
    for spec in _family_corpus():
        g = generate(spec)
        result.check(validate(g).admissible, f"{spec}: generated graph not admissible")
        result.check(
            k_squared(g) == closed_form_k2(spec),
            f"{spec}: direct -K^2 differs from the closed form",
        )
        if spec.name == "two_curve":
            coeffs = canonical_cycle(g).coefficients
            want = two_curve_coefficient(spec)
            result.check(
                coeffs[0] == coeffs[1] == want,
                f"{spec}: genus-curve coefficients differ from the formula",
            )
        if spec.name in ("tail", "two_tail"):
            degrees = adjunction_degrees(g)
            result.check(
                degrees[0] == spec["r"],
                f"{spec}: adjunction degree of the end curve is not r",
            )
    for spec, params in _stretch_cases():
        g = generate(spec)
        descs = [stretch_descriptor(spec, g, p) for p in params]
        want = expected_limit(spec, params)
        try:
            got = limit_k_squared(g, descs)
        except SingularLimitError:
            got = UNBOUNDED
        result.check(got == want, f"{spec} stretch {params}: limit {got} != expected {want}")
        if len(descs) == 1:
            cross = mobius_limit_crosscheck(g, descs[0])
            result.check(
                cross == want, f"{spec} stretch {params}: rational fit {cross} != expected {want}"
            )
    return result


def suite_spectrum(seed: int = 0, trials: int = 300) -> SuiteResult:
    """Enumerated spectrum sanity plus the component-sum bound on random
    admissible graphs."""
    result = SuiteResult("spectrum")
    entries = enumerate_admissible(EnumBounds(4, min_self=-4, max_genus=1, max_edge_multiplicity=2))
    result.check(len(entries) == len({e.encoding for e in entries}), "duplicate canonical encodings")
    nonzero = [e.k_squared for e in entries if e.k_squared != 0]
    result.check(all(e.k_squared >= 0 for e in entries), "negative -K^2 in spectrum")
    result.check(all(v >= Fraction(1, 3) for v in nonzero), "nonzero -K^2 below 1/3")
    result.check(min(nonzero) == Fraction(1, 3), "smallest nonzero -K^2 is not 1/3")
    for e in entries:
        if 0 < e.k_squared < 1:
            result.check(
                e.classification.startswith("rational") and e.z_squared == -3,
                f"{e.encoding}: value in (0,1) without a rational triple-point shape",
            )
        g = graph_from_encoding(e.encoding)
        result.check(validate(g).admissible, f"{e.encoding}: decoded graph not admissible")
    rng = random.Random(seed)
    bounds = EnumBounds(max_vertices=6, min_self=-6, max_genus=2, max_edge_multiplicity=2)
    for t in range(trials):
        g = random_admissible(rng, bounds)
        checks = {c.name: c for c in bound_checks(g)}
        result.check(checks["component_sum"].holds, f"trial {t}: component-sum bound violated")
        if "nonzero_minimum" in checks:
            result.check(checks["nonzero_minimum"].holds, f"trial {t}: value below 1/3")
    return result


def run_suite(name: str, seed: int | None = None, trials: int | None = None) -> SuiteResult:
    """Run suite `name`, with seed 0 and its own number of trials unless
    they are given.  Raises `PreconditionError` for an unknown suite, a
    negative `trials`, or a seed or trial count given to `families`, whose
    grid is fixed."""
    if trials is not None and trials < 0:
        raise PreconditionError(f"trials must be >= 0, got {trials}")
    if name == "families":
        if seed is not None or trials is not None:
            raise PreconditionError("suite families runs a fixed grid of family members"
                                    " and stretch limits; it takes no --seed or --trials")
        return suite_families()
    seed = 0 if seed is None else seed
    if name == "lemmas":
        return suite_lemmas(seed=seed, trials=trials if trials is not None else 150)
    if name == "spectrum":
        return suite_spectrum(seed=seed, trials=trials if trials is not None else 300)
    raise PreconditionError(f"unknown suite {name!r} (choose from {', '.join(SUITES)})")
