"""Frozen inputs of the kdg benchmark and the checks on each op's output.

Everything a workload runs is fixed here: the family grid, the sweep sizes,
the stretch cases and their string lengths, the enumeration boxes, and the
generator of random admissible graphs.  None of it is read from `kdg`, so a
later change to the package cannot change what the benchmark feeds it.

An op is one `kdg` command line.  Its output must match the golden digest
recorded at the commit that defined the benchmark (`golden.json`) and pass
an oracle that does not depend on that recording.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

# ---------------------------------------------------------------------------
# frozen inputs

#: Keep a report graph only when its p_a search box has at most this many
#: points.  Larger boxes take from seconds (E7: 1.8M points, 15 s) to
#: hours (E8, I(5,5,5)) today; see NOTES.md.
MAX_BOX_POINTS = 60_000

#: The random report graphs are drawn from a pool made once by `random_graph`
#: from this seed; `--seed` picks a stratified sample of it.
POOL_SEED = 98_03_047
POOL_SIZE = 1000
RANDOM_PER_RUN = 200


def family_grid() -> list[tuple[str, dict]]:
    """The member grid of `kdg verify --suite families` as it stood when the
    benchmark was defined: 249 (family, parameters) pairs."""
    grid: list[tuple[str, dict]] = []
    for n in range(4):
        for s in range(4):
            for t in range(4):
                grid.append(("I", dict(n=n, s=s, t=t)))
            grid.append(("II", dict(n=n, s=s)))
            grid.append(("III", dict(n=n, s=s + 2)))
        grid.append(("IV", dict(n=n)))
        grid.append(("V", dict(n=n)))
        grid.append(("VI", dict(n=n + 1)))
    grid += [("VII", {}), ("VIII", {}), ("IX", {})]
    for k in (2, 4):
        for m in (1, 2):
            for n in range(1, 5):
                grid.append(("two_curve", dict(k=k, m=m, n=n)))
    for k in range(1, 4):
        for r in range(k + 1, 7, 2):
            for n in range(3):
                grid.append(("tail", dict(r=r, k=k, n=n)))
        for r in range(k, 7, 2):
            for n in range(3):
                for s in range(3):
                    grid.append(("two_tail", dict(r=r, k=k, n=n, s=s)))
    grid += [("double_three", dict(n=n)) for n in range(6)]
    grid += [("simple_elliptic", dict(w=w)) for w in range(1, 7)]
    grid.append(("non_lc_star", {}))
    grid += [("A", dict(n=n)) for n in range(1, 9)]
    grid += [("D", dict(n=n)) for n in range(4, 9)]
    grid += [("E6", {}), ("E7", {}), ("E8", {})]
    return grid


#: `kdg sweep` families: (name, swept parameter, fixed parameters, number of
#: vertices of the member with the swept parameter at 0).
SWEEP_FAMILIES = (
    ("A", "n", {}, 0),
    ("D", "n", {}, 0),
    ("I", "n", dict(s=1, t=1), 3),
    ("II", "n", dict(s=1), 5),
    ("VI", "n", {}, 3),
    ("double_three", "n", {}, 2),
    ("tail", "n", dict(r=2, k=1), 1),
    ("two_tail", "n", dict(r=1, k=1, s=1), 2),
)
SWEEP_SIZES_PER_FAMILY = 11
SWEEP_MIN_VERTICES = 20
SWEEP_MAX_VERTICES = 160

#: The stretch cases of `verify --suite families`, with the stretched
#: strings lengthened so the member has LIMIT_VERTICES vertices.  The last
#: field names, per stretched parameter, a vertex on that string.
LIMIT_VERTICES = 140
LIMIT_CASES = (
    ("I", dict(n=1, s=1, t=0), ("n", "s"), ("n1", "s1")),
    ("II", dict(n=2, s=1), ("n",), ("n1",)),
    ("II", dict(n=2, s=1), ("s",), ("s1",)),
    ("III", dict(n=1, s=3), ("n",), ("n1",)),
    ("IV", dict(n=1), ("n",), ("n1",)),
    ("V", dict(n=1), ("n",), ("n1",)),
    ("VI", dict(n=2), ("n",), ("c4",)),
    ("two_curve", dict(k=2, m=1, n=2), ("n",), ("f2",)),
    ("tail", dict(r=2, k=1, n=1), ("n",), ("n1",)),
    ("two_tail", dict(r=1, k=1, n=1, s=1), ("n", "s"), ("n1", "s1")),
    ("double_three", dict(n=1), ("n",), ("n1",)),
)

#: `kdg enumerate` boxes: (max vertices, min self, max genus, max
#: multiplicity) -> number of isomorphism classes, fixed when the benchmark
#: was defined.  SMOKE_BOX is the self-test's tiny box.
ENUM_BOXES = {
    (6, -3, 0, 1): 914,
    (4, -3, 1, 2): 1350,
    (6, -2, 1, 1): 260,
}
SMOKE_BOX = ((3, -3, 0, 1), 14)

# ---------------------------------------------------------------------------
# exact helpers owned by the benchmark


def _matrix(doc: dict) -> list[list[int]]:
    index = {v["id"]: k for k, v in enumerate(doc["vertices"])}
    n = len(index)
    rows = [[0] * n for _ in range(n)]
    for k, v in enumerate(doc["vertices"]):
        rows[k][k] = v["self"]
    for e in doc["edges"]:
        a, b = index[e["a"]], index[e["b"]]
        rows[a][b] = rows[b][a] = e.get("m", 1)
    return rows


def negative_definite(rows: list[list[int]]) -> bool:
    """Sylvester's criterion by fraction-free elimination without swaps."""
    a = [row[:] for row in rows]
    n = len(a)
    prev = 1
    for k in range(n):
        d = a[k][k]
        if d == 0 or (d > 0) == (k % 2 == 0):
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (d * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = d
    return True


def fundamental_cycle(doc: dict) -> list[int]:
    """Laufer's sequence: start from all ones and raise any coefficient
    whose curve still meets the cycle positively."""
    rows = _matrix(doc)
    n = len(rows)
    z = [1] * n
    product = [sum(row) for row in rows]
    while True:
        i = next((k for k in range(n) if product[k] > 0), None)
        if i is None:
            return z
        z[i] += 1
        for k in range(n):
            product[k] += rows[k][i]


def box_points(z: list[int], bound: int = 3) -> int:
    """Points of the p_a search box 0 <= D <= bound * Z."""
    return math.prod(bound * x + 1 for x in z)


def random_graph(rng: random.Random) -> dict:
    """One admissible graph as a graph JSON document: at most 6 vertices,
    genus at most 2, edge multiplicity at most 2.  Draws random trees with
    an occasional extra edge and rejects forms that are not negative
    definite."""
    while True:
        r = rng.randint(1, 6)
        vertices = []
        for i in range(r):
            genus = rng.randint(1, 2) if rng.random() < 0.25 else 0
            top = -1 if genus else -2
            weight = -2 if rng.random() < 0.4 and not genus else rng.randint(-6, top)
            vertices.append({"id": f"v{i}", "genus": genus, "self": weight})
        pairs = {}
        for i in range(1, r):
            pairs[(rng.randrange(i), i)] = 2 if rng.random() < 0.15 else 1
        if r >= 3 and rng.random() < 0.1:
            a, b = sorted(rng.sample(range(r), 2))
            pairs.setdefault((a, b), 1)
        doc = {
            "vertices": vertices,
            "edges": [{"a": f"v{a}", "b": f"v{b}", "m": m} for (a, b), m in sorted(pairs.items())],
        }
        if negative_definite(_matrix(doc)):
            return doc


def random_pool() -> list[dict]:
    """POOL_SIZE random graphs whose box is small enough, from POOL_SEED."""
    rng = random.Random(POOL_SEED)
    pool = []
    while len(pool) < POOL_SIZE:
        doc = random_graph(rng)
        if box_points(fundamental_cycle(doc)) <= MAX_BOX_POINTS:
            pool.append(doc)
    return pool


def pool_digest(pool: list[dict]) -> str:
    return hashlib.sha256(json.dumps(pool, sort_keys=True).encode()).hexdigest()


def stratified_sample(keys: list[str], cost: dict[str, int], count: int, rng: random.Random) -> list[str]:
    """`count` keys, one from each of `count` equal runs of the keys ranked
    by cost, so that seeds change which graphs run but hardly the mix of
    work."""
    ranked = sorted(keys, key=lambda key: (cost[key], key))
    bounds = [len(ranked) * i // count for i in range(count + 1)]
    return [rng.choice(ranked[a:b]) for a, b in zip(bounds, bounds[1:])]


def spread(items: list, cost: Callable, rng: random.Random, strata: int = 10) -> list:
    """Seeded order in which every prefix carries about the same mix of
    cheap and dear ops: split by cost rank into strata, shuffle each, and
    deal them out round-robin."""
    ranked = sorted(items, key=cost)
    size = math.ceil(len(ranked) / strata)
    groups = [ranked[i:i + size] for i in range(0, len(ranked), size)]
    for g in groups:
        rng.shuffle(g)
    return [g[i] for i in range(size) for g in groups if i < len(g)]


def _params_text(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


def _label(name: str, params: dict) -> str:
    return f"{name}({_params_text(params)})" if params else name


# ---------------------------------------------------------------------------
# ops


@dataclass
class Op:
    key: str  # golden key
    argv: list[str]
    cost: int  # for ordering only: box points or vertices
    oracle: Callable[[str], Optional[str]]  # stdout -> failure message or None
    items: Callable[[str], int] = lambda out: 1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_oracle(kdg, name: Optional[str], params: dict):
    """Family members must reproduce the closed form; every report must
    hold all its bounds."""
    want = None
    if name is not None:
        fam = kdg.families
        want = kdg.rational.rat_str(fam.closed_form_k2(fam.family_spec(name, **params)))

    def check(out: str) -> Optional[str]:
        doc = json.loads(out)
        if want is not None and doc["k_squared"] != want:
            return f"-K^2 {doc['k_squared']} != closed form {want}"
        if not all(b["holds"] for b in doc["bound_checks"]):
            return "a bound check does not hold"
        return None

    return check


def report_box_points(out: str) -> int:
    z = [int(x) for x in json.loads(out)["fundamental"]["coefficients"].values()]
    return box_points(z)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _kdg_family(kdg, name: str, params: dict, path: str) -> dict:
    """Write a family member with `kdg family` and read it back."""
    argv = ["family", name, "--out", path] + (["--params", _params_text(params)] if params else [])
    run_quiet(kdg, argv)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_quiet(kdg, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = kdg.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up command kdg {' '.join(argv)} exited {code}")


def family_members(kdg, work: str) -> tuple[list[Op], list[tuple[str, int]]]:
    """Report ops on the family grid, and the excluded (label, box points)."""
    ops, excluded = [], []
    for k, (name, params) in enumerate(family_grid()):
        path = os.path.join(work, f"family-{k:03d}.json")
        doc = _kdg_family(kdg, name, params, path)
        points = box_points(fundamental_cycle(doc))
        label = _label(name, params)
        if points > MAX_BOX_POINTS:
            excluded.append((label, points))
            continue
        ops.append(Op(f"report:{label}", ["compute", path, "--json"], points,
                      _report_oracle(kdg, name, params)))
    return ops, excluded


def report_ops(kdg, work: str, seed: int) -> tuple[list[Op], str]:
    """The family grid plus RANDOM_PER_RUN pool graphs picked by the seed,
    in a seeded order; also returns the pool digest."""
    rng = random.Random(seed)
    ops, _ = family_members(kdg, work)
    pool = random_pool()
    cost = {f"pool:{k:04d}": box_points(fundamental_cycle(doc)) for k, doc in enumerate(pool)}
    for key in stratified_sample(sorted(cost), cost, RANDOM_PER_RUN, rng):
        path = os.path.join(work, key.replace(":", "-") + ".json")
        _write_json(path, pool[int(key[5:])])
        ops.append(Op(f"report:{key}", ["compute", path, "--json"], cost[key],
                      _report_oracle(kdg, None, {})))
    return spread(ops, lambda op: (op.cost, op.key), rng), pool_digest(pool)


def pool_ops(kdg, work: str) -> list[Op]:
    """Every pool graph, for recording golden digests."""
    ops = []
    for k, doc in enumerate(random_pool()):
        path = os.path.join(work, f"pool-{k:04d}.json")
        _write_json(path, doc)
        ops.append(Op(f"report:pool:{k:04d}", ["compute", path, "--json"], 0,
                      _report_oracle(kdg, None, {})))
    return ops


def sweep_sizes() -> list[list[int]]:
    """Per family, SWEEP_SIZES_PER_FAMILY vertex counts; over all families
    the counts are spread evenly from SWEEP_MIN_VERTICES to
    SWEEP_MAX_VERTICES."""
    fams = len(SWEEP_FAMILIES)
    total = fams * SWEEP_SIZES_PER_FAMILY
    span = SWEEP_MAX_VERTICES - SWEEP_MIN_VERTICES
    return [
        [SWEEP_MIN_VERTICES + round((i * fams + f) * span / (total - 1))
         for i in range(SWEEP_SIZES_PER_FAMILY)]
        for f in range(fams)
    ]


def _sweep_oracle(kdg, name: str, params: dict):
    fam = kdg.families
    want = kdg.rational.rat_str(fam.closed_form_k2(fam.family_spec(name, **params)))

    def check(out: str) -> Optional[str]:
        rows = out.splitlines()[1:]
        if len(rows) != 1:
            return f"{len(rows)} rows, expected 1"
        _, exact, _, closed, match = rows[0].split(",")
        if match != "true" or exact != want or closed != want:
            return f"row {rows[0]!r} disagrees with closed form {want}"
        return None

    return check


def _limit_oracle(kdg, spec_name: str, params: dict, stretched: tuple):
    fam, rational = kdg.families, kdg.rational
    want = fam.expected_limit(fam.family_spec(spec_name, **params), stretched)
    if want is rational.UNBOUNDED:
        expected = ["no finite limit:"]
        cross = "rational-fit cross-check: +inf"
    else:
        expected = [f"limit of -K^2: {rational.rat_str(want)} ("]
        cross = f"rational-fit cross-check: {rational.rat_str(want)} ("
    if len(stretched) == 1:
        expected.append(cross)

    def check(out: str) -> Optional[str]:
        lines = out.splitlines()
        tail = lines[-len(expected):]
        if len(tail) != len(expected) or not all(a.startswith(b) for a, b in zip(tail, expected)):
            return f"limit output {tail!r} does not match expected {expected!r}"
        return None

    return check


def large_ops(kdg, work: str, seed: int) -> list[Op]:
    ops = []
    for (name, param, fixed, base), sizes in zip(SWEEP_FAMILIES, sweep_sizes()):
        for size in sizes:
            value = size - base
            argv = ["sweep", name, "--param", param, "--range", f"{value}..{value}"]
            if fixed:
                argv += ["--fix", _params_text(fixed)]
            ops.append(Op(f"sweep:{name}:{size}", argv, size,
                          _sweep_oracle(kdg, name, {**fixed, param: value})))
    for k, (name, params, stretched, ids) in enumerate(LIMIT_CASES):
        path = os.path.join(work, f"limit-{k:02d}.json")
        grown = lengthen(kdg, name, params, stretched, path)
        ops.append(Op(f"limit:{_label(name, params)}:{'+'.join(stretched)}",
                      ["limit", path, "--strings", ",".join(ids)], LIMIT_VERTICES,
                      _limit_oracle(kdg, name, grown, stretched)))
    return spread(ops, lambda op: (op.cost, op.key), random.Random(seed))


def lengthen(kdg, name: str, params: dict, stretched: tuple, path: str) -> dict:
    """Write the member whose stretched strings are grown so that it has
    LIMIT_VERTICES vertices; returns its parameters."""
    doc = _kdg_family(kdg, name, params, path)
    extra = LIMIT_VERTICES - len(doc["vertices"])
    grown = dict(params)
    for i, p in enumerate(stretched):
        grown[p] += extra // len(stretched) + (1 if i < extra % len(stretched) else 0)
    doc = _kdg_family(kdg, name, grown, path)
    if len(doc["vertices"]) != LIMIT_VERTICES:
        raise RuntimeError(f"{_label(name, grown)} has {len(doc['vertices'])} vertices")
    return grown


def _enum_argv(box: tuple) -> list[str]:
    v, w, g, m = box
    return ["enumerate", "--max-vertices", str(v), "--min-self", str(w),
            "--max-genus", str(g), "--max-mult", str(m), "--jobs", "1"]


def _enum_oracle(classes: int):
    def check(out: str) -> Optional[str]:
        got = len(out.splitlines()) - 1
        return None if got == classes else f"{got} classes, expected {classes}"

    return check


def enum_op(box: tuple, classes: int) -> Op:
    return Op(f"enumerate:{','.join(map(str, box))}", _enum_argv(box), classes,
              _enum_oracle(classes), items=lambda out: len(out.splitlines()) - 1)


def enumerate_ops(seed: int) -> list[Op]:
    ops = [enum_op(box, classes) for box, classes in ENUM_BOXES.items()]
    random.Random(seed).shuffle(ops)
    return ops


def enumeration_tasks(box: tuple) -> int:
    """Vertex-data multisets the enumerator searches, one task each."""
    v, w, g, _ = box
    options = (g + 1) * (-w) - 1  # a genus-0 (-1)-curve is never minimal
    return sum(math.comb(options + r - 1, r) for r in range(1, v + 1))
