import concurrent.futures
import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kdg.cli
import kdg.enumeration
import kdg.families
from kdg import invariants, rational
from kdg.cli import main
from kdg.families import family_names, family_spec, generate
from kdg.graph import build_graph, graph_to_json, parse_graph_json
from kdg.invariants import invariant_report, report_to_obj

KDG = [sys.executable, "-m", "kdg.cli"]


def run(*args, **kw):
    return subprocess.run(KDG + list(args), capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def x31_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "x31.json"
    p.write_text(graph_to_json(build_graph([("e", 0, -3)], [])))
    return str(p)


def test_compute_text(x31_path):
    res = run("compute", x31_path)
    assert res.returncode == 0
    assert "-K^2: 1/3 (0.333333333333)" in res.stdout
    assert "classification: rational-triple" in res.stdout
    assert "numerical index: 3" in res.stdout
    assert "nonzero_minimum: 1/3 >= 1/3  [ok]" in res.stdout


def test_compute_json(x31_path):
    res = run("compute", x31_path, "--json")
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["k_squared"] == "1/3"
    assert obj["canonical"]["coefficients"] == {"e": "-1/3"}
    assert obj["classification"] == "rational-triple"
    assert all(b["holds"] for b in obj["bound_checks"])


def test_compute_is_deterministic(x31_path):
    a = run("compute", x31_path, "--json")
    b = run("compute", x31_path, "--json")
    assert a.stdout == b.stdout


def test_compute_dot(x31_path, tmp_path):
    out = tmp_path / "g.dot"
    res = run("compute", x31_path, "--dot", str(out))
    assert res.returncode == 0
    assert out.read_text().startswith("graph dual {")


def test_compute_error_exits(tmp_path):
    blowup = tmp_path / "blowup.json"
    blowup.write_text(graph_to_json(build_graph([("e", 0, -1)], [])))
    res = run("compute", str(blowup))
    assert res.returncode == 2
    assert "not minimal: (-1)-curve" in res.stderr

    indef = tmp_path / "indef.json"
    indef.write_text(graph_to_json(build_graph([("a", 0, -2), ("b", 0, -2)], [("a", "b", 2)])))
    res = run("compute", str(indef))
    assert res.returncode == 3
    assert "not negative definite" in res.stderr

    res = run("compute", str(tmp_path / "missing.json"))
    assert res.returncode == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    res = run("compute", str(broken))
    assert res.returncode == 2
    assert "invalid JSON" in res.stderr


def test_family_round_trip(tmp_path):
    res = run("family", "II", "--params", "n=1,s=2")
    assert res.returncode == 0
    g = parse_graph_json(res.stdout)
    assert g == generate(family_spec("II", n=1, s=2))

    out = tmp_path / "ii.json"
    res = run("family", "II", "--params", "n=1,s=2", "--out", str(out))
    assert res.returncode == 0
    assert parse_graph_json(out.read_text()) == g


def test_family_bad_params():
    assert run("family", "II").returncode == 4
    assert run("family", "II", "--params", "n=1").returncode == 4
    assert run("family", "II", "--params", "n=1,s=-2").returncode == 4
    assert run("family", "II", "--params", "n=one,s=2").returncode == 4
    # unknown family name is an argparse error
    assert run("family", "X").returncode == 2


def test_family_vertex_budget_exits_4(monkeypatch, capsys):
    """A member over FAMILY_VERTEX_BUDGET exits 4 from its count alone,
    for `family` and for a `sweep` row."""
    monkeypatch.setattr(kdg.families, "build_graph", None)  # building would raise
    assert main(["family", "A", "--params", "n=10000000"]) == 4
    assert main(["sweep", "I", "--param", "n", "--range", "99999..99999", "--fix", "s=1,t=0"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: family A with these parameters has more than 100000 vertices, its vertex budget",
        "error: family I with these parameters has more than 100000 vertices, its vertex budget",
    ]


# ends of the most digits an int literal may have, and one more
_huge_values = st.sampled_from(["8" * 4300, "-" + "8" * 4300, "9" * 4301])
# a chain length past the small ones is over the vertex budget, so no case
# builds a large member
_param_values = st.one_of(
    st.integers(-3, 12).map(str),
    st.integers(kdg.families.FAMILY_VERTEX_BUDGET + 1, 10**40).map(str),
    _huge_values,
)


@st.composite
def _family_params(draw):
    """A family and `--params` text: its own parameter names, other names,
    or any text, with small, large and unparsable values."""
    name = draw(st.sampled_from(family_names()))
    own = ",".join(f"{k}={draw(_param_values)}" for k in kdg.families._PARAMS[name])
    names = st.sampled_from(["n", "s", "t", "k", "m", "r", "w", "x", " n", ""])
    other = st.lists(st.tuples(names, _param_values).map("=".join), max_size=5).map(",".join)
    return name, draw(st.just(own) | other | st.text(max_size=24))


@settings(max_examples=300, deadline=None)
@given(_family_params())
@example(("two_curve", f"k={'8' * 4300},m=1,n=1"))  # self-intersection of 4301 digits
def test_family_exit_codes_on_arbitrary_params(family):
    """`family` answers 0, 2, 3 or 4 and lets no exception escape; what it
    prints on 0 is a graph within the vertex budget."""
    name, params = family
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["family", name, f"--params={params}"])
    assert code in {0, 2, 3, 4}
    if code == 0:
        assert len(parse_graph_json(out.getvalue())) <= kdg.families.FAMILY_VERTEX_BUDGET
    else:
        assert err.getvalue().startswith("error: ")


def test_sweep_csv():
    res = run("sweep", "IV", "--param", "n", "--range", "0..2")
    assert res.returncode == 0
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    assert [r["param"] for r in rows] == ["0", "1", "2"]
    assert [r["k2_exact"] for r in rows] == ["4/7", "4/5", "12/13"]
    assert all(r["match"] == "true" for r in rows)
    assert all(r["k2_exact"] == r["closed_form"] for r in rows)
    assert rows[1]["k2_decimal"] == "0.8"


def test_sweep_fixed_params(tmp_path):
    out = tmp_path / "sweep.csv"
    res = run("sweep", "I", "--param", "n", "--range", "0..3",
              "--fix", "s=1,t=1", "--csv", str(out))
    assert res.returncode == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 4
    assert rows[0]["k2_exact"] == "1/2"  # I(0,1,1) = 1/(3-0-1/2-1/2)
    assert all(r["match"] == "true" for r in rows)


def test_sweep_row_budget(monkeypatch, capsys):
    """A range of more than SWEEP_ROW_BUDGET rows exits 4 with its row
    count, before any family member is built."""
    assert main(["sweep", "A", "--param", "n", "--range", "0..1000000"]) == 4
    assert "has 1000001 rows" in capsys.readouterr().err
    monkeypatch.setattr(kdg.cli, "SWEEP_ROW_BUDGET", 3)
    assert main(["sweep", "IV", "--param", "n", "--range", "0..2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    monkeypatch.setattr(kdg.cli, "generate", None)  # calling it would raise
    assert main(["sweep", "IV", "--param", "n", "--range", "0..3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sweep range has 4 rows, over the budget of 3\n"


_sweep_params = st.sampled_from(["n", "s", "t", "k", "m", "r", "x"])
_sweep_ranges = st.one_of(
    # no decimal digit anywhere, so it cannot parse as a range
    st.text(st.characters(blacklist_categories=("Nd",)), max_size=12),
    # reversed ranges
    st.tuples(st.integers(-50, 50), st.integers(1, 50)).map(lambda t: f"{t[0]}..{t[0] - t[1]}"),
    # a few rows of small members, which run
    st.tuples(st.integers(-3, 10), st.integers(0, 2)).map(lambda t: f"{t[0]}..{t[0] + t[1]}"),
    # over the budget: refused by count
    st.tuples(st.integers(-(10**40), 10**40), st.integers(kdg.cli.SWEEP_ROW_BUDGET, 10**40)).map(
        lambda t: f"{t[0]}..{t[0] + t[1]}"
    ),
    # ends of the most digits an int literal may have, and one more
    st.sampled_from(["9" * 4300, "9" * 4301]).map(lambda hi: f"-{hi}..{hi}"),
)
_sweep_fixes = st.none() | st.lists(
    st.tuples(_sweep_params, st.integers(-2, 6).map(str) | _huge_values).map("=".join), max_size=3
).map(",".join)


@st.composite
def _well_formed_sweeps(draw):
    """A family, one of its parameters and small values for the others."""
    name = draw(st.sampled_from([n for n in family_names() if kdg.families._PARAMS[n]]))
    names = kdg.families._PARAMS[name]
    param = draw(st.sampled_from(names))
    fix = ",".join(f"{k}={draw(st.integers(0, 4))}" for k in names if k != param)
    return name, param, fix or None


_sweeps = st.tuples(st.sampled_from(family_names()), _sweep_params, _sweep_fixes) | _well_formed_sweeps()


@settings(max_examples=300, deadline=None)
@given(_sweeps, _sweep_ranges)
@example(("two_curve", "n", f"k={'8' * 4300},m=1"), "1..1")  # -K^2 too long to print
def test_sweep_exit_codes_on_arbitrary_ranges(sweep, text):
    """`sweep` answers 0 or 4 and lets no exception escape.  A range over
    the budget exits 4, refused by its row count: no test case may build
    more than the three members of the longest small range."""
    name, param, fix = sweep
    argv = ["sweep", name, "--param", param, f"--range={text}"]
    if fix is not None:
        argv += ["--fix", fix]
    built = []

    def generate_at_most_three(spec):
        built.append(spec)
        assert len(built) <= 3, f"sweep {text} built a fourth member"
        return generate(spec)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch.object(kdg.cli, "generate", generate_at_most_three):
            code = main(argv)
    assert code in {0, 4}
    if code == 0:
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert rows[0][0] == "param" and all(row[-1] == "true" for row in rows[1:])
    else:
        assert err.getvalue().startswith("error: ")
    try:
        lo, hi = map(int, text.split(".."))
    except ValueError:  # not a range, or ends too long to parse
        return
    if hi - lo + 1 > kdg.cli.SWEEP_ROW_BUDGET:
        assert code == 4 and not built


def test_limit_named_string(tmp_path):
    p = tmp_path / "dt.json"
    p.write_text(graph_to_json(generate(family_spec("double_three", n=2))))
    res = run("limit", str(p), "--strings", "n1")
    assert res.returncode == 0
    assert "limit of -K^2: 1" in res.stdout
    assert "rational-fit cross-check: 1" in res.stdout

    res = run("limit", str(p), "--strings", "zz")
    assert res.returncode == 4
    assert "unknown vertex 'zz'" in res.stderr


def test_limit_auto_unbounded(tmp_path):
    p = tmp_path / "vi.json"
    p.write_text(graph_to_json(generate(family_spec("VI", n=2))))
    res = run("limit", str(p), "--strings", "auto")
    assert res.returncode == 0
    assert "no finite limit" in res.stdout


@pytest.mark.parametrize(
    "spec, strings",
    [(family_spec("E8"), "auto"), (family_spec("II", n=0, s=1), "f1")],
    ids=["E8-auto", "II(n=0,s=1)-f1"],
)
def test_limit_leaving_the_definite_class_exits_4(tmp_path, spec, strings):
    # E8 = T(2,3,5) stretched is T(p,q,r) with 1/p + 1/q + 1/r < 1; the
    # values of II(n=0,s=1) along f1 are 4/(9 - L), singular at L = 9
    p = tmp_path / "g.json"
    p.write_text(graph_to_json(generate(spec)))
    res = run("limit", str(p), "--strings", strings)
    assert res.returncode == 4
    assert "leaves the negative definite class" in res.stderr
    assert "limit of -K^2" not in res.stdout


def test_enumerate_csv(tmp_path):
    res = run("enumerate", "--max-vertices", "2", "--min-self", "-3")
    assert res.returncode == 0
    rows = list(csv.DictReader(io.StringIO(res.stdout)))
    assert len(rows) == 5
    by_enc = {r["encoding"]: r for r in rows}
    assert by_enc["0,-3|"]["k2_exact"] == "1/3"
    assert by_enc["0,-3|"]["class"] == "rational-triple"
    assert by_enc["0,-3;0,-2|0-1:1"]["z2"] == "-3"
    assert by_enc["0,-2|"]["index"] == "1"
    out = tmp_path / "enum.csv"
    res = run("enumerate", "--max-vertices", "1", "--out", str(out))
    assert res.returncode == 0
    assert out.read_text().count("\n") >= 2


def test_enumerate_ignores_kdg_jobs(monkeypatch, capsys):
    """Only --jobs sets the worker count; KDG_JOBS in the environment is
    not read."""

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("enumerate started a process pool")

    monkeypatch.setenv("KDG_JOBS", "2")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(kdg.enumeration.os, "cpu_count", lambda: 4)
    assert main(["enumerate", "--max-vertices", "2", "--min-self", "-3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "encoding,k2_exact,k2_decimal,class,z2,index"
    assert len(lines) == 6


def test_main_calls_do_not_leak_state(x31_path, capsys):
    """A rejected command line and an enumerate in the same process leave
    a later compute unchanged."""
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--jobs", "3"])  # --max-vertices is missing
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["compute", x31_path]) == 0
    first = capsys.readouterr()
    assert "-K^2: 1/3" in first.out
    assert main(["enumerate", "--max-vertices", "2", "--min-self", "-3"]) == 0
    assert capsys.readouterr().out.startswith("encoding,")
    assert main(["compute", x31_path]) == 0
    assert capsys.readouterr() == first


def test_enumerate_bounds_rejected():
    res = run("enumerate", "--max-vertices", "9")
    assert res.returncode == 4


def test_verify_subcommand():
    res = run("verify", "--suite", "lemmas", "--trials", "3", "--seed", "5")
    assert res.returncode == 0
    assert res.stdout.startswith("suite lemmas:")
    assert "[ok]" in res.stdout
    again = run("verify", "--suite", "lemmas", "--trials", "3", "--seed", "5")
    assert again.stdout == res.stdout


def test_no_command_shows_usage():
    res = run()
    assert res.returncode == 2
    res = run("--help")
    assert res.returncode == 0
    assert "compute" in res.stdout and "enumerate" in res.stdout


def compute_in_process(capsys, path):
    """Run `kdg compute PATH --json` in this process.

    Returns the exit code, the seconds it took, and the report (on exit 0)
    or the stderr text (otherwise)."""
    start = time.perf_counter()
    code = main(["compute", str(path), "--json"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    return code, elapsed, json.loads(captured.out) if code == 0 else captured.err


def arithmetic_genus_rhs(report) -> str:
    (check,) = [b for b in report["bound_checks"] if b["name"] == "arithmetic_genus"]
    assert check["holds"]
    return check["rhs"]


def tail_graph(length: int):
    """A genus-1 (-1)-curve with a tail of `length` (-2)-curves: not rational."""
    vertices = [("e", 1, -1)] + [(f"t{i}", 0, -2) for i in range(length)]
    edges = [("e", "t0")] + [(f"t{i}", f"t{i + 1}") for i in range(length - 1)]
    return build_graph(vertices, edges)


@pytest.mark.parametrize("spec", [family_spec("E8"), family_spec("I", n=5, s=5, t=5)], ids=str)
def test_compute_terminates_on_large_rational_boxes(spec, tmp_path, capsys):
    # the box 0 < D <= 3Z has 252M points on E8 and 4.3G on I(5,5,5)
    path = tmp_path / "g.json"
    path.write_text(graph_to_json(generate(spec)))
    code, elapsed, report = compute_in_process(capsys, path)
    assert code == 0
    assert elapsed < 2
    assert report["pa_z"] == 0
    assert arithmetic_genus_rhs(report) == "-3"


def test_compute_terminates_on_long_non_rational_tail(tmp_path, capsys):
    path = tmp_path / "tail.json"
    path.write_text(graph_to_json(tail_graph(40)))
    code, elapsed, report = compute_in_process(capsys, path)
    assert code == 0
    assert elapsed < 10
    assert report["pa_z"] == 1
    assert arithmetic_genus_rhs(report) == "1"  # 4 * p_a - 3 with p_a = 1


def test_compute_terminates_on_long_chain(tmp_path, capsys):
    path = tmp_path / "a200.json"
    path.write_text(graph_to_json(generate(family_spec("A", n=200))))
    code, elapsed, report = compute_in_process(capsys, path)
    assert code == 0
    assert elapsed < 60
    assert report["k_squared"] == "0"
    assert arithmetic_genus_rhs(report) == "-3"


# The scale tests below allow at least ten times the time measured on 2
# cores (Python 3.11.7, best of 3): A(400) 0.08 s, the shuffled chain
# 0.05 s, the limit 0.01 s, the 200-arm star 0.17 s in either order, the
# 300-vertex binary tree 0.09 s.  With the kernels reading adjacency rows,
# `k_squared` takes 0.04 s on A(2000) and 0.05 s on the 1023-vertex binary
# tree, against 0.8 s and 0.24 s on the dense intersection matrix, and its
# tracemalloc peak on A(4000) is 2.6 MB against 256 MB.  A 1000-arm star
# stays quadratic (1.4 s), since its centre row is rewritten once per arm.


def test_compute_scales_to_a400(tmp_path, capsys):
    path = tmp_path / "a400.json"
    path.write_text(graph_to_json(generate(family_spec("A", n=400))))
    code, elapsed, report = compute_in_process(capsys, path)
    assert code == 0
    assert elapsed < 1
    assert report["k_squared"] == "0"
    assert set(report["fundamental"]["coefficients"].values()) == {"1"}
    assert arithmetic_genus_rhs(report) == "-3"


def test_compute_on_shuffled_chain(tmp_path, capsys):
    rng = random.Random(7)
    n = 200
    weights = [rng.choice([-2, -2, -3]) for _ in range(n)]
    edges = [(f"v{i}", f"v{i + 1}") for i in range(n - 1)]
    order = list(range(n))
    rng.shuffle(order)
    shuffled = build_graph([(f"v{i}", 0, weights[i]) for i in order], edges)
    path = tmp_path / "chain.json"
    path.write_text(graph_to_json(shuffled))
    code, elapsed, report = compute_in_process(capsys, path)
    assert code == 0
    assert elapsed < 1
    ordered = build_graph([(f"v{i}", 0, weights[i]) for i in range(n)], edges)
    assert report == report_to_obj(invariant_report(ordered), ordered)


def star_graph(arms: int, centre_first: bool):
    """A (-arms-1)-curve meeting `arms` (-2)-curves: negative definite."""
    centre = [("c", 0, -(arms + 1))]
    leaves = [(f"a{i}", 0, -2) for i in range(arms)]
    vertices = centre + leaves if centre_first else leaves + centre
    return build_graph(vertices, [("c", f"a{i}") for i in range(arms)])


@pytest.mark.parametrize("centre_first", [True, False], ids=["centre-first", "centre-last"])
def test_compute_scales_to_200_arm_star(centre_first, tmp_path, capsys):
    path = tmp_path / "star.json"
    path.write_text(graph_to_json(star_graph(200, centre_first)))
    code, elapsed, report = compute_in_process(capsys, path)
    assert code == 0
    assert elapsed < 3
    # K.A_i = c_i: each arm gives k_a = k_c / 2 and the centre
    # -201 k_c + 200 k_a = 199, so k_c = -199/101 and
    # -K^2 = -k_c * 199 = 39601/101.
    assert report["k_squared"] == "39601/101"
    assert report["canonical"]["coefficients"]["c"] == "-199/101"
    assert arithmetic_genus_rhs(report) == "-3"


def binary_tree(n: int):
    """Vertices 0..n-1 in heap order (the parent of i is (i - 1) // 2), -3
    on the inner vertices and -2 on the leaves: diagonally dominant, and
    strictly so at the leaves, hence negative definite."""
    degree = [0] * n
    edges = []
    for i in range(1, n):
        degree[i] += 1
        degree[(i - 1) // 2] += 1
        edges.append((f"v{(i - 1) // 2}", f"v{i}"))
    vertices = [(f"v{i}", 0, -2 if degree[i] == 1 else -3) for i in range(n)]
    return vertices, edges


def test_compute_scales_to_branched_300(tmp_path, capsys):
    vertices, edges = binary_tree(300)
    path = tmp_path / "tree.json"
    path.write_text(graph_to_json(build_graph(vertices, edges)))
    code, elapsed, report = compute_in_process(capsys, path)
    assert code == 0
    assert elapsed < 1
    assert report["pa_z"] == 0
    random.Random(3).shuffle(vertices)
    shuffled = build_graph(vertices, edges)
    assert report == report_to_obj(invariant_report(shuffled), shuffled)


def timed_k_squared(g):
    start = time.perf_counter()
    value = invariants.k_squared(g)
    return value, time.perf_counter() - start


def test_k_squared_scales_to_a2000():
    value, elapsed = timed_k_squared(generate(family_spec("A", n=2000)))
    assert value == 0
    assert elapsed < 0.5


def test_k_squared_scales_to_binary_tree_1023():
    vertices, edges = binary_tree(1023)
    value, elapsed = timed_k_squared(build_graph(vertices, edges))
    assert value == Fraction(2949, 2)
    assert elapsed < 0.5


def test_k_squared_memory_on_a4000():
    g = generate(family_spec("A", n=4000))
    tracemalloc.start()
    try:
        value = invariants.k_squared(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 0
    assert peak < 32 * 2**20


def test_compute_malformed_input_exits_2(tmp_path, capsys):
    cases = {
        "utf8": (b"\xff\xfe{", "not UTF-8"),
        "deep": (b"[" * 100_000, "nested too deeply"),
        "digits": (b'{"vertices": [{"id": "a", "self": -' + b"9" * 5000 + b"}]}", "too many digits"),
    }
    for name, (data, message) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        code, _, err = compute_in_process(capsys, path)
        assert code == 2, name
        assert err.count("\n") == 1 and message in err, err


def test_compute_result_too_long_to_print_exits_4(tmp_path, capsys):
    # the input parses, but -K^2 and the bounds have about 8000 digits
    path = tmp_path / "huge.json"
    path.write_text('{"vertices": [{"id": "a", "self": -' + "9" * 4000 + "}]}")
    for argv in (["compute", str(path), "--json"], ["compute", str(path)]):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "digits and cannot be printed" in captured.err


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
_selfs = st.sampled_from([-2, -2, -2, -3, -1, -8, 0, -(10**30), True, 0.5])
_graph_docs = st.fixed_dictionaries(
    {
        "vertices": st.lists(
            st.fixed_dictionaries(
                {"id": st.sampled_from("abc"), "self": _selfs},
                optional={"genus": st.integers(min_value=-1, max_value=2)},
            ),
            max_size=4,
            unique_by=lambda v: v["id"],
        )
    },
    optional={
        "edges": st.lists(
            st.fixed_dictionaries(
                {"a": st.sampled_from("abc"), "b": st.sampled_from("abc")},
                optional={"m": st.integers(min_value=-1, max_value=3)},
            ),
            max_size=5,
        )
    },
)
_inputs = st.one_of(
    st.binary(max_size=64),
    st.text(max_size=64).map(str.encode),
    _json_values.map(lambda v: json.dumps(v).encode()),
    _graph_docs.map(lambda v: json.dumps(v).encode()),
    st.integers(min_value=1, max_value=6000).map(lambda k: b"[" * k + b"]" * k),
    # a self-intersection of k digits: -K^2 has about 3k digits, too many
    # to print from k = 1434 on, and past k = 4300 the literal cannot parse
    st.one_of(st.integers(1, 50), st.integers(1000, 6000)).map(
        lambda k: b'{"vertices": [{"id": "a", "self": -' + b"7" * k + b"}]}"
    ),
)


@settings(max_examples=200)
@given(_inputs)
def test_compute_exit_codes_on_arbitrary_input(data):
    """Whatever the file holds, `compute` returns a documented exit code and
    lets no exception escape."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["compute", "--json", path])
    finally:
        os.unlink(path)
    assert code in {0, 2, 3, 4, 5}
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert err.getvalue().startswith("error: ")


@st.composite
def _small_trees(draw):
    """Trees of 1-6 vertices, mostly genus-0 (-2)-curves, now and then with
    a double edge or one more edge: graphs with strings to stretch."""
    ids = "abcdef"[: draw(st.integers(1, 6))]
    data = st.tuples(st.sampled_from([0] * 5 + [1]), st.sampled_from([-2] * 5 + [-3, -4, -1]))
    vertices = [dict(zip(("id", "genus", "self"), (i, *draw(data)))) for i in ids]
    edges = [
        {"a": ids[draw(st.integers(0, k - 1))], "b": ids[k], "m": draw(st.sampled_from([1, 1, 1, 2]))}
        for k in range(1, len(ids))
    ]
    pairs = st.fixed_dictionaries({"a": st.sampled_from(ids), "b": st.sampled_from(ids)})
    return {"vertices": vertices, "edges": edges + draw(st.lists(pairs, max_size=1) | st.just([]))}


_limit_tokens = st.sampled_from(["a", "b", "c", "d", "e", "f", "0", "3", "9", "-1", " b", "", "zz"])
_limit_strings = st.one_of(
    st.just("auto"),
    st.sampled_from("abcdef"),
    st.lists(_limit_tokens, min_size=1, max_size=3).map(",".join),
    st.text(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(_small_trees() | _graph_docs, _limit_strings)
def test_limit_exit_codes_on_arbitrary_input(doc, strings):
    """`limit` on a small graph with any `--strings` text answers 0, 2, 3
    or 4 and lets no exception escape."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["limit", path, f"--strings={strings}"])
    finally:
        os.unlink(path)
    assert code in {0, 2, 3, 4}, err.getvalue()
    if code == 0:
        assert "limit of -K^2" in out.getvalue() or "no finite limit" in out.getvalue()
    else:
        assert err.getvalue().startswith("error: ")


def test_limit_scales_to_300_vertices(tmp_path, capsys):
    path = tmp_path / "ii.json"
    path.write_text(graph_to_json(generate(family_spec("II", n=295, s=1))))
    start = time.perf_counter()
    code = main(["limit", str(path), "--strings", "n1"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert elapsed < 0.3
    assert "limit of -K^2: 1 " in out
    assert "rational-fit cross-check: 1 " in out


def patch_everywhere(monkeypatch, original, fn):
    """Bind fn in place of `original` in every kdg module that binds it."""
    name = original.__name__
    for module in [m for key, m in sys.modules.items() if key.startswith("kdg.")]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, fn)


def count_factorizations(monkeypatch) -> list[int]:
    """The size of every system `sparse_bareiss` factors from now on."""
    sizes = []
    real = rational.sparse_bareiss

    def counted(rows, rhs):
        sizes.append(len(rows))
        return real(rows, rhs)

    patch_everywhere(monkeypatch, real, counted)
    return sizes


def test_sweep_row_factors_its_member_once(monkeypatch, capsys):
    """A sweep row is one `sparse_bareiss` on its member: no definiteness
    check, solve or `k_squared` of its own."""

    def never(*args):
        raise AssertionError("sweep called a per-invariant kernel")

    v = len(generate(family_spec("II", n=3, s=1)))
    for kernel in (invariants.k_squared, rational.solve, rational.is_negative_definite):
        patch_everywhere(monkeypatch, kernel, never)
    sizes = count_factorizations(monkeypatch)
    assert main(["sweep", "II", "--param", "n", "--range", "3..3", "--fix", "s=1"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3,4/5,0.8,4/5,true"
    assert sizes == [v]


def test_limit_detects_strings_once_and_factors_g_once(tmp_path, monkeypatch, capsys):
    """`limit` on one string detects g's strings once and factors g once:
    its definiteness check also solves the first limit system."""
    g = generate(family_spec("II", n=4, s=1))
    v = len(g)
    path = tmp_path / "ii.json"
    path.write_text(graph_to_json(g))
    detected = []
    real = kdg.transforms.detect_strings

    def detect(graph):
        detected.append(len(graph))
        return real(graph)

    patch_everywhere(monkeypatch, real, detect)
    sizes = count_factorizations(monkeypatch)
    assert main(["limit", str(path), "--strings", "n2"]) == 0
    out = capsys.readouterr().out
    assert "limit of -K^2: 1 " in out and "rational-fit cross-check: 1 " in out
    assert detected == [v]
    # g; the limit system without the string's two interior vertices; the
    # cross-check's members with the string at length 0, 1 and 2
    assert sizes == [v, v - 2, v - 4, v - 3, v - 2]


def test_importing_cli_loads_no_multiprocessing():
    """The process pool, and with it `multiprocessing`, is imported only
    when `enumerate --jobs` asks for more than one worker."""
    code = "import sys, kdg.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_compute_search_budget_exits_4(tmp_path, capsys, monkeypatch):
    path = tmp_path / "tail.json"
    path.write_text(graph_to_json(tail_graph(40)))
    monkeypatch.setattr(invariants, "PA_SEARCH_BUDGET", 5)
    code, _, err = compute_in_process(capsys, path)
    assert code == 4
    assert "p_a search on 41 vertices exceeded its budget of 5 nodes" in err
