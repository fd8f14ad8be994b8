"""Command-line interface.

Subcommands: compute, family, sweep, limit, enumerate, verify.  Exit codes
follow the contract in errors.py: 0 success, 2 invalid input graph, 3 not
negative definite, 4 precondition violation (including a sweep range over
SWEEP_ROW_BUDGET rows, a family member over the family vertex budget and a
result too long to print), 5 internal assertion failure.
Decimal columns are display-only renderings of the exact values next to
them.  The argument parser is built once, at import.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .checks import SUITES, run_suite
from .enumeration import EnumBounds, enumerate_admissible
from .errors import InternalCheckError, KdgError, PreconditionError, SingularLimitError
from .families import closed_form_k2, family_names, family_spec, generate
from .graph import WeightedDualGraph, graph_to_json, load_graph, to_dot
from .invariants import invariant_report, k_squared, report_to_obj, report_to_text
from .rational import UNBOUNDED, rat_decimal, rat_str
from .transforms import StringDescriptor, detect_strings, limit_k_squared, mobius_limit_crosscheck


#: Rows `sweep --range a..b` may ask for; a longer range is refused with
#: a `PreconditionError` (exit code 4), counted before any member is built.
SWEEP_ROW_BUDGET = 10_000


def _parse_params(text: Optional[str]) -> dict[str, int]:
    if not text:
        return {}
    out = {}
    for item in text.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise PreconditionError(f"bad parameter assignment {item!r} (expected name=value)")
        if key in out:
            raise PreconditionError(f"parameter {key} is given twice")
        try:
            out[key] = int(value)
        except ValueError:
            raise PreconditionError(f"parameter {key} must be an integer, got {value!r}") from None
    return out


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise PreconditionError(f"bad range {text!r} (expected a..b)")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise PreconditionError(f"bad range {text!r} (expected integers)") from None
    if a > b:
        raise PreconditionError(f"empty range {text!r}")
    return a, b


def _printable(render: Callable[[], str]) -> str:
    """render(), with a result too long to print turned into exit code 4.

    Converting an int to a decimal string raises ValueError past the
    interpreter's digit limit (sys.get_int_max_str_digits(), 4300 by
    default); formatting exact values raises nothing else."""
    try:
        return render()
    except ValueError:
        raise PreconditionError(
            f"a result has more than {sys.get_int_max_str_digits()} digits and cannot be printed"
        ) from None


def _show(value) -> str:
    if value is UNBOUNDED:
        return "+inf"
    return _printable(lambda: f"{rat_str(value)} (~ {rat_decimal(value)})")


def _emit(text: str, path: Optional[str], what: str) -> None:
    """Write text to path and print `wrote <what> to <path>`, or write it
    to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"wrote {what} to {path}")
    else:
        sys.stdout.write(text)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _cmd_compute(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    report = invariant_report(g)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(g))
    if args.json:
        print(_printable(lambda: json.dumps(report_to_obj(report, g), indent=2)))
    else:
        print(_printable(lambda: report_to_text(report, g)))
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    spec = family_spec(args.name, **_parse_params(args.params))
    g = generate(spec)
    _emit(_printable(lambda: graph_to_json(g)), args.out, str(spec))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    fixed = _parse_params(args.fix)
    if args.param in fixed:
        raise PreconditionError(f"swept parameter {args.param} also appears in --fix")
    lo, hi = _parse_range(args.range)
    count = hi - lo + 1
    if count > SWEEP_ROW_BUDGET:
        raise PreconditionError(
            _printable(lambda: f"sweep range has {count} rows, over the budget of {SWEEP_ROW_BUDGET}")
        )
    rows = [["param", "k2_exact", "k2_decimal", "closed_form", "match"]]
    for value in range(lo, hi + 1):
        spec = family_spec(args.name, **{**fixed, args.param: value})
        direct = k_squared(generate(spec))
        formula = closed_form_k2(spec)
        rows.append(_printable(lambda: [
            value, rat_str(direct), rat_decimal(direct), rat_str(formula),
            "true" if direct == formula else "false",
        ]))
    _emit(_csv_text(rows), args.csv, f"{count} rows")
    return 0


def _describe_string(ids: Sequence[str], s: StringDescriptor) -> str:
    chain = "-".join(ids[i] for i in s.chain)
    ends = [ids[x] for x in (s.left, s.right) if x is not None]
    attach = ", ".join(ends) if ends else "nothing (whole component)"
    return f"{chain} (attached to {attach})"


def _resolve_string_arg(
    g: WeightedDualGraph, token: str, on_string: dict[int, StringDescriptor]
) -> StringDescriptor:
    """The stretchable string through the vertex a token names, by id or
    by index; `on_string` maps each vertex on one to its string."""
    token = token.strip()
    try:
        idx = g.index_of(token)
    except KeyError:
        try:
            idx = int(token)
        except ValueError:
            raise PreconditionError(f"unknown vertex {token!r}") from None
        if not 0 <= idx < len(g):
            raise PreconditionError(f"vertex index {idx} out of range")
    if idx not in on_string:
        raise PreconditionError(f"vertex {token!r} does not lie on a stretchable maximal string")
    return on_string[idx]


def _cmd_limit(args: argparse.Namespace) -> int:
    g = load_graph(args.file)
    ids = g.ids()
    detected = detect_strings(g)
    stretchable = [s for s in detected if s.left is not None or s.right is not None]
    print("maximal strings:")
    if not detected:
        print("  (none)")
    for s in detected:
        print(f"  {_describe_string(ids, s)}")
    if args.strings == "auto":
        chosen = stretchable
        if not chosen:
            raise PreconditionError("no stretchable maximal strings in this graph")
    else:
        on_string = {i: s for s in stretchable for i in s.chain}
        named = (_resolve_string_arg(g, token, on_string) for token in args.strings.split(","))
        # each string once, in the order of its first token
        chosen = list({s.chain[0]: s for s in named}.values())
    print("stretching: " + "; ".join(_describe_string(ids, s) for s in chosen))
    limit_value: Optional[Fraction]
    try:
        limit_value = limit_k_squared(g, chosen)
        print(f"limit of -K^2: {_show(limit_value)}")
    except SingularLimitError as exc:
        limit_value = None
        print(f"no finite limit: {exc}")
    if len(chosen) == 1:
        cross = mobius_limit_crosscheck(g, chosen[0])
        print(f"rational-fit cross-check: {_show(cross)}")
        consistent = (cross is UNBOUNDED and limit_value is None) or cross == limit_value
        if not consistent:
            raise InternalCheckError(
                f"cross-check {_show(cross)} disagrees with the limit procedure"
            )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    bounds = EnumBounds(
        max_vertices=args.max_vertices,
        min_self=args.min_self,
        max_genus=args.max_genus,
        max_edge_multiplicity=args.max_mult,
    )
    entries = enumerate_admissible(bounds, jobs=args.jobs)
    rows = [["encoding", "k2_exact", "k2_decimal", "class", "z2", "index"]]
    rows.extend(
        [e.encoding, rat_str(e.k_squared), rat_decimal(e.k_squared),
         e.classification, e.z_squared, e.numerical_index]
        for e in entries
    )
    _emit(_csv_text(rows), args.out, f"{len(entries)} isomorphism classes")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    result = run_suite(args.suite, seed=args.seed, trials=args.trials)
    print(result.to_text())
    return 0 if result.ok else 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdg",
        description="Exact invariants of weighted dual graphs: -K^2, fundamental cycle, "
        "bounds, families, string limits, enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="invariant report for a graph JSON file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--dot", metavar="PATH", help="also write a DOT rendering of the graph")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("family", help="emit a named family member as graph JSON")
    p.add_argument("name", choices=family_names())
    p.add_argument("--params", metavar="k=v,...", help="family parameters")
    p.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("sweep", help="CSV sweep of one family parameter against the closed form")
    p.add_argument("name", choices=family_names())
    p.add_argument("--param", required=True, help="parameter to sweep")
    p.add_argument("--range", required=True, metavar="a..b", help="inclusive integer range")
    p.add_argument("--fix", metavar="k=v,...", help="values for the remaining parameters")
    p.add_argument("--csv", metavar="PATH", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("limit", help="limit of -K^2 when maximal strings are stretched")
    p.add_argument("file")
    p.add_argument(
        "--strings",
        required=True,
        metavar="ids|auto",
        help="comma-separated vertex ids (one per string) or 'auto' for all stretchable strings",
    )
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("enumerate", help="enumerate admissible graphs and their spectrum as CSV")
    p.add_argument("--max-vertices", type=int, required=True)
    p.add_argument("--min-self", type=int, default=-6)
    p.add_argument("--max-genus", type=int, default=0)
    p.add_argument("--max-mult", type=int, default=1)
    p.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--seed", type=int, default=None, help="lemmas and spectrum only (default 0)")
    p.add_argument("--trials", type=int, default=None, help="lemmas and spectrum only")
    p.set_defaults(func=_cmd_verify)

    return parser


_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except KdgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
