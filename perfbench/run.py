"""kdg benchmark: three workloads through the real CLI path, in one process.

    python3 perfbench/run.py --workload report|large|enumerate \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record

Run from the root of a source checkout; `kdg` is imported from `src/`.
Each op calls `kdg.cli.main([...])` with stdout captured, checks the output
against its golden digest and its oracle, and counts a failure otherwise.

--trace 0 cycles through the workload's ops for S seconds and reports the
end-to-end metrics.  --trace 1 runs every op once untraced and, right after,
once with the tracer installed, and reports the per-layer metrics; that is
fixed work, so counts repeat exactly for a seed.  Set-up (fresh import of kdg, building and
writing the inputs, loading the golden digests, one untimed warm-up op) is
repeated SETUP_REPEATS times and its median reported as setup_s.

Every reported time is scaled to a reference machine speed with the
calibration kernel in calibrate.py, sampled on a timer while the benchmark
runs; the unscaled wall figures are printed in the run record.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when no op failed.  --record rewrites
golden.json from the current source; use it only at the commit that defines
the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from typing import Optional

import calibrate
import tracing
import workloads as wl

# CPU time of the process so far: interpreter start and the imports above.
INTERPRETER_START_S = time.process_time()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
GOLDEN = os.path.join(HERE, "golden.json")
NOTES = os.path.join(HERE, "NOTES.md")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("report", "large", "enumerate")
SETUP_REPEATS = 5
SELFTEST_SECONDS = 0.05
# The calibration kernel (about 1 ms) runs every CAL_INTERVAL_S of wall
# time.  An op is scaled by the kernel runs during it and within
# CAL_WINDOW_S of it: a single kernel run is noisy, and the machine's speed
# holds for a second or more at a time.
CAL_INTERVAL_S = 0.025
CAL_WINDOW_S = 0.5


class SetupError(Exception):
    """The checkout cannot run the benchmark (no kdg source, stale inputs)."""


def import_kdg():
    """Import kdg afresh from this checkout's src/ (never an installed copy)."""
    for name in [n for n in sys.modules if n == "kdg" or n.startswith("kdg.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import kdg
        import kdg.cli
    except ImportError as exc:
        raise SetupError(f"cannot import kdg from {SRC}: {exc}") from None
    if os.path.dirname(os.path.dirname(os.path.abspath(kdg.__file__))) != SRC:
        raise SetupError(f"imported kdg from {kdg.__file__}, not from {SRC}")
    return kdg


def load_golden() -> dict:
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read golden outputs {GOLDEN}: {exc}") from None


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def build_ops(kdg, workload: str, seed: int, golden: dict) -> list[wl.Op]:
    work = fresh_dir(os.path.join(WORK, workload))
    if workload == "report":
        ops, digest = wl.report_ops(kdg, work, seed)
        if digest != golden.get("pool_digest"):
            raise SetupError("the random graph pool differs from the one the golden digests cover")
        return ops
    if workload == "large":
        return wl.large_ops(kdg, work, seed)
    return wl.enumerate_ops(seed)


def run_op(kdg, op: wl.Op) -> tuple[float, float, int, str]:
    """Start time, wall seconds, exit code and stdout of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = kdg.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - start
    return start, elapsed, code, out.getvalue()


def check_op(op: wl.Op, code: int, out: str, golden: dict) -> Optional[str]:
    """Failure message, or None when the output is right."""
    if code != 0:
        return f"exit code {code}"
    want = golden["ops"].get(op.key)
    if want is None:
        return "no golden output recorded"
    if wl.digest(out) != want:
        return "stdout differs from the golden output"
    try:
        return op.oracle(out)
    except (ValueError, KeyError, IndexError) as exc:
        return f"oracle could not read the output: {exc!r}"


def warm_up_op(workload: str, ops: list[wl.Op]) -> wl.Op:
    if workload == "enumerate":
        return wl.enum_op(*wl.SMOKE_BOX)
    return min(ops, key=lambda op: (op.cost, op.key))


def set_up(workload: str, seed: int, repeats: int) -> tuple[object, list[wl.Op], dict, list[float], list[float]]:
    """Set up `repeats` times; return the last set-up, every wall duration
    (less the calibration kernel runs) and the speed scale of each."""
    times, scales = [], []
    with calibrate.Sampler(CAL_INTERVAL_S) as sampler:
        for _ in range(repeats):
            start = time.perf_counter()
            kdg = import_kdg()
            golden = load_golden()
            ops = build_ops(kdg, workload, seed, golden)
            warm = warm_up_op(workload, ops)
            _, _, code, out = run_op(kdg, warm)
            problem = check_op(warm, code, out, golden)
            if problem:
                raise SetupError(f"warm-up op {warm.key} failed: {problem}")
            wall, scale = sampler.measure(start, time.perf_counter() - start, 0.0)
            times.append(wall)
            scales.append(scale)
    return kdg, ops, golden, times, scales


class Pass:
    """Latencies, items and failures of a sequence of ops.  After `finish`,
    `latencies` are scaled to the reference speed; `wall` holds the
    unscaled seconds, less the calibration kernel runs."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.wall: list[float] = []
        self.scales: list[float] = []
        self.keys: list[str] = []
        self.item_counts: list[int] = []
        self.items = 0
        self.failures: list[str] = []
        self.box_points = 0
        self._starts: list[float] = []

    def run(self, kdg, op: wl.Op, golden: dict) -> None:
        start, elapsed, code, out = run_op(kdg, op)
        self._starts.append(start)
        self.wall.append(elapsed)
        self.keys.append(op.key)
        problem = check_op(op, code, out, golden)
        if problem:
            self.failures.append(f"{op.key}: {problem}")
            self.item_counts.append(0)
            return
        self.item_counts.append(op.items(out))
        self.items += self.item_counts[-1]
        if op.key.startswith("report:"):
            self.box_points += wl.report_box_points(out)

    def finish(self, sampler: calibrate.Sampler) -> "Pass":
        """Take the kernel runs out of each op's wall time and scale it."""
        for k, (start, elapsed) in enumerate(zip(self._starts, self.wall)):
            wall, scale = sampler.measure(start, elapsed, CAL_WINDOW_S)
            self.wall[k] = wall
            self.scales.append(scale)
            self.latencies.append(wall * scale)
        return self

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def write(self, path: str) -> None:
        """One tab-separated row per op run: golden key, wall seconds and
        speed scale."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\twall_s\tscale\n")
            fh.writelines(f"{k}\t{x!r}\t{c!r}\n" for k, x, c in zip(self.keys, self.wall, self.scales))


def timed_pass(kdg, ops: list[wl.Op], golden: dict, seconds: float) -> Pass:
    """Cycle through the ops until `seconds` of wall time have passed."""
    result = Pass()
    gc.collect()
    with calibrate.Sampler(CAL_INTERVAL_S) as sampler:
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            result.run(kdg, ops[i % len(ops)], golden)
            i += 1
    return result.finish(sampler)


def paired_passes(kdg, ops: list[wl.Op], golden: dict, tracer: tracing.Tracer) -> tuple[Pass, Pass]:
    """Run each op untraced and then traced, back to back, so that the
    difference between the two passes is not a change in machine speed.
    The calibration kernel is held off during traced runs, so that no span
    contains it; a traced run is scaled by the kernel runs around it."""
    plain, traced = Pass(), Pass()
    gc.collect()
    with calibrate.Sampler(CAL_INTERVAL_S) as sampler:
        for k, op in enumerate(ops):
            plain.run(kdg, op, golden)
            tracer.op_id = k
            tracer.install()
            try:
                with sampler.held():
                    traced.run(kdg, op, golden)
            finally:
                tracer.uninstall()
    return plain.finish(sampler), traced.finish(sampler)


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def pass_throughput(keys: list[str], latencies: list[float], item_counts: list[int]) -> float:
    """Items per second of one pass over the distinct ops run: each op's
    items over its mean latency, summed.  Unlike items / total time, this
    does not depend on which ops a partial last pass happened to repeat,
    which matters when a pass has only three ops of different sizes."""
    runs: dict[str, list] = {}
    for key, latency, items in zip(keys, latencies, item_counts):
        runs.setdefault(key, []).append((latency, items))
    items = sum(statistics.mean(n for _, n in r) for r in runs.values())
    seconds = sum(statistics.mean(x for x, _ in r) for r in runs.values())
    return items / seconds


def latency_metrics(p: "Pass", latencies: list[float]) -> dict:
    latencies_ms = [x * 1000 for x in latencies]
    return {
        "items_per_s": (pass_throughput(p.keys, latencies, p.item_counts), "1/s"),
        "op_p50_ms": (nearest_rank(latencies_ms, 0.5), "ms"),
        "op_p90_ms": (nearest_rank(latencies_ms, 0.9), "ms"),
    }


def end_to_end_metrics(p: Pass, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        **latency_metrics(p, p.latencies),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(t: tracing.Tracer, traced: Pass, plain: Pass, ops: list[wl.Op]) -> dict:
    stats = t.summary(dict(enumerate(traced.scales)))

    def calls(name):
        return stats[name][0]

    def self_s(name):
        return stats[name][1]

    search_incl = stats["enumeration.search"][2]
    items = max(traced.items, 1)
    enum_boxes = [tuple(int(x) for x in op.key.split(":")[1].split(",")) for op in ops
                  if op.key.startswith("enumerate:")]
    m = {
        "cli.self_s": (self_s("cli"), "s"),
        "graph.load.self_s": (self_s("graph.load"), "s"),
        "graph.validate.self_s": (self_s("graph.validate"), "s"),
        "graph.intersection_matrix.calls": (calls("graph.intersection_matrix"), "count"),
        "graph.intersection_matrix.self_s": (self_s("graph.intersection_matrix"), "s"),
        "graph.index_of.calls": (t.counts["graph.index_of"], "count"),
        "rational.solve.calls": (calls("rational.solve"), "count"),
        "rational.solve.self_s": (self_s("rational.solve"), "s"),
        "rational.negdef.calls": (calls("rational.negdef"), "count"),
        "rational.negdef.self_s": (self_s("rational.negdef"), "s"),
        "rational.quadratic_form.self_s": (self_s("rational.quadratic_form"), "s"),
        "rational.nullspace.self_s": (self_s("rational.nullspace"), "s"),
        "invariants.pa_search.self_s": (self_s("invariants.pa_search"), "s"),
        "invariants.pa_search.box_points": (traced.box_points, "count"),
        "invariants.fundamental.self_s": (self_s("invariants.fundamental"), "s"),
        "invariants.k_squared.calls": (calls("invariants.k_squared"), "count"),
        "invariants.solves_per_item": (calls("rational.solve") / items, "solve/item"),
        "invariants.negdef_per_item": (calls("rational.negdef") / items, "check/item"),
        "transforms.limit.self_s": (self_s("transforms.limit"), "s"),
        "transforms.crosscheck.self_s": (self_s("transforms.crosscheck"), "s"),
        "transforms.detect_strings.self_s": (self_s("transforms.detect_strings"), "s"),
        "transforms.with_string_length.calls": (calls("transforms.with_string_length"), "count"),
        "transforms.with_string_length.self_s": (self_s("transforms.with_string_length"), "s"),
        "families.generate.self_s": (self_s("families.generate"), "s"),
        "enumeration.search_s": (search_incl, "s"),
        "enumeration.invariants_s": (stats["enumeration.admissible"][2] - search_incl, "s"),
        "enumeration.tasks": (sum(wl.enumeration_tasks(b) for b in enum_boxes), "count"),
        "enumeration.classes": (traced.items if enum_boxes else 0, "count"),
        "trace.overhead_s": (traced.busy_s - plain.busy_s, "s"),
        "trace.items": (traced.items, "count"),
    }
    for layer in ("graph", "rational", "invariants", "transforms", "families", "enumeration"):
        total = sum(v[1] for name, v in stats.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_s"] = (total, "s")
    return m


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "kdg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 golden_override: Optional[dict] = None, limit_ops: Optional[int] = None) -> dict:
    """One benchmark run; returns the result object and the run record."""
    load_start = os.getloadavg()
    # setup_s is reported by untraced runs only
    kdg, ops, golden, setup_times, setup_scales = set_up(workload, seed, 1 if trace else SETUP_REPEATS)
    if golden_override is not None:
        golden = golden_override
    if limit_ops is not None:
        ops = (sorted(ops, key=lambda op: (op.cost, op.key))[:limit_ops]
               if workload != "enumerate" else [wl.enum_op(*wl.SMOKE_BOX)])
    setup_s = statistics.median(
        [(INTERPRETER_START_S + t) * c for t, c in zip(setup_times, setup_scales)])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "git_sha": git_sha(),
        "src_sha256": source_digest(), "loadavg_start": load_start,
        "ops_per_pass": len(ops), "setup_wall_s": setup_times, "setup_scales": setup_scales,
        "interpreter_start_cpu_s": INTERPRETER_START_S,
        "reference_kernel_s": calibrate.REF_SECONDS,
    }
    if trace:
        tracer = tracing.Tracer()
        plain, traced = paired_passes(kdg, ops, golden, tracer)
        metrics = per_layer_metrics(tracer, traced, plain, ops)
        spans = os.path.join(WORK, f"spans-{workload}.csv")
        tracer.write_spans(spans)
        record.update(spans=len(tracer.span_id), spans_file=os.path.relpath(spans, ROOT),
                      median_scale=statistics.median(plain.scales + traced.scales))
        passes = [plain, traced]
    else:
        timed = timed_pass(kdg, ops, golden, seconds)
        metrics = end_to_end_metrics(timed, setup_s)
        samples = os.path.join(WORK, f"ops-{workload}.tsv")
        timed.write(samples)
        wall = {k: v for k, (v, _) in latency_metrics(timed, timed.wall).items()}
        record.update(latency_samples=len(timed.latencies), busy_s=timed.busy_s, items=timed.items,
                      samples_file=os.path.relpath(samples, ROOT),
                      median_scale=statistics.median(timed.scales), unscaled=wall)
        passes = [timed]
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    record.update(loadavg_end=os.getloadavg(), attempted=attempted, failed=len(failures),
                  error_rate=len(failures) / attempted, failures=failures[:20])
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "record": record}


def print_run(run: dict) -> None:
    rec, res = run["record"], run["result"]
    print(f"kdg benchmark  workload={rec['workload']} seed={rec['seed']} trace={rec['trace']}")
    print(f"  nproc={rec['nproc']} affinity={rec['affinity']} python={rec['python']} "
          f"git={rec['git_sha']} src_sha256={rec['src_sha256'][:16]}")
    print(f"  loadavg start={rec['loadavg_start']} end={rec['loadavg_end']}")
    print(f"  ops attempted={rec['attempted']} failed={rec['failed']} "
          f"error_rate={rec['error_rate']} ratio")
    for failure in rec["failures"]:
        print(f"  FAIL {failure}")
    print(f"  speed scale median={rec['median_scale']} (times below are at the reference speed)")
    samples = rec.get("latency_samples")
    for name, m in res["metrics"].items():
        note = f"  (n={samples} ops)" if name in ("op_p50_ms", "op_p90_ms") else ""
        print(f"  {name} = {m['value']} {m['unit']}{note}")
    for name, value in rec.get("unscaled", {}).items():
        print(f"  unscaled wall {name} = {value}")
    print("record " + json.dumps(rec))


def record_golden() -> int:
    """Write golden.json from the current source (every op, untimed)."""
    kdg = import_kdg()
    work = fresh_dir(os.path.join(WORK, "record"))
    ops, _ = wl.family_members(kdg, work)
    ops += wl.pool_ops(kdg, work)
    ops += wl.large_ops(kdg, work, 0)
    ops += [wl.enum_op(box, n) for box, n in wl.ENUM_BOXES.items()] + [wl.enum_op(*wl.SMOKE_BOX)]
    golden = {"pool_digest": wl.pool_digest(wl.random_pool()), "ops": {}}
    bad = []
    for op in ops:
        _, _, code, out = run_op(kdg, op)
        problem = f"exit code {code}" if code else op.oracle(out)
        if problem:
            bad.append(f"{op.key}: {problem}")
        golden["ops"][op.key] = wl.digest(out)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden['ops'])} golden outputs")
    return 0


def selftest() -> int:
    """Smoke checks on tiny inputs; prints one line per check."""
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True

    def expect(cond: bool, what: str) -> None:
        nonlocal ok
        ok = ok and cond
        print(f"{'ok  ' if cond else 'FAIL'} {what}")

    for workload in WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            run = run_workload(workload, 1, SELFTEST_SECONDS, trace, limit_ops=3)
            got = run["result"]["metrics"]
            want = {m["name"]: m["unit"] for m in spec[group]}
            wrong = sorted(n for n in set(want) | set(got) if got.get(n, {}).get("unit") != want.get(n))
            expect(not wrong and run["result"]["failed"] == 0,
                   f"{workload} trace={int(trace)}: exactly the {group} metrics, with units {wrong or ''}")

    golden = load_golden()
    corrupt = {**golden, "ops": dict(golden["ops"])}
    kdg = import_kdg()
    smallest = min(wl.family_members(kdg, fresh_dir(os.path.join(WORK, "selftest")))[0],
                   key=lambda op: (op.cost, op.key))
    corrupt["ops"][smallest.key] = "0" * 64
    run = run_workload("report", 1, SELFTEST_SECONDS, False, golden_override=corrupt, limit_ops=3)
    expect(run["result"]["failed"] > 0 and run["record"]["error_rate"] > 0
           and exit_code(run) != 0, "a corrupted golden output raises error_rate above 0")

    kdg = import_kdg()
    path = os.path.join(WORK, "selftest", "ii.json")
    wl.run_quiet(kdg, ["family", "II", "--params", "n=1,s=2", "--out", path])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = kdg.cli.main(["compute", path, "--json"])
    finally:
        tracer.uninstall()
    stats = tracer.summary()
    solves, checks = stats["rational.solve"][0], stats["rational.negdef"][0]
    expect(code == 0 and solves == 5 and checks == 10,
           f"compute on II(n=1,s=2) traces 5 solves and 10 definiteness checks (got {solves}, {checks})")

    with open(NOTES, encoding="utf-8") as fh:
        notes = fh.read()
    _, excluded = wl.family_members(kdg, os.path.join(WORK, "selftest"))
    unlisted = [label for label, _ in excluded if f"`{label}`" not in notes]
    expect(not unlisted, f"NOTES.md lists all {len(excluded)} excluded family members {unlisted or ''}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def exit_code(run: dict) -> int:
    return 0 if run["result"]["failed"] == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="smoke checks on tiny inputs")
    parser.add_argument("--record", action="store_true", help="rewrite golden.json")
    args = parser.parse_args(argv)
    try:
        if args.record:
            return record_golden()
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_run(run)
    print(json.dumps(run["result"]))
    return exit_code(run)


if __name__ == "__main__":
    sys.exit(main())
