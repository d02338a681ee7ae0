"""End-to-end and per-layer benchmark of the qcluster CLI.

    python3 bench/run.py --workload ladder-small --seed 1 --seconds 10 --trace 0

Every CLI call runs in a fresh process (bench/child.py) through
qcluster.cli.main, the way a user runs it, so each call pays imports and
the lru_caches again. A run repeats its workload while another
repetition is expected to finish within --seconds, and always completes
at least one. Every output is checked against the digests recorded in
bench/expected.json. Times are reported at the reference speed of the
CPU probe (bench/probe.py); the measured wall time and speed of each
call are printed next to them.

--trace 0 wraps only the stage entry points and the timed operations
and prints the end-to-end metrics. --trace 1 runs the workload once
untraced and once with every layer wrapped, and prints the per-layer
metrics and trace_overhead, the ratio of the two wall times. Without
--workload every workload runs in turn. See bench/README.md.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit status: 0 when every output is correct, 1 when one is not,
2 when the qcluster sources are missing or the arguments are bad.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SEEDS = BENCH / "seeds"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import probe  # noqa: E402
import tracer  # noqa: E402

# A run must finish well inside the 180 s a caller allows it.
RUN_BUDGET_S = 170.0
# Set-up passes add samples to setup_s when a run has fewer repetitions.
SETUP_SAMPLES = 3

# The leclerc calls of a repetition: (label, seed file in bench/seeds,
# options). ladder-small is the fully-run rungs of the ROADMAP ladder.
# sweep-a4 sweeps one fixed R of A4-principal cap1, R spec 13 of
# leclerc.default_r_specs. One R costs from 33 s to 74 s depending on
# which R it is, so an R drawn from the workload seed would swamp every
# timing with the choice of R; see bench/README.md.
LECLERC_CALLS = {
    "ladder-small": (
        ("a2-cap3", "a2", ("--cap", "3")),
        ("b2-cap2", "b2", ("--cap", "2")),
        ("g2-cap1", "g2", ("--cap", "1")),
        ("frozen-cap2-w1", "frozen", ("--cap", "2", "--frozen-window", "1")),
        ("a3p-cap1", "a3p", ("--cap", "1")),
    ),
    "sweep-a4": (
        ("a4p-cap1-r13", "a4p", ("--cap", "1", "--scope", "13")),
    ),
}

WORKLOADS = ("ladder-small", "sweep-a4", "graph-c5")
# The operation whose latency op_p50_ms and op_p95_ms report: a verified
# pair on the sweeps, an exchange-graph mutation on graph-c5.
OP_NOUN = {"ladder-small": "pairs", "sweep-a4": "pairs", "graph-c5": "mutations"}


@dataclass
class Call:
    """One CLI call as run and checked. Times are at the probe's reference
    speed (bench/probe.py); clock_ns is the wall time as measured."""

    label: str
    rc: int | None = None
    ok: bool = False
    detail: str = ""
    attempted: int = 0
    failed: int = 0
    clock_ns: int = 0
    speed: float = 0.0
    wall_ns: float = 0
    setup_ns: float = 0
    op_ns: list = field(default_factory=list)
    maxrss_kb: int = 0
    stdout: str = ""


def canonical_digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def pair_failed(pair):
    if pair["verdict"] == "indeterminate":
        return True
    return pair["verdict"] == "two_tail" and not all(pair["checks"].values())


class Runner:
    """Runs the calls of one benchmark invocation and owns its scratch files."""

    def __init__(self, seed, expected, deadline):
        self.seed = seed
        self.expected = expected
        self.deadline = deadline
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self._jobs = 0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def child(self, argv, mode, trace_path=None, setup_only=False):
        """Run one CLI call in a fresh process; the child's result dict or None."""
        self._jobs += 1
        job_path = self.tmp / f"job{self._jobs}.json"
        result_path = self.tmp / f"result{self._jobs}.json"
        job = {"argv": [str(a) for a in argv], "mode": mode, "setup_only": setup_only,
               "src": str(SRC), "result": str(result_path), "trace": str(trace_path or "")}
        job_path.write_text(json.dumps(job))
        env = dict(os.environ, PYTHONHASHSEED=str(self.seed % 2**32))
        env.pop("PYTHONPATH", None)
        timeout = max(1.0, self.deadline - time.monotonic())
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(job_path)],
                                env=env, stdout=subprocess.DEVNULL)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not result_path.exists():
            return None
        return json.loads(result_path.read_text())

    def timed_call(self, label, argv, mode, trace_dir=None, setup_only=False,
                   op_span="leclerc.verify_pair"):
        call = Call(label)
        trace_path = trace_dir / f"{label}.trace" if trace_dir else None
        res = self.child(["--seed", self.seed] + list(argv), mode, trace_path, setup_only)
        if res is None:
            call.detail = "child process failed or timed out"
            return call, None
        call.rc = res["rc"]
        t0, t1, samples = res["t0_ns"], res["t1_ns"], res["probe"]
        call.clock_ns = t1 - t0
        call.speed = probe.speed(samples, t0, t1)
        call.wall_ns = call.clock_ns * call.speed
        call.maxrss_kb = res["maxrss_kb"]
        call.stdout = res["stdout"]
        spans = res.get("spans", [])
        work = [s for s in spans if s[0] in tracer.WORK_STAGES]
        setup_end = work[0][2] if work else t1
        call.setup_ns = (setup_end - t0) * probe.local_speed(samples, t0, setup_end)
        busy = res["probe_busy"]
        call.op_ns = [(e - s - probe.stalled_ns(busy, s, e)) * probe.local_speed(samples, s, e)
                      for name, _, s, e in spans if name == op_span]
        if call.rc != 0:
            call.detail = f"exit status {call.rc}"
        return call, res

    # -- workloads: each returns the list of Calls of one repetition. A
    # set-up-only repetition is only timed: its calls end at their first
    # work stage and are not checked.

    def leclerc_call(self, label, seed_file, options, mode, trace_dir, setup_only):
        want = self.expected["leclerc"][label]
        report = self.tmp / f"{label}.json"
        report.unlink(missing_ok=True)
        argv = ["leclerc", SEEDS / f"{seed_file}.json", *options, "--json", report]
        call, _ = self.timed_call(label, argv, mode, trace_dir, setup_only)
        call.attempted = want["pairs"]
        if call.rc == 0 and report.exists():
            doc = json.loads(report.read_text())
            call.attempted = len(doc["pairs"]) + len(doc["conflicts"])
            if canonical_digest(doc) != want["digest"]:
                call.detail = "report digest differs"
            else:
                call.ok = True
                call.failed = sum(map(pair_failed, doc["pairs"])) + len(doc["conflicts"])
        if not call.ok:
            call.failed = call.attempted
            call.detail = call.detail or "no report written"
        return call

    def graph_c5(self, mode, trace_dir=None, setup_only=False):
        want = self.expected["graph-c5"]
        check, _ = self.timed_call("check", ["check", SEEDS / "c5p.json"], mode, trace_dir,
                                   setup_only)
        filled = self.tmp / "c5p-lambda.json"
        if check.rc == 0:
            if text_digest(check.stdout) != want["check"]:
                check.detail = "check output digest differs"
            else:
                check.ok = True
                filled.write_text(json.dumps(seed_with_lambda(SEEDS / "c5p.json", check.stdout)))
        calls = [check]
        dot = self.tmp / "c5.dot"
        steps = (
            ("graph", ["graph", filled, "--dot", dot], lambda c: dot.read_text()),
            ("shift", ["shift", filled, "--direction", "-1"], lambda c: c.stdout),
        )
        for label, argv, output in steps:
            if not check.ok:
                call = Call(label, detail="skipped: no synthesized seed")
            else:
                call, _ = self.timed_call(label, argv, mode, trace_dir, setup_only,
                                          op_span="expansion.mutate_tracked")
                if call.rc == 0:
                    if text_digest(output(call)) != want[label]:
                        call.detail = f"{label} output digest differs"
                    else:
                        call.ok = True
            calls.append(call)
        for call in calls:
            # a CLI call is the operation that passes or fails here
            call.attempted = 1
            call.failed = int(not call.ok)
            if not call.ok:
                call.op_ns = []
        return calls

    def repetition(self, workload, mode, trace_dir=None, setup_only=False):
        if workload == "graph-c5":
            return self.graph_c5(mode, trace_dir, setup_only)
        return [self.leclerc_call(label, seed_file, options, mode, trace_dir, setup_only)
                for label, seed_file, options in LECLERC_CALLS[workload]]


def expected_outputs():
    return json.loads((BENCH / "expected.json").read_text())


def seed_with_lambda(seed_path, check_stdout):
    """The seed file data with the Lambda and D that `qcluster check` printed."""
    data = json.loads(Path(seed_path).read_text())
    for line in check_stdout.splitlines():
        key, _, value = line.partition("=")
        if key in ("Lambda", "D"):
            data[key] = json.loads(value)
    return data


def percentile(values, q):
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


# -- end-to-end metrics ------------------------------------------------------

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def end_to_end(reps, extra_setups, noun):
    """Metrics of a run from its repetitions (lists of Calls)."""
    calls = [c for rep in reps for c in rep]
    ops = [t for c in calls for t in c.op_ns]
    setups = [sum(c.setup_ns for c in rep) for rep in reps] + extra_setups
    values = {
        "wall_s": statistics.median(sum(c.wall_ns for c in rep) for rep in reps) / 1e9,
        "setup_s": statistics.median(setups) / 1e9,
        "ops_per_s": len(ops) / (sum(ops) / 1e9) if ops else 0.0,
        "op_p50_ms": percentile(ops, 0.50) / 1e6 if ops else 0.0,
        "op_p95_ms": percentile(ops, 0.95) / 1e6 if ops else 0.0,
        "peak_rss_mb": statistics.median(max(c.maxrss_kb for c in rep) for rep in reps) / 1024,
    }
    samples = {
        "wall_s": f"median of {len(reps)} repetitions",
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{len(ops)} {noun}",
        "op_p50_ms": f"{len(ops)} {noun}",
        "op_p95_ms": f"{len(ops)} {noun}, {len(ops) - int(0.95 * len(ops))} above",
        "peak_rss_mb": f"median of {len(reps)} repetitions",
    }
    return values, samples


# -- per-layer metrics -------------------------------------------------------

RATIO_METRICS = (
    ("seed.find_compatible_lambda.solves", "count", "lower"),
    ("seed.find_compatible_lambda.hit_ratio", "ratio", "higher"),
    ("expansion.vars_in.retrack_steps", "count", "lower"),
    ("pointed.decompose.exact_ratio", "ratio", "higher"),
    ("leclerc.window_set.points", "count", "lower"),
    ("leclerc.window_set.used_ratio", "ratio", "higher"),
    ("leclerc.resolve.found_ratio", "ratio", "higher"),
    ("leclerc.resolve.candidates_per_call", "count", "lower"),
    ("trace_overhead", "ratio", "lower"),
)
COUNTERS = (
    ("qtorus.twisted_mul.term_pairs", "lower"),
    ("qtorus.exact_divide.quotient_terms", "lower"),
    ("expansion.nodes", "lower"),
    ("pointed.interval.points", "lower"),
    ("pointed.decompose.steps", "lower"),
    ("leclerc.basis_size", "higher"),
    ("leclerc.verdict.in_basis", "higher"),
    ("leclerc.verdict.two_tail_pass", "higher"),
    ("leclerc.verdict.two_tail_fail", "lower"),
    ("leclerc.verdict.indeterminate", "lower"),
    ("leclerc.conflicts", "lower"),
)


def metric_prefix(span_name):
    """Metric names start with a letter: `_linalg.x` is reported as `linalg.x`."""
    return span_name.lstrip("_")


def layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for span in tracer.LAYERS:
        prefix = metric_prefix(span)
        specs += [(prefix + ".calls", "count", "lower"), (prefix + ".s", "s", "lower"),
                  (prefix + ".self_s", "s", "lower")]
    specs += [(name, "count", better) for name, better in COUNTERS]
    specs += list(RATIO_METRICS)
    return specs


def layer_totals(trace_paths):
    """calls, inclusive ns, self ns per span name, and child-span counts
    keyed (parent name, child name), summed over the given trace files."""
    calls, incl, self_ns, nested, counts = {}, {}, {}, {}, {}
    for path in trace_paths:
        header, cols = tracer.read_trace(path)
        names = header["names"]
        name_col, parent_col = cols["name"], cols["parent"]
        dur = [e - s for s, e in zip(cols["start_ns"], cols["end_ns"])]
        child_ns = [0] * len(dur)
        # ancestors' names as a bit set, so a span inside a span of its own
        # name is not counted twice in inclusive time
        above = [0] * len(dur)
        for i, (n, p) in enumerate(zip(name_col, parent_col)):
            key = names[n]
            calls[key] = calls.get(key, 0) + 1
            if p >= 0:
                child_ns[p] += dur[i]
                above[i] = above[p] | (1 << name_col[p])
                pair = (names[name_col[p]], key)
                nested[pair] = nested.get(pair, 0) + 1
            if not above[i] >> n & 1:
                incl[key] = incl.get(key, 0) + dur[i]
        for i, n in enumerate(name_col):
            key = names[n]
            self_ns[key] = self_ns.get(key, 0) + dur[i] - child_ns[i]
        for key, value in header["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return calls, incl, self_ns, nested, counts


def per_layer(trace_paths, overhead):
    calls, incl, self_ns, nested, counts = layer_totals(trace_paths)
    values = {}
    for span in tracer.LAYERS:
        prefix = metric_prefix(span)
        values[prefix + ".calls"] = calls.get(span, 0)
        values[prefix + ".s"] = incl.get(span, 0) / 1e9
        values[prefix + ".self_s"] = self_ns.get(span, 0) / 1e9
    for name, _ in COUNTERS:
        values[name] = counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    element_at = ("leclerc.CandidateBasis.element_at_degree",
                  "leclerc.CandidateBasis.element_at_codegree")
    lookups = sum(calls.get(s, 0) for s in element_at)
    solves = nested.get(("seed.find_compatible_lambda", "_linalg.solve_integer"), 0)
    window_points = sum(nested.get(("leclerc.CandidateBasis.window_set", s), 0)
                        for s in element_at)
    candidates = sum(nested.get((s, "expansion.ExchangeGraph.monomial_in"), 0)
                     for s in element_at)
    values.update({
        "seed.find_compatible_lambda.solves": solves,
        "seed.find_compatible_lambda.hit_ratio":
            ratio(counts.get("seed.find_compatible_lambda.hits", 0), solves),
        "expansion.vars_in.retrack_steps":
            nested.get(("expansion.ExchangeGraph.vars_in", "expansion.mutate_tracked"), 0),
        "pointed.decompose.exact_ratio":
            ratio(counts.get("pointed.decompose.exact", 0), calls.get("pointed.decompose", 0)),
        "leclerc.window_set.points": window_points,
        "leclerc.window_set.used_ratio":
            ratio(counts.get("pointed.decompose.steps", 0), window_points),
        "leclerc.resolve.found_ratio": ratio(counts.get("leclerc.resolve.found", 0), lookups),
        "leclerc.resolve.candidates_per_call": ratio(candidates, lookups),
        "trace_overhead": overhead,
    })
    return values


# -- one benchmark run -------------------------------------------------------

def run_workload(workload, seed, seconds, trace, expected, started):
    """(correct, attempted, failed, metrics dict, lines to print)."""
    runner = Runner(seed, expected, started + RUN_BUDGET_S)
    try:
        return _run_workload(runner, workload, seed, seconds, trace, started)
    finally:
        runner.close()


def _run_workload(runner, workload, seed, seconds, trace, started):
    lines = [f"workload {workload}  seed {seed}  trace {trace}"]
    if trace:
        trace_dir = OUT / f"trace-{workload}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        plain = runner.repetition(workload, "light")
        traced = runner.repetition(workload, "trace", trace_dir)
        reps = [plain, traced]
        overhead = (sum(c.wall_ns for c in traced) / sum(c.wall_ns for c in plain)
                    if all(c.ok for c in plain + traced) else 0.0)
        traces = sorted(trace_dir.glob("*.trace"))
        values = per_layer(traces, overhead)
        specs = layer_metric_specs()
        lines += layer_table(values, specs)
        lines.append(f"spans written to {trace_dir.relative_to(ROOT)}/ "
                     f"({len(traces)} files, one per CLI call)")
    else:
        t0 = time.monotonic()
        reps = []
        while True:
            rep_start = time.monotonic()
            reps.append(runner.repetition(workload, "light"))
            rep_s = time.monotonic() - rep_start
            if time.monotonic() - t0 + rep_s > seconds:
                break
            if time.monotonic() - started + 2 * rep_s > RUN_BUDGET_S:
                break
        extra_setups = setup_passes(runner, workload, reps)
        values, samples = end_to_end(reps, extra_setups, OP_NOUN[workload])
        specs = [(n, u, b) for n, u, b in END_TO_END]
        lines.append(f"{'metric':<14}{'value':>14}  {'unit':<6}samples")
        for name, unit, _ in specs:
            lines.append(f"{name:<14}{values[name]:>14.6g}  {unit:<6}{samples[name]}")
    calls = [c for rep in reps for c in rep]
    attempted = sum(c.attempted for c in calls)
    failed = sum(c.failed for c in calls)
    correct = all(c.ok for c in calls) and failed == 0
    checked = "CLI calls" if workload == "graph-c5" else "pairs"
    lines.append(f"correct {'yes' if correct else 'NO'}: attempted {attempted} {checked}, "
                 f"failed {failed}, failed_frac {failed / attempted if attempted else 1:.4g}")
    for rep_no, rep in enumerate(reps):
        for c in rep:
            lines.append(f"  rep {rep_no} {c.label:<16} exit {c.rc}  "
                         f"{'ok' if c.ok else 'FAILED ' + c.detail}  "
                         f"{c.attempted} checked  {c.clock_ns / 1e9:.3f} s measured, "
                         f"speed {c.speed:.3f}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in specs}
    return correct, attempted, failed, metrics, lines


def setup_passes(runner, workload, reps):
    """Extra set-up samples from calls stopped at their first work stage,
    while they cost at most a quarter of a repetition (never on graph-c5,
    whose set-up is nearly all of its time)."""
    setups = []
    setup_ns = sum(c.setup_ns for c in reps[0])
    rep_ns = sum(c.wall_ns for c in reps[0])
    while len(reps) + len(setups) < SETUP_SAMPLES and setup_ns * (len(setups) + 1) <= rep_ns / 4:
        rep = runner.repetition(workload, "light", setup_only=True)
        setups.append(sum(c.setup_ns for c in rep))
    return setups


def layer_table(values, specs):
    lines = [f"{'layer':<44}{'calls':>10}{'incl s':>10}{'self s':>10}"]
    rows = []
    for span in tracer.LAYERS:
        p = metric_prefix(span)
        rows.append((values[p + ".self_s"], p, values[p + ".calls"], values[p + ".s"]))
    for self_s, p, n, s in sorted(rows, reverse=True):
        lines.append(f"{p:<44}{n:>10}{s:>10.3f}{self_s:>10.3f}")
    lines.append(f"{'counter':<44}{'value':>14}  unit")
    layered = {metric_prefix(s) + suffix for s in tracer.LAYERS
               for suffix in (".calls", ".s", ".self_s")}
    for name, unit, _ in specs:
        if name not in layered:
            lines.append(f"{name:<44}{values[name]:>14.6g}  {unit}")
    return lines


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    started = time.monotonic()
    # turn SIGTERM into SystemExit, so that the running child is killed and
    # the scratch directory removed on the way out
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: all of them in turn)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qcluster" / "cli.py").is_file():
        print(f"error: qcluster sources not found under {SRC}", file=sys.stderr)
        return 2
    expected = expected_outputs()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        ok, att, fail, met, lines = run_workload(
            workload, args.seed, args.seconds, args.trace, expected,
            started if args.workload else time.monotonic())
        print("\n".join(lines), flush=True)
        correct &= ok
        attempted += att
        failed += fail
        if args.workload:
            metrics = met
        else:
            metrics.update({f"{workload}.{k}": v for k, v in met.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
