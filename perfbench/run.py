"""crjet benchmark: seeded CLI workloads, checked outputs, per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 30 \\
        --trace 0

Each workload is a fixed list of CLI calls over seeded documents (see
workloads.py).  Calls run in-process through ``crjet.cli.main.main``, one
at a time: a closed loop with a single client.  A run repeats whole passes
over the list until the next pass would end after ``--seconds``, checks
every report, and prints human-readable lines followed by one JSON line
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every time is in reference seconds, read from speed.ReferenceClock: the
clock samples the machine's speed on a timer and divides it out, so the
shared host's swings in speed do not show as changes of the program.
The human-readable lines also give the raw wall-clock figures.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
tracing.py, the tracing overhead and the per-verb totals; its counts
must repeat exactly between traced passes and its reports must be
byte-identical to the untraced ones.

Outputs go under ``.perfbench/`` in the repository root: the generated
documents, the spans of a traced run, a record of each run (machine,
raw latencies, metrics), and a store of report hashes and traced counts
that later runs of the same code compare against.  The store is keyed by
a digest of ``src/`` and of the benchmark's own modules, so a change to
either starts a fresh one.  The exit code is 0 when every check passed,
1 when one failed and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import ReferenceClock  # noqa: E402

SETUP_REPEATS = 9
# argv: spawn time (perf_counter), perfbench dir, src dir, documents;
# prints the reference seconds from the spawn to the last document loaded
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[2])
from speed import ReferenceClock
clock = ReferenceClock()
clock.start(since=float(sys.argv[1]))
sys.path.insert(0, sys.argv[3])
import crjet.cli.main
from crjet.cli.documents import load_document
for path in sys.argv[4:]:
    load_document(path)
elapsed = clock.now()
clock.stop()
print(repr(elapsed))
"""
MIN_PASSES = 3
VERBS = ("analyze", "verify", "scan", "aut", "reflect", "reconstruct")
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# machine record


def machine(clock) -> dict:
    """Interpreter, cores, and the spread of the machine's speed over the
    run (quartiles of the reference loop's wall time)."""
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            **clock.summary()}


# ---------------------------------------------------------------------------
# set-up and calls


def setup_seconds(paths) -> tuple:
    """Reference and wall times of fresh interpreters that import the CLI
    and load the workload's documents; each child runs its own clock."""
    reference, wall = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, repr(t0),
                               str(HERE), str(SRC), *paths],
                              capture_output=True, text=True)
        wall.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed: " + proc.stderr)
        reference.append(float(proc.stdout.split()[-1]))
    return reference, wall


def invoke(main, argv):
    """Run one CLI call in-process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:      # argparse rejects its input
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:       # a crash is a failed call
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()


def check_report(call, code, stdout, stderr):
    """None when the call exited 0 with pass: true and its own check."""
    if code != 0:
        return f"exit {code}: {stderr.strip()[-300:]}"
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if report.get("pass") is not True:
        return "pass is not true"
    if call.check is not None:
        return call.check(report)
    return None


def call_key(call) -> str:
    """Identity of a call across runs: its argv with each document
    replaced by the hash of its contents."""
    parts = []
    for arg in call.argv:
        path = Path(arg)
        if path.suffix == ".crj" and path.is_file():
            arg = hashlib.sha256(path.read_bytes()).hexdigest()
        parts.append(arg)
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


class Pass:
    """Latencies (reference and raw wall seconds), failures and report
    hashes of one pass."""

    def __init__(self):
        self.latency = []
        self.raw = []
        self.failures = []
        self.hashes = []
        self.wall = 0.0


def run_pass(main, calls, clock, tracer=None) -> Pass:
    p = Pass()
    t_pass = clock.now()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call = i
        t0, w0 = clock.now(), time.perf_counter()
        code, stdout, stderr = invoke(main, call.argv + ("--json",))
        p.latency.append(clock.now() - t0)
        p.raw.append(time.perf_counter() - w0)
        p.hashes.append(hashlib.sha256(stdout.encode()).hexdigest())
        error = check_report(call, code, stdout, stderr)
        if error:
            p.failures.append((i, error))
    p.wall = clock.now() - t_pass
    return p


# ---------------------------------------------------------------------------
# metrics


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count); the value is the sample
    with exactly TAIL_BEYOND larger ones.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[0], 0.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def middle(passes, field="latency") -> list:
    """Per call, the MIN_PASSES middle values of its sorted latencies;
    every latency metric uses these.

    A fixed number of samples per call keeps the tail percentile at the
    same sample count on every run of a workload, and dropping a call's
    extremes drops a sample that a stall or a cold cache spoiled.
    """
    out = []
    for lat in zip(*(getattr(p, field) for p in passes)):
        xs = sorted(lat)
        lo = max(0, (len(xs) - MIN_PASSES) // 2)
        out.append(xs[lo:lo + MIN_PASSES])
    return out


def verb_totals(calls, samples) -> dict:
    """Per verb: the sum over its calls of their median latency."""
    return {f"{verb}_s": sum((statistics.median(samples[i])
                              for i, c in enumerate(calls) if c.verb == verb),
                             0.0)
            for verb in VERBS}


def end_to_end(passes, setup) -> tuple:
    samples = middle(passes)
    latencies = [x for per_call in samples for x in per_call]
    tail_s, pct, n = tail(latencies)
    raw = [x for per_call in middle(passes, "raw") for x in per_call]
    return {
        "setup_s": (statistics.median(setup[0]), "s"),
        # one pass: the sum over calls of each call's median latency, so
        # a stall spoils one sample of a call, not a whole pass
        "wall_s": (sum(statistics.median(x) for x in samples), "s"),
        "call_p50_s": (statistics.median(latencies), "s"),
        "call_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }, {"tail_percentile": pct, "samples": n, "per_call": MIN_PASSES,
        "raw_wall_s": sum(statistics.median(x)
                          for x in middle(passes, "raw")),
        "raw_call_p50_s": statistics.median(raw),
        "raw_call_tail_s": tail(raw)[0],
        "raw_setup_s": statistics.median(setup[1])}


# ---------------------------------------------------------------------------
# checks that span passes and runs


def consistency_errors(calls, passes, store) -> list:
    """Reports identical across passes and across earlier runs."""
    errors = []
    first = passes[0].hashes
    for k, p in enumerate(passes[1:], 1):
        for i, (a, b) in enumerate(zip(first, p.hashes)):
            if a != b:
                errors.append(f"call {i}: report of pass {k} differs from "
                              "pass 0")
    reports = store.setdefault("reports", {})
    for i, call in enumerate(calls):
        if reports.setdefault(call_key(call), first[i]) != first[i]:
            errors.append(f"call {i}: report differs from an earlier run")
    return errors


def code_digest() -> str:
    """sha256 over the program's sources and the benchmark's modules: runs
    with the same digest must agree on every report and count."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def load_store(path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def save_store(path, store):
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# measurement and entry point


def measure(main, calls, seconds, clock, tracer=None):
    """Untraced passes, or untraced/traced pairs when a tracer is given,
    until the next pass (or pair) would end after `seconds` of wall time.

    Untraced runs make at least MIN_PASSES passes (see middle()).
    """
    plain, traced, layer = [], [], []
    least = 1 if tracer is not None else MIN_PASSES
    t0 = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        plain.append(run_pass(main, calls, clock))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(main, calls, clock, tracer))
            finally:
                tracer.uninstall()
            tracer.keep_spans = False      # spans of the first pass only
            layer.append(tracer.layer_metrics())
        now = time.perf_counter()
        if len(plain) >= least and now - t0 + (now - t_round) > seconds:
            return plain, traced, layer


def per_layer(calls, plain, traced, layer, counts) -> tuple:
    """Per-layer metrics and their errors.

    Counts and ratios must repeat exactly across traced passes and match
    `counts`, the ones an earlier traced run of the same inputs and code
    recorded (filled in when empty).  Times are medians over traced
    passes.  The tracing overhead is, per call, the median over rounds of
    its traced minus its untraced latency in the same round, summed over
    calls.
    """
    errors = []
    exact = {k: v for k, v in layer[0].items()
             if tracing.unit_of(k) in ("count", "ratio")}
    for k, metrics in enumerate(layer[1:], 1):
        for name, value in exact.items():
            if metrics[name] != value:
                errors.append(f"count {name} differs in traced pass {k}: "
                              f"{metrics[name]} vs {value}")
    for name, value in exact.items():
        if counts.setdefault(name, value) != value:
            errors.append(f"count {name} differs from an earlier run: "
                          f"{value} vs {counts[name]}")
    for k, p in enumerate(traced):
        for i, (a, b) in enumerate(zip(plain[0].hashes, p.hashes)):
            if a != b:
                errors.append(f"call {i}: traced report differs from "
                              f"untraced (traced pass {k})")
    out = {}
    for name, value in layer[0].items():
        if name not in exact:
            value = statistics.median(m[name] for m in layer)
        out[name] = (value, tracing.unit_of(name))
    out["trace.wall_s"] = (statistics.median(p.wall for p in traced), "s")
    out["trace.overhead_s"] = (sum(
        statistics.median(t.latency[i] - u.latency[i]
                          for u, t in zip(plain, traced))
        for i in range(len(calls))), "s")
    for name, value in verb_totals(calls, middle(plain)).items():
        out[f"verb.{name}"] = (value, "s")
    return out, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "crjet" / "cli" / "main.py").is_file():
        print(f"error: no crjet sources under {SRC}", file=sys.stderr)
        return 2
    docdir = OUT / f"{args.workload}-seed{args.seed}"
    calls = workloads.build(args.workload, args.seed, docdir)
    paths = sorted({a for c in calls for a in c.argv if a.endswith(".crj")})
    setup = setup_seconds(paths)

    sys.path.insert(0, str(SRC))
    import crjet.cli.main as cli
    clock = ReferenceClock()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(clock.now_ns)
    clock.start()
    try:
        # look main up on each call, so that the tracer's rebinding is used
        plain, traced, layer = measure(lambda a: cli.main(a), calls,
                                       args.seconds, clock, tracer)
    finally:
        clock.stop()
    host = machine(clock)

    failures = [(k, i, e) for k, p in enumerate(plain + traced)
                for i, e in p.failures]
    latency = {}
    store_path = OUT / f"store-{code_digest()[:16]}.json"
    store = load_store(store_path)
    errors = consistency_errors(calls, plain, store)
    if args.trace:
        counts = store.setdefault("counts", {}).setdefault(
            f"{args.workload}-seed{args.seed}", {})
        metrics, trace_errors = per_layer(calls, plain, traced, layer,
                                          counts)
        errors += trace_errors
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}"
                           ".jsonl")
    else:
        metrics, latency = end_to_end(plain, setup)
        print("latency: " + json.dumps(latency, sort_keys=True))
        for name, value in verb_totals(calls, middle(plain)).items():
            print(f"verb {name}: {value:.6f} s")
    if not failures and not errors:
        save_store(store_path, store)

    attempted = len(calls) * (len(plain) + len(traced))
    failed = len({(k, i) for k, i, _ in failures})
    print(f"workload {args.workload} seed {args.seed}: {len(calls)} calls "
          f"x {len(plain)} passes"
          + (f" + {len(traced)} traced" if traced else ""))
    print("machine: " + json.dumps(host, sort_keys=True))
    print(f"failed_frac: {failed / attempted:.6f}")
    for k, i, e in failures[:20]:
        print(f"FAILED pass {k} call {i} {' '.join(calls[i].argv)}: {e}")
    for e in errors[:20]:
        print(f"INCONSISTENT {e}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    if args.trace:
        overhead = metrics["trace.overhead_s"][0]
        if overhead < 0:
            print("trace.overhead_s is negative: below the machine's noise, "
                  "unresolved")
        nullspace_s = metrics["linalg.nullspace.s"][0]
        if nullspace_s:
            print("linalg full-rank share of nullspace time: "
                  f"{metrics['linalg.full_rank.s'][0] / nullspace_s:.3f}")
    correct = not failures and not errors
    record = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / record).write_text(json.dumps({
        "machine": host, "setup_s": setup[0], "raw_setup_s": setup[1],
        "latency": latency,
        "calls": [list(c.argv) for c in calls],
        "latency_s": [p.latency for p in plain],
        "raw_latency_s": [p.raw for p in plain],
        "traced_latency_s": [p.latency for p in traced],
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }), encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
