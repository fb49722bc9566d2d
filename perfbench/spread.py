"""Run-to-run spread of the end-to-end metrics, and the stored baseline.

Run from the repository root:

    python3 perfbench/spread.py --workload symmetry --seeds 1-10 \\
        --seconds 40 [--baseline perfbench/baseline.json]

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints
for each end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json.  With ``--baseline`` it
also makes one traced run (seed 7) and writes the workload's entry of
that file, keeping the entries of other workloads.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_SEED = 7
sys.path.insert(0, str(HERE))

from run import code_digest  # noqa: E402


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed (seed {seed}, trace {trace}):\n"
                 + "\n".join(lines[-20:]) + proc.stderr[-2000:])
    info = {}
    for line in lines[:-1]:
        key, _, rest = line.partition(": ")
        if key in ("latency", "machine"):
            info[key] = json.loads(rest)
    return json.loads(lines[-1]), info


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--baseline", type=Path, default=None)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    infos = []
    for seed in args.seeds:
        result, info = run(args.workload, seed, args.seconds, 0)
        infos.append(info)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={v[-1]:.4f}" for name, v in values.items()),
            flush=True)

    table = {}
    for name, vals in values.items():
        q = quartiles(vals)
        q["unit"] = bounds[name]["unit"]
        table[name] = q
        bound = bounds[name]["bound"]
        mark = ("ok" if q["spread"] < bound / 3 else
                "within bound" if q["spread"] <= bound else "OVER BOUND")
        print(f"{args.workload} {name}: median {q['median']:.6g} "
              f"spread {q['spread']:.3f} (bound {bound}) {mark}")

    if args.baseline is not None:
        traced, _ = run(args.workload, TRACE_SEED, args.seconds, 1)
        why = {w["name"]: w["why"] for w in bench["workloads"]}
        path = args.baseline
        base = json.loads(path.read_text()) if path.is_file() else {}
        base.update({"hardware": f"{platform.python_implementation()} "
                                 f"{platform.python_version()}",
                     "run_seconds": args.seconds})
        base.setdefault("workloads", {})[args.workload] = {
            "why": why[args.workload],
            "code_digest": code_digest(),
            "seeds": args.seeds,
            "end_to_end": table,
            "tail_percentile": infos[0]["latency"]["tail_percentile"],
            "latency_samples": infos[0]["latency"]["samples"],
            # per run, the median wall time of the clock's reference loop
            "reference_loop_s": [i["machine"]["reference_loop_s"][1]
                                 for i in infos],
            "nproc": infos[0]["machine"]["nproc"],
            "per_layer_seed": TRACE_SEED,
            "per_layer": {name: m["value"]
                          for name, m in traced["metrics"].items()},
        }
        path.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
