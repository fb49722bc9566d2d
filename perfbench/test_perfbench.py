"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  The
traced-run tests make two traced runs per workload and two more of
`transport`, about two and a half minutes in all on a 2-core machine.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(args, cwd=ROOT, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def test_reference_clock_counts_reference_loops():
    # the clock's unit is the reference loop itself, so running the loop
    # reads close to NOMINAL_S per loop whatever the machine's speed
    import signal
    before = signal.getsignal(signal.SIGALRM)
    clock = speed.ReferenceClock()
    clock.start()
    try:
        readings = [clock.now()]
        for _ in range(20):
            for _ in range(50):
                speed.reference_loop()
            readings.append(clock.now())
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(clock.samples) >= 10
    assert readings == sorted(readings)
    elapsed = readings[-1] - readings[0]
    assert abs(elapsed / (1000 * speed.NOMINAL_S) - 1) < 0.25


def test_rk4_substeps_follow_the_integrator(monkeypatch):
    from crjet import jets
    from crjet.jets import CompleteSystem, JetVector
    from crjet.series import CScalar, TruncatedSeries

    evals = []
    original = jets._eval_table
    monkeypatch.setattr(jets, "_eval_table",
                        lambda *a: evals.append(1) or original(*a))
    g = TruncatedSeries(3, 1, {(1, 0, 0): CScalar(1)})
    plane = CompleteSystem(2, 1, 0, {(0, (1, 0)): g,
                                     (0, (0, 1)): CScalar(2) * g})
    jet = JetVector(2, 1, 0, {(0, (0, 0)): Fraction(1)})
    cases = [([[Fraction(-1, 2), Fraction(0), Fraction(1)]] * 2, 0.01, None),
             ([[Fraction(0), Fraction(1, 3)], [Fraction(-1), Fraction(1)]],
              0.05, (1, 0)),
             ([[Fraction(1, 4)], [Fraction(0)]], 0.001, None)]
    for grid, step, order in cases:
        evals.clear()
        jets.integrate(plane, jet, grid, step, axis_order=order)
        # one component, four slope evaluations per step
        assert len(evals) == 4 * tracing.rk4_substeps(grid, step, order)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    def texts(seed, sub):
        calls = workloads.build(workload, seed, tmp_path / sub)
        docs = {p.name: p.read_text() for p in (tmp_path / sub).iterdir()}
        argv = [tuple(Path(a).name if a.endswith(".crj") else a
                      for a in c.argv) for c in calls]
        return docs, argv

    assert texts(3, "a") == texts(3, "b")
    assert texts(3, "a")[0] != texts(4, "c")[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_reports_match(workload):
    results = []
    for hash_seed in ("1", "2"):
        proc = _run(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", "1"], hash_seed=hash_seed)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    for name, metric in first["metrics"].items():
        if metric["unit"] in ("count", "ratio"):
            assert second["metrics"][name] == metric, name


def test_counts_are_compared_only_within_the_same_code(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    store = tmp_path / ".perfbench" / f"store-{run.code_digest()[:16]}.json"
    store.parent.mkdir()
    store.write_text(json.dumps(
        {"counts": {"transport-seed1": {"series.mul.calls": -1}}}))
    args = ["--workload", "transport", "--seed", "1", "--seconds", "0",
            "--trace", "1"]
    proc = _run(args, cwd=tmp_path)
    assert proc.returncode == 1
    assert "INCONSISTENT count series.mul.calls" in proc.stdout
    # other code (here one comment more) starts a store of its own
    with open(tmp_path / "src" / "crjet" / "__init__.py", "a") as handle:
        handle.write("# changed\n")
    proc = _run(args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "transport", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
