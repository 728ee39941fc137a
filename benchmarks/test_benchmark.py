"""Tests of the benchmark itself, on tiny grids (2x2 ansatz, 2x3 ED).

Run from the repository root:  python3 -m pytest benchmarks/test_benchmark.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNTS = re.compile(r".*_calls|.*sector_stored|.*adjoint_gates|core\.pool_size|hva\.evals")


def tiny_run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_contract_names_are_valid():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    line = tiny_run(workload, 0)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 3
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = tiny_run(workload, 1), tiny_run(workload, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    assert all(NAME.fullmatch(name) for name in first["metrics"])
    counts = {name for name in first["metrics"] if COUNTS.fullmatch(name)}
    assert {"hamiltonians.build_h_calls", "core.pool_size", "hva.evals"} <= counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


MISSING_HOOK_SCRIPT = """
import json
import vipsa.cli, vipsa.statevector as sv
import tracing
for cls in (sv.PoolRotation, sv.HoppingRotation, sv.DiagonalPhase):
    del cls.generator_apply
tracer = tracing.Tracer()
tracer.install()
vipsa.cli.main(["ed", "--grid", "2x2", "--u", "4", "--register", "both"])
print(json.dumps({"missing": tracer.missing,
                  "metrics": sorted(tracing.layer_metrics(tracer.dump()))}))
"""


def test_missing_hook_target_drops_its_metrics_only():
    done = subprocess.run([sys.executable, "-c", MISSING_HOOK_SCRIPT], cwd=BENCH,
                          capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": f"{ROOT / 'src'}:{BENCH}",
                               "VIPSA_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(report["missing"]) == 3
    assert "statevector.generator_calls" not in report["metrics"]
    assert "statevector.generator_s" not in report["metrics"]
    assert {"hamiltonians.ed_s.k", "cli.self_s", "statevector.gate_calls"} <= set(report["metrics"])
