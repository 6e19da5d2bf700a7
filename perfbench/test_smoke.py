"""Smoke test of the benchmark: every workload at a tiny size, traced and not.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

# checks each workload must run on every request of a tiny pass
REQUIRED_CHECKS = {
    "sweep": {"report_read_back", "no_failed_cells", "identical_to_reference"},
    "long_window": {"completeness", "identical_to_reference"},
    "cli_files": {"exit_code", "decomposition_json", "completeness",
                  "identical_to_reference"},
}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_and_checks(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if line.startswith("  ") and len(line.split()) == 3}
    for name, unit in declared.items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"
        assert isinstance(result["metrics"][name]["value"], (int, float))

    checks_line = next(line for line in lines if line.startswith("checks run:"))
    counts = dict(item.split("=") for item in
                  checks_line.removeprefix("checks run:").split(";")[0].split())
    for check in REQUIRED_CHECKS[workload]:
        assert int(counts.get(check, 0)) > 0, f"{check} did not run"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for workload in WORKLOADS:
        proc = _run(tmp_path, "--workload", workload, "--seed", "1", "--seconds", "1")
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


def test_missing_wrapped_name_makes_its_metrics_absent():
    sys.path.insert(0, str(HERE))
    try:
        from layers import layer_metrics
        from tracing import Tracer
    finally:
        sys.path.remove(str(HERE))
    import types

    module = types.ModuleType("perfbench_fake_module")
    module.present = lambda x: x + 1
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer([(module.__name__, "present", "eigen.solve", None),
                         (module.__name__, "similarity", "modes.similarity", None)])
        with tracer.installed():
            with tracer.span("modes.decompose"):
                assert module.present(1) == 2
        assert module.present.__name__ == "<lambda>"  # original restored
    finally:
        del sys.modules[module.__name__]
    assert tracer.missing == [f"{module.__name__}.similarity"]
    metrics = layer_metrics(tracer, 1.0)
    assert metrics["modes.similarity_calls"][0] is None
    assert metrics["modes.merge_ratio"][0] is None
    assert metrics["eigen.solve_calls"][0] == 1
    assert metrics["eigen.solve_work_k3"][0] is None  # no info reader attached
