"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH):
    proc = subprocess.run(
        [sys.executable, str(script / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            out[workload, trace] = json.loads(proc.stdout.splitlines()[-1])
    return out


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(results, workload, trace, key):
    result = results[workload, trace]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_end_to_end_metrics_are_nonzero(results, workload):
    metrics = results[workload, 0]["metrics"]
    assert all(m["value"] > 0 for m in metrics.values()), metrics


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_simulated_metrics_and_digests_repeat(workload):
    first = wl.BUILDERS[workload](7, True)()
    second = wl.BUILDERS[workload](7, True)()
    assert first.sim_fingerprint() == second.sim_fingerprint()
    assert wl.check(workload, 7, True, first) == []


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_self_times_fit_in_traced_wall(results, workload):
    metrics = {k: v["value"] for k, v in results[workload, 1]["metrics"].items()}
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace.wall_s"]
    assert metrics["trace.unattributed_s"] >= 0
    assert metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"] - self_total, abs=1e-9
    )


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("soak", 0, cwd=tmp_path, script=tmp_path / "perfbench")
    assert proc.returncode not in (0, None)
    assert proc.stdout.strip() == ""


def own_children() -> list[int]:
    """Pids whose parent is this process, zombies included (Linux /proc)."""
    me, pids = str(os.getpid()), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):
            continue
        if stat.rpartition(")")[2].split()[1] == me:
            pids.append(int(entry.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sweep_leaves_no_process_behind(capsys):
    import run

    assert run.main(["--workload", "sweep", "--seed", "7", "--seconds", "0",
                     "--size", "tiny"]) == 0
    assert own_children() == []


def test_normalised_wall_scales_by_surrounding_reference_times():
    import run

    r = run.REFERENCE_S
    assert run.normalised([2.0, 3.0], [r, r, r]) == pytest.approx([2.0, 3.0])
    # A machine twice as slow around the second iteration halves it.
    assert run.normalised([2.0, 3.0], [r, r, 3 * r]) == pytest.approx([2.0, 1.5])
    assert run.reference(1000) > 0
