"""Tests of the benchmark itself, on small grids.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, job_order, problem_pool  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# printed in the table but not in the JSON line
TABLE_ONLY = {"job_s.p50": "s", "failed_frac": "ratio", "oracle_err_log10": "log10"}
COUNTS = [n for n in PER_LAYER if n.endswith(".calls") or n in ("cache.hits", "cache.misses")]


def _run(workload, seed, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


@functools.lru_cache(maxsize=None)
def bench(workload, seed, trace, repeat=0):
    """(table lines, result JSON) of one small run; `repeat` forces a fresh run."""
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def table_value(lines, name, unit):
    pattern = re.compile(rf"^\s+{re.escape(name)}\s+(\S+)\s+{re.escape(unit)}\s")
    values = [float(m.group(1)) for m in map(pattern.match, lines) if m]
    assert len(values) == 1, f"{name} [{unit}] not printed once"
    return values[0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = bench(workload, 1, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    for name, unit in {**END_TO_END, **TABLE_ONLY}.items():
        table_value(lines, name, unit)
    assert table_value(lines, "failed_frac", "ratio") == 0.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_with_the_same_seed(workload):
    lines, first = bench(workload, 1, 1)
    _, second = bench(workload, 1, 1, repeat=1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for name, unit in PER_LAYER.items():
        table_value(lines, name, unit)


def test_cache_workloads_hit_and_miss_as_designed():
    cold = bench("kernel-cold", 1, 1)[1]["metrics"]
    warm = bench("kernel-warm", 1, 1)[1]["metrics"]
    assert cold["cache.hit_ratio"]["value"] == 0.0 and cold["volterra.resolvent.calls"]["value"] > 0
    assert warm["cache.hit_ratio"]["value"] == 1.0 and warm["volterra.resolvent.calls"]["value"] == 0
    assert warm["cache.bytes_read"]["value"] > 0 and warm["cache.bytes_written"]["value"] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_changes_problems_not_metric_names(workload):
    w = WORKLOADS[workload]
    assert problem_pool(w, 1) != problem_pool(w, 2)
    assert sorted(job_order(w, 1)) == sorted(problem_pool(w, 1))
    lines1, result1 = bench(workload, 1, 0)
    lines2, result2 = bench(workload, 2, 0)
    seeds1 = [line for line in lines1 if "problem seeds" in line]
    seeds2 = [line for line in lines2 if "problem seeds" in line]
    assert seeds1 and seeds1 != seeds2
    assert set(result1["metrics"]) == set(result2["metrics"])


def test_warm_pool_is_the_head_of_the_cold_pool():
    cold, warm = WORKLOADS["kernel-cold"], WORKLOADS["kernel-warm"]
    assert problem_pool(warm, 7) == problem_pool(cold, 7)[: warm.pool]


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("lq-direct", 1, 0, root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_rebinds_every_import_site_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    import volterra_lq
    from volterra_lq import cache, causal, fredholm, lq, scenarios, volterra
    from spans import Tracer

    originals = (lq.StateOperator.__init__, fredholm.solve_open_loop, cache.resolvent)
    tracer = Tracer(volterra_lq)
    tracer.install()
    try:
        assert lq.StateOperator is volterra.StateOperator  # classes keep their identity
        assert lq.StateOperator.__init__ is not originals[0]
        for module in (lq, fredholm, scenarios, volterra_lq):
            assert module.solve_open_loop is lq.solve_open_loop
        for module in (cache, causal, scenarios):
            assert module.resolvent is volterra.resolvent
        assert fredholm.solve_open_loop is not originals[1]
        assert cache.resolvent is not originals[2]
    finally:
        tracer.uninstall()
    assert (lq.StateOperator.__init__, fredholm.solve_open_loop, cache.resolvent) == originals
    assert lq.solve_open_loop is fredholm.solve_open_loop is scenarios.solve_open_loop
