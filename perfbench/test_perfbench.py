"""Tests of the benchmark itself, at tiny size:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cfuav import harness, orchestrator  # noqa: E402
from cfuav.scenario import ExperimentConfig, desk_scale  # noqa: E402

import checks  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# metrics that need schemes, AO and SE, which power-solve does not run
SCHEME_ONLY = ("pa_pp.runtime_s", "pa_tp.runtime_s", "non_ao.runtime_s",
               "pa_pp.min_se", "pa_tp.min_se", "pa_pp.success_rate")


def tiny_configs(seed):
    # K = 4 and 5 exceed tau_p = 3, so a full column breaks the capacity
    return [desk_scale(ExperimentConfig(), num_orus=6, num_uavs=k, pilot_len=3,
                       n_channel_realizations=40, master_seed=seed)
            for k in (4, 5)]


TINY_TRIALS = workloads.trial_workload("tiny-trials", tiny_configs, 4)
# enough sets for a tail percentile
TINY_SOLVE = workloads.solve_workload("tiny-solve", tiny_configs,
                                      metrics.TAIL_MIN_SAMPLES)


def _check_entries(report, expected):
    assert set(report["metrics"]) == set(expected)
    for name, m in report["metrics"].items():
        unit, better = {**metrics.END_TO_END, **metrics.PER_LAYER}[name]
        assert (m["unit"], m["better"]) == (unit, better)
        assert np.isfinite(m["value"]), name


def test_spec_matches_catalogue():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    for m in SPEC["end_to_end"]:
        assert (m["unit"], m["better"]) == metrics.END_TO_END[m["name"]]
        assert m["name"] not in SCHEME_ONLY
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == metrics.PER_LAYER


@pytest.fixture(scope="module")
def traced_trials():
    return workloads.run(TINY_TRIALS, seed=3, seconds=0, trace=True)


def test_trial_workload_emits_every_metric(traced_trials):
    assert traced_trials["failed"] == 0
    expected = (set(metrics.END_TO_END) - {"trial_s.tail"}) | set(metrics.PER_LAYER)
    _check_entries(traced_trials, expected)
    layer = {k: v["value"] for k, v in traced_trials["metrics"].items()}
    assert layer["receiver.moments.calls"] >= 1
    assert layer["orchestrator.ao_iterations"] >= 1
    assert layer["association.propose.calls"] >= 1


def test_solve_workload_emits_its_metrics():
    report = workloads.run(TINY_SOLVE, seed=3, seconds=0, trace=True)
    assert report["failed"] == 0
    _check_entries(report, (set(metrics.END_TO_END) - set(SCHEME_ONLY))
                   | set(metrics.PER_LAYER))
    values = {k: v["value"] for k, v in report["metrics"].items()}
    assert values["receiver.moments.calls"] == 0
    assert values["powerctl.bg_fppc.calls"] == values["powerctl.reference.calls"] == 1
    assert report["metrics"]["trial_s.tail"]["samples"] == metrics.TAIL_MIN_SAMPLES


def test_self_times_account_for_traced_trial_time(traced_trials):
    m = {k: v["value"] for k, v in traced_trials["metrics"].items()}
    assert m["trace.layer_self_s"] + m["trace.untraced_s"] == pytest.approx(
        m["trace.trial_s"], rel=1e-9)
    assert 0 <= m["trace.untraced_s"] < m["trace.trial_s"]


def test_tracer_restores_library_names():
    before = [getattr(module, attr) for module, attr, _, _ in tracing.TARGETS]
    workloads.run(TINY_TRIALS, seed=3, seconds=0, trace=True)
    assert before == [getattr(module, attr)
                      for module, attr, _, _ in tracing.TARGETS]


def _corrupting(fn, corrupt):
    def run_trial(config, trial, schemes):
        records, results = fn(config, trial, schemes)
        return corrupt(records, results)
    return run_trial


def _overfull_column(records, results):
    result = results["PA+PP"]
    result.association = np.array(result.association)
    result.association[:, 0] = 1
    return records, results


def _mismatched_hash(records, results):
    records[-1] = dataclasses.replace(records[-1], channel_hash="0" * 16)
    return records, results


@pytest.mark.parametrize("corrupt", [_overfull_column, _mismatched_hash])
def test_corrupted_trial_counts_as_failed(monkeypatch, corrupt):
    config = tiny_configs(3)[0]
    records, results = corrupt(*harness.run_trial(config, 0, orchestrator.ALL_SCHEMES))
    assert checks.check_trial(config, records, results)

    monkeypatch.setattr(harness, "run_trial", _corrupting(harness.run_trial, corrupt))
    report = workloads.run(TINY_TRIALS, seed=3, seconds=0, trace=False)
    assert report["attempted"] == 4 and report["failed"] == 4
    assert report["metrics"]["failed_ratio"]["value"] == 1.0


def test_raising_trial_counts_as_failed(monkeypatch):
    def run_trial(config, trial, schemes):
        raise FloatingPointError("boom")
    monkeypatch.setattr(harness, "run_trial", run_trial)
    report = workloads.run(TINY_TRIALS, seed=3, seconds=0, trace=False)
    assert report["failed"] == report["attempted"] == 4
    assert "FloatingPointError: boom" in report["failures"][0]["problems"][0]


def test_solver_that_overstates_gamma_counts_as_failed(monkeypatch):
    solve = orchestrator.reference_max_min

    def overstated(coef, *args, **kwargs):
        result = solve(coef, *args, **kwargs)
        result.gamma_star *= 1.01
        return result
    monkeypatch.setattr(orchestrator, "reference_max_min", overstated)
    report = workloads.run(TINY_SOLVE, seed=3, seconds=0, trace=False)
    assert report["failed"] == report["attempted"] == metrics.TAIL_MIN_SAMPLES
    assert "TP: p_star attains" in report["failures"][0]["problems"][0]


def test_check_solve_rejects_gamma_below_full_power():
    sets = workloads.build_solve_sets(tiny_configs(3), 1)
    s = sets[0]
    result = orchestrator.bg_fppc(s.coef, s.config.p_max_w)
    assert checks.check_solve(s.coef, s.config.p_max_w, result, s.gamma_full) == []
    assert checks.check_solve(s.coef, s.config.p_max_w, result,
                              result.gamma_star * 1.5) \
        == ["gamma* below the full-power min SINR"]


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_last_line_has_the_spec_metrics(trace):
    proc = _cli(ROOT, "--workload", "power-solve", "--seed", "5", "--seconds", "0",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    gated = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in gated}
    report = json.loads(lines[-2])["report"]
    assert report["environment"]["blas_threads_pinned"]["OPENBLAS_NUM_THREADS"] == "1"
    assert report["environment"]["workload_seed"] == 5


def test_cli_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "desk-sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
