"""Tests of the benchmark itself, on the coarse smoke grid.

    python3 -m pytest -q pulsebench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gate
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, *argv: str) -> dict:
    assert run.main([*argv, "--seconds", "0", "--smoke"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(capsys, workload, trace, section):
    result = _run(capsys, "--workload", workload, "--seed", "3",
                  "--trace", str(trace))
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > run.MIN_OPS
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == declared


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    assert workloads.op_order(workload, 11) == workloads.op_order(workload, 11)
    orders = {tuple(workloads.op_order(workload, s)) for s in range(8)}
    assert len(orders) > 1
    for case in workloads.workload_cases(workload):
        assert "--dt" in case.argv and "--omega-step" in case.argv


def test_every_case_has_a_reference():
    refs = gate.load_references()
    for name in workloads.WORKLOADS:
        for case in workloads.workload_cases(name):
            assert case.key in refs
            assert workloads.smoke_case(case).key in refs


@pytest.fixture
def smoke_output():
    case = workloads.smoke_case(workloads.workload_cases("paper")[-1])
    run.import_cli()
    import pulsespec.cli

    run.OUT.mkdir(exist_ok=True)
    csv = run.OUT / "test-gate.csv"
    assert pulsespec.cli.main([*case.argv, "--output", str(csv)]) == 0
    yield csv, gate.load_references()[case.key]
    csv.unlink()
    csv.with_name(csv.name + ".meta").unlink()


def test_gate_passes_the_program_output(smoke_output):
    csv, ref = smoke_output
    passed, dev = gate.check_csv(csv, ref)
    assert passed and dev <= gate.REL_TOL


@pytest.mark.parametrize("column", ["emission", "direct"])
def test_reference_perturbed_by_1e_8_fails(smoke_output, column):
    csv, ref = smoke_output
    values = getattr(ref, column) * (1 + 1e-8)
    passed, dev = gate.check_csv(csv, gate.Reference(**{**vars(ref), column: values}))
    assert not passed and dev > gate.REL_TOL


def test_net_absorption_must_be_the_difference(smoke_output):
    csv, _ = smoke_output
    columns = gate.read_csv(csv)
    assert gate.net_is_difference(columns)
    columns[3] *= 1 + 1e-9
    assert not gate.net_is_difference(columns)


def test_missing_layer_is_reported_absent(capsys, monkeypatch):
    run.import_cli()
    import pulsespec.spectra

    monkeypatch.delattr(pulsespec.spectra, "detuning_average")
    result = _run(capsys, "--workload", "detuning-avg", "--seed", "1",
                  "--trace", "1")
    assert result["correct"]
    assert "spectra.average_s" not in result["metrics"]
    assert "cli.self_s" not in result["metrics"]
    assert "correlations.kernel_s" in result["metrics"]


def test_fails_without_the_package():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "paper",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_excludes_children():
    from spans import Span, Tracer

    tracer = Tracer()
    tracer.spans = [Span("cli.main", 0.0, 1.0, -1, 0),
                    Span("correlations.kernel", 0.1, 0.6, 0, 0),
                    Span("dynamics.trajectory", 0.1, 0.3, 1, 0),
                    Span("spectra.transform", 0.6, 0.9, 0, 0)]
    total, self_time = tracer.op_times(0)
    assert total["correlations.kernel"] == pytest.approx(0.5)
    assert self_time["correlations.kernel"] == pytest.approx(0.3)
    assert self_time["cli.main"] == pytest.approx(0.2)
    assert np.isclose(sum(self_time.values()), total["cli.main"])


def test_op_time_is_divided_by_the_references_around_it():
    case = workloads.workload_cases("paper")[0]
    ops = [run.Op(0, case, run.OUT / "w.csv", timed=False, traced=False,
                  seconds=9.0, ref_after=0.1),
           run.Op(1, case, run.OUT / "a.csv", timed=True, traced=False,
                  seconds=3.0, ref_after=0.2),
           run.Op(2, case, run.OUT / "b.csv", timed=True, traced=False,
                  seconds=1.0, ref_after=0.2)]
    assert run.op_refs(ops) == pytest.approx([20.0, 5.0])
    metrics = run.end_to_end_metrics(ops, peak_rss_mb=1.0, setup=[0.1])
    assert metrics["op_ref_p50"] == pytest.approx(12.5)
    assert metrics["ops_per_ref"] == pytest.approx(2 / 25)
