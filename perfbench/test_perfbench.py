"""Tests of the benchmark itself, at the tiny smoke sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = list(workloads.WORKLOADS)


def _run_main(capsys, tmp_path, name, trace, seconds):
    rc = run.main([
        "--workload", name, "--seed", "7", "--seconds", str(seconds),
        "--trace", str(trace), "--smoke", "--out", str(tmp_path),
    ])
    out = capsys.readouterr().out.splitlines()
    return rc, out, json.loads(out[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == NAMES
    for w in BENCH["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", NAMES)
def test_smoke_prints_every_end_to_end_metric_with_unit(capsys, tmp_path, name):
    rc, out, result = _run_main(capsys, tmp_path, name, 0, 5)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert any(line.startswith(f"{metric} ") and f" {unit}" in line for line in out)
    assert any(line.startswith("error_rate 0.0 ratio") for line in out)
    report = json.loads((tmp_path / f"{name}-seed7-trace0-smoke.json").read_text())
    prov = report["provenance"]
    for key in ("python", "numpy", "numba_enabled", "nproc", "seed", "commit"):
        assert key in prov


@pytest.mark.parametrize("name", NAMES)
def test_smoke_traced_run_prints_every_per_layer_metric(capsys, tmp_path, name):
    rc, out, result = _run_main(capsys, tmp_path, name, 1, 1)
    assert rc == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert any(line.startswith("trace overhead = traced job_p50_s") for line in out)
    assert (tmp_path / f"{name}-seed7-trace1-smoke.spans.jsonl").stat().st_size > 0


@pytest.mark.parametrize("name, layers", [
    ("flood_large", {"io.parse_stack", "complexes.packed", "kernels.flood", "watershed.morse_watershed"}),
    ("collapse_route", {"stacks.ultimate_d_collapse", "stacks.minima", "watershed.watershed_collapse"}),
    ("cli_verify", {"cli.main", "watershed.verify_cut", "forest.verify_msf_theorem", "morse.is_morse"}),
])
def test_span_tree_is_well_formed(tmp_path, name, layers):
    wl = workloads.WORKLOADS[name]
    cases = workloads.build_cases(name, 3, "smoke", tmp_path)
    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer)
    try:
        phase = run.measure(wl, cases, 0.2, tracer)
    finally:
        restore()
    assert missing == [] and phase.failed == 0
    assert tracing.check_tree(tracer.spans) == []
    assert layers <= {s.name for s in tracer.spans}
    roots = [s for s in tracer.spans if s.parent < 0]
    assert len(roots) == phase.attempted
    selfs = tracing.self_times(tracer.spans)
    for root in roots:
        total = sum(t for s, t in zip(tracer.spans, selfs) if s.job == root.job)
        assert total == pytest.approx(root.end - root.start, abs=1e-9)
    # every wrapper is gone again
    import morseshed.stacks
    import morseshed.watershed

    assert morseshed.watershed.minima is morseshed.stacks.minima
    assert not hasattr(morseshed.stacks.minima, "__wrapped__")


def test_check_tree_reports_a_child_outside_its_parent():
    spans = [tracing.Span("job", 0.0, 1.0, -1, 0), tracing.Span("io.parse_stack", 0.5, 1.5, 0, 0)]
    assert any("outside its parent" in p for p in tracing.check_tree(spans))


def _flip_one_facet_label(text: str) -> str:
    lines = text.splitlines(keepends=True)
    for i in range(len(lines) - 1, -1, -1):  # facets come last
        face, _, tag = lines[i].partition(" : ")
        if tag.strip() != "W":
            lines[i] = f"{face} : {int(tag) % 9 + 1}\n"
            if lines[i] != text.splitlines(keepends=True)[i]:
                return "".join(lines)
    raise AssertionError("no basin facet to flip")


@pytest.mark.parametrize("name, corrupt", [
    ("flood_large", lambda out: _flip_one_facet_label(out)),
    ("small_batch", lambda out: _flip_one_facet_label(out)),
    ("cli_verify", lambda out: (1,) + out[1:]),
    ("collapse_route", lambda out: {**out, next(iter(out)): -5}),
])
def test_corrupted_output_raises_error_rate_and_fails_the_run(monkeypatch, capsys, tmp_path, name, corrupt):
    wl = workloads.WORKLOADS[name]

    def job(case, i):
        out = wl.job(case, i)
        return corrupt(out) if i % 3 == 1 else out

    monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(wl, job=job))
    rc, out, result = _run_main(capsys, tmp_path, name, 0, 0.3)
    assert rc == 0
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    rate = next(line for line in out if line.startswith("error_rate "))
    assert float(rate.split()[1]) == result["failed"] / result["attempted"] > 0


def test_raising_job_counts_as_failed(tmp_path):
    wl = workloads.WORKLOADS["flood_large"]
    cases = workloads.build_cases("flood_large", 1, "smoke", tmp_path)

    def job(case, i):
        raise ValueError("boom")

    phase = run.measure(dataclasses.replace(wl, job=job), cases, 0.05)
    assert phase.failed == phase.attempted >= 1


def test_same_seed_gives_same_inputs(tmp_path):
    for name in ("small_batch", "collapse_route"):
        a = workloads.build_cases(name, 5, "smoke", tmp_path)
        b = workloads.build_cases(name, 5, "smoke", tmp_path)
        c = workloads.build_cases(name, 6, "smoke", tmp_path)
        key = (lambda cs: [x.expected for x in cs])
        assert key(a) == key(b) != key(c)


def test_reference_matches_the_flood():
    from morseshed import generate_torus, morse_watershed, random_morse_stack

    F = random_morse_stack(generate_torus(6, 6), seed=4, n_minima=4)
    assert workloads.reference_labels(F) == morse_watershed(F).labels


def test_speed_factor_follows_the_nearby_calibration():
    probe = speed.SpeedProbe()
    probe.times = [float(t) for t in range(8)]
    probe.samples = [0.01] * 4 + [0.02] * 4
    assert probe.factor(0.5) == pytest.approx(speed.REFERENCE_S / 0.01)
    assert probe.factor(6.5) == pytest.approx(speed.REFERENCE_S / 0.02)
    assert probe.factor(3.5) == pytest.approx(speed.REFERENCE_S / 0.015)


def test_scaled_times_use_each_jobs_factor():
    phase = run.Phase(times=[1.0, 2.0], factors=[0.5, 2.0])
    assert phase.scaled == [0.5, 4.0]


def test_tail_has_ten_samples_beyond():
    value, beyond = run.tail([float(i) for i in range(1, 101)], 90)
    assert (value, beyond) == (90.0, 10)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _report(workload, seed, value, **env):
    prov = {"python": "3.11.7", "numpy": "2.4.6", "numba_enabled": False, "nproc": 2,
            "seconds": 20, "scale": "full", "commit": "c", "src_sha256": "s",
            "workload": workload, "seed": seed, **env}
    metrics = {"job_p50_s": {"value": value, "unit": "s"}}
    return {"provenance": prov, "summary": {"failed": 0, "metrics": metrics}}


def test_compare_refuses_runs_with_different_provenance():
    with pytest.raises(compare.ProvenanceMismatch):
        compare.summarize([_report("w", 1, 1.0), _report("w", 2, 1.0, numba_enabled=True)])
    base = compare.summarize([_report("w", s, 1.0) for s in range(4)])
    new = compare.summarize([_report("w", s, 1.0, nproc=4, src_sha256="t") for s in range(4)])
    with pytest.raises(compare.ProvenanceMismatch):
        compare.diff(base, new, BENCH)


def test_compare_flags_a_regression_beyond_the_bound():
    base = compare.summarize([_report("w", s, 1.0 + s / 100) for s in range(4)])
    new = compare.summarize([_report("w", s, 2.0, src_sha256="t") for s in range(4)])
    line = next(x for x in compare.diff(base, new, BENCH) if "job_p50_s" in x)
    assert "WORSE" in line and "better on 0/4" in line
