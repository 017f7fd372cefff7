"""Tests of the benchmark itself: tiny smoke runs and planted wrong outputs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int = 5):
    return WORKLOADS[name](seed, tiny=True)


def first_output(wl):
    req = wl.next_round()[0]
    return req, wl.run(req)


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced(name):
    result = run.measure(tiny(name), seconds=0, min_requests=1, warmup_seconds=0)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["metrics"]["items_per_s"]["value"] > 0
    assert result["metrics"]["success_rate"]["value"] == 1.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_reports_every_layer_metric(name):
    result = run.traced_run(tiny(name), warmup_seconds=0)
    assert result["correct"], result["problems"]
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        key: value["unit"] for key, value in metrics.items()
    }
    assert 0.9 <= metrics["trace.accounted_ratio"]["value"] <= 1.0


def test_traced_counts_and_digest_repeat_for_a_seed():
    first = run.traced_run(tiny("path-integral"), warmup_seconds=0)
    second = run.traced_run(tiny("path-integral"), warmup_seconds=0)
    untraced = run.measure(tiny("path-integral"), seconds=0, min_requests=1, warmup_seconds=0)
    counts = lambda r: {k: v["value"] for k, v in r["metrics"].items()  # noqa: E731
                        if v["unit"] in ("count", "B")}
    assert counts(first) == counts(second)
    assert first["metrics"]["propagators.compose_kernels.calls"]["value"] == 4 * 120
    assert first["digest"] == second["digest"] == untraced["digest"]
    other = run.traced_run(tiny("path-integral", seed=6), warmup_seconds=0)
    assert other["digest"] != first["digest"]


def test_self_times_partition_the_request():
    wl = tiny("kernel-grid")
    req = wl.next_round()[0]
    tracer = Tracer([workloads])
    with tracer:
        tracer.run_request(0, wl.run, req)
    assert workloads.cli_main.__name__ == "main"
    assert not hasattr(workloads.cli_main, "__perfbench_traced__")
    root = tracer.end[0] - tracer.start[0]
    assert sum(tracer.self_times()) == pytest.approx(root, rel=1e-9)
    assert tracer.by_name()["cli.main"]["calls"] == 1


def _shift_phase(row: dict) -> None:
    row["phase"] = str((Fraction(row["phase"]) + Fraction(1, 8)) % 1)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_kernel_grid_rejects_a_shifted_phase(fmt):
    wl = tiny("kernel-grid")
    req = next(r for r in wl.next_round() if r.fmt == fmt)
    code, text = wl.run(req)
    assert wl.check(req, (code, text)) == []
    rows = wl.parse_rows(req, text)
    _shift_phase(rows[3])
    if fmt == "json":
        payload = json.loads(text)
        payload["rows"] = rows
        planted = json.dumps(payload)
    else:
        header = text.splitlines()[0].split(",")
        planted = "\n".join([",".join(header)] + [",".join(str(r[c]) for c in header) for r in rows])
    problems = wl.check(req, (code, planted))
    assert any("phase" in p for p in problems), problems


def test_kernel_grid_rejects_a_missing_row():
    wl = tiny("kernel-grid")
    req = next(r for r in wl.next_round() if r.fmt == "json")
    code, text = wl.run(req)
    payload = json.loads(text)
    payload["rows"].pop()
    assert wl.check(req, (code, json.dumps(payload)))


def test_gauss_oracle_rejects_a_haar_value_off_by_1e_9():
    wl = tiny("gauss-oracle")
    req, out = first_output(wl)
    assert wl.check(req, out) == []
    planted = workloads.GaussOutput(out.full, out.n0, out.m, out.balls, out.haar + 1e-9)
    assert any("Haar" in p for p in wl.check(req, planted))


def test_path_integral_rejects_a_fail_report():
    wl = tiny("path-integral")
    seed, out = first_output(wl)
    assert wl.check(seed, out) == []
    report = json.loads(out[1])
    report.update(status="fail", failures=[{"check": "composition"}])
    problems = wl.check(seed, (1, json.dumps(report)))
    assert any("fail" in p for p in problems), problems


def test_a_request_that_checked_nothing_fails_the_audit():
    wl = tiny("path-integral")
    seed, out = first_output(wl)
    assert run.audit_calls(wl, seed) == []
    wl.run = lambda s: out  # a canned pass report: no composition ran
    assert wl.check(seed, wl.run(seed)) == []
    assert run.audit_calls(wl, seed)


def test_oscillator_rejects_a_shifted_phase():
    wl = tiny("oscillator")
    req, (code, text) = first_output(wl)
    assert wl.check(req, (code, text)) == []
    payload = json.loads(text)
    _shift_phase(payload["rows"][1])
    assert any("phase" in p for p in wl.check(req, (code, json.dumps(payload))))


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "kernel-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
