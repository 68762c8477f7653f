"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import gen  # noqa: E402
from perfbench.run import END_TO_END, per_layer_units, serve, setup  # noqa: E402
from perfbench.tracing import SPAN_NAMES, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_requests_depend_only_on_the_seed(workload):
    first = gen.make_requests(workload, 7, 120)
    assert first == gen.make_requests(workload, 7, 120)
    assert first != gen.make_requests(workload, 8, 120)


def test_metric_lists_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_short_run_reports_every_metric_without_failures(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert "failed_frac 0" in proc.stdout


@pytest.fixture(scope="module")
def env():
    return setup()[1]


def test_corrupted_answer_counts_as_failure_and_run_goes_on(env, monkeypatch):
    requests = gen.make_requests("decompose", 3, 8)
    reassemble = env.ld.reassemble
    monkeypatch.setattr(env.ld, "reassemble", lambda dec: reassemble(dec) + 1)
    _, latencies, failures = serve(env, requests)
    tangent = sum(req.expect is not None for req in requests)
    assert len(latencies) == len(requests)
    assert tangent > 0 and len(failures) == tangent


def test_unexpected_exception_counts_as_failure(env, monkeypatch):
    requests = gen.make_requests("decompose", 3, 4)

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(env.ld, "decompose", broken)
    _, latencies, failures = serve(env, requests)
    assert len(latencies) == len(failures) == len(requests)
    assert all("boom" in f for f in failures)


def test_passing_negative_control_counts_as_failure(env, monkeypatch):
    requests = [r for r in gen.make_requests("tangent-transport", 2, 400)
                if r.kind == "tangency" and r.expect[1] is not None and not r.args][:2]
    assert requests
    monkeypatch.setattr(env.ld, "is_tangent_q", lambda u, arr, t: False)
    assert serve(env, requests)[2] == []
    monkeypatch.setattr(env.ld, "is_tangent_q", lambda u, arr, t: True)
    assert len(serve(env, requests)[2]) == len(requests)


def test_tracer_records_spans_and_restores_the_package(env):
    ld = env.ld
    originals = (ld.Poly.__mul__, ld.decompose, sys.modules["logdiff.tangent"].determinant)
    requests = gen.make_requests("decompose", 4, 3)
    tracer = Tracer()
    tracer.install(ld)
    try:
        _, latencies, failures = serve(env, requests, tracer=tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    assert (ld.Poly.__mul__, ld.decompose, sys.modules["logdiff.tangent"].determinant) == originals
    totals = tracer.totals()
    assert totals["exprparse.parse_diffop.calls"] == len(requests)
    assert totals["tangent.decompose.calls"] == len(requests)
    assert totals["polyring.mul.calls"] > 0 and totals["polyring.mul.term_pairs"] > 0
    assert totals["linalg.permanent.calls"] == 0
    # Root spans are one per top-level call; self times add up to them.
    roots = [i for i, p in enumerate(tracer.parent) if p == -1]
    assert {tracer.request_ids[i] for i in roots} == {1, 2, 3}
    root_time = sum(tracer.end[i] - tracer.start[i] for i in roots)
    self_time = sum(totals[f"{name}.self_s"] for name in SPAN_NAMES)
    assert self_time == pytest.approx(root_time, rel=1e-6)
    assert all(s >= 0 for s in tracer.self_s)
    assert root_time <= sum(latencies)
