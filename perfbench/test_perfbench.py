"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

The smoke runs shrink every workload (4^4 lattices, one set-up, one
timed operation, short phases) so the whole file runs in about a
minute; the metric names and units they print are the full set.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, workloads  # noqa: E402
from perfbench.spans import WAIT, Recorder  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = json.loads((ROOT / "perfbench" / "why.json").read_text())


@pytest.fixture
def smoke(monkeypatch):
    """Every workload at smoke size."""
    monkeypatch.setattr(workloads, "SETUP_REPS", 1)
    monkeypatch.setattr(workloads, "MIN_OPS", 1)
    for name, w in workloads.WORKLOADS.items():
        small = dataclasses.replace(w, dims=(4, 4, 4, 4))
        if isinstance(w, workloads.ServeOpenLoop):
            small = dataclasses.replace(small, burst=4)
        monkeypatch.setitem(workloads.WORKLOADS, name, small)


def _run(name: str, trace: int, seed: int = 3):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", name, "--seed", str(seed),
                         "--seconds", "0.6", "--trace", str(trace)])
    lines = buf.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(smoke, name, trace):
    code, lines, result = _run(name, trace)
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    table = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in table}
    for m in table:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert f"{m['name']} = " in "\n".join(lines)
        assert np.isfinite(got["value"])
    if trace:
        assert 0.0 <= result["metrics"]["bench.unattributed_frac"]["value"] \
            <= 1.0
        from repro.trace.perfetto import load_chrome_trace

        events = load_chrome_trace(ROOT / ".perfbench" /
                                   f"trace-{name}-3.json")
        assert any(e.name == "core.solve" for e in events)


def test_wrong_solution_fails_the_check(smoke):
    w = workloads.WORKLOADS["gcrdd_overlap"]
    gauge, rhs = w.inputs(5)
    from repro.core.api import solve

    result = solve(w.request(gauge, rhs))
    counts = w.counts(result)
    ref_op = workloads.reference_operator(gauge, w.mass, w.csw)
    out = workloads.Outcome()
    w.check(out, ref_op, rhs, result, counts, counts)
    assert out.failed == 0
    result.x = result.x * (1 + 1e-4)
    w.check(out, ref_op, rhs, result, counts, counts)
    assert out.failed == 1 and "true residual" in out.problems[0]


def test_count_mismatch_fails_the_check(smoke):
    w = workloads.WORKLOADS["gcrdd_overlap"]
    gauge, rhs = w.inputs(5)
    from repro.core.api import solve

    result = solve(w.request(gauge, rhs))
    counts = w.counts(result)
    ref_op = workloads.reference_operator(gauge, w.mass, w.csw)
    out = workloads.Outcome()
    w.check(out, ref_op, rhs, result, counts,
            dict(counts, matvecs=counts["matvecs"] + 1))
    assert out.failed == 1 and "counts" in out.problems[0]


def test_failed_check_exits_nonzero(smoke, monkeypatch):
    monkeypatch.setattr(workloads, "true_residual", lambda *a: 1.0)
    for name in ("gcrdd_overlap", "serve_poisson"):
        code, lines, result = _run(name, 0)
        assert code == 1
        assert not result["correct"] and result["failed"] >= 1


def test_seed_changes_the_generated_inputs():
    w = workloads.WORKLOADS["gcrdd_overlap"]
    g1, b1 = w.inputs(1)
    g1b, b1b = w.inputs(1)
    g2, b2 = w.inputs(2)
    assert np.array_equal(g1.data, g1b.data) and np.array_equal(b1, b1b)
    assert not np.array_equal(g1.data, g2.data)
    assert not np.array_equal(b1, b2)
    s = workloads.WORKLOADS["serve_poisson"]
    assert s.schedule(1, "dense", 20.0, 5.0) == s.schedule(1, "dense", 20.0,
                                                           5.0)
    assert s.schedule(1, "dense", 20.0, 5.0) != s.schedule(2, "dense", 20.0,
                                                           5.0)
    assert s.payload(1, "a", 0)["gauge"] != s.payload(2, "a", 0)["gauge"]


def test_attribution_is_per_thread_and_excludes_waits():
    rec = Recorder()
    with rec.recording():
        with rec.span("bench.loop", "bench"):
            with rec.span("core.solve", "core"):
                time.sleep(0.01)

                def worker():
                    with rec.span("bench.rank_program", "bench"):
                        with rec.span("dirac.apply", "dirac"):
                            time.sleep(0.02)
                        with rec.span("wait.baton", WAIT):
                            time.sleep(0.02)

                with rec.span("wait.spmd_join", WAIT):
                    t = threading.Thread(target=worker)
                    t.start()
                    t.join(5)
                assert not t.is_alive()
    att = rec.attribution()
    assert att["layers"]["dirac"] == pytest.approx(0.02, abs=0.01)
    assert att["wait_s"] >= 0.04
    # busy time is the core and dirac work, not the waits.
    assert att["busy_s"] == pytest.approx(0.03, abs=0.015)
    assert 0.0 <= att["unattributed_s"] / att["busy_s"] <= 1.0
    dirac = next(s for s in rec.spans if s.name == "dirac.apply")
    assert rec.spans[dirac.parent].name == "bench.rank_program"


def test_why_records_every_workload_and_layer_metric():
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert names == set(workloads.WORKLOADS) == set(WHY["workloads"])
    for name, w in workloads.WORKLOADS.items():
        assert WHY["workloads"][name]["working_set_bytes"] \
            == w.working_set_bytes()
    predicted = {m for layer in WHY["per_layer"].values()
                 for m in layer["metrics"]}
    for metric in BENCHMARK["per_layer"]:
        base = metric["name"]
        if base.startswith("serve."):
            base = base.rsplit(".", 1)[0]
        assert base in predicted, base
    gated = {m["name"] for m in BENCHMARK["end_to_end"]}
    for layer in WHY["per_layer"].values():
        assert set(layer["moves"]) <= gated
        for target in list(layer["moves"].values()) + [layer["no_change_on"]]:
            assert set(target) <= names


def test_benchmark_json_matches_the_runner():
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_uninstall_restores_every_entry_point():
    import repro.core.api as api
    from perfbench.layers import install
    from repro.dirac.wilson import WilsonCloverOperator
    from repro.linalg import blas

    before = (api.solve, blas.cdot, WilsonCloverOperator.apply)
    installed = install(Recorder())
    assert api.solve is not before[0]
    assert "apply" in vars(WilsonCloverOperator)
    installed.uninstall()
    assert (api.solve, blas.cdot, WilsonCloverOperator.apply) == before
    assert "apply" not in vars(WilsonCloverOperator)
