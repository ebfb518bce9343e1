"""Self-test of the benchmark: every workload at a tiny size, untraced and
traced, checked against facts the simulator exposes; the correctness gate;
and the output contract of `run.py`.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import program

program.import_package()

import run as bench  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from geams_sim import engine  # noqa: E402

SPEC = json.loads((program.ROOT / "BENCHMARK.json").read_text())


def tiny(plan):
    """The workload's shape at a fraction of its cost: the same protocols and
    scenario keys, at most 60 nodes, 12 images and two seeds."""
    return dataclasses.replace(
        plan,
        seeds=plan.seeds[:2],
        node_counts=tuple(sorted({min(n, 60) for n in plan.node_counts})),
        base=plan.base.replace(image_count=min(plan.base.image_count, 12)),
    )


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def passes(request):
    plan = tiny(workloads.WORKLOADS[request.param](1))
    return plan, worker.run_pass(plan), worker.run_pass(plan, trace=True), \
        worker.run_pass(plan, trace=True)


def test_passes_succeed_and_agree_on_the_digest(passes):
    plan, plain, traced, again = passes
    runs = len(plan.cells())
    for p in (plain, traced, again):
        assert p["failures"] == [] and p["failed"] == 0
        assert p["attempted"] == p["runs"] == runs
    assert len(plain["digest"]) == 64
    assert plain["digest"] == traced["digest"] == again["digest"]
    # untraced runs carry a speed factor from the reference runs around them
    assert all(c[5] > 0 for c in plain["cells"]) and len(plain["cells"]) == runs
    assert all(c[5] is None for c in traced["cells"])


def test_scaled_times_scale_each_run_by_its_factor():
    cells = [["geams", 30, 1, 0.1, 1.0, 2.0], ["gpsr", 30, 1, 0.2, 3.0, 0.5]]
    times = bench.scaled_times({"wall_s": 4.5, "cells": cells})
    assert times["setup_s"] == pytest.approx(0.1 * 2.0 + 0.2 * 0.5)
    assert times["geams_run_s"] == pytest.approx(2.0)
    assert times["gpsr_run_s"] == pytest.approx(1.5)
    # the remaining 0.2 s is scaled by the mean factor, 1.25
    assert times["wall_s"] == pytest.approx(0.3 + 2.0 + 1.5 + 0.2 * 1.25)


def test_traced_counts_match_the_program(passes):
    plan, plain, traced, again = passes
    m, runs = traced["layers"], len(plan.cells())
    assert m["engine.events.emission"] == plan.base.image_count * runs
    assert plain["emitted"] == plain["delivered"] + plain["lost"] == traced["emitted"]
    # every transmission was routed first; every arrival ended a transmission
    assert m["route.calls"] >= m["engine.events.tx_complete"] >= m["engine.events.arrival"] > 0
    # every debit is booked; a forfeit is booked without a debit
    assert m["energy.ledger_adds"] >= m["energy.debits"] > 0
    assert m["beacon.rx"] == pytest.approx(m["beacon.rx_per_broadcast"] * m["beacon.broadcasts"])
    assert m["beacon.void_check_calls"] > 0
    assert m["geams.best_set_calls"] + m["gpsr.greedy_calls"] <= m["route.calls"]
    assert 0 < m["neighbors.live_share"] <= 1
    assert 0 < m["route.delivered_hop_share"] <= 1
    # rows: one summary row per run, one packet row per emitted packet, ...
    assert m["metrics.rows_written"] > runs + plain["emitted"]
    # self times partition the traced wall time
    assert sum(m[f"share.{layer}"] for layer in spans.LAYERS) == pytest.approx(1.0)
    for name, value in m.items():
        assert value >= 0 or name == "experiment.overhead_s", name
    counts = [k for k in m if spans.unit(k) == "count"]
    assert {k: m[k] for k in counts} == {k: again["layers"][k] for k in counts}


def test_a_broken_ledger_fails_every_run(monkeypatch):
    plan = tiny(workloads.stream(1))
    add = engine.EnergyLedger.add
    monkeypatch.setattr(engine.EnergyLedger, "add",
                        lambda self, category, amount: add(self, category, amount / 2))
    result = worker.run_pass(plan)
    assert result["failed"] == result["attempted"] == len(plan.cells())
    assert all("ledger" in f for f in result["failures"])


def test_a_run_that_raises_fails_the_pass(monkeypatch):
    def broken(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(engine.Simulation, "_do_arrival", broken)
    result = worker.run_pass(tiny(workloads.dense(1)), trace=True)
    assert result["failed"] == 1 and "injected" in result["failures"][0]
    assert "digest" not in result


def test_tracer_restores_every_entry_point():
    before = [getattr(spans._resolve(o), a) for o, a, _, _ in spans.ENTRY_POINTS]
    with spans.Tracer():
        assert all(getattr(spans._resolve(o), a) is not f
                   for (o, a, _, _), f in zip(spans.ENTRY_POINTS, before))
    assert before == [getattr(spans._resolve(o), a) for o, a, _, _ in spans.ENTRY_POINTS]


def test_span_log_is_written_and_balanced(tmp_path):
    worker.run_pass(tiny(workloads.dense(1)), trace=True, span_dir=tmp_path)
    index = json.loads((tmp_path / "index.json").read_text())
    names = (tmp_path / "name.bin").read_bytes()
    times = memoryview((tmp_path / "time.bin").read_bytes()).cast("d")
    assert index["spans"] == len(names) > 0
    assert len(times) == 2 * len(names)
    assert sum(1 for t in times if t > 0) == len(names)
    assert index["names"][names[0]] == "experiment"


def test_benchmark_json_names_every_metric_with_its_unit():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == bench.END_TO_END
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    totals = spans.Tracer().analyse()
    names = list(spans.layer_metrics(totals, 0)) + ["trace.overhead_s"]
    assert layer == {name: spans.unit(name) for name in names}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_object_last(trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=program.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(program.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
