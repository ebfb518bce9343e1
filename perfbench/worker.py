"""One pass of one workload, in a fresh process: run the workload's plan
through `experiment.run_experiment`, check every scenario run, and print one
JSON object with the pass's figures on stdout.

    python3 perfbench/worker.py --workload dense --seed 1 [--trace]

Untraced, only `Simulation.__init__` and `Simulation.run` are wrapped, to
time set-up and runs and to check each run as it ends.  With `--trace` the
layer wrappers of `spans.py` are installed as well and the pass also reports
the per-layer metrics; the spans are written under `.perfbench_out/`.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import program

OUT_DIR = program.ROOT / ".perfbench_out"

# tests/conftest.py::assert_energy_balanced: the gateways start at 1e6 J, so
# initial-minus-residual can drift by an ulp of 1e6 per debit.
ENERGY_REL_TOL = 1e-9
ENERGY_ABS_TOL = 1e-6


# The host's speed drifts by up to 2x over seconds to minutes with other
# tenants' load.  A run of the frozen reference simulator (`refsim`) just
# before and just after a measured scenario run slows down with it, so the
# measured run is scaled by REFERENCE_S over the mean of the two reference
# times: figures are in seconds of a host on which the reference scenario
# takes REFERENCE_S.
REFERENCE_S = 0.080


def reference_scenario() -> float:
    """Run the reference scenario once and return its host time."""
    import refsim

    cfg = refsim.ScenarioConfig(protocol="geams", n_sensors=200, seed=1, image_count=2)
    t0 = time.perf_counter()
    refsim.run_scenario(cfg)
    return time.perf_counter() - t0


class Probe:
    """Times set-up and runs of every scenario run, and checks each run's
    invariants as soon as it ends, while the Simulation still exists.  With
    `reference`, each scenario run is bracketed by reference runs and gets a
    speed factor (see REFERENCE_S); their time is kept in `ref_s`."""

    def __init__(self, reference: bool = False):
        self.reference = reference
        self.ref_s = 0.0
        self._last_ref = None  # the reference run that ended the last scenario run
        self.setup_s = 0.0
        self.run_s = {"geams": 0.0, "gpsr": 0.0}
        # one [protocol, n, seed, setup_s, run_s, speed factor] per scenario
        # run, in run order; the factor is None without `reference`
        self.cells: list[list] = []
        self._setup_of: dict[int, tuple] = {}
        self.attempted = 0
        self.emitted = 0
        self.failures: list[str] = []
        self._saved = []

    def __enter__(self):
        from geams_sim.engine import Simulation

        init, run = Simulation.__init__, Simulation.run
        probe, clock = self, time.perf_counter

        def timed_init(sim, *args, **kwargs):
            probe.attempted += 1
            before = probe._last_ref or probe._reference()
            t0 = clock()
            init(sim, *args, **kwargs)
            took = clock() - t0
            probe._setup_of[id(sim)] = (took, before)
            probe.setup_s += took

        def timed_run(sim):
            t0 = clock()
            report = run(sim)
            took = clock() - t0
            after = probe._last_ref = probe._reference()
            cfg = sim.cfg
            setup_s, before = probe._setup_of.pop(id(sim))
            factor = REFERENCE_S * 2 / (before + after) if probe.reference else None
            probe.run_s[cfg.protocol] += took
            probe.cells.append([cfg.protocol, cfg.n_sensors, cfg.seed, setup_s, took, factor])
            probe._check(sim, report)
            return report

        self._saved = [(Simulation, "__init__", init), (Simulation, "run", run)]
        Simulation.__init__, Simulation.run = timed_init, timed_run
        if self.reference:
            reference_scenario()  # warm-up: the first run of fresh code is slower
        return self

    def _reference(self) -> float:
        if not self.reference:
            return 0.0
        took = reference_scenario()
        self.ref_s += took
        return took

    def __exit__(self, *exc):
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        return False

    def _check(self, sim, report) -> None:
        cfg = sim.cfg
        cell = f"{cfg.protocol} n={cfg.n_sensors} seed={cfg.seed}"
        self.emitted += sim.emitted
        if not sim.emissions_done or report.delivered + report.lost_total != sim.emitted:
            self.failures.append(
                f"{cell}: packets not conserved: emitted {sim.emitted}, delivered "
                f"{report.delivered}, lost {report.lost_total}, "
                f"emissions done {sim.emissions_done}")
        drawn, ledger = sim.energy_drawdown()
        if not math.isclose(drawn, ledger, rel_tol=ENERGY_REL_TOL, abs_tol=ENERGY_ABS_TOL):
            self.failures.append(f"{cell}: battery drawdown {drawn!r} J != ledger {ledger!r} J")


def csv_digest(out_dir: Path) -> str:
    """SHA-256 over every CSV the pass wrote, by file name then content."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(plan, trace: bool = False, span_dir: Path | None = None) -> dict:
    """Run `plan` once in this process and return the pass's figures.  A
    run that raises or breaks a check counts as failed."""
    import spans
    from geams_sim import experiment

    OUT_DIR.mkdir(exist_ok=True)
    csv_dir = Path(tempfile.mkdtemp(prefix="csv-", dir=OUT_DIR))
    reports = None
    try:
        # the probe wraps outside the tracer, so its checks are not in a run's span
        with (spans.Tracer() if trace else contextlib.nullcontext()) as tracer, \
                Probe(reference=not trace) as probe:
            t0 = time.perf_counter()
            try:
                reports = experiment.run_experiment(plan, csv_dir, jobs=1, write_packets=True)
            except Exception:
                probe.failures.append(traceback.format_exc())
            wall_s = time.perf_counter() - t0 - probe.ref_s
        result = {
            "trace": trace, "wall_s": wall_s, "setup_s": probe.setup_s,
            "geams_run_s": probe.run_s["geams"], "gpsr_run_s": probe.run_s["gpsr"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": max(probe.attempted, 1), "failed": len(probe.failures),
            "failures": probe.failures, "emitted": probe.emitted, "cells": probe.cells,
        }
        if reports is None:
            return result
        result.update(
            digest=csv_digest(csv_dir), runs=len(reports),
            delivered=sum(r.delivered for r in reports),
            lost=sum(r.lost_total for r in reports))
        if tracer is not None:
            delivered_hops = sum(p.hops for r in reports for p in r.per_packet_log
                                 if p.outcome == "delivered")
            totals = tracer.analyse()
            result["layers"] = spans.layer_metrics(totals, delivered_hops)
            result["split"] = {
                proto: {"run_s": totals.incl_s("engine.run", protocols=(proto,)),
                        **{layer: totals.layer_s(layer, protocols=(proto,))
                           for layer in spans.LAYERS}}
                for proto in plan.protocols}
            if span_dir is not None:
                tracer.write(span_dir)
        return result
    finally:
        shutil.rmtree(csv_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    try:
        program.import_package()
    except program.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    plan = workloads.WORKLOADS[args.workload](args.seed)
    span_dir = OUT_DIR / "spans" / args.workload if args.trace else None
    print(json.dumps(run_pass(plan, trace=args.trace, span_dir=span_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
