"""The benchmark's workloads: each maps the workload seed to one experiment
plan, run serially through `experiment.run_experiment`.

Every workload derives its placement seeds from the workload seed alone, so
the same seed always gives the same topologies and the same CSVs.  Seed 1
(the default of `run.py --seed`) reproduces the recorded baseline in
`baseline.json`.

Import `program` and call `program.import_package()` before this module, so
that `geams_sim` comes from this checkout.
"""
from __future__ import annotations

from geams_sim.experiment import ExperimentPlan
from geams_sim.scenario import ScenarioConfig


def dense(seed: int) -> ExperimentPlan:
    """n = 500, both protocols, one placement seed, the default scenario cut
    to four images (about five beacon rounds instead of thirty), so that a
    pass is short and a run holds fifteen or more.  The beacon plane (and the
    energy debits it makes) does nearly all the work, and the O(n^2)
    radio-range set-up is at its largest."""
    return ExperimentPlan(seeds=(seed,), node_counts=(500,),
                          base=ScenarioConfig(image_count=4))


def stream(seed: int) -> ExperimentPlan:
    """n = 100, both protocols, 60 small images at 10 per second: 10x the
    default's packet rate over 6 simulated seconds, with the default's beacon
    rate, so forwarding does most of the work.  Forwarding cost varies with
    the topology by about 10% a seed, so a pass averages four."""
    base = ScenarioConfig(packet_bits=200, image_bits=2000, image_interval_s=0.1,
                          image_count=60)
    return ExperimentPlan(seeds=tuple(range(4 * seed - 3, 4 * seed + 1)),
                          node_counts=(100,), base=base)


def matrix(seed: int) -> ExperimentPlan:
    """The CLI's default experiment sizes: n in {30, 50, 80, 100}, both
    protocols, five placement seeds.  Its sparse cells drive GEAMS walk-back
    and GPSR perimeter mode, and set-up and reporting repeat 40 times.  The
    cost of a sparse cell varies with its placement by 35-50%, so a pass
    averages five."""
    return ExperimentPlan(seeds=tuple(range(5 * seed - 4, 5 * seed + 1)))


WORKLOADS = {"dense": dense, "stream": stream, "matrix": matrix}
