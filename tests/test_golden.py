"""Golden outputs: SHA-256 of every CSV of fixed experiment matrices.

A change that means to leave behaviour alone must leave these digests alone.
Only a change that means to alter behaviour may update them, and it says
which numbers moved and why.
"""
import hashlib

import pytest

from geams_sim.experiment import ExperimentPlan, run_experiment
from geams_sim.scenario import ScenarioConfig

PLAN = ExperimentPlan(seeds=(1, 2, 3, 4, 5), node_counts=(30, 50, 80, 100, 300))

DIGESTS = {
    "summary.csv": "e25c564fe72ebfaa2988314eb488d1c598944c44496ac6f08ee041ac8290e717",
    "regional.csv": "b2e2c602f870bb262a0f2996992f066564ce7c62ef4ac8da35f185bf826ab8de",
    "comparison.csv": "cc48623f35c0dd8e4c2c21ded79beab9e06f51b1c5d6ed6bfe24dcfb15153cb2",
    "packets.csv": "47a3d813e4a52f897469d3a9951f8e9637f9dda34165bd6f5d3f012f41697594",
}

# Small plans that the default-energy plan does not reach: unpriced beacons,
# and sensors poor enough that beacon receptions kill them and send rounds
# down the exact path.
SMALL_PLANS = {
    "beacon_energy_off": (
        ScenarioConfig(beacon_energy=False, image_count=10, horizon_s=20.0),
        {
            "summary.csv": "ca33daf1c57de4bfb509c1f48846d5ab17700e4861142e8e6d3ad38f5d7c0140",
            "regional.csv": "fa28b5d974f01d2d95aadb7438367b6e9311105687f91aa3dcd0700b8e6289d1",
            "comparison.csv": "8a7fe54a397b31dec27f7651e9310245f4c3464151a0b730ddebb1f1b37259da",
            "packets.csv": "7a876309a66e6af5c5d62808ec54f04bb43f8756a3f5bb5d22261debb46221ef",
        },
    ),
    "low_energy": (
        ScenarioConfig(initial_energy_j=0.05, image_count=10, horizon_s=20.0),
        {
            "summary.csv": "b3317bf3817ed2c816aedd10dd8638499822324a7ada7602b028b554a15eb4fb",
            "regional.csv": "ce649a6819a4e79b00fa5077a5f8b31fe9bdfd2a7799c2d49b445ede2f6a95d1",
            "comparison.csv": "e81e4fd1b0c04dd7b52f94853240dc00a327de50e1db5e5ff29346130a617e13",
            "packets.csv": "70ab725dda82d45ce737e2af7edd9a2ea1d584dcec22cde7a660771a250c8ac0",
        },
    ),
}


def _digests(plan, out_dir, names):
    run_experiment(plan, out_dir, write_packets=True)
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names}


def test_golden_csv_digests(tmp_path):
    assert _digests(PLAN, tmp_path, DIGESTS) == DIGESTS


@pytest.mark.parametrize("name", sorted(SMALL_PLANS))
def test_small_plan_csv_digests(tmp_path, name):
    base, digests = SMALL_PLANS[name]
    plan = ExperimentPlan(seeds=(1, 2, 3), node_counts=(30, 50), base=base)
    assert _digests(plan, tmp_path, digests) == digests
