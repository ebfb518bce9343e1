"""Golden outputs: SHA-256 of every CSV of a fixed experiment matrix.

A change that means to leave behaviour alone must leave these digests alone.
Only a change that means to alter behaviour may update them, and it says
which numbers moved and why.
"""
import hashlib

from geams_sim.experiment import ExperimentPlan, run_experiment

PLAN = ExperimentPlan(seeds=(1, 2, 3, 4, 5), node_counts=(30, 50, 80, 100, 300))

DIGESTS = {
    "summary.csv": "e25c564fe72ebfaa2988314eb488d1c598944c44496ac6f08ee041ac8290e717",
    "regional.csv": "b2e2c602f870bb262a0f2996992f066564ce7c62ef4ac8da35f185bf826ab8de",
    "comparison.csv": "cc48623f35c0dd8e4c2c21ded79beab9e06f51b1c5d6ed6bfe24dcfb15153cb2",
    "packets.csv": "47a3d813e4a52f897469d3a9951f8e9637f9dda34165bd6f5d3f012f41697594",
}


def test_golden_csv_digests(tmp_path):
    run_experiment(PLAN, tmp_path, write_packets=True)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in DIGESTS}
    assert got == DIGESTS
