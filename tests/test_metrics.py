import csv
import math
import random

from hypothesis import given, strategies as st

from geams_sim.engine import Simulation
from geams_sim.metrics import (
    LOSS_REASONS,
    PACKET_COLUMNS,
    PacketOutcome,
    REGIONAL_COLUMNS,
    SUMMARY_COLUMNS,
    dead_node_count,
    delay_and_loss,
    energy_stats,
    packet_rows,
    regional_energy,
    regional_rows,
    summary_row,
    write_csv,
)
from geams_sim.scenario import ScenarioConfig
from geams_sim.topology import Position


def test_dead_node_count():
    residuals = [0.5, 0.4]
    assert dead_node_count(residuals) == 0
    residuals[1] = 0.0
    assert dead_node_count(residuals) == 1


def test_report_dead_count_ignores_gateways():
    # the source runs dry on its beacons; only sensors are counted dead
    sim = Simulation(ScenarioConfig(protocol="gpsr", n_sensors=30, gateway_energy_j=0.05,
                                    image_count=10, horizon_s=20.0))
    report = sim.run()
    assert sim.nodes[1].battery.residual == 0.0
    sensors = [n for n in sim.nodes.values() if not n.death_exempt]
    assert report.dead_nodes == sum(n.battery.residual == 0.0 for n in sensors)


def test_energy_stats_uniform():
    assert energy_stats([1.0, 1.0, 1.0]) == (1.0, 0.0)


def test_energy_stats_two_values():
    mean, var = energy_stats([1.0, 0.5])
    assert math.isclose(mean, 0.75, rel_tol=1e-15)
    assert math.isclose(var, 0.0625, rel_tol=1e-15)


def test_energy_stats_empty():
    assert energy_stats([]) == (0.0, 0.0)


def test_energy_stats_sum_left_to_right_on_every_python():
    """Python 3.12's sum() compensates float sums (it gives 1.0 here), which
    would move report figures between interpreters; the statistics add in
    plain left-to-right floats."""
    mean, var = energy_stats([1e16, 1.0, -1e16])
    assert (mean, var) == (0.0, ((1e16 ** 2 + 1.0) + 1e16 ** 2) / 3)


@given(values=st.lists(st.floats(0, 10), min_size=1, max_size=20), seed=st.integers())
def test_variance_invariant_under_relabeling(values, seed):
    shuffled = list(values)
    random.Random(seed).shuffle(shuffled)
    a = energy_stats(values)
    b = energy_stats(shuffled)
    assert math.isclose(a[0], b[0], rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(a[1], b[1], rel_tol=1e-9, abs_tol=1e-12)


FIELD_WIDTH = ScenarioConfig().field_width


def test_regional_left_edge_bin():
    rows = regional_energy([(Position(10, 90), 2.0)], FIELD_WIDTH)
    assert rows == [(10.0, 50.0, 2.0)]


def test_regional_clamps_outside_anchor_and_far_edge():
    rows = regional_energy([(Position(5, 90), 2.0), (Position(495, 90), 4.0)], FIELD_WIDTH)
    assert rows == [(10.0, 50.0, 2.0), (450.0, 490.0, 4.0)]


def test_regional_omits_empty_bins():
    rows = regional_energy([(Position(100, 90), 1.0)], FIELD_WIDTH)
    assert rows == [(90.0, 130.0, 1.0)]


def test_regional_field_narrower_than_one_bin_is_one_bin():
    sensors = [(Position(5, 90), 1.0), (Position(45, 90), 3.0)]
    assert regional_energy(sensors, 60.0) == [(10.0, 50.0, 2.0)]
    assert regional_energy(sensors, 59.5) == [(0.0, 59.5, 2.0)]


def test_regional_matches_brute_force():
    rng = random.Random(4)
    sensors = [(Position(rng.uniform(0, 500), rng.uniform(0, 200)), rng.uniform(0, 3))
               for _ in range(200)]
    rows = regional_energy(sensors, FIELD_WIDTH)
    for lo, hi, mean in rows:
        if lo == 10.0:
            members = [e for p, e in sensors if p.x < hi]
        elif hi == 490.0:
            members = [e for p, e in sensors if p.x >= lo]
        else:
            members = [e for p, e in sensors if lo <= p.x < hi]
        assert members
        assert math.isclose(mean, sum(members) / len(members), rel_tol=1e-12)


def test_delay_stats_absent_when_nothing_delivered():
    log = [PacketOutcome(0, "ttl_expired", None, 5)]
    mean, var, lost = delay_and_loss(log)
    assert mean is None and var is None
    assert lost["ttl_expired"] == 1


def test_delay_stats_hand_values():
    log = [
        PacketOutcome(0, "delivered", 0.02, 1),
        PacketOutcome(1, "delivered", 0.04, 1),
        PacketOutcome(2, "buffer_overflow", None, 0),
    ]
    mean, var, lost = delay_and_loss(log)
    assert math.isclose(mean, 0.03, rel_tol=1e-12)
    assert math.isclose(var, 1e-4, rel_tol=1e-12)
    assert lost["buffer_overflow"] == 1
    assert sum(lost.values()) + 2 == len(log)


def test_accounting_identity_on_real_run():
    sim = Simulation(ScenarioConfig(protocol="gpsr", n_sensors=50, seed=5))
    report = sim.run()
    assert report.delivered + report.lost_total == sim.emitted
    assert set(report.lost) == set(LOSS_REASONS)


def test_summary_row_shape_and_formatting():
    sim = Simulation(ScenarioConfig(protocol="geams", n_sensors=30, seed=1))
    report = sim.run()
    row = summary_row(report, "geams", 1, 30)
    assert len(row) == len(SUMMARY_COLUMNS)
    assert row[0] == "geams"
    assert all(isinstance(v, str) for v in row)
    if report.delay_mean is None:
        assert row[SUMMARY_COLUMNS.index("delay_mean")] == ""


def test_regional_and_packet_rows_shapes():
    sim = Simulation(ScenarioConfig(protocol="geams", n_sensors=30, seed=2))
    report = sim.run()
    for row in regional_rows(report, "geams", 2, 30):
        assert len(row) == len(REGIONAL_COLUMNS)
    rows = packet_rows(report, "geams", 2, 30)
    assert len(rows) == len(report.per_packet_log) == 300
    assert all(len(r) == len(PACKET_COLUMNS) for r in rows)


def test_write_csv_roundtrip(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [["1", "x"], ["2", ""]])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["a", "b"], ["1", "x"], ["2", ""]]
