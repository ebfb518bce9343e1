import gc
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ReplaySimulation, assert_energy_balanced, chain_positions, \
    radio_neighbors
from geams_sim.engine import Simulation, run_scenario
from geams_sim.scenario import PROTOCOLS, ScenarioConfig
from geams_sim.topology import SINK_ID, SOURCE_ID, Position, Topology, generate_topology

TWO_NODE = dict(n_sensors=0, sink_x=35.0)  # sink 25 m east of the source


def _delays(report):
    return [p.delay for p in report.per_packet_log if p.outcome == "delivered"]


@pytest.mark.parametrize("protocol", ["geams", "gpsr"])
def test_two_node_delivers_everything(protocol):
    sim = Simulation(ScenarioConfig(protocol=protocol, **TWO_NODE))
    report = sim.run()
    assert report.delivered == 300
    assert report.lost_total == 0
    # single 25 m hop: 1064 bits at 50,000 b/s
    hop = 1064 / 50_000
    assert math.isclose(_delays(report)[0], hop, rel_tol=1e-12)
    # packets of one image serialize back to back from the source queue
    assert math.isclose(_delays(report)[9], 10 * hop, rel_tol=1e-12)


def test_two_node_energy_ledger_matches_hand_values():
    sim = Simulation(ScenarioConfig(protocol="geams", **TWO_NODE))
    sim.run()
    per_tx = 1064 * (5e-6 + 1e-9 * 625)   # 5.985 mJ for a 25 m hop
    per_rx = 1064 * 5e-6                  # 5.32 mJ
    assert math.isclose(sim.ledger.totals["data_tx"], 300 * per_tx, rel_tol=1e-9)
    assert math.isclose(sim.ledger.totals["data_rx"], 300 * per_rx, rel_tol=1e-9)
    drawn, ledger_total = sim.energy_drawdown()
    assert_energy_balanced(drawn, ledger_total)


def test_disconnected_source_drops_all():
    geams = run_scenario(ScenarioConfig(protocol="geams", n_sensors=0))
    assert geams.delivered == 0
    assert geams.lost["void_unresolvable"] == 300
    gpsr = run_scenario(ScenarioConfig(protocol="gpsr", n_sensors=0))
    assert gpsr.delivered == 0
    assert gpsr.lost["perimeter_exhausted"] == 300


def test_identical_runs_identical_reports():
    cfg = ScenarioConfig(protocol="geams", n_sensors=50, seed=1)
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    assert a.per_packet_log == b.per_packet_log
    assert (a.dead_nodes, a.mean_energy, a.energy_variance) == \
        (b.dead_nodes, b.mean_energy, b.energy_variance)
    assert a.regional_mean_energy == b.regional_mean_energy


def test_image_split_rounds_up():
    cfg = ScenarioConfig(protocol="geams", image_bits=10_001, queue_capacity=11,
                         **TWO_NODE)
    sim = Simulation(cfg)
    report = sim.run()
    assert sim.emitted == 30 * 11
    assert report.delivered == 330


def test_source_buffer_overflow_is_drop_tail():
    cfg = ScenarioConfig(protocol="geams", queue_capacity=5, **TWO_NODE)
    report = run_scenario(cfg)
    # each 10-packet image hits an empty 5-slot queue: half survive
    assert report.delivered == 150
    assert report.lost["buffer_overflow"] == 150


def test_ttl_expiry_on_relay(topo_builder):
    topo = topo_builder({
        0: Position(130, 90),
        1: Position(10, 90),
        2: Position(70, 90),
    })
    cfg = ScenarioConfig(protocol="geams", n_sensors=1, ttl=1, initial_energy_j=20.0)
    report = Simulation(cfg, topo).run()
    assert report.delivered == 0
    assert report.lost["ttl_expired"] == 300


@pytest.mark.parametrize("ttl, outcome", [(2, "delivered"), (1, "ttl_expired")])
def test_ttl_boundary_on_relay_chain(topo_builder, ttl, outcome):
    # source -> relay -> sink: hop `ttl` may reach the sink but not a relay
    topo = topo_builder({
        0: Position(130, 90),
        1: Position(10, 90),
        2: Position(70, 90),
    })
    cfg = ScenarioConfig(protocol="geams", n_sensors=1, ttl=ttl, initial_energy_j=20.0)
    report = Simulation(cfg, topo).run()
    assert {p.outcome for p in report.per_packet_log} == {outcome}
    assert len(report.per_packet_log) == 300


@pytest.mark.parametrize("protocol", ["geams", "gpsr"])
def test_every_packet_has_a_path_that_counts_its_hops(protocol):
    sim = Simulation(ScenarioConfig(protocol=protocol))
    report = sim.run()
    assert sorted(sim.paths) == list(range(sim.emitted))
    for p in report.per_packet_log:
        path = sim.paths[p.seq]
        assert path[0] == SOURCE_ID
        assert p.hops == len(path) - 1
        if p.outcome == "delivered":
            assert path[-1] == SINK_ID


class _QueueCheckingSimulation(Simulation):
    """Every enqueue is followed by a _try_start on that node, so checking
    the queue there sees every queue length the run reaches."""

    starts = 0

    def _try_start(self, node, time):
        assert len(node.queue) <= self.cfg.queue_capacity
        self.starts += 1
        super()._try_start(node, time)


def test_queue_never_exceeds_capacity():
    cfg = ScenarioConfig(protocol="geams", n_sensors=50, seed=3)
    sim = _QueueCheckingSimulation(cfg)
    sim.run()
    assert sim.starts > 0


@pytest.mark.parametrize("protocol", ["geams", "gpsr"])
def test_starved_network_still_balances_books(protocol):
    cfg = ScenarioConfig(protocol=protocol, n_sensors=80, seed=1,
                         initial_energy_j=0.05)
    sim = Simulation(cfg)
    report = sim.run()
    assert report.dead_nodes > 0
    assert report.delivered + report.lost_total == sim.emitted
    drawn, ledger_total = sim.energy_drawdown()
    assert_energy_balanced(drawn, ledger_total)


def test_underfunded_sender_forfeits_and_dies(topo_builder):
    topo = topo_builder({
        0: Position(130, 90),
        1: Position(10, 90),
        2: Position(70, 90),
    })
    # 0.012 J covers one reception (5.32 mJ) but not the 9.15 mJ forward
    cfg = ScenarioConfig(protocol="geams", n_sensors=1, initial_energy_j=0.012,
                         beacon_energy=False)
    sim = Simulation(cfg, topo)
    report = sim.run()
    assert report.dead_nodes == 1
    assert report.delivered == 0
    assert report.lost["sender_died"] >= 1
    assert sim.ledger.totals["death_forfeit"] > 0
    drawn, ledger_total = sim.energy_drawdown()
    assert_energy_balanced(drawn, ledger_total)


@pytest.mark.parametrize("overrides,position,message", [
    ({}, Position(100.4, 90),
     "topology: node 3 is 0.4.* m from node 2, closer than min_separation"),
    ({}, Position(math.nan, 90), "topology: node 3 has a non-finite coordinate"),
    ({"field_width": 300.0, "sink_x": 290.0}, Position(350.0, 90.0),
     r"topology: node 3 at \(350.0, 90.0\) lies outside the 300.0 x 200.0 field"),
    ({"min_separation": 5.0}, Position(103.0, 90.0),
     "topology: node 3 is 3.0 m from node 2, closer than min_separation 5.0"),
], ids=["0.4 m apart", "nan", "outside field_width", "inside min_separation"])
def test_simulation_rejects_a_bad_hand_built_topology(topo_builder, overrides, position,
                                                      message):
    # checked against the scenario's field and min_separation
    topo = topo_builder({0: Position(290, 90), 1: Position(10, 90), 2: Position(100, 90),
                         3: position})
    with pytest.raises(ValueError, match=message):
        Simulation(ScenarioConfig(n_sensors=2, **overrides), topo)


def test_a_run_takes_its_radio_range_from_the_scenario():
    cfg = ScenarioConfig(n_sensors=60, seed=3)
    topo = generate_topology(cfg)
    short = cfg.replace(radio_range=40.0)
    sim = Simulation(short, topo)
    assert {u: [v.id for v in vs] for u, vs in sim.range_neighbors.items()} == \
        {u: sorted(radio_neighbors(topo, u, 40.0)) for u, _ in topo.nodes}
    assert sim.run() != run_scenario(cfg, topo)
    assert run_scenario(short, topo) == run_scenario(short)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_table_steers_to_node_0s_row(protocol):
    positions = chain_positions(spacing=50.0)
    cfg = ScenarioConfig(protocol=protocol, n_sensors=7, image_count=5)
    sink = positions[SINK_ID]
    assert sink != Position(cfg.sink_x, cfg.sink_y)
    sim = Simulation(cfg, Topology(nodes=tuple(positions.items())))
    assert all(n.table.sink_position == sink for n in sim.nodes.values())
    report = sim.run()
    assert report.delivered == sim.emitted > 0
    assert sim.paths[0] == [1, 2, 3, 4, 5, 6, 7, 8, 0]


def test_chain_delay_is_pure_serialization(topo_builder):
    topo = topo_builder(chain_positions())
    cfg = ScenarioConfig(protocol="gpsr", n_sensors=7, initial_energy_j=20.0)
    sim = Simulation(cfg, topo)
    report = sim.run()
    assert report.delivered == 300
    hop = 1064 * math.sqrt(60) / 250_000
    assert math.isclose(_delays(report)[0], 8 * hop, rel_tol=1e-12)
    assert sim.paths[0] == [1, 2, 3, 4, 5, 6, 7, 8, 0]


def test_walking_back_steps_back_twice_then_resumes(topo_builder):
    # nodes 2 and 3 form a cul-de-sac near the source: the first packet walks
    # into it, backs out through both dead ends, and finishes over the
    # southern chain; the void flags steer every later packet straight south
    topo = topo_builder({
        0: Position(390, 100),
        1: Position(10, 100),
        2: Position(80, 100),
        3: Position(40, 160),
        4: Position(20, 30),
        5: Position(95, 20),
        6: Position(170, 25),
        7: Position(242, 55),
        8: Position(315, 80),
    })
    cfg = ScenarioConfig(protocol="geams", n_sensors=7, initial_energy_j=20.0)
    sim = Simulation(cfg, topo)
    report = sim.run()
    assert report.delivered == 300
    assert report.lost_total == 0
    p0 = sim.paths[0]
    assert p0[0] == 1 and p0[-1] == 0
    assert 2 in p0 and 3 in p0            # wandered into the cul-de-sac
    assert len(p0) > len(set(p0))         # walking back revisits a node
    assert p0[-6:] == [4, 5, 6, 7, 8, 0]  # resumed greedy over the south chain
    assert sim.paths[299] == [1, 4, 5, 6, 7, 8, 0]


def test_geams_spreads_load_across_first_hops():
    cfg = ScenarioConfig(protocol="geams", n_sensors=100, seed=1)
    sim = Simulation(cfg)
    sim.run()
    first_hops = {path[1] for path in sim.paths.values() if len(path) > 1}
    assert len(first_hops) > 1


def test_gateways_never_die():
    cfg = ScenarioConfig(protocol="gpsr", n_sensors=80, seed=2,
                         initial_energy_j=0.05)
    sim = Simulation(cfg)
    sim.run()
    assert sim.nodes[SINK_ID].alive
    assert sim.nodes[SOURCE_ID].alive


def test_report_statistics_recomputable():
    cfg = ScenarioConfig(protocol="geams", n_sensors=50, seed=2)
    sim = Simulation(cfg)
    report = sim.run()
    residuals = [sim.nodes[i].battery.residual for i in sim.topology.sensor_ids]
    mean = sum(residuals) / len(residuals)
    var = sum((v - mean) ** 2 for v in residuals) / len(residuals)
    assert math.isclose(report.mean_energy, mean, rel_tol=1e-12)
    assert math.isclose(report.energy_variance, var, rel_tol=1e-12, abs_tol=1e-15)
    delays = _delays(report)
    assert report.delivered == len(delays)
    if delays:
        assert math.isclose(report.delay_mean, sum(delays) / len(delays), rel_tol=1e-12)
    assert report.lost_total == sum(
        1 for p in report.per_packet_log if p.outcome != "delivered")


@pytest.mark.parametrize("horizon_s", [120.0, 2.5], ids=["complete", "horizon"])
@pytest.mark.parametrize("protocol", ["geams", "gpsr"])
def test_finished_simulation_is_freed_without_gc(protocol, horizon_s):
    """A run leaves no reference cycle through self, so a finished
    Simulation is freed as soon as it is dropped, not at a later gc pass
    (a sweep of many runs would otherwise hold every finished one).  The
    horizon case stops with events still pending."""
    cfg = ScenarioConfig(protocol=protocol, image_count=6, horizon_s=horizon_s)
    gc.collect()
    gc.disable()
    try:
        sim = Simulation(cfg)
        report = sim.run()
        assert sim.emissions_done == (horizon_s == 120.0)
        if sim.emissions_done:
            assert len(report.per_packet_log) == sim.emitted == 60
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


@settings(max_examples=60, deadline=None)
@given(
    protocol=st.sampled_from(PROTOCOLS),
    n=st.integers(0, 30),
    seed=st.integers(1, 10_000),
    horizon_s=st.floats(0.05, 12.0),
    image_count=st.integers(1, 6),
    initial_energy_j=st.sampled_from([0.0, 0.002, 0.01, 0.03, 0.1, 0.5]),
    gateway_energy_j=st.sampled_from([0.0, 0.002, 1e6]),
    beacon_energy=st.booleans(),
    radio_range=st.sampled_from([40.0, 80.0, 150.0]),
)
def test_small_random_scenarios_end_conserve_packets_and_balance(
        protocol, n, seed, horizon_s, image_count, initial_energy_j, gateway_energy_j,
        beacon_energy, radio_range):
    """Any small scenario runs to an end, accounts for every packet it
    emitted and books every joule drawn.  The replay also checks every
    routing node's table against its per-receiver oracle, underfunded
    gateways that announce a void again included."""
    cfg = ScenarioConfig(protocol=protocol, n_sensors=n, seed=seed, horizon_s=horizon_s,
                         image_count=image_count, initial_energy_j=initial_energy_j,
                         gateway_energy_j=gateway_energy_j, beacon_energy=beacon_energy,
                         radio_range=radio_range)
    sim = ReplaySimulation(cfg)
    report = sim.run()
    assert sim.now <= horizon_s
    log = report.per_packet_log
    assert len({p.seq for p in log}) == len(log)
    in_flight = sim.emitted - report.delivered - report.lost_total
    assert in_flight >= 0
    assert report.delivered + report.lost_total + in_flight == sim.emitted
    if sim.emissions_done and len(log) == sim.emitted:
        assert in_flight == 0
    assert_energy_balanced(*sim.energy_drawdown())
