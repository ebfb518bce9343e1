import builtins
import gc
import math
import weakref

import pytest

from conftest import PathSimulation, assert_energy_balanced, chain_positions, \
    equivalence_cells, first_hop, low_energy_cells, radio_neighbors
from geams_sim import geams, gpsr
from geams_sim.energy import rx_energy, tx_energy
from geams_sim.engine import EnergyLedger, Simulation, run_scenario
from geams_sim.metrics import float_sum
from geams_sim.scenario import PROTOCOLS, ScenarioConfig
from geams_sim.topology import SINK_ID, SOURCE_ID, Position, Topology, generate_topology, \
    range_neighbor_lists

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


# left to right these add to 0.0; sum() from Python 3.12 on gives 2.0
CANCELLING = [1.0, 1e100, 1.0, -1e100]


def test_energy_totals_add_left_to_right(monkeypatch):
    """The ledger total adds in CATEGORIES order and the drawdown in
    ascending node id order, left to right, as on every supported Python.
    Neither calls sum(), which compensates only from Python 3.12 on, so
    the cancelling terms alone would not show it on 3.10 or 3.11."""

    def no_sum(*args, **kwargs):
        raise AssertionError("sum() called")

    def totals(f):
        with monkeypatch.context() as m:
            m.setattr(builtins, "sum", no_sum)
            return f()

    ledger = EnergyLedger()
    for category, amount in zip(EnergyLedger.CATEGORIES, CANCELLING):
        ledger.add(category, amount)
    assert totals(lambda: ledger.total) == 0.0
    rows = tuple((i, Position(10.0 + 40.0 * i, 90.0)) for i in (3, 2, 1, 0))
    sim = Simulation(ScenarioConfig(n_sensors=2, sink_x=10.0, source_x=50.0), Topology(rows))
    assert list(sim.nodes) == [0, 1, 2, 3]
    for node, drawn in zip(sim.nodes.values(), CANCELLING):
        node.battery.initial, node.battery.residual = drawn, 0.0
    assert totals(sim.energy_drawdown) == (0.0, 0.0)
    sim = Simulation(ScenarioConfig(n_sensors=20, image_count=3, initial_energy_j=0.01))
    sim.run()
    assert totals(sim.energy_drawdown) == (
        float_sum(sim.nodes[i].battery.initial - sim.nodes[i].battery.residual
                  for i in sorted(sim.nodes)),
        float_sum(sim.ledger.totals[c] for c in EnergyLedger.CATEGORIES))


@pytest.mark.parametrize("length, overrides, seconds", [
    (1.0, {}, 1064 / 250_000),
    (25.0, {}, 1064 / 50_000),
    (64.0, {}, 1064 / 31_250),
    (25.0, dict(packet_bits=936, image_bits=936), 0.02),
    (1.0, dict(packet_bits=9_936, image_bits=9_936), 0.04),
    (25.0, dict(base_rate_bps=125_000.0), 1064 / 25_000),
], ids=["rate at 1 m", "rate at 25 m", "rate at 64 m", "1000 bits over 25 m",
        "10000 bits over 1 m", "half the base rate at 25 m"])
def test_a_hop_takes_its_frame_at_the_links_rate(length, overrides, seconds):
    """The link rate is base_rate_bps / sqrt(length), 250 kb/s at 1 m, and a
    hop takes its frame's bits at that rate: the source's first frame, on
    air at t = 0, completes at exactly that time."""
    time, bits = first_hop(length, **overrides)
    assert bits == ScenarioConfig(**overrides).data_packet_bits
    assert time == seconds


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
    sim = PathSimulation(ScenarioConfig(protocol=protocol))
    report = sim.run()
    assert sorted(sim.paths) == list(range(sim.emitted))
    for p in report.per_packet_log:
        path = sim.paths[p.seq]
        assert path[0] == SOURCE_ID
        assert p.hops == len(path) - 1
        if p.outcome == "delivered":
            assert path[-1] == SINK_ID


class _CheckedQueue(list):
    """A node queue that checks its length at every enqueue, so it sees
    every queue length the run reaches."""

    def __init__(self, capacity):
        super().__init__()
        self.capacity = capacity
        self.enqueued = 0

    def append(self, pk):
        super().append(pk)
        assert len(self) <= self.capacity
        self.enqueued += 1


class _QueueCheckingSimulation(Simulation):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for node in self.nodes.values():
            node.queue = _CheckedQueue(self.cfg.queue_capacity)


def test_queue_never_exceeds_capacity():
    cfg = ScenarioConfig(protocol="geams", n_sensors=50, seed=3)
    sim = _QueueCheckingSimulation(cfg)
    sim.run()
    assert sum(n.queue.enqueued for n in sim.nodes.values()) > 0


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


@pytest.mark.parametrize("protocol, radio", [
    (protocol, radio) for radio in ({}, dict(e_elec_j_per_bit=1e-5, eps_amp_j_per_bit_m2=4e-9))
    for protocol in PROTOCOLS], ids=[*PROTOCOLS, *(f"{p}, other radio" for p in PROTOCOLS)])
def test_relay_with_exactly_its_frame_cost_delivers_then_dies(topo_builder, protocol, radio):
    topo = topo_builder({0: Position(130, 90), 1: Position(10, 90), 2: Position(70, 90)})
    cfg = ScenarioConfig(protocol=protocol, n_sensors=1, beacon_energy=False,
                         image_bits=1_000, image_count=1, **radio)
    bits = cfg.data_packet_bits
    rx = rx_energy(bits, cfg.e_elec_j_per_bit)
    cost = tx_energy(bits, 60.0, cfg.e_elec_j_per_bit, cfg.eps_amp_j_per_bit_m2)
    energy = rx + cost
    assert energy - rx == cost  # relay 2 holds exactly the forward's cost
    sim = PathSimulation(cfg.replace(initial_energy_j=energy), topo)
    report = sim.run()
    assert report.delivered == 1
    assert sim.paths[0] == [1, 2, 0]
    relay = sim.nodes[2]
    assert relay.battery.residual == 0.0 and not relay.alive
    assert sim.ledger.totals["death_forfeit"] == 0.0


def test_geams_sensor_that_cannot_fund_its_void_announcement_dies(topo_builder):
    # the sink is out of reach.  The packet walks 1 -> 2 (a dead end, which
    # announces its void) -> 1 (now void too) -> 3, whose only neighbour is
    # the flagged source: after hearing the source's announcement, 3 cannot
    # fund its own, so it dies and the packet is lost with it
    topo = topo_builder({0: Position(390, 90), 1: Position(60, 90), 2: Position(110, 90),
                         3: Position(10, 90)})
    cfg = ScenarioConfig(protocol="geams", n_sensors=2, void_announcement_bits=245_000,
                         image_bits=1_000, image_count=1)
    announce = tx_energy(cfg.void_announcement_bits, cfg.radio_range,
                         cfg.e_elec_j_per_bit, cfg.eps_amp_j_per_bit_m2)
    hear = rx_energy(cfg.void_announcement_bits, cfg.e_elec_j_per_bit)
    assert cfg.initial_energy_j - hear < announce < cfg.initial_energy_j - 0.01
    sim = PathSimulation(cfg, topo)
    report = sim.run()
    assert report.lost == {**dict.fromkeys(report.lost, 0), "sender_died": 1}
    assert sim.paths[0] == [1, 2, 1, 3]
    stuck = sim.nodes[3]
    assert not stuck.alive and stuck.battery.residual == 0.0
    assert not stuck.beacon_state.void_flagged  # its announcement never went on air
    assert sim.nodes[1].beacon_state.void_flagged
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


def test_simulation_checks_a_topology_placed_for_another_scenario():
    cfg = ScenarioConfig(n_sensors=30, seed=2)
    topo = generate_topology(cfg)
    Simulation(cfg.replace(protocol="gpsr"), topo)  # the same field fits
    with pytest.raises(ValueError, match=r"topology: node 0 at \(490.0, 90.0\) lies outside"):
        Simulation(cfg.replace(field_width=300.0, sink_x=290.0), topo)


def test_a_run_takes_its_radio_range_from_the_scenario():
    cfg = ScenarioConfig(n_sensors=60, seed=3)
    topo = generate_topology(cfg)
    short = cfg.replace(radio_range=40.0)
    sim = Simulation(short, topo)
    assert {u: n.table.range_ids for u, n in sim.nodes.items()} == \
        {u: sorted(radio_neighbors(topo, u, 40.0)) for u, _ in topo.nodes}
    assert sim.run() != run_scenario(cfg, topo)
    assert run_scenario(short, topo) == run_scenario(short)


@pytest.mark.parametrize("n, seed", [(30, s) for s in range(1, 6)] + [(100, 1)])
def test_runs_sharing_a_placement_equal_runs_placing_their_own(n, seed):
    """Both protocols on one placement, as an experiment runs them: each run
    reports what a run that places its own topology reports, and every run
    reads the one set of range lists the first built.  Sparse n = 30 cells
    walk back, enter perimeter mode and lose nodes."""
    shared = generate_topology(ScenarioConfig(n_sensors=n, seed=seed))
    r = ScenarioConfig().radio_range
    lists = None
    for protocol in PROTOCOLS:
        cfg = ScenarioConfig(protocol=protocol, n_sensors=n, seed=seed)
        sim = Simulation(cfg, shared)
        assert sim.run() == run_scenario(cfg)
        if lists is None:
            lists = shared.range_lists(r)
        assert shared.range_lists(r) is lists
        assert all(node.table.range_ids is lists[u] for u, node in sim.nodes.items())
    assert lists == range_neighbor_lists(shared, r)
    # another radio range on the same placement gets lists of its own
    short = Simulation(cfg.replace(radio_range=r / 2), shared)
    own = shared.range_lists(r / 2)
    assert own is not lists and own == range_neighbor_lists(shared, r / 2) != lists
    assert all(node.table.range_ids is own[u] for u, node in short.nodes.items())
    assert shared.range_lists(r) is lists


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_table_steers_to_node_0s_row(protocol):
    positions = chain_positions(spacing=50.0)
    cfg = ScenarioConfig(protocol=protocol, n_sensors=7, image_count=5)
    sink = positions[SINK_ID]
    assert sink != Position(cfg.sink_x, cfg.sink_y)
    sim = PathSimulation(cfg, Topology(nodes=tuple(positions.items())))
    assert all(n.table.sink_position == sink for n in sim.nodes.values())
    report = sim.run()
    assert report.delivered == sim.emitted > 0
    assert sim.paths[0] == [1, 2, 3, 4, 5, 6, 7, 8, 0]


def test_chain_delay_is_pure_serialization(topo_builder):
    topo = topo_builder(chain_positions())
    cfg = ScenarioConfig(protocol="gpsr", n_sensors=7, initial_energy_j=20.0)
    sim = PathSimulation(cfg, topo)
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
    sim = PathSimulation(cfg, topo)
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
    sim = PathSimulation(cfg)
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


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_an_underfunded_gateway_goes_on_with_its_queue(protocol):
    """A gateway that cannot fund a frame loses it and lives on, so it goes
    on to its next frame rather than leaving its queue idle: every frame
    is lost as the source's 0.01 J runs out, long before the horizon."""
    cfg = ScenarioConfig(protocol=protocol, gateway_energy_j=0.01, image_count=3,
                         horizon_s=30.0)
    sim = Simulation(cfg)
    report = sim.run()
    source = sim.nodes[SOURCE_ID]
    assert source.alive and source.queue == []
    assert sim.now < 5.0
    assert report.lost["sender_died"] == sim.emitted == 30


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


# Kept forwarding choices against fresh ones, and which arrival path runs.
# That kept choices and in-place arrivals leave every float as the original
# engine computed it is checked by test_differential.py.

class ArrivalCounter(Simulation):
    """Counts the arrivals handled inside their tx-complete event and the
    ones run as events of their own."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.in_place = self.scheduled = 0
        self._in_tx_complete = False

    def _do_tx_complete(self, *args):
        self._in_tx_complete = True
        super()._do_tx_complete(*args)
        self._in_tx_complete = False

    def _do_arrival(self, *args):
        if self._in_tx_complete:
            self.in_place += 1
        else:
            self.scheduled += 1
        super()._do_arrival(*args)


class KeptSetChecker(Simulation):
    """Checks, after every GEAMS route, that the node's kept set (the one
    the route used, rescored) equals a set built afresh from its table, and
    counts the routes that used a set kept from an earlier one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checks = self.reused = 0

    def _route_geams(self, node, pk):
        before = self._kept.get(node.id)
        result = super()._route_geams(node, pk)
        kept = self._kept.get(node.id)
        if kept is not None:  # None: a void announcement dropped it
            cfg = self.cfg
            bits = cfg.data_packet_bits
            fresh = geams.build_best_neighbor_set(
                node.table, self.now, cfg.neighbor_expiry_s, bits, bits * cfg.e_elec_j_per_bit)
            assert (kept.ids, kept.scores) == (fresh.ids, fresh.scores), \
                (self.now, node.id, kept, fresh)
            self.checks += 1
            self.reused += kept is before
        return result


class KeptGreedyChecker(Simulation):
    """Checks, at every GPSR route, that the node's kept greedy choice
    equals a fresh greedy_next_hop and carries its record's last beacon
    time, and counts the routes that reused a choice kept from an earlier
    one and the rebuilds made because the kept choice had expired, not
    because a broadcast dropped it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checks = self.reused = self.expired = 0

    def _route(self, node, pk):
        before = self._kept.get(node.id)
        # the record is updated in place: keep what it held
        before = None if before is None else (before.greedy, before.heard)
        result = super()._route(node, pk)
        kept = self._kept[node.id]
        hop, heard = kept.greedy, kept.heard
        t = node.table
        assert hop == gpsr.greedy_next_hop(t, self.now, self.expiry_s), (self.now, node.id)
        assert heard == (math.inf if hop is None else t.records[hop].state.last_beacon_time)
        self.checks += 1
        # an expired choice is never made again
        reused = before == (hop, heard)
        self.reused += reused
        self.expired += before is not None and not reused
        return result


class KeptPlanarChecker(Simulation):
    """Checks, after every GPSR route that took its node's Gabriel set
    (every route in perimeter mode: the packet is in it after the route, or
    was dropped as perimeter_exhausted), that the table holds a record of
    every range neighbour, in ascending id order, that the kept set and its
    oldest beacon time equal a fresh planar_neighbors, and that the hop was
    taken from the set.  It counts the routes that reused a set kept from
    an earlier one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checks = self.reused = 0

    def _route(self, node, pk):
        if self.cfg.protocol != "gpsr":
            return super()._route(node, pk)
        before = self._kept.get(node.id)
        before = None if before is None else (before.gabriel, before.oldest)
        result = super()._route(node, pk)
        if pk.perimeter is None and result[1] != "perimeter_exhausted":
            return result  # a greedy hop takes no Gabriel set
        kept = self._kept[node.id]
        t = node.table
        assert list(t.records) == t.range_ids
        assert (kept.gabriel, kept.oldest) == gpsr.planar_neighbors(
            t, self.now, self.expiry_s), (self.now, node.id)
        assert result[0] is None or result[0] in [r.id for r in kept.gabriel]
        self.checks += 1
        # a rebuild always moves the oldest beacon time on
        self.reused += before == (kept.gabriel, kept.oldest)
        return result


def test_arrivals_run_in_place_and_as_events_of_their_own():
    """Both arrival paths run in the low-energy cells, which the
    differential test compares: frames also end at the instant of another
    event."""
    in_place = scheduled = 0
    cells, gateways = low_energy_cells()
    for cfg in cells + gateways:
        sim = ArrivalCounter(cfg)
        sim.run()
        in_place += sim.in_place
        scheduled += sim.scheduled
    assert in_place > 0 and scheduled > 0


def test_every_kept_set_equals_a_fresh_build():
    checks = reused = 0
    for cfg in equivalence_cells():
        if cfg.protocol == "geams":
            sim = KeptSetChecker(cfg)
            sim.run()
            checks += sim.checks
            reused += sim.reused
    assert 0 < reused < checks


def test_every_kept_greedy_choice_equals_a_fresh_one():
    """A kept choice expires only when its hop has fallen silent before a
    broadcast dropped it, which only the low-energy cell at 10 small images
    a second shows (twice)."""
    checks = reused = expired = 0
    for cfg in equivalence_cells():
        if cfg.protocol == "gpsr":
            sim = KeptGreedyChecker(cfg)
            sim.run()
            checks += sim.checks
            reused += sim.reused
            expired += sim.expired
    assert 0 < reused < checks
    assert expired > 0


def test_every_kept_gabriel_set_equals_a_fresh_one():
    """Tables are filled sink-ward first and made whole only when a node
    walks back or enters perimeter mode, and Gabriel sets are kept between
    broadcasts; every kept set a route takes equals a fresh one
    (KeptPlanarChecker).  The cells' sparse n = 30 cells, seeds 1-5, walk
    back (GEAMS) and enter perimeter mode (GPSR), so some tables are
    completed, some stay sink-ward-only, and kept sets are reused."""
    completed = sinkward_only = checks = reused = 0
    for cfg in equivalence_cells():
        sim = KeptPlanarChecker(cfg)
        sim.run()
        tables = [n.table for n in sim.nodes.values()]
        # a table lets go of the run's lookup once it has made every record
        completed += sum(t.senders is None for t in tables)
        sinkward_only += sum(t.senders is not None and bool(t.records) for t in tables)
        checks += sim.checks
        reused += sim.reused
    assert completed > 0 and sinkward_only > 0
    assert 0 < reused < checks


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_finished_run_frees_its_tables_without_gc(protocol):
    """A run's neighbour tables, whole, sink-ward-only or never read, the
    lookup they make their records from and the Gabriel sets kept from them
    refer back to no node or engine, so they are freed with the Simulation
    and no gc pass is needed.  Sparse n = 30 cells walk back (GEAMS) and
    enter perimeter mode (GPSR), so tables get completed: a completed table
    has let go of the lookup."""
    gc.collect()
    gc.disable()
    try:
        refs, whole, sinkward_only, unread = [], 0, 0, 0
        for seed in (1, 2, 3, 4, 5):
            sim = Simulation(ScenarioConfig(protocol=protocol, n_sensors=30, seed=seed))
            sim.run()
            tables = [n.table for n in sim.nodes.values()]
            whole += sum(t.senders is None for t in tables)
            sinkward_only += sum(t.senders is not None and bool(t.records) for t in tables)
            unread += sum(not t.records for t in tables)
            refs += [weakref.ref(t) for t in tables]
            del sim, tables
        assert whole > 0 and sinkward_only > 0 and unread > 0
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def _best_sets_alive():
    gc.collect()
    return sum(isinstance(o, geams.BestNeighborSet) for o in gc.get_objects())


class SetCounter(Simulation):
    """Counts the best-neighbour sets this run holds alive just before and
    just after each beacon round: those alive in the process, less those
    alive when the run was built."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.before, self.after = [], []
        self.others = _best_sets_alive()

    def _do_beacons(self, time):
        self.before.append(_best_sets_alive() - self.others)
        super()._do_beacons(time)
        self.after.append(_best_sets_alive() - self.others)


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(protocol="geams"),
    ScenarioConfig(protocol="geams", n_sensors=300, image_count=4),
], ids=["default", "n300"])
def test_a_beacon_round_frees_every_dropped_best_neighbour_set(cfg):
    """A beacon round drops every kept best-neighbour set (_on_air), and no
    source state refers to a set, so none is left alive after the round."""
    sim = SetCounter(cfg)
    sim.run()
    assert max(sim.before) > 0
    assert sim.after == [0] * len(sim.after)


class EventLog(ArrivalCounter):
    """Logs beacon rounds and arrivals in the order they run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def _do_beacons(self, time):
        self.log.append(("beacons", time))
        super()._do_beacons(time)

    def _do_arrival(self, time, *args):
        self.log.append(("arrival", time))
        super()._do_arrival(time, *args)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_an_arrival_due_with_a_beacon_round_runs_after_it(protocol):
    """A 1 m hop at half the frame's bits per second takes exactly 2.0 s, so
    the frame arrives at the instant of the t = 2 round, which the t = 1
    round scheduled after the frame's tx-complete event.  The round runs
    first, as it would if the arrival were an event of its own; the
    delivery then completes the traffic and ends the run."""
    cfg = ScenarioConfig(protocol=protocol, n_sensors=0, sink_x=11.0, image_bits=1_000,
                         image_count=1, base_rate_bps=1064 / 2)
    assert cfg.data_packet_bits == 1064
    sim = EventLog(cfg)
    report = sim.run()
    assert report.delivered == 1 and report.per_packet_log[0].delay == 2.0
    assert sim.log == [("beacons", 0.0), ("beacons", 1.0), ("beacons", 2.0),
                       ("arrival", 2.0)]
    assert (sim.in_place, sim.scheduled) == (0, 1)
    assert sim.nodes[SINK_ID].beacon_state.last_beacon_time == 2.0
    # a hop of 1.5 s arrives with no other event due: in place
    sim = EventLog(cfg.replace(base_rate_bps=1064 / 1.5))
    sim.run()
    assert sim.log == [("beacons", 0.0), ("beacons", 1.0), ("arrival", 1.5)]
    assert (sim.in_place, sim.scheduled) == (1, 0)
