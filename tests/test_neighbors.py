import math

import pytest

from conftest import ReplaySimulation, assert_energy_balanced
from geams_sim.energy import Battery
from geams_sim.engine import DataPacket, EnergyLedger, Simulation
from geams_sim.geams import build_best_neighbor_set, walking_back_candidate
from geams_sim.gpsr import greedy_next_hop, planar_neighbors
from geams_sim.metrics import regional_rows, summary_row
from geams_sim.neighbors import BeaconState, NeighborTable
from geams_sim.scenario import ScenarioConfig
from geams_sim.topology import Position, Topology, distance, generate_topology

ME, SINK = Position(100, 90), Position(490, 90)


def hear(t, sender, x, energy=1.0, time=0.0):
    """Give `t` the record of a sender first heard at (x, 90); returns the
    sender's shared state."""
    state, position = BeaconState(energy, time), Position(x, 90)
    t.handle_beacon(sender, position, state, distance(position, SINK))
    return state


def test_topology_listed_in_descending_id_order_changes_nothing():
    """Nodes beacon in ascending id order whatever the topology's row order,
    so every table is in ascending id order (ReplaySimulation checks it) and
    the reports match byte for byte."""
    for protocol in ("gpsr", "geams"):
        cfg = ScenarioConfig(protocol=protocol, n_sensors=60, seed=3)
        topo = generate_topology(cfg)
        reverse = Topology(nodes=topo.nodes[::-1])
        sims = [ReplaySimulation(cfg, t) for t in (topo, reverse)]
        a, b = [sim.run() for sim in sims]
        assert list(sims[1].nodes) == sorted(sims[1].nodes)
        assert sims[1].checks > 0
        assert a.per_packet_log == b.per_packet_log
        key = (protocol, cfg.seed, cfg.n_sensors)
        assert summary_row(a, *key) == summary_row(b, *key)
        assert regional_rows(a, *key) == regional_rows(b, *key)


def test_later_beacons_refresh_energy_and_time_only():
    t = NeighborTable(my_position=ME, sink_position=SINK)
    state = hear(t, 2, 160, energy=1.0, time=0.0)
    # a later beacon updates only the sender's shared state
    state.residual_energy, state.last_beacon_time = 0.7, 1.0
    (r,) = t.live_records(1.0, 2.5)
    assert r.state is state and r.residual_energy == 0.7
    assert (r.distance_to_me, r.distance_to_sink) == (60.0, 330.0)
    assert t.my_sink_distance == 390.0


def test_pending_overlay_stands_until_the_next_beacon():
    t = NeighborTable(my_position=ME, sink_position=SINK)
    state = hear(t, 2, 160, energy=1.0)
    r = t.records[2]
    r.pending, r.pending_time = 0.25, state.last_beacon_time
    assert r.residual_energy == 0.25
    state.last_beacon_time = 1.0
    assert r.residual_energy == 1.0


def _line(topo_builder):
    """Chain source - 3 - 2 - sink, 40-50 m a hop: each node hears only its
    chain neighbours."""
    return topo_builder({0: Position(150, 90), 1: Position(10, 90),
                         2: Position(100, 90), 3: Position(50, 90)})


def test_one_state_per_sender_shared_by_every_receiver(topo_builder):
    sim = Simulation(ScenarioConfig(n_sensors=2), _line(topo_builder))
    sim._do_beacons(0.0)
    for node in sim.nodes.values():
        sim._fill_table(node)
    state = sim.nodes[3].beacon_state
    holders = [i for i, n in sim.nodes.items() if 3 in n.table.records]
    assert holders == [1, 2]
    assert all(sim.nodes[i].table.records[3].state is state for i in holders)
    sim._do_beacons(1.0)
    assert sim.nodes[3].beacon_state is state
    assert state.last_beacon_time == 1.0


def test_a_sender_never_heard_has_a_record_that_is_never_live(topo_builder):
    """A sensor too poor to fund its t = 0 beacon dies without going on air.
    The source's table, filled after that round, holds its record, which is
    sink-ward but never live, so no read returns it."""
    cfg = ScenarioConfig(n_sensors=2, initial_energy_j=1e-9)
    sim = Simulation(cfg, _line(topo_builder))
    sim._do_beacons(0.0)
    poor, source = sim.nodes[3], sim.nodes[1]
    assert not poor.alive
    sim._fill_table(source)
    t = source.table
    assert list(t.records) == [3] and [r.id for r in t.sinkward_records()] == [3]
    assert t.records[3].state is poor.beacon_state
    assert poor.beacon_state.last_beacon_time == -math.inf
    expiry = cfg.neighbor_expiry_s
    for now in (0.0, 1.0, 1e9):
        assert t.live_records(now, expiry) == []
        assert build_best_neighbor_set(t, now, expiry, cfg.data_packet_bits,
                                       cfg.e_elec_j_per_bit, cfg.eps_amp_j_per_bit_m2) == []
        assert greedy_next_hop(t, now, expiry) is None
        assert planar_neighbors(t, now, expiry) == ()
        assert walking_back_candidate(t, set(), now, expiry) is None


def test_void_flag_survives_until_sender_has_sinkward(topo_builder):
    sim = Simulation(ScenarioConfig(n_sensors=2, beacon_energy=False), _line(topo_builder))
    sim._do_beacons(0.0)
    sim._fill_table(sim.nodes[2])
    node = sim.nodes[3]
    record = sim.nodes[2].table.records[3]
    sim._broadcast(node, 0.5, void=True)
    assert record.state.void_flagged
    sim._broadcast(node, 1.0, has_sinkward=False)
    assert record.state.void_flagged
    sim._broadcast(node, 2.0, has_sinkward=True)
    assert not record.state.void_flagged


def test_underfunded_broadcast_changes_no_state(topo_builder):
    sim = Simulation(ScenarioConfig(n_sensors=2), _line(topo_builder))
    sim._do_beacons(0.0)
    node = sim.nodes[3]
    node.battery.residual = 1e-6
    sim._broadcast(node, 1.0, void=True)
    assert not node.alive and not node.beacon_state.void_flagged
    assert node.beacon_state.last_beacon_time == 0.0


def test_broadcast_debits_like_battery_debit_and_books_one_entry(topo_builder):
    """The inlined receive debit drains each battery as Battery.debit would,
    kills a receiver it empties, and the receptions are one ledger entry."""
    sim = Simulation(ScenarioConfig(n_sensors=2), _line(topo_builder))
    entries = []

    class Ledger(EnergyLedger):
        def add(self, category, amount):
            entries.append(category)
            super().add(category, amount)

    sim.ledger = Ledger()
    sim._do_beacons(0.0)
    node, victim = sim.nodes[3], sim.nodes[2]
    rx_cost = 128 * sim.cfg.e_elec_j_per_bit
    victim.battery.residual = rx_cost / 3
    source = Battery(sim.nodes[1].battery.residual, 0.0)
    before = {i: n.battery.residual for i, n in sim.nodes.items()}
    booked = sim.ledger.total
    entries.clear()
    sim._broadcast(node, 1.0, has_sinkward=True)
    assert entries == ["beacon_tx", "beacon_rx"]
    assert victim.battery.residual == 0.0 and not victim.alive
    source.debit(rx_cost)
    assert sim.nodes[1].battery.residual == source.residual
    drawn = sum(before[i] - n.battery.residual for i, n in sim.nodes.items())
    assert_energy_balanced(drawn, sim.ledger.total - booked)


def test_pending_load_estimate_is_overwritten_by_next_beacon(topo_builder):
    topo = topo_builder({0: Position(130, 90), 1: Position(10, 90), 2: Position(70, 90)})
    sim = Simulation(ScenarioConfig(protocol="geams", n_sensors=1, beacon_energy=False), topo)
    sim._do_beacons(0.0)
    source, relay = sim.nodes[1], sim.nodes[2]
    sim._fill_table(source)
    reported = relay.battery.residual
    assert source.table.records[2].residual_energy == reported
    pk = DataPacket(seq=0, payload_bits=1000, created_at=0.0, path=[1])
    source.queue.append(pk)
    sim._try_start(source, 0.0)
    bits = 1000 + sim.cfg.header_bits
    estimate = reported - sim._pending_load_estimate(bits)
    assert source.table.records[2].residual_energy == estimate
    # a void announcement is no beacon: the overlay still stands
    sim._broadcast(relay, 0.5, void=True)
    assert source.table.records[2].residual_energy == estimate
    sim._do_beacons(1.0)
    assert source.table.records[2].residual_energy == relay.battery.residual


# Replays against per-receiver oracle tables (conftest.ReplaySimulation): the
# shared states must give every routing node the view it would have had from
# tables of its own.

@pytest.mark.parametrize("protocol", ["geams", "gpsr"])
def test_shared_state_replays_private_tables_on_the_default_scenario(protocol):
    sim = ReplaySimulation(ScenarioConfig(protocol=protocol))
    sim.run()
    assert sim.checks > 1000


# sparse, low-energy cells: beacon receptions kill nodes mid-broadcast, and
# GEAMS walks back and announces voids
@pytest.mark.parametrize("protocol", ["geams", "gpsr"])
def test_shared_state_replays_private_tables_in_sparse_low_energy_cells(protocol):
    sims = [ReplaySimulation(ScenarioConfig(
                protocol=protocol, seed=seed, n_sensors=30, initial_energy_j=energy,
                image_count=10, horizon_s=20.0))
            for seed in (1, 2, 3, 4, 5) for energy in (0.05, 0.5)]
    for sim in sims:
        sim.run()
        assert sim.checks > 0
    assert sum(s.rx_deaths for s in sims) > 0
    if protocol == "geams":
        assert sum(s.walkbacks for s in sims) > 0
        assert sum(s.void_announcements for s in sims) > 0


def test_replay_sees_a_void_flag_cleared(topo_builder):
    """A void flag clears only when its sender has a usable sink-ward
    neighbour again, which random deployments hardly ever produce: here the
    source's pending-load estimates make the low-energy sink look drained
    within one beacon interval, so the source announces a void and walks
    packets back to node 2, and the sink's next beacon shows it alive."""
    topo = topo_builder({0: Position(35, 90), 1: Position(10, 90), 2: Position(5, 130)})
    cfg = ScenarioConfig(protocol="geams", n_sensors=1, gateway_energy_j=0.1,
                         beacon_energy=False, image_bits=20_000, image_count=3,
                         queue_capacity=30)
    sim = ReplaySimulation(cfg, topo)
    sim.run()
    assert sim.void_announcements > 0 and sim.walkbacks > 0
    assert sim.void_clears > 0


class VoidCheckCounter(Simulation):
    """Records, for every void check, whether its node's void flag stood."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.void_checks: list[bool] = []

    def _has_sinkward(self, node):
        self.void_checks.append(node.beacon_state.void_flagged)
        return super()._has_sinkward(node)


class CheckEveryNode(Simulation):
    """Runs the void check for every live node in every beacon round, on a
    table filled through the engine's fill: the reference that checking
    only nodes whose void flag stands must agree with.  A beacon's check
    result changes only a standing flag."""

    def _clears_void(self, node):
        self._fill_table(node)
        return self._has_sinkward(node)


class FillAtFirstRound(Simulation):
    """Fills every live node's table when the t = 0 round ends, with the
    range neighbours that went on air in it: the eager reference that a
    fill on first read must agree with."""

    def _do_beacons(self, time):
        super()._do_beacons(time)
        if time == 0.0:
            for node in self.nodes.values():
                if node.alive:
                    for other in self.range_neighbors[node.id]:
                        if other.beacon_state.last_beacon_time == 0.0:
                            node.table.handle_beacon(other.id, other.position,
                                                     other.beacon_state,
                                                     other.table.my_sink_distance)


def _void_scenarios(topo_builder):
    """Sparse low-energy GEAMS cells, which announce voids, and the one
    hand-built scenario known to clear a void flag."""
    cells = [(ScenarioConfig(protocol="geams", seed=seed, n_sensors=30,
                             initial_energy_j=energy, image_count=10, horizon_s=20.0), None)
             for seed in (1, 2, 3, 4, 5) for energy in (0.05, 0.5)]
    topo = topo_builder({0: Position(35, 90), 1: Position(10, 90), 2: Position(5, 130)})
    cells.append((ScenarioConfig(protocol="geams", n_sensors=1, gateway_energy_j=0.1,
                                 beacon_energy=False, image_bits=20_000, image_count=3,
                                 queue_capacity=30), topo))
    return cells


def test_void_check_runs_only_for_nodes_that_announced_a_void(topo_builder):
    gpsr = VoidCheckCounter(ScenarioConfig(protocol="gpsr"))
    gpsr.run()
    assert gpsr.void_checks == []
    sims = [VoidCheckCounter(cfg, topo) for cfg, topo in _void_scenarios(topo_builder)]
    for sim in sims:
        sim.run()
        assert all(sim.void_checks)
    assert sum(len(sim.void_checks) for sim in sims) > 0


def test_checking_every_node_for_a_void_changes_no_report(topo_builder):
    for cfg, topo in _void_scenarios(topo_builder):
        assert Simulation(cfg, topo).run() == CheckEveryNode(cfg, topo).run()


# Batched beacon rounds against the exact path: the same floats, not close ones.

class PathCounter(Simulation):
    """Counts beacons by the path they took, and records the paths each round
    took: the exact path goes through _broadcast, a batched beacon calls the
    on-air hook directly."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.exact_beacons = self.batched_beacons = 0
        self.round_paths: dict[float, set[str]] = {}
        self._exact = False

    def _broadcast(self, node, time, void=False, has_sinkward=False):
        self._exact = True
        super()._broadcast(node, time, void, has_sinkward)
        self._exact = False

    def _on_air(self, node, reported, time, void=False, has_sinkward=False):
        if not void:
            if self._exact:
                self.exact_beacons += 1
            else:
                self.batched_beacons += 1
            self.round_paths.setdefault(time, set()).add(
                "exact" if self._exact else "batched")
        super()._on_air(node, reported, time, void, has_sinkward)


class ExactRounds(PathCounter):
    """No node is ever safe, so every round takes the exact path."""

    SAFE_MARGIN = math.inf


def _low_energy_cells():
    """Sparse low-energy cells, where beacon receptions kill sensors mid-round
    (at 0.005 J sensors cannot fund the t = 0 round), a cell without beacon
    energy, and cells whose gateways run too low to fund their beacons."""
    cells = [ScenarioConfig(protocol=protocol, seed=seed, n_sensors=30,
                            initial_energy_j=energy, image_count=10, horizon_s=20.0)
             for protocol in ("geams", "gpsr") for seed in (1, 2, 3, 4, 5)
             for energy in (0.005, 0.05, 0.5)]
    cells.append(ScenarioConfig(n_sensors=30, beacon_energy=False, image_count=10,
                                horizon_s=20.0))
    gateways = [ScenarioConfig(protocol=protocol, n_sensors=30, gateway_energy_j=0.05,
                               image_count=10, horizon_s=20.0)
                for protocol in ("geams", "gpsr")]
    return cells, gateways


def assert_live_counts_hold(sim):
    """Every node's live-neighbour counts equal a recount of its alive range
    neighbours below and above it."""
    for node in sim.nodes.values():
        alive = [o.id for o in sim.range_neighbors[node.id] if o.alive]
        below = sum(i < node.id for i in alive)
        assert (node.live_below, node.live_above) == (below, len(alive) - below), node.id


def test_batched_rounds_equal_the_exact_path_bit_for_bit():
    cells, gateways = _low_energy_cells()
    unfunded = both = 0
    first_round = []
    for cfg in cells + gateways:
        batched, exact = PathCounter(cfg), ExactRounds(cfg)
        assert batched.run() == exact.run()
        assert [(n.battery.residual, n.alive) for n in batched.nodes.values()] == \
            [(n.battery.residual, n.alive) for n in exact.nodes.values()]
        assert batched.ledger.totals == exact.ledger.totals
        assert exact.batched_beacons == 0
        assert batched.batched_beacons + batched.exact_beacons == exact.exact_beacons
        # a round is batched whole or run exact whole, and a cell sees both
        assert all(len(paths) == 1 for paths in batched.round_paths.values())
        both += batched.batched_beacons > 0 and batched.exact_beacons > 0
        first_round += batched.round_paths[0.0]
        assert_live_counts_hold(batched)
        assert_live_counts_hold(exact)
        if cfg in gateways:
            # a gateway alive but too low to fund its beacon stops going on air
            last = batched.now - batched.now % cfg.beacon_interval_s
            unfunded += any(batched.nodes[g].beacon_state.last_beacon_time < last
                            for g in (0, 1))
    assert both > len(cells) // 2
    assert unfunded == len(gateways)
    # the t = 0 round takes either path, like any other
    assert {"batched", "exact"} <= set(first_round)


def test_when_a_table_is_filled_changes_nothing():
    """Filling tables on first read, with a never-live record for each range
    neighbour that has not gone on air, gives the same floats as filling
    every live node's table with the senders heard when the t = 0 round
    ends."""
    cells, gateways = _low_energy_cells()
    cells += gateways + [ScenarioConfig(protocol="geams"), ScenarioConfig(protocol="gpsr")]
    lazy_records = eager_records = never_heard = 0
    for cfg in cells:
        lazy, eager = Simulation(cfg), FillAtFirstRound(cfg)
        assert lazy.run() == eager.run()
        assert [(n.battery.residual, n.alive) for n in lazy.nodes.values()] == \
            [(n.battery.residual, n.alive) for n in eager.nodes.values()]
        assert lazy.ledger.totals == eager.ledger.totals
        lazy_records += sum(len(n.table.records) for n in lazy.nodes.values())
        eager_records += sum(len(n.table.records) for n in eager.nodes.values())
        never_heard += sum(n.beacon_state.last_beacon_time == -math.inf
                           for n in lazy.nodes.values())
    # the cells read fewer tables than they hold, and some senders never go
    # on air (0.005 J sensors cannot fund the t = 0 round)
    assert lazy_records < eager_records
    assert never_heard > 0
