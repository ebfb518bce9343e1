import math

from hypothesis import given, strategies as st

from conftest import DEFAULT, assert_energy_balanced, low_energy_cells, record, table
from geams_sim.energy import Battery
from geams_sim.engine import DataPacket, EnergyLedger, Simulation
from geams_sim.geams import build_best_neighbor_set, walking_back_candidate
from geams_sim.gpsr import greedy_next_hop, planar_neighbors
from geams_sim.metrics import regional_rows, summary_row
from geams_sim.neighbors import BeaconState, NeighborTable, live
from geams_sim.scenario import PROTOCOLS, ScenarioConfig
from geams_sim.topology import Position, Topology, distance, generate_topology

ME, SINK = Position(100, 90), Position(490, 90)


def test_topology_listed_in_descending_id_order_changes_nothing():
    """Nodes beacon in ascending id order whatever the topology's row order,
    so every table is in ascending id order and the reports match byte for
    byte."""
    for protocol in ("gpsr", "geams"):
        cfg = ScenarioConfig(protocol=protocol, n_sensors=60, seed=3)
        topo = generate_topology(cfg)
        reverse = Topology(nodes=topo.nodes[::-1])
        sims = [Simulation(cfg, t) for t in (topo, reverse)]
        a, b = [sim.run() for sim in sims]
        assert list(sims[1].nodes) == sorted(sims[1].nodes)
        tables = [n.table for n in sims[1].nodes.values()]
        assert all(list(t.records) == sorted(t.records) for t in tables)
        assert any(t.records for t in tables)
        assert a.per_packet_log == b.per_packet_log
        key = (protocol, cfg.seed, cfg.n_sensors)
        assert summary_row(a, *key) == summary_row(b, *key)
        assert regional_rows(a, *key) == regional_rows(b, *key)


def test_later_beacons_refresh_energy_and_time_only():
    heard = record(2, Position(160, 90), ME, SINK)
    t, state = table(ME, SINK, [heard]), heard.state
    # a later beacon updates only the sender's shared state
    state.residual_energy, state.last_beacon_time = 0.7, 1.0
    (r,) = t.live_records(1.0, 2.5)
    assert r.state is state and r.residual_energy == 0.7
    assert r.distance_to_sink == 330.0
    assert t.my_sink_distance == 390.0


def test_pending_overlay_stands_until_the_next_beacon():
    heard = record(2, Position(160, 90), ME, SINK)
    t, state = table(ME, SINK, [heard]), heard.state
    r = t.records[2]
    r.add_load(0.75)
    assert r.residual_energy == 0.25
    state.last_beacon_time = 1.0
    assert r.residual_energy == 1.0


# A record as the generator describes it: the residual its sender's last
# beacon reported, that beacon's age at NOW (None: never heard), and its
# overlay, if any: (residual, whether it was taken since that beacon).
NOW, EXPIRY = 8.0, 2.5
_RECORD = st.tuples(
    st.sampled_from([-0.5, 0.0, 5e-324, 0.5, 1.0]),
    st.sampled_from([None, 0.0, 1.0, EXPIRY, 2.625, 4.0]),  # EXPIRY: the boundary
    st.one_of(st.none(), st.tuples(st.sampled_from([-0.25, 0.0, 0.25, 0.75]), st.booleans())))


def _record(node_id, beacon, age, overlay):
    """The NeighborRecord a spec describes; every age and time is exact.
    Each sits at least 1 m from ME, as every hop does."""
    heard = -math.inf if age is None else NOW - age
    r = record(node_id, Position(101 + node_id, 90), ME, SINK, beacon, beacon_time=heard)
    if overlay is not None:
        r.pending, standing = overlay
        # a stale overlay was taken before the last beacon, at t = 0 when
        # the sender was never heard
        r.pending_time = heard if standing else (heard - 1.0 if age is not None else 0.0)
    return r


@given(specs=st.lists(_RECORD, max_size=8),
       loads=st.lists(st.sampled_from([0.0, 0.125, 0.5]), min_size=3, max_size=3))
def test_live_and_add_load_follow_the_rule(specs, loads):
    """A record is live when its sender was heard no longer than the expiry
    ago (inclusive) and the residual routing sees is positive: an overlay
    taken since the last beacon, else the beacon's.  add_load lowers that
    residual until the next beacon, which the next load starts from."""
    records = [_record(i, *spec) for i, spec in enumerate(specs)]
    seen = [overlay[0] if overlay is not None and overlay[1] else beacon
            for beacon, _, overlay in specs]
    want = [(r, e) for r, e, (_, age, _) in zip(records, seen, specs)
            if age is not None and age <= EXPIRY and e > 0]
    assert live(records, NOW, EXPIRY) == want
    assert [r.id for r in table(ME, SINK, records).live_records(NOW, EXPIRY)] == \
        [r.id for r, _ in want]
    a, b, c = loads
    for r, e in zip(records, seen):
        r.add_load(a)
        r.add_load(b)
        assert r.residual_energy == (e - a) - b
        assert r.pending_time == r.state.last_beacon_time
        # the sender's next beacon, which the next load starts from
        r.state.residual_energy, r.state.last_beacon_time = 0.625, NOW + 1.0
        assert r.residual_energy == 0.625
        r.add_load(c)
        assert r.residual_energy == 0.625 - c
    assert live(records, NOW + 1.0, EXPIRY) == [(r, 0.625 - c) for r in records]


def _line(topo_builder):
    """Chain source - 3 - 2 - sink, 40-50 m a hop: each node hears only its
    chain neighbours."""
    return topo_builder({0: Position(150, 90), 1: Position(10, 90),
                         2: Position(100, 90), 3: Position(50, 90)})


def test_one_state_per_sender_shared_by_every_receiver(topo_builder):
    sim = Simulation(ScenarioConfig(n_sensors=2), _line(topo_builder))
    sim._do_beacons(0.0)
    for node in sim.nodes.values():
        node.table.sinkward_records()
    state = sim.nodes[3].beacon_state
    # the first fill: only the source has node 3 sink-ward
    assert [i for i, n in sim.nodes.items() if 3 in n.table.records] == [1]
    for node in sim.nodes.values():
        node.table.live_records(0.0, sim.expiry_s)
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
    t = source.table
    t.live_records(0.0, cfg.neighbor_expiry_s)
    assert list(t.records) == [3] and [r.id for r in t.sinkward_records()] == [3]
    assert t.records[3].state is poor.beacon_state
    assert poor.beacon_state.last_beacon_time == -math.inf
    expiry, bits = cfg.neighbor_expiry_s, cfg.data_packet_bits
    for now in (0.0, 1.0, 1e9):
        assert t.live_records(now, expiry) == []
        assert build_best_neighbor_set(t, now, expiry, bits,
                                       bits * cfg.e_elec_j_per_bit).ids == []
        assert greedy_next_hop(t, now, expiry) is None
        assert planar_neighbors(t, now, expiry) == ((), math.inf)
        assert walking_back_candidate(t, set(), now, expiry) is None


def test_a_table_is_filled_sink_ward_first_and_completed_in_place(topo_builder):
    """The first read of the sink-ward records makes only those.  The first
    read of every live record keeps those very records, overlays and all,
    and puts every range neighbour's record in ascending id order."""
    sim = Simulation(ScenarioConfig(n_sensors=2), _line(topo_builder))
    sim._do_beacons(0.0)
    relay = sim.nodes[2]  # hears 3 (farther out) and the sink
    t = relay.table
    assert t.range_ids == [0, 3] and t.records == {}
    assert t.sinkward_records() == [t.records[0]]
    assert list(t.records) == [0]
    sink = t.records[0]
    sink.pending, sink.pending_time = 0.5, 0.0
    assert [r.id for r in t.live_records(0.0, sim.expiry_s)] == [0, 3]
    assert list(t.records) == [0, 3]
    assert t.records[0] is sink and sink.residual_energy == 0.5
    assert t.sinkward_records() == [sink]  # a filled table is left as it is
    assert list(t.records) == [0, 3] and t.records[0] is sink


def test_a_table_fills_itself_from_its_range_list_and_the_shared_lookup():
    """Given a range list and the run's lookup, a table makes only its
    sink-ward records on the first read of those, completes in ascending id
    order on the first read of every live record, keeping the sink-ward
    objects and their overlays, and later reads leave it as it is, whichever
    read comes first."""
    positions = {2: Position(60, 90), 3: Position(150, 90), 4: Position(90, 90),
                 5: Position(140, 120)}  # 3 and 5 are closer to the sink than ME
    states = {i: BeaconState(1.0, 0.0) for i in positions}
    senders = {i: (p, states[i], distance(p, SINK)) for i, p in positions.items()}
    t = NeighborTable(ME, SINK, [2, 3, 4, 5], senders, DEFAULT)
    assert t.records == {}
    sinkward = t.sinkward_records()
    assert [r.id for r in sinkward] == [3, 5] and list(t.records) == [3, 5]
    assert t.sinkward_records() is sinkward and list(t.records) == [3, 5]
    three = t.records[3]
    three.add_load(0.75)
    assert [r.id for r in t.live_records(0.0, 2.5)] == [2, 3, 4, 5]
    assert list(t.records) == [2, 3, 4, 5]
    assert t.records[3] is three and three.residual_energy == 0.25
    assert t.sinkward_records() is sinkward and sinkward == [three, t.records[5]]
    assert all(r.state is states[i] and r.distance_to_sink == senders[i][2]
               for i, r in t.records.items())
    made = dict(t.records)
    assert [r.id for r in t.live_records(3.0, 2.5)] == []
    assert t.sinkward_records() is sinkward
    assert list(t.records) == list(made) and all(t.records[i] is made[i] for i in made)
    # the read of every live record first makes the sink-ward ones too
    first = NeighborTable(ME, SINK, [2, 3, 4, 5], senders, DEFAULT)
    assert [r.id for r in first.live_records(0.0, 2.5)] == [2, 3, 4, 5]
    assert [r.id for r in first.sinkward_records()] == [3, 5]
    assert first.sinkward_records() == [first.records[3], first.records[5]]


def test_void_flag_survives_until_sender_has_sinkward(topo_builder):
    """A beacon clears its sender's void flag only when the sender has a
    usable sink-ward neighbour again: node 3's only one, node 2, falls
    silent past the expiry, then beacons again."""
    sim = Simulation(ScenarioConfig(n_sensors=2, beacon_energy=False), _line(topo_builder))
    sim._do_beacons(0.0)
    node, relay = sim.nodes[3], sim.nodes[2]
    for n in (node, relay):
        n.table.live_records(0.0, sim.expiry_s)
    record = relay.table.records[3]
    sim._broadcast(node, 0.5, void=True)
    assert record.state.void_flagged
    sim.now = late = sim.cfg.neighbor_expiry_s + 1.0
    assert not sim._has_sinkward(node)
    sim._broadcast(node, late)
    assert record.state.void_flagged
    sim._broadcast(relay, late)
    assert sim._has_sinkward(node)
    sim._broadcast(node, late)
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
    sim._broadcast(node, 1.0)
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
    source.table.sinkward_records()
    reported = relay.battery.residual
    assert source.table.records[2].residual_energy == reported
    pk = DataPacket(seq=0, payload_bits=1000, created_at=0.0, path=[1])
    source.queue.append(pk)
    sim._try_start(source, 0.0)
    bits = 1000 + sim.cfg.header_bits
    # the relay's receive plus its transmit electronics
    estimate = reported - 2.0 * sim.cfg.e_elec_j_per_bit * bits
    assert source.table.records[2].residual_energy == estimate
    # a void announcement is no beacon: the overlay still stands
    sim._broadcast(relay, 0.5, void=True)
    assert source.table.records[2].residual_energy == estimate
    sim._do_beacons(1.0)
    assert source.table.records[2].residual_energy == relay.battery.residual


class VoidCheckCounter(Simulation):
    """Records, for every void check, whether its node's void flag stood,
    and counts the checks that found a sink-ward neighbour, which clears the
    standing flag, the void announcements and the GEAMS walk-backs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.void_checks: list[bool] = []
        self.clears = self.announcements = self.walkbacks = 0

    def _has_sinkward(self, node):
        self.void_checks.append(node.beacon_state.void_flagged)
        found = super()._has_sinkward(node)
        self.clears += found
        return found

    def _on_air(self, node, reported, time, void=False):
        self.announcements += void
        super()._on_air(node, reported, time, void)

    def _route_geams(self, node, pk):
        result = super()._route_geams(node, pk)
        self.walkbacks += node.id in pk.excluded
        return result


class CheckEveryNode(Simulation):
    """Runs the void check for every beacon on air, which makes the sender's
    sink-ward records as a route would, and clears the sender's flag when it
    finds a sink-ward neighbour: the reference that checking only nodes
    whose void flag stands must agree with.  A check result changes only a
    standing flag."""

    def _on_air(self, node, reported, time, void=False):
        if not void:
            if self._has_sinkward(node):
                node.beacon_state.void_flagged = False
        super()._on_air(node, reported, time, void)


def _void_scenarios(topo_builder):
    """Sparse low-energy GEAMS cells, which announce voids, and, last, the
    one hand-built scenario known to clear a void flag."""
    cells = [(ScenarioConfig(protocol="geams", seed=seed, n_sensors=30,
                             initial_energy_j=energy, image_count=10, horizon_s=20.0), None)
             for seed in (1, 2, 3, 4, 5) for energy in (0.05, 0.5)]
    topo = topo_builder({0: Position(35, 90), 1: Position(10, 90), 2: Position(5, 130)})
    cells.append((ScenarioConfig(protocol="geams", n_sensors=1, gateway_energy_j=0.1,
                                 beacon_energy=False, image_bits=20_000, image_count=3,
                                 queue_capacity=30), topo))
    return cells


def test_replay_sees_a_void_flag_cleared(topo_builder):
    """A void flag clears only when its sender has a usable sink-ward
    neighbour again, which random deployments hardly ever produce: here the
    source's pending-load estimates make the low-energy sink look drained
    within one beacon interval, so the source announces a void and walks
    packets back to node 2, and the sink's next beacon shows it alive."""
    cfg, topo = _void_scenarios(topo_builder)[-1]
    sim = VoidCheckCounter(cfg, topo)
    sim.run()
    assert sim.announcements > 0 and sim.walkbacks > 0
    assert sim.clears > 0
    assert all(sim.void_checks)


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


# Batched beacon rounds and the exact path.  That the two give the same
# floats is checked against the frozen original engine, which has only the
# exact path (test_differential.py).

class PathCounter(Simulation):
    """Counts beacons by the path they took, records the paths each round
    took, and counts the nodes a reception killed: the exact path goes
    through _broadcast, which debits each receiver in turn, and a batched
    beacon calls the on-air hook directly."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.exact_beacons = self.batched_beacons = self.rx_deaths = 0
        self.round_paths: dict[float, set[str]] = {}
        self._exact = False

    def _broadcast(self, node, time, void=False):
        hearers = [o for o in map(self.nodes.get, node.table.range_ids) if o.alive]
        self._exact = True
        super()._broadcast(node, time, void)
        self._exact = False
        self.rx_deaths += sum(not o.alive for o in hearers)

    def _on_air(self, node, reported, time, void=False):
        if not void:
            if self._exact:
                self.exact_beacons += 1
            else:
                self.batched_beacons += 1
            self.round_paths.setdefault(time, set()).add(
                "exact" if self._exact else "batched")
        super()._on_air(node, reported, time, void)


def assert_live_counts_hold(sim):
    """Every node's live-neighbour counts equal a recount of its alive range
    neighbours below and above it."""
    for node in sim.nodes.values():
        alive = [v for v in node.table.range_ids if sim.nodes[v].alive]
        below = sum(i < node.id for i in alive)
        assert (node.live_below, node.live_above) == (below, len(alive) - below), node.id


def test_each_beacon_round_takes_one_path_and_both_are_taken():
    """A round is batched whole or run exact whole, and the low-energy cells
    take both, the t = 0 round included; receptions kill nodes there, and
    some senders never go on air (0.005 J sensors cannot fund the t = 0
    round).  Tables make fewer records than their range lists name, and a
    gateway alive but too low to fund its beacon stops going on air."""
    cells, gateways = low_energy_cells()
    unfunded = both = rx_deaths = never_heard = made = named = 0
    first_round = []
    for cfg in cells + gateways:
        sim = PathCounter(cfg)
        sim.run()
        if not cfg.beacon_energy:
            # unpriced beacons cost 0.0 J: every round is safe and batched
            assert sim.exact_beacons == 0 < sim.batched_beacons
        assert all(len(paths) == 1 for paths in sim.round_paths.values())
        both += sim.batched_beacons > 0 and sim.exact_beacons > 0
        first_round += sim.round_paths[0.0]
        assert_live_counts_hold(sim)
        rx_deaths += sim.rx_deaths
        nodes = sim.nodes.values()
        never_heard += sum(n.beacon_state.last_beacon_time == -math.inf for n in nodes)
        made += sum(len(n.table.records) for n in nodes)
        named += sum(len(n.table.range_ids) for n in nodes)
        if cfg in gateways:
            last = sim.now - sim.now % cfg.beacon_interval_s
            unfunded += any(sim.nodes[g].beacon_state.last_beacon_time < last
                            for g in (0, 1))
    assert both > len(cells) // 2
    assert {"batched", "exact"} <= set(first_round)
    assert rx_deaths > 0 and never_heard > 0
    assert made < named
    assert unfunded == len(gateways)


class ExactRounds(Simulation):
    """Runs every beacon round on the exact path: no residual is ever safe."""

    SAFE_MARGIN = math.inf


def node_bits(sim) -> list[tuple]:
    """Every node's (id, residual as hex, alive), by id."""
    return [(i, node.battery.residual.hex(), node.alive) for i, node in sorted(sim.nodes.items())]


def test_batched_rounds_equal_exact_rounds_across_a_binade():
    """Sensors start just above 2 J and cross into the binade below it in
    the first rounds, so batched rounds settle receptions both in closed
    form and one by one; every run equals its exact-path twin bit for bit."""
    for n_sensors in (100, 300):
        for protocol in PROTOCOLS:
            cfg = ScenarioConfig(protocol=protocol, n_sensors=n_sensors,
                                 initial_energy_j=2.01, image_count=5)
            batched, exact = PathCounter(cfg), ExactRounds(cfg)
            assert batched.run().per_packet_log == exact.run().per_packet_log, cfg
            assert node_bits(batched) == node_bits(exact), cfg
            assert batched.exact_beacons == 0 < batched.batched_beacons
