import math

import pytest
from hypothesis import given, strategies as st

from conftest import DEFAULT, RADIO_RANGE, PathSimulation, filling_table, gabriel_planarize, \
    record, table
from geams_sim import gpsr
from geams_sim.engine import DataPacket, Simulation
from geams_sim.gpsr import (
    KeptRoute,
    PerimeterState,
    greedy_next_hop,
    next_hop,
    perimeter_first_hop,
    perimeter_next_hop,
    planar_neighbors,
)
from geams_sim.neighbors import BeaconState, NeighborTable
from geams_sim.scenario import ScenarioConfig
from geams_sim.topology import SINK_ID, Position, distance, generate_topology, \
    range_neighbor_lists


SINK = Position(490, 90)


def test_greedy_picks_nearest_to_sink():
    me = Position(370, 90)  # 120 m out
    t = table(me, SINK, [
        record(2, Position(390, 90), me, SINK),   # 100 m out
        record(3, Position(440, 90), me, SINK),   # 50 m out
        record(4, Position(340, 20), me, SINK),   # about 164 m out
    ])
    assert greedy_next_hop(t, 0.0, 2.5) == 3


def test_greedy_requires_strict_progress():
    me = Position(370, 90)
    t = table(me, SINK, [
        record(2, Position(370, 70), me, SINK),   # roughly 121.7 m, farther
        record(3, Position(300, 90), me, SINK),   # 190 m, farther
    ])
    assert greedy_next_hop(t, 0.0, 2.5) is None


def test_greedy_single_closer_neighbor():
    me = Position(370, 90)
    t = table(me, SINK, [record(2, Position(400, 90), me, SINK)])
    assert greedy_next_hop(t, 0.0, 2.5) == 2


def test_greedy_tie_breaks_by_id():
    me = Position(370, 90)
    t = table(me, SINK, [
        record(5, Position(430, 70), me, SINK),
        record(3, Position(430, 110), me, SINK),  # same sink distance as 5
    ])
    assert greedy_next_hop(t, 0.0, 2.5) == 3


def test_planar_removes_witnessed_edge():
    me = Position(0, 0)
    t = table(me, Position(490, 0), [
        record(2, Position(40, 0), me, Position(490, 0)),
        record(3, Position(80, 0), me, Position(490, 0)),
    ])
    kept, oldest = planar_neighbors(t, 0.0, 2.5)
    # node 2 sits on the (me, 3) diameter circle, so only the near link survives
    assert [r.id for r in kept] == [2]
    assert oldest == 0.0


def test_planar_keeps_clear_edges():
    me = Position(0, 0)
    t = table(me, Position(490, 0), [
        record(2, Position(60, 0), me, Position(490, 0)),
        record(3, Position(0, 60), me, Position(490, 0)),
    ])
    kept, oldest = planar_neighbors(t, 0.0, 2.5)
    assert sorted(r.id for r in kept) == [2, 3]
    assert oldest == 0.0


def test_right_hand_rule_turns_counterclockwise_from_incoming():
    me = Position(0, 0)
    sink = Position(490, 0)
    cands = [
        record(2, Position(50, 0), me, sink),    # bearing 0
        record(3, Position(0, 50), me, sink),    # bearing 90
        record(4, Position(-50, 0), me, sink),   # bearing 180
    ]
    # packet came from straight below (bearing 270): first ccw edge is bearing 0
    assert perimeter_next_hop(me, Position(0, -50), cands) == 2


def test_right_hand_rule_returns_to_sender_last():
    me = Position(0, 0)
    sink = Position(490, 0)
    prev = Position(0, -50)
    cands = [record(2, prev, me, sink)]  # degree-one node: only way is back
    assert perimeter_next_hop(me, prev, cands) == 2


def test_perimeter_first_hop_ccw_from_sink_line():
    me = Position(0, 0)
    sink = Position(490, 0)
    cands = [
        record(2, Position(30, 40), me, sink),   # bearing about 53
        record(3, Position(-30, 40), me, sink),  # bearing about 127
        record(4, Position(0, -50), me, sink),   # bearing 270
    ]
    assert perimeter_first_hop(me, sink, cands) == 2


def test_perimeter_hops_need_neighbors():
    me = Position(0, 0)
    assert perimeter_first_hop(me, Position(490, 0), []) is None
    assert perimeter_next_hop(me, Position(0, -50), []) is None


# gpsr.next_hop at node 4, 120 m out, whose packet came from node 2 below it.
# Greedy picks node 5; the right-hand rule from node 2 picks node 6.
ME = Position(370, 90)
BELOW = record(2, Position(370, 40), ME, SINK)    # about 130 m out
GREEDY = record(5, Position(420, 90), ME, SINK)   # 70 m out
RIGHT = record(6, Position(400, 50), ME, SINK)    # about 98.5 m out


def packet(path, perimeter=None):
    return DataPacket(seq=0, payload_bits=1000, created_at=0.0, path=path,
                      perimeter=perimeter)


def route(t, pk):
    """gpsr.next_hop at time 0 at `t`'s node, with nothing kept yet."""
    return next_hop(t, pk, KeptRoute(), 0.0, 2.5)


def test_next_hop_enters_the_walk_at_a_local_minimum():
    t = table(ME, SINK, [BELOW, record(3, Position(330, 110), ME, SINK)])
    pk = packet([1, 4])
    assert route(t, pk) == (3, None)  # first ccw from the sink line
    assert pk.perimeter == PerimeterState(entry_distance=120.0, first_edge=(4, 3))
    assert pk.perimeter.entry_distance == t.my_sink_distance


def test_next_hop_resumes_greedy_only_strictly_closer_than_the_entry():
    t = table(ME, SINK, [BELOW, GREEDY, RIGHT])
    assert [r.id for r in planar_neighbors(t, 0.0, 2.5)[0]] == [2, 5, 6]
    pk = packet([1, 2, 4], PerimeterState(entry_distance=120.5, first_edge=(9, 8)))
    assert route(t, pk) == (5, None)
    assert pk.perimeter is None
    state = PerimeterState(entry_distance=120.0, first_edge=(9, 8))
    pk = packet([1, 2, 4], state)
    assert route(t, pk) == (6, None)  # as far out as the entry
    assert pk.perimeter is state


def test_next_hop_drops_a_walk_with_no_planar_neighbour_left():
    state = PerimeterState(entry_distance=100.0, first_edge=(9, 8))
    pk = packet([1, 2, 4], state)
    t = table(ME, SINK, [record(2, BELOW.position, ME, SINK, energy=0.0)])
    assert route(t, pk) == (None, "perimeter_exhausted")
    assert pk.perimeter is state  # stranded mid-walk, not at a new entry


def test_next_hop_drops_a_walk_back_on_its_first_edge():
    t = table(ME, SINK, [BELOW, GREEDY, RIGHT])
    pk = packet([1, 2, 4], PerimeterState(entry_distance=100.0, first_edge=(2, 6)))
    assert route(t, pk) == (6, None)
    pk = packet([1, 2, 4], PerimeterState(entry_distance=100.0, first_edge=(4, 6)))
    assert route(t, pk) == (None, "perimeter_exhausted")


def test_a_kept_local_minimum_stands_until_a_broadcast_goes_on_air(topo_builder,
                                                                   monkeypatch):
    """Node 4's one neighbour, relay 5, is sink-ward but has not gone on
    air, so node 4 is at a local minimum.  Its kept (None, inf) never
    expires and stands, with no new greedy scan, even once 5's shared state
    reads live, until a broadcast goes on air and the engine drops the
    record.  So does its kept Gabriel set, empty and computed from no live
    record; once that alone is dropped, the perimeter walk finds relay 5.
    A greedy route takes no Gabriel set."""
    relay = record(5, GREEDY.position, ME, SINK, energy=0.0, beacon_time=-math.inf)
    t = filling_table(ME, SINK, [relay])
    kept = KeptRoute()
    scans = []
    monkeypatch.setattr(gpsr, "greedy_next_hop",
                        lambda *args: scans.append(args) or greedy_next_hop(*args))
    assert next_hop(t, packet([4]), kept, 0.0, 2.5) == (None, "perimeter_exhausted")
    assert kept == KeptRoute(None, math.inf, (), math.inf) and len(scans) == 1
    assert next_hop(t, packet([4]), kept, 1e9, 2.5) == (None, "perimeter_exhausted")
    relay.state.residual_energy = 1.0
    relay.state.last_beacon_time = 1e9  # live, but no broadcast went on air
    assert next_hop(t, packet([4]), kept, 1e9, 2.5) == (None, "perimeter_exhausted")
    kept.oldest = -math.inf  # drop the Gabriel set only
    pk = packet([4])
    assert next_hop(t, pk, kept, 1e9, 2.5) == (5, None)  # the perimeter walk's first hop
    assert pk.perimeter is not None
    assert (kept.greedy, kept.heard) == (None, math.inf) and len(scans) == 1
    kept = KeptRoute()  # the record a route starts from after a broadcast
    pk = packet([4])
    assert next_hop(t, pk, kept, 1e9, 2.5) == (5, None)  # greedy
    assert pk.perimeter is None
    assert kept == KeptRoute(5, 1e9) and len(scans) == 2
    # the engine drops every kept record when a broadcast goes on air
    topo = topo_builder({0: Position(130, 90), 1: Position(10, 90), 2: Position(70, 90)})
    sim = Simulation(ScenarioConfig(protocol="gpsr", n_sensors=1), topo)
    assert sim._route(sim.nodes[1], packet([1])) == (None, "perimeter_exhausted")
    assert sim._kept[1] == KeptRoute(None, math.inf, (), math.inf)
    sim._on_air(sim.nodes[2], 1.0, sim.now)
    assert 1 not in sim._kept


def test_next_hop_takes_the_gabriel_set_only_in_perimeter_mode_and_first():
    """A greedy hop never takes the Gabriel set.  A perimeter hop takes it
    before it reads the record of the hop the packet came from, which a
    table holding only its sink-ward records lacks: here node 2, farther
    out than node 4, gets its record only as the set is taken, as the
    table makes the rest of its records then."""
    whole = table(ME, SINK, [BELOW, GREEDY, RIGHT])
    half = filling_table(ME, SINK, [BELOW, GREEDY, RIGHT])
    half.sinkward_records()  # the sink-ward part alone
    assert list(half.records) == [5, 6]
    kept = KeptRoute()
    assert next_hop(half, packet([1, 2, 4]), kept, 0.0, 2.5) == (5, None)
    pk = packet([1, 2, 4], PerimeterState(entry_distance=120.5, first_edge=(9, 8)))
    assert next_hop(half, pk, kept, 0.0, 2.5) == (5, None)  # past the void: greedy
    assert kept == KeptRoute(5, 0.0) and list(half.records) == [5, 6]  # no set taken
    pk = packet([1, 2, 4], PerimeterState(entry_distance=100.0, first_edge=(9, 8)))
    assert next_hop(half, pk, kept, 0.0, 2.5) == (6, None)
    assert [r.id for r in kept.gabriel] == [2, 5, 6] and kept.oldest == 0.0
    assert half.records == whole.records


def test_an_expiring_witness_outside_the_gabriel_set_rebuilds_it(monkeypatch):
    """Node 1 is at a local minimum: its neighbours 2, 3 and 4 are all
    farther from the sink.  Node 3 witnesses against the link to 2, and
    node 4 against the link to 3, so the Gabriel set is {4}, and 3 is a
    witness outside it.  Node 3 last beaconed at t = 0, the others at 2.
    Between broadcasts, the kept set stands until 3 expires after t = 2.5,
    and then the link to 2 appears: the set's oldest time is 3's, not that
    of its own member 4."""
    me = Position(300, 90)
    t = filling_table(me, SINK, [record(2, Position(240, 90), me, SINK, beacon_time=2.0),
                                 record(3, Position(270, 119), me, SINK, beacon_time=0.0),
                                 record(4, Position(285, 124.5), me, SINK, beacon_time=2.0)])
    kept = KeptRoute()
    builds = []
    monkeypatch.setattr(gpsr, "planar_neighbors",
                        lambda *args: builds.append(args[1]) or planar_neighbors(*args))

    def route(now):
        # arrived back from node 4 on a perimeter walk that entered here
        pk = packet([1, 4, 1], PerimeterState(t.my_sink_distance, (9, 8)))
        hop = next_hop(t, pk, kept, now, 2.5)
        # every record is made, and the kept set is a fresh one
        assert list(t.records) == t.range_ids
        assert (kept.gabriel, kept.oldest) == planar_neighbors(t, now, 2.5), now
        return hop

    assert route(2.2) == (4, None)  # the set is {4}: back the way it came
    gabriel = kept.gabriel
    assert [r.id for r in gabriel] == [4] and kept.oldest == 0.0
    assert route(2.5) == (4, None)
    assert kept.gabriel is gabriel and builds == [2.2]  # 3 is still live: the set stands
    assert route(2.6) == (2, None)  # 3 has expired: the link to 2 is back
    assert [r.id for r in kept.gabriel] == [2, 4] and kept.oldest == 2.0
    assert builds == [2.2, 2.6]


def _void_detour_topology(topo_builder):
    """Connected deployment with one routing hole: the straight path east dies
    at node 2, whose only neighbors lie farther from the sink, so packets must
    detour over the top via perimeter mode before resuming greedy."""
    return topo_builder({
        0: Position(390, 100),
        1: Position(10, 100),
        2: Position(80, 100),
        3: Position(60, 170),
        4: Position(120, 180),
        5: Position(190, 160),
        6: Position(255, 130),
        7: Position(320, 100),
    })


def test_gpsr_delivers_through_void(topo_builder):
    topo = _void_detour_topology(topo_builder)
    cfg = ScenarioConfig(protocol="gpsr", n_sensors=6, initial_energy_j=20.0)
    sim = PathSimulation(cfg, topo)
    report = sim.run()
    assert report.delivered == 300
    assert report.lost_total == 0
    assert sim.paths[0] == [1, 2, 3, 4, 5, 6, 7, 0]


def test_gpsr_repeats_identical_paths(topo_builder):
    topo = _void_detour_topology(topo_builder)
    cfg = ScenarioConfig(protocol="gpsr", n_sensors=6, initial_energy_j=20.0)
    sim = PathSimulation(cfg, topo)
    sim.run()
    paths = set(tuple(p) for p in sim.paths.values())
    assert paths == {(1, 2, 3, 4, 5, 6, 7, 0)}


def test_gpsr_drops_when_sink_unreachable(topo_builder):
    # source and its one neighbor form a component the sink cannot see
    topo = topo_builder({
        0: Position(490, 90),
        1: Position(10, 90),
        2: Position(70, 90),
    })
    cfg = ScenarioConfig(protocol="gpsr", n_sensors=1, initial_energy_j=20.0)
    report = Simulation(cfg, topo).run()
    assert report.delivered == 0
    assert report.lost["perimeter_exhausted"] == 300


def reference_greedy(t, now, expiry_s):
    """greedy_next_hop by brute force over live_records."""
    closer = [r for r in t.live_records(now, expiry_s)
              if r.distance_to_sink < t.my_sink_distance]
    return min(closer, key=lambda r: (r.distance_to_sink, r.id)).id if closer else None


def reference_planar(t, now, expiry_s):
    """Gabriel neighbours of a table by brute force."""
    live = t.live_records(now, expiry_s)
    me = t.my_position
    kept = []
    for r in live:
        # squared lengths: exact for the integer positions used here
        mx, my = (me.x + r.position.x) / 2.0, (me.y + r.position.y) / 2.0
        r2 = ((me.x - r.position.x) ** 2 + (me.y - r.position.y) ** 2) / 4.0
        if all((w.position.x - mx) ** 2 + (w.position.y - my) ** 2 > r2
               for w in live if w is not r):
            kept.append(r)
    return tuple(kept)


# mirrored dy around the sink's y line give equal distances to the sink
@given(
    specs=st.lists(st.tuples(
        st.sampled_from([-40, -20, 0, 20, 40]),      # dx from me
        st.sampled_from([-30, -15, 0, 15, 30]),      # dy from me
        st.sampled_from([0.0, 1.0]),                 # residual energy
        st.sampled_from([0.0, -2.5, -2.6]),          # beacon time (expiry 2.5)
        st.sampled_from([None, 0.0, 0.5]))           # pending-load overlay
        .filter(lambda spec: spec[:2] != (0, 0)),   # no sub-metre link
        max_size=12),
    ids=st.permutations(range(2, 14)),
)
def test_greedy_agrees_with_brute_force(specs, ids):
    me = Position(370, 90)
    t = table(me, SINK, [record(node_id, Position(370 + dx, 90 + dy), me, SINK,
                                energy=energy, beacon_time=bt, pending=pending)
                         for node_id, (dx, dy, energy, bt, pending) in zip(ids, specs)])
    assert greedy_next_hop(t, 0.0, 2.5) == reference_greedy(t, 0.0, 2.5)


@given(
    offsets=st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50))
                     .filter(lambda o: o != (0, 0)),
                     min_size=1, max_size=10, unique=True),
    gone=st.integers(0, 9),
)
def test_planar_neighbors_follow_liveness(offsets, gone):
    """Gabriel neighbours equal the reference's after a neighbour expires,
    after it beacons back as another expires, which leaves a live set of the
    same size, and after every neighbour beacons again."""
    me, expiry = Position(200, 90), 2.5
    records = [record(node_id, Position(200 + dx, 90 + dy), me, SINK)
               for node_id, (dx, dy) in enumerate(offsets, start=2)]
    t = table(me, SINK, records)
    states = {r.id: r.state for r in records}
    gone = 2 + gone % len(states)

    def beacon_round(time, skip=None):
        for node_id, state in states.items():
            if node_id != skip:
                state.last_beacon_time = time

    beacon_round(0.0)
    first, oldest = planar_neighbors(t, 0.0, expiry)
    assert first == reference_planar(t, 0.0, expiry) and oldest == 0.0
    beacon_round(3.0, skip=gone)                         # `gone` expires
    assert gone not in [r.id for r in t.live_records(3.0, expiry)]
    # the oldest live record's time: inf when `gone` was the only one
    assert planar_neighbors(t, 3.0, expiry) == (
        reference_planar(t, 3.0, expiry), 3.0 if len(states) > 1 else math.inf)
    if len(states) > 1:
        # `gone` beacons back as `other` expires: as many live, not the same
        other = min(i for i in states if i != gone)
        beacon_round(6.0, skip=other)
        assert planar_neighbors(t, 6.0, expiry) == (reference_planar(t, 6.0, expiry), 6.0)
    beacon_round(7.0)                                    # every one beacons
    assert planar_neighbors(t, 7.0, expiry) == (reference_planar(t, 7.0, expiry), 7.0)
    assert planar_neighbors(t, 7.0, expiry)[0] == first


@pytest.mark.parametrize("n", [30, 60, 120])
def test_planar_neighbors_agree_with_global_gabriel(n):
    """The local Gabriel test over a table that holds every radio neighbour
    keeps exactly the global planarization's edges at that node."""
    for seed in range(1, 11):
        topo = generate_topology(ScenarioConfig(seed=seed, n_sensors=n))
        positions = dict(topo.nodes)
        sink = positions[SINK_ID]
        senders = {v: (p, BeaconState(1.0, 0.0), distance(p, sink)) for v, p in positions.items()}
        gabriel = gabriel_planarize(topo)
        for u, neighbours in range_neighbor_lists(topo, RADIO_RANGE).items():
            t = NeighborTable(positions[u], sink, neighbours, senders, DEFAULT)
            local = {r.id for r in planar_neighbors(t, 0.0, 2.5)[0]}
            assert local == {b if a == u else a for a, b in gabriel if u in (a, b)}, (seed, u)
