import pytest

from geams_sim.engine import DataPacket, Simulation
from geams_sim.link import DegenerateLinkError
from geams_sim.neighbors import Beacon, NeighborTable
from geams_sim.scenario import ScenarioConfig
from geams_sim.topology import Position

ME, SINK = Position(100, 90), Position(490, 90)


def beacon(sender, x, energy=1.0, has_sinkward=True, time=0.0):
    return Beacon(sender=sender, position=Position(x, 90), residual_energy=energy,
                  has_sinkward=has_sinkward, time=time)


def test_live_records_in_id_order_whatever_the_arrival_order():
    t = NeighborTable(my_position=ME, sink_position=SINK)
    for sender, x in ((9, 150), (3, 60), (5, 120)):
        t.handle_beacon(beacon(sender, x))
    assert [r.id for r in t.live_records(0.0, 2.5)] == [3, 5, 9]
    t.handle_beacon(beacon(4, 130, time=1.0))
    t.handle_beacon(beacon(9, 150, time=1.0))
    assert [r.id for r in t.live_records(1.0, 2.5)] == [3, 4, 5, 9]


def test_later_beacons_refresh_energy_and_time_only():
    t = NeighborTable(my_position=ME, sink_position=SINK)
    t.handle_beacon(beacon(2, 160, energy=1.0, time=0.0))
    t.handle_beacon(beacon(2, 160, energy=0.7, time=1.0))
    (r,) = t.live_records(1.0, 2.5)
    assert (r.residual_energy, r.last_beacon_time) == (0.7, 1.0)
    assert (r.distance_to_me, r.distance_to_sink) == (60.0, 330.0)
    assert t.my_sink_distance == 390.0


def test_void_flag_survives_until_sender_has_sinkward():
    t = NeighborTable(my_position=ME, sink_position=SINK)
    t.handle_beacon(beacon(2, 160))
    t.mark_void(2)
    t.handle_beacon(beacon(2, 160, has_sinkward=False, time=1.0))
    assert t.records[2].void_flagged
    t.handle_beacon(beacon(2, 160, has_sinkward=True, time=2.0))
    assert not t.records[2].void_flagged


def test_first_beacon_validates_the_link():
    t = NeighborTable(my_position=ME, sink_position=SINK)
    with pytest.raises(DegenerateLinkError):
        t.handle_beacon(beacon(2, 100.5))


def test_pending_load_estimate_is_overwritten_by_next_beacon(topo_builder):
    topo = topo_builder({0: Position(130, 90), 1: Position(10, 90), 2: Position(70, 90)})
    sim = Simulation(ScenarioConfig(protocol="geams", n_sensors=1, beacon_energy=False), topo)
    sim._do_beacons(0.0)
    source, relay = sim.nodes[1], sim.nodes[2]
    reported = relay.battery.residual
    assert source.table.records[2].residual_energy == reported
    pk = DataPacket(source=1, seq=0, payload_bits=1000, created_at=0.0, path=[1])
    source.queue.append(pk)
    sim._try_start(source, 0.0)
    bits = 1000 + sim.cfg.header_bits
    assert source.table.records[2].residual_energy == \
        reported - sim._pending_load_estimate(bits)
    sim._do_beacons(1.0)
    assert source.table.records[2].residual_energy == relay.battery.residual
