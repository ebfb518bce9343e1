import math

import pytest
from hypothesis import strategies as st

from geams_sim.energy import rx_energy, tx_energy
from geams_sim.engine import Simulation
from geams_sim.geams import BestNeighborSet
from geams_sim.neighbors import BeaconState, NeighborRecord, NeighborTable
from geams_sim.scenario import PROTOCOLS, ScenarioConfig
from geams_sim.topology import Position, Topology, distance


def assert_energy_balanced(drawn: float, ledger_total: float) -> None:
    """Battery drawdown must equal the ledger.  The gateways start at 1e6 J,
    so initial-minus-residual cancels catastrophically: each debit can lose an
    ulp of 1e6 (about 1.2e-10 J), which bounds honest drift well under 1e-6 J
    over a run."""
    assert math.isclose(drawn, ledger_total, rel_tol=1e-9, abs_tol=1e-6), \
        (drawn, ledger_total)


@pytest.fixture
def topo_builder():
    """Factory for hand-placed topologies.  `positions` maps node id to
    Position; id 0 must be the sink and id 1 the source."""

    def build(positions: dict) -> Topology:
        return Topology(nodes=tuple(sorted(positions.items())))

    return build


def chain_positions(spacing: float = 60.0, n_hops: int = 8) -> dict:
    """Straight west-to-east chain: source at x=10, sink at the far end,
    sensors in between.  With spacing in (range/2, range], every node's only
    sink-ward in-range neighbor is the next chain node."""
    xs = [10.0 + spacing * i for i in range(n_hops + 1)]
    positions = {1: Position(xs[0], 90.0), 0: Position(xs[-1], 90.0)}
    for i, x in enumerate(xs[1:-1], start=2):
        positions[i] = Position(x, 90.0)
    return positions


class PathSimulation(Simulation):
    """A Simulation that also keeps each finished packet's hop path (source
    first) by sequence number, as its outcome is recorded."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.paths: dict[int, list[int]] = {}

    def _record(self, pk, outcome, delay=None):
        super()._record(pk, outcome, delay)
        self.paths[pk.seq] = pk.path


# Brute-force geometry oracles: the all-pairs definitions that the cell grid
# (topology.range_neighbor_lists) and the local Gabriel test
# (gpsr.planar_neighbors) must agree with.  Radio range `r` defaults to the
# scenario's.

RADIO_RANGE = ScenarioConfig().radio_range


def radio_neighbors(t: Topology, node_id: int, r: float = RADIO_RANGE) -> set[int]:
    """Ids of all nodes within radio range r of node_id (boundary inclusive)."""
    me = dict(t.nodes)[node_id]
    return {
        other
        for other, p in t.nodes
        if other != node_id and distance(me, p) <= r
    }


def radio_edges(t: Topology, r: float = RADIO_RANGE) -> set[tuple[int, int]]:
    """All links of radio range r as (u, v) pairs with u < v."""
    edges = set()
    nodes = t.nodes
    for i in range(len(nodes)):
        u, pu = nodes[i]
        for j in range(i + 1, len(nodes)):
            v, pv = nodes[j]
            if distance(pu, pv) <= r:
                edges.add((min(u, v), max(u, v)))
    return edges


def gabriel_planarize(t: Topology, r: float = RADIO_RANGE) -> set[tuple[int, int]]:
    """Gabriel subgraph of the radio graph: edge (u, v) survives iff no third
    node lies inside or on the circle with diameter uv.  Boundary nodes remove
    the edge, which keeps the result deterministic for degenerate placements.
    """
    positions = dict(t.nodes)
    kept = set()
    for u, v in radio_edges(t, r):
        pu, pv = positions[u], positions[v]
        mx, my = (pu.x + pv.x) / 2.0, (pu.y + pv.y) / 2.0
        r2 = ((pu.x - pv.x) ** 2 + (pu.y - pv.y) ** 2) / 4.0
        if all(
            (p.x - mx) ** 2 + (p.y - my) ** 2 > r2
            for w, p in t.nodes
            if w != u and w != v
        ):
            kept.add((u, v))
    return kept


# GEAMS score oracle: the definition geams.build_best_neighbor_set inlines.
# It prices the hop from the positions, not from the record's own price.

def score(n: NeighborRecord, me: Position, k_bits: float, e_elec: float,
          eps_amp: float) -> float:
    """Fitness in joules, at `me`, of neighbour `n`: its remaining energy
    minus the cost of pushing one standard data packet through it (our
    transmit + its receive)."""
    return (n.residual_energy - tx_energy(k_bits, distance(me, n.position), e_elec, eps_amp)
            - rx_energy(k_bits, e_elec))


def best_set(pairs, oldest: float = 0.0) -> BestNeighborSet:
    """A best-neighbour set holding the (id, score) `pairs` in the order
    given."""
    return BestNeighborSet([i for i, _ in pairs], [v for _, v in pairs], oldest)


def entries(s: BestNeighborSet) -> list[tuple[int, float]]:
    """The (id, score) pairs of a best-neighbour set, best first."""
    return list(zip(s.ids, s.scores))


# Neighbour tables, made as a run makes them, at the default scenario's
# radio constants and base rate.

DEFAULT = ScenarioConfig()


def record(node_id, pos, me, sink, energy=1.0, void=False, beacon_time=0.0,
           pending=None, stale=False) -> NeighborRecord:
    """The record, at `me`, of a sender at `pos` whose last beacon reported
    `energy`, made by a table of its own; `pending` puts a pending-load
    overlay on it, taken before that beacon when `stale`."""
    state = BeaconState(energy, beacon_time, void_flagged=void)
    t = NeighborTable(me, sink, [node_id], {node_id: (pos, state, distance(pos, sink))},
                      DEFAULT)
    t.live_records(0.0, 0.0)  # the first read of every record makes them all
    r = t.records[node_id]
    if pending is not None:
        r.pending, r.pending_time = pending, beacon_time - 1.0 if stale else beacon_time
    return r


def filling_table(me: Position, sink: Position, records) -> NeighborTable:
    """A table at `me` that fills itself, as a run's do, from the senders of
    `records`, sharing their states; no read has made a record yet."""
    senders = {r.id: (r.position, r.state, distance(r.position, sink)) for r in records}
    return NeighborTable(me, sink, sorted(senders), senders, DEFAULT)


def table(me: Position, sink: Position, records) -> NeighborTable:
    """A filling_table with every record made, each carrying the pending-load
    overlay of its record in `records`."""
    t = filling_table(me, sink, records)
    t.live_records(0.0, 0.0)  # the first read of every record makes them all
    for r in records:
        made = t.records[r.id]
        made.pending, made.pending_time = r.pending, r.pending_time
    return t


class HopLog(Simulation):
    """A Simulation that also logs (time, frame bits) of every tx-complete
    event, in the order they run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hops: list[tuple[float, int]] = []

    def _do_tx_complete(self, time, sender_id, receiver_id, pk, cost, bits):
        self.hops.append((time, bits))
        super()._do_tx_complete(time, sender_id, receiver_id, pk, cost, bits)


def first_hop(length_m: float, **overrides) -> tuple[float, int]:
    """(time, bits) of the first tx-complete event when the source sends
    straight to a sink `length_m` metres east.  The frame goes on air at
    t = 0, so the time is the hop's serialization time."""
    cfg = ScenarioConfig(n_sensors=0, sink_x=ScenarioConfig.source_x + length_m,
                         image_count=1, **overrides)
    sim = HopLog(cfg)
    sim.run()
    return sim.hops[0]


def low_energy_cells():
    """Sparse low-energy cells, where beacon receptions kill sensors mid-round
    (at 0.005 J sensors cannot fund the t = 0 round), a cell without beacon
    energy, and cells whose gateways run too low to fund their beacons: two
    whose source runs dry, and four whose source stays funded while the sink
    (in one cell the source too) stops going on air."""
    cells = [ScenarioConfig(protocol=protocol, seed=seed, n_sensors=30,
                            initial_energy_j=energy, image_count=10, horizon_s=20.0)
             for protocol in PROTOCOLS for seed in (1, 2, 3, 4, 5)
             for energy in (0.005, 0.05, 0.5)]
    cells.append(ScenarioConfig(n_sensors=30, beacon_energy=False, image_count=10,
                                horizon_s=20.0))
    gateways = [ScenarioConfig(protocol=protocol, n_sensors=30, gateway_energy_j=0.05,
                               image_count=10, horizon_s=20.0)
                for protocol in PROTOCOLS]
    sparse = dict(image_bits=1000, image_count=6, image_interval_s=6.0, horizon_s=30.0)
    gateways += [
        ScenarioConfig(protocol="geams", seed=22, n_sensors=60, gateway_energy_j=0.15, **sparse),
        ScenarioConfig(protocol="gpsr", seed=15, n_sensors=60, gateway_energy_j=0.15, **sparse),
        ScenarioConfig(protocol="geams", seed=22, gateway_energy_j=0.1,
                       **dict(sparse, image_count=4, image_interval_s=2.0)),
        ScenarioConfig(protocol="gpsr", seed=2, n_sensors=30, radio_range=40.0,
                       initial_energy_j=0.1, gateway_energy_j=0.005, image_count=5,
                       horizon_s=20.0)]
    return cells, gateways


def equivalence_cells():
    """The cells that the kept-choice checkers and the differential test
    share: the low-energy cells, among them one without beacon energy and
    the gateway cells, the sparse n = 30 cells where GEAMS walks back, the
    default cell of each protocol cut to 5 images, low-energy n = 100
    cells, one at 10 small images a second, where a kept set outlives the
    expiry of a sensor that died before its last two beacons, and two cells
    with a short TTL, in which both protocols lose packets to it and
    deliver others."""
    cells, gateways = low_energy_cells()
    low = dict(initial_energy_j=0.5, image_count=10, horizon_s=20.0)
    stream = dict(initial_energy_j=0.1, packet_bits=200, image_bits=2000,
                  image_interval_s=0.1, image_count=60, horizon_s=20.0)
    return cells + gateways + [
        ScenarioConfig(protocol=protocol, **kw)
        for protocol in PROTOCOLS
        for kw in ([dict(n_sensors=30, seed=seed) for seed in (1, 2, 3, 4, 5)]
                   + [dict(image_count=5), dict(seed=1, **low), dict(seed=2, **low),
                      dict(seed=1, **stream), dict(n_sensors=30, seed=5, ttl=10),
                      dict(image_count=5, ttl=12)])]


# Random scenario draws, shared by the differential test and the
# metamorphic relations.

_COMMON = dict(
    protocol=st.sampled_from(PROTOCOLS),
    seed=st.integers(1, 10_000),
    # funded five times in six: an underfunded gateway mostly runs the
    # source dry, which is checked but not compared
    gateway_energy_j=st.sampled_from([1e6] * 10 + [0.0, 0.002]),
    beacon_energy=st.booleans(),
)
# small scenarios at the default one image a second
_SMALL = st.fixed_dictionaries(dict(
    _COMMON,
    n_sensors=st.integers(0, 30),
    horizon_s=st.floats(0.05, 12.0),
    image_count=st.integers(1, 6),
    initial_energy_j=st.sampled_from([0.0, 0.002, 0.01, 0.03, 0.1, 0.5]),
    radio_range=st.sampled_from([40.0, 80.0, 150.0]),
))
# dying streams: images every 0.1-0.2 s cross a well-connected field while
# its sensors die, so that a kept choice (a GEAMS best-neighbour set, a GPSR
# greedy hop) stands while a dead neighbour's sink-ward record expires; an
# expiry down to just over one beacon interval lets it expire mid-round
_DYING_STREAM = st.fixed_dictionaries(dict(
    _COMMON,
    n_sensors=st.integers(10, 30),
    horizon_s=st.floats(3.0, 12.0),
    image_count=st.integers(10, 40),
    image_interval_s=st.floats(0.1, 0.2),
    image_bits=st.sampled_from([1000, 2000, 5000, 10_000]),
    initial_energy_j=st.sampled_from([0.01, 0.03, 0.05, 0.1]),
    radio_range=st.sampled_from([150.0, 250.0]),
    neighbor_expiry_intervals=st.floats(1.01, 2.5),
))
