import math
from dataclasses import dataclass

import pytest

from geams_sim.energy import rx_energy, tx_energy
from geams_sim.engine import Simulation
from geams_sim.geams import BestNeighborSet
from geams_sim.neighbors import NeighborRecord, NeighborTable, live
from geams_sim.scenario import ScenarioConfig
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

def score(n: NeighborRecord, k_bits: float, e_elec: float, eps_amp: float) -> float:
    """Neighbor fitness in joules: its remaining energy minus the cost of
    pushing one standard data packet through it (our transmit + its receive)."""
    return (n.residual_energy - tx_energy(k_bits, n.distance_to_me, e_elec, eps_amp)
            - rx_energy(k_bits, e_elec))


def best_set(pairs, oldest: float = 0.0) -> BestNeighborSet:
    """A best-neighbour set holding the (id, score) `pairs` in the order
    given."""
    return BestNeighborSet([i for i, _ in pairs], [v for _, v in pairs], oldest)


def entries(s: BestNeighborSet) -> list[tuple[int, float]]:
    """The (id, score) pairs of a best-neighbour set, best first."""
    return list(zip(s.ids, s.scores))


# Hand-filled neighbour tables, filled as the engine fills them.

def add(t: NeighborTable, r: NeighborRecord) -> None:
    """Give `t` the record of r's sender, heard for the first time, through
    handle_beacon; its id must be above every id `t` holds.  r's pending-load
    overlay is copied onto the new record."""
    assert not t.records or r.id > max(t.records), (r.id, list(t.records))
    t.handle_beacon(r.id, r.position, r.state, distance(r.position, t.sink_position))
    heard = t.records[r.id]
    heard.pending, heard.pending_time = r.pending, r.pending_time


def table(me: Position, sink: Position, records) -> NeighborTable:
    """A table at `me`, filled by hand, that heard `records`' senders in
    ascending id order."""
    t = NeighborTable(my_position=me, sink_position=sink)
    for r in sorted(records, key=lambda r: r.id):
        add(t, r)
    return t


# Beacon-table oracle: one private table per receiver, updated once per
# reception, which the shared per-sender BeaconState must agree with.

@dataclass(frozen=True)
class Beacon:
    sender: int
    position: Position
    residual_energy: float
    # a true value clears any standing void flag for the sender
    has_sinkward: bool
    time: float


@dataclass
class OracleRecord:
    residual_energy: float
    void_flagged: bool
    last_beacon_time: float


class OracleTable:
    """A receiver's own copy of every range neighbour, heard or not: a
    sender never heard has residual 0.0 and last beacon time -inf."""

    def __init__(self, senders):
        self.records = {i: OracleRecord(0.0, False, -math.inf) for i in senders}

    def handle_beacon(self, b: Beacon) -> None:
        r = self.records[b.sender]
        r.residual_energy = b.residual_energy
        r.last_beacon_time = b.time
        if b.has_sinkward:
            r.void_flagged = False

    def mark_void(self, node_id: int) -> None:
        self.records[node_id].void_flagged = True

    def live_ids(self, now: float, expiry_s: float) -> list[int]:
        return sorted(i for i, r in self.records.items()
                      if now - r.last_beacon_time <= expiry_s and r.residual_energy > 0)


class ReplaySimulation(Simulation):
    """A Simulation that also keeps an OracleTable per node, fed by every
    broadcast that goes on air (through the `_on_air` hook, which the exact
    and the batched beacon paths both call), and checks the routing node's
    table against its oracle before and after every route, and every live
    node's table after every beacon round, reading its sink-ward records
    first, as every route does.  It counts what it saw, so a test can tell
    which paths a scenario took, and how many checks found a table that held
    only its sink-ward records."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.oracle = {i: OracleTable(n.table.range_ids) for i, n in self.nodes.items()}
        self.checks = self.sinkward_checks = self.void_announcements = self.void_clears = 0
        self.rx_deaths = self.walkbacks = 0
        self._hearers = []

    def _on_air(self, node, reported, time, void=False):
        # no receiver has been debited yet, so the nodes alive now are the
        # ones that hear the broadcast
        self._hearers = hearers = [o for o in map(self.nodes.get, node.table.range_ids)
                                   if o.alive]
        # the oracle's own void check, from the flag standing before the
        # beacon: an unflagged sender has nothing to clear
        flagged = node.beacon_state.void_flagged
        has_sinkward = not flagged or self._has_sinkward(node)
        for other in hearers:
            table = self.oracle[other.id]
            if void:
                table.mark_void(node.id)
            else:
                table.handle_beacon(Beacon(node.id, node.table.my_position, reported,
                                           has_sinkward, time))
        self.void_announcements += void
        self.void_clears += flagged and not void and has_sinkward
        super()._on_air(node, reported, time, void)

    def _broadcast(self, node, time, void=False):
        # only the exact path debits receivers one by one, so only it can
        # kill one with a reception
        self._hearers = []
        super()._broadcast(node, time, void)
        self.rx_deaths += sum(not other.alive for other in self._hearers)

    def _do_beacons(self, time):
        super()._do_beacons(time)
        for node in self.nodes.values():
            if node.alive:
                self.check_table(node)

    def _route(self, node, pk):
        self.check_table(node)
        hop, reason = super()._route(node, pk)
        if hop is not None and self.cfg.protocol == "geams":
            # the pending-load estimate: the frame's electronics-only relay cost
            self.oracle[node.id].records[hop].residual_energy -= \
                2.0 * self.cfg.e_elec_j_per_bit * (pk.payload_bits + self.cfg.header_bits)
        self.walkbacks += node.id in pk.excluded
        self.check_table(node)
        return hop, reason

    def check_table(self, node) -> None:
        """Check the table against its oracle: the whole oracle once the
        table has made every record, and its sink-ward part while it holds
        only that, which a read of every live record would complete."""
        table, oracle = node.table, self.oracle[node.id]
        table.sinkward_records()  # the read every route makes first
        now, expiry = self.now, self.cfg.neighbor_expiry_s
        held = sorted(oracle.records)
        whole = table.senders is None  # let go once every record is made
        if whole:
            live_ids = [r.id for r in table.live_records(now, expiry)]
        else:
            held = [i for i in held
                    if self.nodes[i].table.my_sink_distance < table.my_sink_distance]
            live_ids = [r.id for r, _ in live(table.sinkward_records(), now, expiry)]
        assert live_ids == [i for i in oracle.live_ids(now, expiry) if i in held]
        assert list(table.records) == held
        assert [r.id for r in table.sinkward_records()] == [
            i for i, r in table.records.items() if r.distance_to_sink < table.my_sink_distance]
        for i in held:
            want = oracle.records[i]
            r = table.records[i]
            got = OracleRecord(r.residual_energy, r.state.void_flagged,
                               r.state.last_beacon_time)
            assert got == want, (node.id, i, got, want)
        self.checks += 1
        self.sinkward_checks += not whole


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
