import math
from dataclasses import dataclass

import pytest

from geams_sim.energy import rx_energy, tx_energy
from geams_sim.engine import Simulation
from geams_sim.neighbors import NeighborRecord, NeighborTable
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
    """A table at `me` that heard `records`' senders in ascending id order."""
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
    node's table after every beacon round, filling a table through the
    engine's own fill before its first check.  It counts what it saw, so a
    test can tell which paths a scenario took."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.oracle = {i: OracleTable([o.id for o in self.range_neighbors[i]])
                       for i in self.nodes}
        self.checks = self.void_announcements = self.void_clears = 0
        self.rx_deaths = self.walkbacks = 0
        self._hearers = []

    def _on_air(self, node, reported, time, void=False, has_sinkward=False):
        # no receiver has been debited yet, so the nodes alive now are the
        # ones that hear the broadcast
        self._hearers = hearers = [o for o in self.range_neighbors[node.id] if o.alive]
        for other in hearers:
            table = self.oracle[other.id]
            if void:
                table.mark_void(node.id)
            else:
                table.handle_beacon(Beacon(node.id, node.position, reported, has_sinkward, time))
        flagged = node.beacon_state.void_flagged
        self.void_announcements += void
        self.void_clears += flagged and not void and has_sinkward
        super()._on_air(node, reported, time, void, has_sinkward)

    def _broadcast(self, node, time, void=False, has_sinkward=False):
        # only the exact path debits receivers one by one, so only it can
        # kill one with a reception
        self._hearers = []
        super()._broadcast(node, time, void, has_sinkward)
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
            self.oracle[node.id].records[hop].residual_energy -= \
                self._pending_load_estimate(pk.payload_bits + self.cfg.header_bits)
        self.walkbacks += node.id in pk.excluded
        self.check_table(node)
        return hop, reason

    def check_table(self, node) -> None:
        self._fill_table(node)  # the fill _route makes on a table's first read
        table, oracle = node.table, self.oracle[node.id]
        now, expiry = self.now, self.cfg.neighbor_expiry_s
        assert [r.id for r in table.live_records(now, expiry)] == oracle.live_ids(now, expiry)
        assert list(table.records) == sorted(oracle.records)
        assert [r.id for r in table.sinkward_records()] == [
            i for i, r in table.records.items() if r.distance_to_sink < table.my_sink_distance]
        for i, want in oracle.records.items():
            r = table.records[i]
            got = OracleRecord(r.residual_energy, r.state.void_flagged,
                               r.state.last_beacon_time)
            assert got == want, (node.id, i, got, want)
        self.checks += 1
