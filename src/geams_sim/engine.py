"""Deterministic discrete-event simulation.

One Simulation instance owns all node state and processes events in
(time, insertion sequence) order, so identical scenarios replay identically.
The run ends as soon as every emitted packet is accounted for (delivered or
lost), or at the horizon as a safety stop.

Timing model: a hop takes exactly the serialization time of the frame at the
link's length-dependent rate; propagation is zero.  A node serializes its
outbound transmissions (half duplex on send) but can always receive.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, repeat

from . import geams, gpsr
from .energy import Battery, rx_energy, tx_energy
from .link import link_rate, serialization_delay
from .metrics import LOSS_REASONS, MetricsReport, PacketOutcome, delay_and_loss, \
    dead_node_count, energy_stats, regional_energy
from .neighbors import BeaconState, NeighborTable
from .scenario import ScenarioConfig
from .topology import SINK_ID, SOURCE_ID, Position, Topology, check_nodes, distance, \
    generate_topology, range_neighbor_lists


@dataclass
class DataPacket:
    seq: int
    payload_bits: int
    created_at: float
    # every node the packet has reached, source first: path[0] is its
    # source, its hop count is len(path) - 1, it has outlived its TTL once
    # that exceeds the TTL, and path[-2] is the hop it came from
    path: list[int]
    excluded: set[int] = field(default_factory=set)
    perimeter: gpsr.PerimeterState | None = None


@dataclass(slots=True)
class NodeRuntime:
    id: int
    position: Position
    battery: Battery
    death_exempt: bool
    table: NeighborTable
    alive: bool = True
    queue: list = field(default_factory=list)
    transmitting: bool = False
    source_states: dict[int, geams.SourceState] = field(default_factory=dict)
    # what this node's beacons told its neighbours: never live until one
    # goes on air
    beacon_state: BeaconState = field(default_factory=BeaconState)
    # live range neighbours with a lower and a higher id; set by
    # Simulation.__init__, then kept by _kill
    live_below: int = 0
    live_above: int = 0


class EnergyLedger:
    """Every joule leaving a battery is recorded here, by cause, so the sum of
    entries must equal the total battery drawdown at any instant."""

    CATEGORIES = ("data_tx", "data_rx", "beacon_tx", "beacon_rx",
                  "void_tx", "void_rx", "death_forfeit")

    def __init__(self):
        self.totals = {c: 0.0 for c in self.CATEGORIES}

    def add(self, category: str, amount: float) -> None:
        self.totals[category] += amount

    @property
    def total(self) -> float:
        return sum(self.totals.values())


class Simulation:
    # a node is safe in a beacon round when its residual exceeds the most the
    # round can debit by this factor, far above the float rounding of the
    # round's subtractions; a subclass that sets it to inf runs every round
    # on the exact path
    SAFE_MARGIN = 1.0 + 1e-9

    def __init__(self, cfg: ScenarioConfig, topology: Topology | None = None):
        self.cfg = cfg
        if topology is None:
            topology = generate_topology(cfg)
        else:
            check_nodes(topology.nodes, cfg)  # generated ones pass by construction
        self.topology = topology

        # ascending by id whatever the row order: beacon rounds rely on it
        positions = dict(sorted(topology.nodes))  # ids are unique
        sink = positions[SINK_ID]  # every table steers to node 0's row
        self.nodes: dict[int, NodeRuntime] = {}
        for node_id, pos in positions.items():
            gateway = node_id in (SINK_ID, SOURCE_ID)
            initial = cfg.gateway_energy_j if gateway else cfg.initial_energy_j
            self.nodes[node_id] = NodeRuntime(
                id=node_id,
                position=pos,
                battery=Battery(residual=initial, initial=initial),
                death_exempt=gateway,
                table=NeighborTable(my_position=pos, sink_position=sink),
            )
        # static radio adjacency, ascending by id; liveness is handled at
        # delivery time
        self.range_neighbors: dict[int, list[NodeRuntime]] = {}
        for u, vs in range_neighbor_lists(topology, cfg.radio_range).items():
            self.range_neighbors[u] = [self.nodes[v] for v in vs]
            node = self.nodes[u]
            node.live_below = below = bisect_left(vs, u)
            node.live_above = len(vs) - below

        self.ttl0 = cfg.effective_ttl(len(topology))
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        self.emitted = 0
        # one entry per packet that reached the sink or was lost
        self.outcomes: list[PacketOutcome] = []
        self.paths: dict[int, list[int]] = {}
        self.ledger = EnergyLedger()
        self.emissions_done = False
        # S[m] = S[m - 1] + beacon receive cost, S[0] = 0.0: the ledger entry
        # for m receptions, as the exact path sums it
        most = max(map(len, self.range_neighbors.values()), default=0)
        self._rx_totals = list(accumulate(
            repeat(rx_energy(cfg.beacon_bits, cfg.e_elec_j_per_bit), most), initial=0.0))

    # -- event plumbing -----------------------------------------------------

    def _schedule(self, time: float, handler, *args) -> None:
        """Call handler(time, *args) at `time`, after every event already
        scheduled for that instant."""
        heapq.heappush(self._heap, (time, self._seq, handler, args))
        self._seq += 1

    def _traffic_complete(self) -> bool:
        return self.emissions_done and len(self.outcomes) == self.emitted

    def run(self) -> MetricsReport:
        self._schedule(0.0, self._do_beacons)
        self._schedule(0.0, self._do_emission, 0)
        heap = self._heap
        while heap:
            time, _, handler, args = heapq.heappop(heap)
            if time > self.cfg.horizon_s:
                break
            self.now = time
            handler(time, *args)
            if self._traffic_complete():
                break
        # the pending handlers are bound methods, which refer back to self:
        # drop them so a finished run is freed without waiting for a gc pass
        heap.clear()
        return self.report()

    # -- outcome recording --------------------------------------------------

    def _record(self, pk: DataPacket, outcome: str, delay: float | None = None) -> None:
        """`outcome` is "delivered" (with its end-to-end delay) or a loss reason."""
        assert outcome == "delivered" or outcome in LOSS_REASONS, outcome
        self.outcomes.append(PacketOutcome(pk.seq, outcome, delay, len(pk.path) - 1))
        self.paths[pk.seq] = pk.path

    def _kill(self, node: NodeRuntime) -> None:
        if node.death_exempt or not node.alive:
            return
        node.alive = False
        for pk in node.queue:
            self._record(pk, "sender_died")
        node.queue.clear()
        # take it out of its neighbours' live-neighbour counts
        nid = node.id
        for other in self.range_neighbors[nid]:
            if nid < other.id:
                other.live_below -= 1
            else:
                other.live_above -= 1

    def _drop_and_die(self, node: NodeRuntime, pk: DataPacket) -> None:
        """Node cannot afford a pending transmission: forfeit the remaining
        charge rather than transmit partially, and lose the packet."""
        self._record(pk, "sender_died")
        self.ledger.add("death_forfeit", node.battery.forfeit())
        self._kill(node)

    # -- beacons ------------------------------------------------------------

    def _has_sinkward(self, node: NodeRuntime) -> bool:
        """Whether GEAMS would forward from `node` now rather than walk back."""
        cfg = self.cfg
        return bool(geams.build_best_neighbor_set(
            node.table, self.now, cfg.neighbor_expiry_s, cfg.data_packet_bits,
            cfg.e_elec_j_per_bit, cfg.eps_amp_j_per_bit_m2))

    def _clears_void(self, node: NodeRuntime) -> bool:
        """The void check a beacon makes as its node's turn comes: whether
        the beacon clears the sender's void flag."""
        return not node.beacon_state.void_flagged or self._has_sinkward(node)

    def _on_air(self, node: NodeRuntime, reported: float, time: float,
                void: bool = False, has_sinkward: bool = False) -> None:
        """A broadcast from `node`, reporting `reported` joules, has gone on
        air at `time`: update the sender's shared BeaconState (a beacon
        clears its void flag when `has_sinkward`; an announcement sets it).
        Both beacon paths call this once per broadcast on air, before any
        receiver is debited."""
        state = node.beacon_state
        if void:
            state.void_flagged = True
        else:
            state.residual_energy = reported
            state.last_beacon_time = time
            if has_sinkward:
                state.void_flagged = False

    def _broadcast(self, node: NodeRuntime, time: float, void: bool = False,
                   has_sinkward: bool = False) -> None:
        """The exact path: a beacon stamped `time` or, with `void`, a void
        announcement.  The sender pays one worst-case (full radio range)
        transmission; an underfunded one never goes on air.  On air, it
        updates the sender's state (_on_air), and every live in-range node
        pays one reception, in ascending id order."""
        cfg = self.cfg
        if void:
            bits, tx_cat, rx_cat = cfg.void_announcement_bits, "void_tx", "void_rx"
        else:
            bits, tx_cat, rx_cat = cfg.beacon_bits, "beacon_tx", "beacon_rx"
        charge = cfg.beacon_energy
        battery = node.battery
        reported = battery.residual  # a beacon reports the charge it is sent from
        if charge:
            cost = tx_energy(bits, cfg.radio_range, cfg.e_elec_j_per_bit,
                             cfg.eps_amp_j_per_bit_m2)
            drained, died = battery.debit(cost)
            self.ledger.add(tx_cat, drained)
            if drained < cost or died:
                self._kill(node)
                if drained < cost:
                    return  # underfunded broadcast never goes on air
        self._on_air(node, reported, time, void, has_sinkward)
        if not charge:
            return
        # Battery.debit, inlined: the same float expressions and death test,
        # and one ledger entry for the whole broadcast's receptions
        rx_cost = rx_energy(bits, cfg.e_elec_j_per_bit)
        total = 0.0
        for other in self.range_neighbors[node.id]:
            if not other.alive:
                continue
            receiver = other.battery
            residual = receiver.residual
            drained = residual if residual < rx_cost else rx_cost
            receiver.residual = left = residual - drained
            total += drained
            if residual > 0 and left == 0.0 and rx_cost > 0:
                self._kill(other)
        self.ledger.add(rx_cat, total)

    def _do_beacons(self, time: float) -> None:
        """A beacon round: each live node, in ascending id order, runs its
        void check and broadcasts.  With beacon energy on, a node's debits
        in a round come in a fixed order: one reception per on-air sender
        below it, then its own beacon, which reports the residual left at
        that point, then one reception per on-air sender above it; every
        sender books one beacon_tx and one beacon_rx ledger entry, in sender
        order.  _beacon_round batches a round whole when it can; any other
        round takes the exact path (_broadcast) node by node."""
        cfg = self.cfg
        if not (cfg.beacon_energy and self._beacon_round(time)):
            for node in self.nodes.values():
                if node.alive:
                    self._broadcast(node, time, has_sinkward=self._clears_void(node))
        nxt = time + cfg.beacon_interval_s
        if nxt <= cfg.horizon_s and not self._traffic_complete():
            self._schedule(nxt, self._do_beacons)

    def _beacon_round(self, time: float) -> bool:
        """Batch a beacon round, with beacon energy on, if every live node is
        safe; returns whether it did.  A node is safe when its residual
        exceeds its beacon plus one reception per live neighbour by
        SAFE_MARGIN: it cannot die this round and funds its beacon.  Then
        every node goes on air, and no battery is touched but by its owner or
        read before the round ends, so each node settles its round at its
        turn: it subtracts its debits in order in a local float (never
        multiplied: r - c - c is not r - 2c in floating point) and books its
        receivers' receptions as one prefix sum.  Receptions all cost the
        same, so only their number before and after a node's own beacon
        matters, and the floats equal the exact path's."""
        cfg = self.cfg
        bits = cfg.beacon_bits
        tx = tx_energy(bits, cfg.radio_range, cfg.e_elec_j_per_bit, cfg.eps_amp_j_per_bit_m2)
        rx = rx_energy(bits, cfg.e_elec_j_per_bit)
        margin = self.SAFE_MARGIN
        live = [n for n in self.nodes.values() if n.alive]
        if not all(n.battery.residual > margin * (tx + (n.live_below + n.live_above) * rx)
                   for n in live):
            return False
        rx_totals = self._rx_totals
        ledger_add = self.ledger.add
        on_air = self._on_air
        for node in live:
            has_sinkward = self._clears_void(node)
            battery = node.battery
            r = battery.residual
            below, above = node.live_below, node.live_above
            for _ in range(below):
                r -= rx
            on_air(node, r, time, False, has_sinkward)
            r -= tx
            for _ in range(above):
                r -= rx
            battery.residual = r
            ledger_add("beacon_tx", tx)
            ledger_add("beacon_rx", rx_totals[below + above])
        return True

    # -- traffic ------------------------------------------------------------

    def _do_emission(self, time: float, image_idx: int) -> None:
        cfg = self.cfg
        source = self.nodes[SOURCE_ID]
        n_packets = math.ceil(cfg.image_bits / cfg.packet_bits)
        remaining = cfg.image_bits
        for _ in range(n_packets):
            bits = min(cfg.packet_bits, remaining)
            remaining -= bits
            pk = DataPacket(
                seq=self.emitted,
                payload_bits=bits,
                created_at=time,
                path=[SOURCE_ID],
            )
            self.emitted += 1
            if len(source.queue) >= cfg.queue_capacity:
                self._record(pk, "buffer_overflow")
            else:
                source.queue.append(pk)
        if image_idx + 1 < cfg.image_count:
            self._schedule(time + cfg.image_interval_s, self._do_emission, image_idx + 1)
        else:
            self.emissions_done = True
        self._try_start(source, time)

    def _try_start(self, node: NodeRuntime, time: float) -> None:
        cfg = self.cfg
        while node.alive and not node.transmitting and node.queue:
            pk = node.queue.pop(0)
            next_hop, drop_reason = self._route(node, pk)
            if next_hop is None:
                self._record(pk, drop_reason)
                continue
            # every route picks a neighbor from the table, whose record holds
            # the hop length
            d = node.table.records[next_hop].distance_to_me
            bits = pk.payload_bits + cfg.header_bits
            cost = tx_energy(bits, d, cfg.e_elec_j_per_bit, cfg.eps_amp_j_per_bit_m2)
            if not node.death_exempt and node.battery.residual < cost:
                self._drop_and_die(node, pk)
                return
            node.transmitting = True
            delay = serialization_delay(bits, link_rate(d, cfg.base_rate_bps))
            self._schedule(time + delay, self._do_tx_complete,
                           node.id, next_hop, pk, cost, bits)
            return

    def _do_tx_complete(self, time: float, sender_id: int, receiver_id: int,
                        pk: DataPacket, cost: float, bits: int) -> None:
        """`cost` is the transmit energy `_try_start` priced the frame at."""
        sender = self.nodes[sender_id]
        sender.transmitting = False
        if not sender.alive:
            self._record(pk, "sender_died")
            return
        drained, died = sender.battery.debit(cost)
        self.ledger.add("data_tx", drained)
        if drained < cost:
            # a mid-transmission debit (beacon traffic) starved the battery
            self._record(pk, "sender_died")
            self._kill(sender)
            return
        self._schedule(time, self._do_arrival, receiver_id, pk, bits)
        if died:
            self._kill(sender)
        else:
            self._try_start(sender, time)

    def _do_arrival(self, time: float, receiver_id: int, pk: DataPacket,
                    bits: int) -> None:
        receiver = self.nodes[receiver_id]
        if not receiver.alive:
            self._record(pk, "next_hop_died")
            return
        drained, died = receiver.battery.debit(rx_energy(bits, self.cfg.e_elec_j_per_bit))
        self.ledger.add("data_rx", drained)
        pk.path.append(receiver_id)
        if died:
            self._kill(receiver)
            self._record(pk, "next_hop_died")
            return
        if receiver_id == SINK_ID:
            self._record(pk, "delivered", time - pk.created_at)
            return
        if len(pk.path) > self.ttl0:
            self._record(pk, "ttl_expired")
            return
        if len(receiver.queue) >= self.cfg.queue_capacity:
            self._record(pk, "buffer_overflow")
            return
        receiver.queue.append(pk)
        self._try_start(receiver, time)

    def _pending_load_estimate(self, bits: int) -> float:
        """Relay cost a forwarded frame will impose on the chosen neighbor:
        its receive plus the electronics part of its own transmit (the
        amplifier term depends on a hop we cannot know)."""
        return 2.0 * self.cfg.e_elec_j_per_bit * bits

    # -- routing ------------------------------------------------------------

    def _fill_table(self, node: NodeRuntime) -> None:
        """Fill an empty table with a record of every range neighbour, in
        ascending id order.  Every record refers to its sender's shared
        state, which exists from the start, so the fill may come at any time:
        _route makes it on the table's first read, and a sender that has
        never gone on air has a record that is never live."""
        table = node.table
        if not table.records:
            for other in self.range_neighbors[node.id]:
                table.handle_beacon(other.id, other.position, other.beacon_state,
                                    other.table.my_sink_distance)

    def _route(self, node: NodeRuntime, pk: DataPacket) -> tuple[int | None, str | None]:
        self._fill_table(node)
        if self.cfg.protocol == "geams":
            return self._route_geams(node, pk)
        return self._route_gpsr(node, pk)

    def _route_geams(self, node: NodeRuntime, pk: DataPacket) -> tuple[int | None, str | None]:
        cfg = self.cfg
        entries = geams.build_best_neighbor_set(
            node.table, self.now, cfg.neighbor_expiry_s, cfg.data_packet_bits,
            cfg.e_elec_j_per_bit, cfg.eps_amp_j_per_bit_m2)
        if entries:
            source = pk.path[0]
            next_hop, node.source_states[source] = geams.select_next_hop(
                node.source_states.get(source), entries, len(pk.path) - 1)
        else:
            # walking back: announce the void unless it stands, then delegate
            # sink-ward-most
            if not node.beacon_state.void_flagged:
                self._broadcast(node, self.now, void=True)
                if not node.alive:
                    return None, "sender_died"
            pk.excluded.add(node.id)
            next_hop = geams.walking_back_candidate(
                node.table, pk.excluded, self.now, cfg.neighbor_expiry_s)
            if next_hop is None:
                return None, "void_unresolvable"
        # Account for the relay cost this forward imposes on the neighbor
        # before its next beacon refreshes the record, otherwise every score
        # stays stale for a whole beacon interval and the burst hammers a
        # single neighbor.  The estimate is the electronics-only relay cost
        # (its receive plus its transmit, amplifier term unknown), kept in
        # this node's overlay on the record; the neighbor's next beacon
        # supersedes it with ground truth.  A sender that then cannot afford
        # the frame dies, and a dead node's table is never read again.
        r = node.table.records[next_hop]
        r.pending = r.residual_energy - self._pending_load_estimate(
            pk.payload_bits + cfg.header_bits)
        r.pending_time = r.state.last_beacon_time
        return next_hop, None

    def _route_gpsr(self, node: NodeRuntime, pk: DataPacket) -> tuple[int | None, str | None]:
        cfg = self.cfg
        table = node.table
        state = pk.perimeter
        if state is not None and table.my_sink_distance < distance(
                state.entry_point, table.sink_position):
            pk.perimeter = state = None  # past the void: resume greedy
        if state is None:
            choice = gpsr.greedy_next_hop(table, self.now, cfg.neighbor_expiry_s)
            if choice is not None:
                return choice, None
            planar = gpsr.planar_neighbors(table, self.now, cfg.neighbor_expiry_s)
            first = gpsr.perimeter_first_hop(node.position, table.sink_position, planar)
            if first is None:
                return None, "perimeter_exhausted"
            pk.perimeter = gpsr.PerimeterState(
                entry_point=node.position, first_edge=(node.id, first))
            return first, None
        planar = gpsr.planar_neighbors(table, self.now, cfg.neighbor_expiry_s)
        prev_pos = self.nodes[pk.path[-2]].position
        nxt = gpsr.perimeter_next_hop(node.position, prev_pos, planar)
        if nxt is None:
            return None, "perimeter_exhausted"
        if (node.id, nxt) == state.first_edge:
            return None, "perimeter_exhausted"  # walked the whole face
        return nxt, None

    # -- reporting ----------------------------------------------------------

    def energy_drawdown(self) -> tuple[float, float]:
        """(sum of initial-minus-residual over all nodes, ledger total);
        the two must agree up to float rounding."""
        drawn = sum(n.battery.initial - n.battery.residual for n in self.nodes.values())
        return drawn, self.ledger.total

    def report(self) -> MetricsReport:
        # ascending by id, so the float sums do not depend on row order
        sensors = [n for n in self.nodes.values() if not n.death_exempt]
        residuals = [n.battery.residual for n in sensors]
        mean_e, var_e = energy_stats(residuals)
        log = sorted(self.outcomes, key=lambda p: p.seq)  # seq is unique
        delay_mean, delay_var, lost = delay_and_loss(log)
        return MetricsReport(
            dead_nodes=dead_node_count(residuals),
            mean_energy=mean_e,
            energy_variance=var_e,
            regional_mean_energy=regional_energy(
                [(n.position, n.battery.residual) for n in sensors], self.cfg.field_width),
            delay_mean=delay_mean,
            delay_variance=delay_var,
            delivered=len(log) - sum(lost.values()),
            lost=lost,
            per_packet_log=log,
        )


def run_scenario(cfg: ScenarioConfig, topology: Topology | None = None) -> MetricsReport:
    """Run one scenario to completion and return its report."""
    return Simulation(cfg, topology).run()
