"""Deterministic discrete-event simulation.

One Simulation instance owns all node state and processes events in
(time, insertion sequence) order, so identical scenarios replay identically.
The run ends as soon as every emitted packet is accounted for (delivered or
lost), or at the horizon as a safety stop.

Timing model: a hop takes exactly the serialization time of the frame at the
link's rate, which shrinks with the square root of the link's length:
base_rate_bps / sqrt(length), worked out as the record of a hop routing
takes is made (neighbors.NeighborTable.handle_beacon) beside its price.
Links are at least 1 m long: the scenario's min_separation is, and every
deployment is checked against it at load time.  Propagation is zero, so a
frame arrives at the instant its transmission completes.  A node serializes
its outbound transmissions (half duplex on send) but can always receive.  The
arrival is handled inside the tx-complete event when no other event is due at
that instant, and is scheduled behind the events due then otherwise, so
events run in the order they would if every arrival were an event of its own.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, repeat

from . import geams, gpsr
from .energy import Battery, BinadeSteps, rx_energy, tx_energy
from .metrics import LOSS_REASONS, MetricsReport, PacketOutcome, delay_and_loss, \
    dead_node_count, energy_stats, float_sum, regional_energy
from .neighbors import BeaconState, NeighborTable, live
from .scenario import ScenarioConfig
from .topology import SINK_ID, SOURCE_ID, Topology, generate_topology


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
    battery: Battery
    death_exempt: bool
    table: NeighborTable
    alive: bool = True
    queue: list = field(default_factory=list)
    transmitting: bool = False
    # GEAMS forwarding memory: one stream, as every packet starts at the source
    stream: geams.SourceState | None = None
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
        return float_sum(self.totals.values())  # in CATEGORIES order


class Simulation:
    # a node is safe in a beacon round when its residual exceeds the most the
    # round can debit by this factor, far above the float rounding of the
    # round's subtractions
    SAFE_MARGIN = 1.0 + 1e-9

    def __init__(self, cfg: ScenarioConfig, topology: Topology | None = None):
        self.cfg = cfg
        if topology is None:
            topology = generate_topology(cfg)
        else:
            topology.check(cfg)
        self.topology = topology

        # ascending by id whatever the row order: beacon rounds rely on it
        positions = dict(sorted(topology.nodes))  # ids are unique
        sink = positions[SINK_ID]  # every table steers to node 0's row
        # static radio adjacency, ascending by id, held by each node's table
        # and shared with every run on this placement and radio range;
        # liveness is handled at delivery time
        range_ids = topology.range_lists(cfg.radio_range)
        # what every table makes its records from; it refers to no node
        senders: dict[int, tuple] = {}
        self.nodes: dict[int, NodeRuntime] = {}
        for node_id, pos in positions.items():
            gateway = node_id in (SINK_ID, SOURCE_ID)
            initial = cfg.gateway_energy_j if gateway else cfg.initial_energy_j
            vs = range_ids[node_id]
            below = bisect_left(vs, node_id)
            node = self.nodes[node_id] = NodeRuntime(
                id=node_id,
                battery=Battery(residual=initial, initial=initial),
                death_exempt=gateway,
                table=NeighborTable(pos, sink, vs, senders, cfg),
                live_below=below,
                live_above=len(vs) - below,
            )
            senders[node_id] = (node_id, pos, node.beacon_state, node.table.my_sink_distance)

        self.ttl0 = cfg.effective_ttl(len(topology))
        self.now = 0.0
        self._heap: list = []
        self._seq = 0
        self.emitted = 0
        # one entry per packet that reached the sink or was lost
        self.outcomes: list[PacketOutcome] = []
        self.ledger = EnergyLedger()
        self.emissions_done = False
        # (send, hear) joules of a beacon and of a void announcement: one
        # full-range transmission and one reception; 0.0 J with beacon energy
        # off, which changes no float
        e_elec = cfg.e_elec_j_per_bit
        self._beacon_price, self._void_price = [
            (tx_energy(bits, cfg.radio_range, e_elec, cfg.eps_amp_j_per_bit_m2),
             rx_energy(bits, e_elec)) if cfg.beacon_energy else (0.0, 0.0)
            for bits in (cfg.beacon_bits, cfg.void_announcement_bits)]
        # S[m] = S[m - 1] + beacon hear price, S[0] = 0.0: the ledger entry
        # for m receptions, as the exact path sums it
        most = max((len(n.table.range_ids) for n in self.nodes.values()), default=0)
        self._rx_totals = list(accumulate(repeat(self._beacon_price[1], most), initial=0.0))
        # what m beacon receptions take from a residual, by its binade
        self._rx_steps = BinadeSteps(self._beacon_price[1])
        self.expiry_s = cfg.neighbor_expiry_s
        # a GEAMS forward's constants: the bits a score prices, their
        # receive price, and the relay price per bit of a frame (_route_geams);
        # then every hop's routing, header bits, receive price per bit and queue limit
        self._data_bits = cfg.data_packet_bits
        self._data_rx = rx_energy(cfg.data_packet_bits, e_elec)
        self._relay_j_per_bit = 2.0 * e_elec
        self._geams, self._header_bits = cfg.protocol == "geams", cfg.header_bits
        self._e_elec, self._queue_capacity = e_elec, cfg.queue_capacity
        # each node's forwarding memory, by node id, from its first route
        # since the last broadcast: a GEAMS node's best-neighbour set, or a
        # GPSR node's gpsr.KeptRoute.  _on_air drops them all.
        self._kept: dict[int, geams.BestNeighborSet | gpsr.KeptRoute] = {}

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
        heap, outcomes = self._heap, self.outcomes
        horizon = self.cfg.horizon_s
        while heap:
            time, _, handler, args = heapq.heappop(heap)
            if time > horizon:
                break
            self.now = time
            handler(time, *args)
            if self.emissions_done and len(outcomes) == self.emitted:  # _traffic_complete
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

    def _kill(self, node: NodeRuntime) -> None:
        if node.death_exempt or not node.alive:
            return
        node.alive = False
        for pk in node.queue:
            self._record(pk, "sender_died")
        node.queue.clear()
        # take it out of its neighbours' live-neighbour counts
        nid, nodes = node.id, self.nodes
        for v in node.table.range_ids:
            if nid < v:
                nodes[v].live_below -= 1
            else:
                nodes[v].live_above -= 1

    def _drop_and_die(self, node: NodeRuntime, pk: DataPacket) -> None:
        """Node cannot afford a pending transmission: forfeit the remaining
        charge rather than transmit partially, and lose the packet."""
        self._record(pk, "sender_died")
        self.ledger.add("death_forfeit", node.battery.forfeit())
        self._kill(node)

    # -- beacons ------------------------------------------------------------

    def _has_sinkward(self, node: NodeRuntime) -> bool:
        """Whether GEAMS would forward from `node` now rather than walk back:
        it has a live sink-ward neighbour whose void flag does not stand,
        exactly when geams.build_best_neighbor_set's set is not empty."""
        links = node.table.sinkward_links()
        return any(not s.void_flagged and live(s, r, self.now, self.expiry_s) is not None
                   for s, r in zip(links.states, links.records))

    def _on_air(self, node: NodeRuntime, reported: float, time: float,
                void: bool = False) -> None:
        """A broadcast from `node`, reporting `reported` joules, has gone on
        air at `time`: update the sender's shared BeaconState, and drop every
        node's kept forwarding memory, as the state may change any of it.  An
        announcement sets the void flag; a beacon clears a standing one when
        the sender has a sink-ward neighbour again (_has_sinkward).  Both
        beacon paths call this once per broadcast on air, before any
        receiver is debited."""
        self._kept.clear()
        state = node.beacon_state
        if void:
            state.void_flagged = True
            return
        state.residual_energy = reported
        state.last_beacon_time = time
        if state.void_flagged and self._has_sinkward(node):
            state.void_flagged = False

    def _broadcast(self, node: NodeRuntime, time: float, void: bool = False) -> None:
        """The exact path: a beacon stamped `time` or, with `void`, a void
        announcement, at its price.  An underfunded sender never goes on
        air.  On air, it updates the sender's state (_on_air), and every
        live in-range node pays one reception, in ascending id order."""
        if void:
            (tx, rx), tx_cat, rx_cat = self._void_price, "void_tx", "void_rx"
        else:
            (tx, rx), tx_cat, rx_cat = self._beacon_price, "beacon_tx", "beacon_rx"
        battery = node.battery
        reported = battery.residual  # a beacon reports the charge it is sent from
        drained, died = battery.debit(tx)
        self.ledger.add(tx_cat, drained)
        if drained < tx or died:
            self._kill(node)
            if drained < tx:
                return  # underfunded broadcast never goes on air
        self._on_air(node, reported, time, void)
        # one ledger entry for the whole broadcast's receptions
        total, nodes = 0.0, self.nodes
        for v in node.table.range_ids:
            other = nodes[v]
            if other.alive:
                drained, died = other.battery.debit(rx)
                total += drained
                if died:
                    self._kill(other)
        self.ledger.add(rx_cat, total)

    def _do_beacons(self, time: float) -> None:
        """A beacon round: each live node, in ascending id order, goes on air
        at its turn, where a node whose void flag stands runs its void check
        (_on_air).  A node's debits in a round come in a fixed order: one
        reception per on-air sender below it, then its own beacon, which
        reports the residual left at that point, then one reception per
        on-air sender above it.  Every sender books one beacon_tx and one
        beacon_rx ledger entry, in sender order; with beacon energy off
        every price, and so every debit and entry, is 0.0 J.

        A node is safe when its residual exceeds its beacon plus one
        reception per live neighbour by SAFE_MARGIN: it cannot die this
        round and funds its beacon.  A round in which every live node is
        safe is batched whole: every node goes on air, and no battery is
        touched but by its owner or read before the round ends, so each node
        settles its round at its turn.  It takes its debits in order from a
        local float and books its receivers' receptions as one prefix sum.
        Receptions all cost the same, so only their number before and after
        a node's own beacon matters.  m receptions that keep the residual in
        its binade take m q, q being the price rounded to the binade's grid
        (energy.BinadeSteps), which is exactly what m subtractions take;
        where they may leave it, or the price is a tie on the grid, the node
        subtracts them one by one, as r - c - c is not r - 2c in floating
        point.  Either way the floats equal the exact path's.
        Any other round runs whole on the exact path (_broadcast), node by
        node, which debits each receiver in turn."""
        cfg = self.cfg
        tx, rx = self._beacon_price
        margin = self.SAFE_MARGIN
        live = [n for n in self.nodes.values() if n.alive]
        if all(n.battery.residual > margin * (tx + (n.live_below + n.live_above) * rx)
               for n in live):
            rx_totals = self._rx_totals
            rx_steps = self._rx_steps
            frexp = math.frexp
            ledger_add = self.ledger.add
            on_air = self._on_air
            for node in live:
                battery = node.battery
                r = battery.residual
                below, above = node.live_below, node.live_above
                lo, q = rx_steps[frexp(r)[1]]
                if (r - lo) - (below - 1) * q >= rx:
                    r -= below * q
                else:
                    for _ in range(below):
                        r -= rx
                on_air(node, r, time)
                r -= tx
                if (r - lo) - (above - 1) * q >= rx:
                    r -= above * q
                else:
                    for _ in range(above):
                        r -= rx
                battery.residual = r
                ledger_add("beacon_tx", tx)
                ledger_add("beacon_rx", rx_totals[below + above])
        else:
            for node in live:
                if node.alive:  # a reception earlier in the round may kill it
                    self._broadcast(node, time)
        nxt = time + cfg.beacon_interval_s
        if nxt <= cfg.horizon_s and not self._traffic_complete():
            self._schedule(nxt, self._do_beacons)

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
        if not source.transmitting and source.queue:
            self._try_start(source, time)

    def _try_start(self, node: NodeRuntime, time: float) -> None:
        """Route `node`'s queued frames in order, recording each one that
        cannot be routed, until one goes on the link.  Callers skip a node
        that is transmitting or has an empty queue; a node with a queued
        frame is alive, as _kill empties the queue."""
        queue = node.queue
        while queue:
            pk = queue.pop(0)
            next_hop, drop_reason = self._route(node, pk)
            if next_hop is None:
                self._record(pk, drop_reason)
                continue
            # every route picks a neighbor whose record prices and times the hop
            r = node.table.records[next_hop]
            bits = pk.payload_bits + self._header_bits
            cost = bits * r.j_per_bit
            if not node.death_exempt and node.battery.residual < cost:
                self._drop_and_die(node, pk)
                return
            node.transmitting = True
            receiver = self.nodes[next_hop]
            heapq.heappush(self._heap, (time + bits / r.rate_bps, self._seq,  # _schedule, inlined
                                        self._do_tx_complete, (node, receiver, pk, cost, bits)))
            self._seq += 1
            return

    def _do_tx_complete(self, time: float, sender: NodeRuntime, receiver: NodeRuntime,
                        pk: DataPacket, cost: float, bits: int) -> None:
        """`sender` has sent `pk` to `receiver`; `cost` is the transmit
        energy `_try_start` priced the frame at.  A frame the sender funds
        arrives at once (_do_arrival).  When no other event is due at this
        instant, the arrival runs here, after the sender has moved on to its
        next frame: as an event it would be the next one run, as whatever
        _try_start schedules comes after it.  Otherwise it is scheduled
        behind the events due now, which were scheduled first."""
        sender.transmitting = False
        if not sender.alive:
            self._record(pk, "sender_died")
            return
        drained, died = sender.battery.debit(cost)
        self.ledger.add("data_tx", drained)
        if drained < cost:
            # a mid-transmission debit (beacon traffic) starved the battery;
            # a gateway outlives it and goes on with its queue
            self._record(pk, "sender_died")
            self._kill(sender)
            if sender.queue:
                self._try_start(sender, time)
            return
        heap = self._heap
        in_place = not heap or heap[0][0] > time
        if not in_place:
            self._schedule(time, self._do_arrival, receiver, pk, bits)
        if died:
            self._kill(sender)
        elif sender.queue:
            self._try_start(sender, time)
        if in_place:
            self._do_arrival(time, receiver, pk, bits)

    def _do_arrival(self, time: float, receiver: NodeRuntime, pk: DataPacket,
                    bits: int) -> None:
        """`pk`, `bits` long on air, reaches `receiver`."""
        if not receiver.alive:
            self._record(pk, "next_hop_died")
            return
        # energy.rx_energy, inlined
        drained, died = receiver.battery.debit(bits * self._e_elec)
        self.ledger.add("data_rx", drained)
        pk.path.append(receiver.id)
        if died:
            self._kill(receiver)
            self._record(pk, "next_hop_died")
            return
        if receiver.id == SINK_ID:
            self._record(pk, "delivered", time - pk.created_at)
            return
        if len(pk.path) > self.ttl0:
            self._record(pk, "ttl_expired")
            return
        if len(receiver.queue) >= self._queue_capacity:
            self._record(pk, "buffer_overflow")
            return
        receiver.queue.append(pk)
        if not receiver.transmitting:
            self._try_start(receiver, time)

    # -- routing ------------------------------------------------------------

    def _route(self, node: NodeRuntime, pk: DataPacket) -> tuple[int | None, str | None]:
        """(next hop, None) or (None, loss reason) for `pk` at `node`, whose
        table makes its records as routing reads them (NeighborTable)."""
        if self._geams:
            return self._route_geams(node, pk)
        kept = self._kept.get(node.id)
        if kept is None:
            kept = self._kept[node.id] = gpsr.KeptRoute()
        return gpsr.next_hop(node.table, pk, kept, self.now, self.expiry_s)

    def _route_geams(self, node: NodeRuntime, pk: DataPacket) -> tuple[int | None, str | None]:
        """Between broadcasts a node's best-neighbour set changes only as its
        entries expire, the oldest first, and as this node's own overlays
        lower the scores of the hops it picks; no neighbour joins it, as only
        a broadcast makes a record fresher, unflagged or richer.  So the set
        is kept: built on the first route after a broadcast or once its
        oldest entry has expired, and after each forward only the chosen hop
        is rescored."""
        best = self._kept.get(node.id)
        if best is None or self.now - best.oldest > self.expiry_s:
            best = self._kept[node.id] = geams.build_best_neighbor_set(
                node.table, self.now, self.expiry_s, self._data_bits, self._data_rx)
        sinkward = bool(best.ids)
        if sinkward:
            next_hop, node.stream = geams.select_next_hop(
                node.stream, best, len(pk.path) - 1)
        else:
            # walking back: announce the void unless it stands, then delegate
            # sink-ward-most
            if not node.beacon_state.void_flagged:
                self._broadcast(node, self.now, void=True)
                if not node.alive:
                    return None, "sender_died"
            pk.excluded.add(node.id)
            next_hop = geams.walking_back_candidate(
                node.table, pk.excluded, self.now, self.expiry_s)
            if next_hop is None:
                return None, "void_unresolvable"
        # Account for the relay cost this forward imposes on the neighbor
        # before its next beacon refreshes the record, otherwise every score
        # stays stale for a whole beacon interval and the burst hammers a
        # single neighbor.  The estimate is the electronics-only relay cost
        # of the frame, 2 * e_elec * bits (its receive plus its transmit,
        # amplifier term unknown); the neighbor's next beacon supersedes it
        # with ground truth.  A sender that then cannot afford the frame
        # dies, and a dead node's table is never read again.  A record made
        # is read straight from the table, as this runs on every forward.
        r = node.table.records.get(next_hop) or node.table.record(next_hop)
        energy = r.add_load(self._relay_j_per_bit * (pk.payload_bits + self._header_bits))
        if sinkward:
            geams.rescore(best, r, energy, self._data_bits, self._data_rx)
        return next_hop, None

    # -- reporting ----------------------------------------------------------

    def energy_drawdown(self) -> tuple[float, float]:
        """(sum of initial-minus-residual over all nodes, in ascending id
        order, and the ledger total); the two must agree up to float
        rounding."""
        drawn = float_sum(n.battery.initial - n.battery.residual for n in self.nodes.values())
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
                [(n.table.my_position, n.battery.residual) for n in sensors],
                self.cfg.field_width),
            delay_mean=delay_mean,
            delay_variance=delay_var,
            delivered=len(log) - sum(lost.values()),
            lost=lost,
            per_packet_log=log,
        )


def run_scenario(cfg: ScenarioConfig, topology: Topology | None = None) -> MetricsReport:
    """Run one scenario to completion and return its report."""
    return Simulation(cfg, topology).run()
