"""Beacon-maintained one-hop neighbor tables shared by both protocols.

The one liveness rule of both protocols lives here (live): a neighbour is
live while its sender's last beacon is no older than the expiry and its
routing residual is positive.  The routing residual is the GEAMS
pending-load overlay while it stands, else the last beacon's; an expired
neighbour is a dead node.  An overlay (NeighborRecord.add_load) is this
node's estimate of the load it has put on a neighbour since that
neighbour's last beacon, so it stands until the next one, which supersedes
it with ground truth: a sender beacons at most once a round, rounds run at
strictly increasing times, and a void announcement is no beacon.

What a sender's beacons say is the same for every node that hears them, so
each sender keeps one BeaconState and every receiver refers to it: a
broadcast updates that state once, not once per receiver.  This holds because
no node joins after the first beacon round and a dead node never comes back:
a receiver still alive has heard every broadcast its senders made since their
first beacon, and a dead node's table is never read again.  A sender that
has not yet gone on air is never live.

Positions never change, and each sender's state exists from the start, so a
table may fill itself at any time and reads the same: in ascending id order,
from its node's range list and the run's one lookup of every sender, which
refers to no node or engine.  The first sinkward_links makes the links of the
sink-ward range neighbours, all that smart greedy forwarding and GPSR's
greedy mode scan.  A record is made for each hop routing takes (record) and,
on the first live_records, for every range neighbour, as a node walks back
or routes a GPSR packet in perimeter mode; a record already made is kept,
overlay and all, and a link reads its overlay from its record.  A hop's
price is worked out once (_prices), its rate as its record is made
(handle_beacon).  A sender's shared state changes at its turn in a beacon
round, on the batched and the exact path alike, so a table reads the same
states on both (`engine.Simulation._do_beacons`).
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .scenario import ScenarioConfig
from .topology import Position, distance


@dataclass(slots=True)
class BeaconState:
    """What a sender's last beacon reported, shared by every receiver of it.
    The defaults are a sender never heard: it is never live."""

    residual_energy: float = 0.0
    last_beacon_time: float = -math.inf  # also stamps the overlays taken since
    # set by a void announcement; cleared by a beacon from a sender that has
    # a usable sink-ward neighbor again
    void_flagged: bool = False


@dataclass(slots=True)
class NeighborRecord:
    id: int
    position: Position
    # the hop from this table's node: its transmit price per bit
    # (energy.tx_energy) and its rate (the engine's timing model)
    j_per_bit: float
    rate_bps: float
    distance_to_sink: float
    state: BeaconState
    # the pending-load overlay (add_load) and the sender's last beacon time
    # it stands for (-1.0 is no beacon's time)
    pending: float = 0.0
    pending_time: float = -1.0

    @property
    def residual_energy(self) -> float:
        """The residual routing sees: the overlay while it stands, else the
        last beacon's."""
        s = self.state
        return self.pending if self.pending_time == s.last_beacon_time else s.residual_energy

    def add_load(self, joules: float) -> float:
        """Take `joules` off the residual routing sees, until the sender's
        next beacon, and return the residual it leaves."""
        s = self.state
        t = s.last_beacon_time  # residual_energy, inlined
        e = self.pending = (self.pending if self.pending_time == t else s.residual_energy) - joules
        self.pending_time = t
        return e


@dataclass(slots=True)
class SinkwardLinks:
    """A table's range neighbours strictly closer to the sink than its node,
    ascending by id, as columns: `ids[i]` costs `prices[i]` per bit to
    reach, reports through `states[i]`, is `dists[i]` from the sink and has
    the record `records[i]` (None until it is made)."""

    ids: tuple[int, ...]
    prices: list[float]
    states: tuple[BeaconState, ...]
    dists: tuple[float, ...]
    records: list[NeighborRecord | None]


def live(state: BeaconState, record: NeighborRecord | None, now: float,
         expiry_s: float) -> float | None:
    """The residual routing sees of a live neighbour, None for one not live.
    A neighbour is live while its sender's last beacon (`state`) is no older
    than `expiry_s` at `now` and that residual is positive: the overlay of
    its `record` while it stands (a neighbour with no record has none), else
    the beacon's."""
    if now - state.last_beacon_time <= expiry_s:
        e = (state.residual_energy if record is None
             or record.pending_time != state.last_beacon_time else record.pending)
        if e > 0:
            return e
    return None


@dataclass
class NeighborTable:
    """One node's links and records of its range neighbours, made from
    `range_ids` and the run's `senders` lookup (see the module docstring)."""

    my_position: Position
    sink_position: Position
    # this node's range neighbours, ascending (topology.range_neighbor_lists)
    range_ids: list[int]
    # sender id -> (that id, position, shared state, the sender's own sink
    # distance), one lookup per run; let go once every record is made
    senders: dict[int, tuple[int, Position, BeaconState, float]] | None = field(repr=False)
    # the run's scenario, which prices and times each hop
    cfg: ScenarioConfig = field(repr=False)
    # by sender id, ascending once every record is made (handle_beacon)
    records: dict[int, NeighborRecord] = field(default_factory=dict)
    my_sink_distance: float = field(init=False)
    # None until the first sinkward_links
    _links: SinkwardLinks | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.my_sink_distance = distance(self.my_position, self.sink_position)

    def _prices(self, positions: Iterable[Position]) -> list[float]:
        """The transmit price per bit (energy.tx_energy) of the hop to each
        position; load-time checks keep every hop at least 1 m long."""
        me, cfg, hypot = self.my_position, self.cfg, math.hypot
        x, y = me.x, me.y
        e_elec, eps_amp = cfg.e_elec_j_per_bit, cfg.eps_amp_j_per_bit_m2
        # topology.distance, inlined
        return [e_elec + eps_amp * (d := hypot(x - p.x, y - p.y)) * d for p in positions]

    def handle_beacon(self, sender: int, position: Position, state: BeaconState,
                      distance_to_sink: float, j_per_bit: float) -> NeighborRecord:
        """Make and return the record of a sender whose hop costs `j_per_bit`
        (_prices): the only maker of records.  The hop's rate is worked out
        here and nowhere else."""
        me = self.my_position
        d = math.hypot(me.x - position.x, me.y - position.y)  # topology.distance
        r = self.records[sender] = NeighborRecord(
            sender, position, j_per_bit, self.cfg.base_rate_bps / math.sqrt(d),
            distance_to_sink, state)
        return r

    def sinkward_links(self) -> SinkwardLinks:
        """The links of the range neighbours strictly closer to the sink than
        this node, live or not, made on the first call; only the table writes them."""
        links = self._links
        if links is None:
            mine = self.my_sink_distance
            rows = [row for row in map(self.senders.__getitem__, self.range_ids)
                    if row[3] < mine]
            ids, positions, states, dists = zip(*rows) if rows else ((),) * 4
            # no record is made before the links (record, live_records)
            links = self._links = SinkwardLinks(
                ids, self._prices(positions), states, dists, [None] * len(ids))
        return links

    def record(self, v: int) -> NeighborRecord:
        """The record of `v`, a hop routing takes, made on the first read: a
        sink-ward one, as routing takes no other before live_records."""
        r = self.records.get(v)
        if r is None:
            links = self.sinkward_links()
            i = links.ids.index(v)
            r = links.records[i] = self.handle_beacon(*self.senders[v], links.prices[i])
        return r

    def live_records(self, now: float, expiry_s: float) -> list[NeighborRecord]:
        """The live records (live), in ascending id order.  The first call
        makes every range neighbour's record not made yet."""
        if self.senders is not None:
            for v in self.sinkward_links().ids:  # at their links' prices
                self.record(v)
            rest = [self.senders[v] for v in self.range_ids if v not in self.records]
            for row, price in zip(rest, self._prices([p for _, p, _, _ in rest])):
                self.handle_beacon(*row, price)
            self.records = {v: self.records[v] for v in self.range_ids}
            self.senders = None
        return [r for r in self.records.values() if live(r.state, r, now, expiry_s) is not None]
