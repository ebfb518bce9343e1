"""Beacon-maintained one-hop neighbor tables shared by both protocols.

The one liveness rule of both protocols lives here (live): a record is live
while its sender's last beacon is no older than the expiry and its routing
residual is positive.  The routing residual is the GEAMS pending-load
overlay while it stands, else the last beacon's; an expired record is a
dead node.  An overlay (NeighborRecord.add_load) is this node's estimate of
the load it has put on a neighbour since that neighbour's last beacon, so
it stands until the next one, which supersedes it with ground truth: a
sender beacons at most once a round, rounds run at strictly increasing
times, and a void announcement is no beacon.

What a sender's beacons say is the same for every node that hears them, so
each sender keeps one BeaconState and every receiver's record refers to it: a
broadcast updates that state once, not once per receiver.  This holds because
no node joins after the first beacon round and a dead node never comes back:
a receiver still alive has heard every broadcast its senders made since their
first beacon, and a dead node's table is never read again.  A sender that
has not yet gone on air has a record that is never live.

Positions never change, and each sender's state exists from the start, so a
record may be made at any time and reads the same.  So a table fills itself
from its node's range list, in two steps, each in ascending id order, out of
the run's one lookup of every sender's position, state and distance to the
sink, which refers to no node or engine: the records of the sink-ward range
neighbours on the first sinkward_records, as smart greedy forwarding and
GPSR's greedy mode read nothing else, and the rest on the first
live_records, as a node walks back or routes a GPSR packet in perimeter
mode.  That fill is the only way a table gets records.  The sink-ward
records stay the same objects, so their overlays stand.  `records` holds
what the reads have made so far: routing reads a record there only once a
read has returned it.  A record holds only static geometry, the shared
state and the overlay; the sender's distance to the sink is its own, worked
out once, and the receiver works out only the hop's price and rate, when it
makes the record (handle_beacon), which routing and the engine then read.
A sender's shared state changes at its turn in a beacon round, on the
batched and the exact path alike, so a table reads the same states on both
(`engine.Simulation._do_beacons`).
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .scenario import ScenarioConfig
from .topology import Position, distance


@dataclass(slots=True)
class BeaconState:
    """What a sender's last beacon reported, shared by every record of it.
    The defaults are a sender never heard: its records are never live."""

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
        e = self.pending = self.residual_energy - joules
        self.pending_time = self.state.last_beacon_time
        return e


def live(records: Iterable[NeighborRecord], now: float,
         expiry_s: float) -> list[tuple[NeighborRecord, float]]:
    """(record, residual routing sees) of each live record, in the order
    given: heard no longer than `expiry_s` before `now`, and with a positive
    residual."""
    return [(r, e) for r in records
            if now - (s := r.state).last_beacon_time <= expiry_s
            and (e := r.pending if r.pending_time == s.last_beacon_time
                 else s.residual_energy) > 0]


@dataclass
class NeighborTable:
    """One node's records of its range neighbours, in ascending id order,
    which it makes itself from `range_ids` and the run's `senders` lookup
    (see the module docstring)."""

    my_position: Position
    sink_position: Position
    # this node's range neighbours, ascending (topology.range_neighbor_lists)
    range_ids: list[int]
    # sender id -> (position, shared state, the sender's own sink distance),
    # one lookup per run; let go once every record is made
    senders: dict[int, tuple[Position, BeaconState, float]] | None = field(repr=False)
    # the run's scenario, which prices and times each hop (handle_beacon)
    cfg: ScenarioConfig = field(repr=False)
    # by sender id, ascending; every record is made by handle_beacon
    records: dict[int, NeighborRecord] = field(default_factory=dict)
    my_sink_distance: float = field(init=False)
    # None until the first sinkward_records
    _sinkward: list[NeighborRecord] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.my_sink_distance = distance(self.my_position, self.sink_position)

    def handle_beacon(self, sender: int, position: Position, state: BeaconState,
                      distance_to_sink: float) -> None:
        """Add the record of a sender, whose id is above every id this table
        holds; `distance_to_sink` is the sender's own (its table's
        `my_sink_distance`).  Only the table's own fill calls it.  Beacons
        update only the shared `state`.  The hop's price per bit and rate
        are worked out here, from its length and `cfg`, and nowhere else.
        Load-time checks keep every pair at least 1 m apart, so the hop
        needs no link check."""
        me, cfg = self.my_position, self.cfg
        d = math.hypot(me.x - position.x, me.y - position.y)  # topology.distance
        r = self.records[sender] = NeighborRecord(
            sender, position, cfg.e_elec_j_per_bit + cfg.eps_amp_j_per_bit_m2 * d * d,
            cfg.base_rate_bps / math.sqrt(d), distance_to_sink, state)
        if distance_to_sink < self.my_sink_distance:
            self._sinkward.append(r)

    def sinkward_records(self) -> list[NeighborRecord]:
        """Every record strictly closer to the sink than this node, live or
        not, in ascending id order, made on the first call.  The list is
        shared: do not mutate it."""
        s = self._sinkward
        if s is None:
            s = self._sinkward = []
            mine, senders = self.my_sink_distance, self.senders
            for v in self.range_ids:
                position, state, theirs = senders[v]
                if theirs < mine:
                    self.handle_beacon(v, position, state, theirs)
        return s

    def live_records(self, now: float, expiry_s: float) -> list[NeighborRecord]:
        """The live records (live), in ascending id order.  The first call
        makes the records of every range neighbour not made yet."""
        senders = self.senders
        if senders is not None:
            self.sinkward_records()  # made first, kept as they are
            made, self.records, self.senders = self.records, {}, None
            for v in self.range_ids:
                r = made.get(v)
                if r is None:
                    self.handle_beacon(v, *senders[v])
                else:
                    self.records[v] = r
        return [r for r, _ in live(self.records.values(), now, expiry_s)]
