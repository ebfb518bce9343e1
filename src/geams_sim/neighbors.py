"""Beacon-maintained one-hop neighbor tables shared by both protocols.

A record is considered live while its last beacon is recent enough and it
reported positive energy; expired records are treated as dead nodes.

What a sender's beacons say is the same for every node that hears them, so
each sender keeps one BeaconState and every receiver's record refers to it: a
broadcast updates that state once, not once per receiver.  This holds because
no node joins after the first beacon round and a dead node never comes back:
a receiver still alive has heard every broadcast its senders made since their
first beacon, and a dead node's table is never read again.

Positions never change, and each sender's state exists from the start, so a
table holds a record of every range neighbour however late it is filled.
The engine fills a table from the static range list the first time the
table is read, in ascending id order, so records are kept in that order by
appending alone; a sender that has not yet gone on air has a record that is
never live.  A record holds only static geometry, the shared state and the
GEAMS pending-load overlay; the sender's distance to the sink is its own,
worked out once, and the receiver works out only the hop.  Beacons change
only the shared states.  An overlay is stamped with the sender's last beacon
time and stands until its next: a sender beacons at most once a round,
rounds run at strictly increasing times, and a void announcement keeps it.

A round (`engine.Simulation._do_beacons`) gives each live node its turn in
ascending id order.  With beacon energy on, a node's debits in a round are
one reception per on-air sender below it, then its own beacon, which reports
the residual left at that point, then one reception per on-air sender above
it.  A node is safe when its residual exceeds its beacon plus a reception
from every live neighbour by a small relative margin: it can neither die
nor fail to fund its beacon.  A round in which every live node is safe,
the t = 0 round included, is batched whole, each node's debits subtracted
in that order in one local float at its turn; any other round runs whole
on the exact path, which debits each receiver in turn.  Either way a sender
books one beacon_tx and one beacon_rx ledger entry, in sender order, and its
shared state changes at its turn, so a table reads the same states on both
paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    distance_to_me: float
    distance_to_sink: float
    state: BeaconState
    # GEAMS pending-load overlay: this node's estimate of the neighbor's
    # residual after the frames sent since its beacon at `pending_time`
    # (-1.0 is no beacon's time), standing until the sender's next beacon
    pending: float = 0.0
    pending_time: float = -1.0

    @property
    def residual_energy(self) -> float:
        """The residual routing sees: the overlay while it stands, else the
        last beacon's.  The hot loops in geams.py and gpsr.py inline this."""
        s = self.state
        return self.pending if self.pending_time == s.last_beacon_time else s.residual_energy


@dataclass
class NeighborTable:
    """One node's records of its range neighbours.  Senders arrive in
    ascending id order (see the module docstring), and a caller that fills a
    table itself must keep that order."""

    my_position: Position
    sink_position: Position
    # by sender id, ascending; filled only by handle_beacon
    records: dict[int, NeighborRecord] = field(default_factory=dict)
    my_sink_distance: float = field(init=False)
    # GPSR's Gabriel neighbours, keyed by the tuple of live ids they were
    # computed from; positions are static, so only liveness can change them
    planar_cache: tuple[tuple[int, ...], tuple[NeighborRecord, ...]] | None = field(
        default=None, init=False, repr=False)
    _sinkward: list[NeighborRecord] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        self.my_sink_distance = distance(self.my_position, self.sink_position)

    def handle_beacon(self, sender: int, position: Position, state: BeaconState,
                      distance_to_sink: float) -> None:
        """Add the record of a sender, whose id is above every id this table
        holds; `distance_to_sink` is the sender's own (its table's
        `my_sink_distance`).  The engine calls this once per range neighbour
        when it fills a table; beacons update only the shared `state`.
        Load-time checks keep every pair at least 1 m apart, so the hop
        needs no link check."""
        me = self.my_position
        # topology.distance, inlined
        r = self.records[sender] = NeighborRecord(
            sender, position, math.hypot(me.x - position.x, me.y - position.y),
            distance_to_sink, state)
        if distance_to_sink < self.my_sink_distance:
            self._sinkward.append(r)

    def sinkward_records(self) -> list[NeighborRecord]:
        """Every record strictly closer to the sink than this node, live or
        not, in ascending id order.  The list is shared: do not mutate it."""
        return self._sinkward

    def live_records(self, now: float, expiry_s: float) -> list[NeighborRecord]:
        """Records fresh enough to be trusted, from nodes with energy left,
        in ascending id order.  The hot loops over sinkward_records() in
        geams.py and gpsr.py inline this test; keep them in step."""
        live = []
        for r in self.records.values():
            s = r.state
            if now - s.last_beacon_time <= expiry_s and (
                    r.pending if r.pending_time == s.last_beacon_time else s.residual_energy) > 0:
                live.append(r)
        return live
