"""Beacon-maintained one-hop neighbor tables shared by both protocols.

A record is considered live while its last beacon is recent enough and it
reported positive energy; expired records are treated as dead nodes.

Positions never change, so a sender's record is built once, from its first
beacon; later beacons refresh only what a beacon can change.  For the same
reason the set of records strictly closer to the sink than this node changes
only when a sender is added.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .link import link_rate
from .topology import Position, distance


@dataclass(frozen=True)
class Beacon:
    sender: int
    position: Position
    residual_energy: float
    # whether the sender currently has at least one usable sink-ward neighbor;
    # a true value clears any standing void flag for the sender
    has_sinkward: bool
    time: float


@dataclass(slots=True)
class NeighborRecord:
    id: int
    position: Position
    distance_to_me: float
    distance_to_sink: float
    residual_energy: float
    void_flagged: bool
    last_beacon_time: float


@dataclass
class NeighborTable:
    my_position: Position
    sink_position: Position
    # by sender id; a record is only ever added (or updated in place), never
    # replaced or removed: the id order and the sink-ward subset below are
    # rebuilt only when len(records) changes
    records: dict[int, NeighborRecord] = field(default_factory=dict)
    my_sink_distance: float = field(init=False)
    # GPSR's Gabriel neighbours, keyed by the tuple of live ids they were
    # computed from; positions are static, so only liveness can change them
    planar_cache: tuple[tuple[int, ...], tuple[NeighborRecord, ...]] | None = field(
        default=None, init=False, repr=False)
    # len(records) when they were last put in ascending id order; a different
    # length means a sender was added since
    _sorted_len: int = field(default=0, init=False, repr=False)
    _sinkward: list[NeighborRecord] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        self.my_sink_distance = distance(self.my_position, self.sink_position)

    def handle_beacon(self, b: Beacon) -> None:
        r = self.records.get(b.sender)
        if r is None:
            d = distance(self.my_position, b.position)
            link_rate(d)  # raises DegenerateLinkError for a sub-metre link
            self.records[b.sender] = NeighborRecord(
                id=b.sender,
                position=b.position,
                distance_to_me=d,
                distance_to_sink=distance(b.position, self.sink_position),
                residual_energy=b.residual_energy,
                void_flagged=False,
                last_beacon_time=b.time,
            )
            return
        r.residual_energy = b.residual_energy
        r.last_beacon_time = b.time
        if b.has_sinkward:
            r.void_flagged = False

    def mark_void(self, node_id: int) -> None:
        if node_id in self.records:
            self.records[node_id].void_flagged = True

    def _sort(self) -> None:
        """Put records in ascending id order and rebuild the sink-ward subset,
        if a sender was added since the last call."""
        records = self.records
        if len(records) == self._sorted_len:
            return
        by_id = sorted(records.items())
        records.clear()
        records.update(by_id)
        self._sorted_len = len(records)
        mine = self.my_sink_distance
        self._sinkward = [r for r in records.values() if r.distance_to_sink < mine]

    def sinkward_records(self) -> list[NeighborRecord]:
        """Every record strictly closer to the sink than this node, live or
        not, in ascending id order.  The list is shared: do not mutate it."""
        self._sort()
        return self._sinkward

    def live_records(self, now: float, expiry_s: float) -> list[NeighborRecord]:
        """Records fresh enough to be trusted, from nodes with energy left,
        in ascending id order.  The hot loops over sinkward_records() in
        geams.py and gpsr.py inline this test; keep them in step."""
        self._sort()
        return [
            r
            for r in self.records.values()
            if now - r.last_beacon_time <= expiry_s and r.residual_energy > 0
        ]
