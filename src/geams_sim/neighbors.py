"""Beacon-maintained one-hop neighbor tables shared by both protocols.

A record is considered live while its last beacon is recent enough and it
reported positive energy; expired records are treated as dead nodes.

Positions never change, so a sender's record is built once, from its first
beacon; later beacons refresh only what a beacon can change.
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
    link_rate: float
    void_flagged: bool
    last_beacon_time: float


@dataclass
class NeighborTable:
    my_position: Position
    sink_position: Position
    records: dict[int, NeighborRecord] = field(default_factory=dict)
    my_sink_distance: float = field(init=False)
    # len(records) when they were last put in ascending id order; records are
    # never removed, so a different length means a sender was added since
    _sorted_len: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        self.my_sink_distance = distance(self.my_position, self.sink_position)

    def handle_beacon(self, b: Beacon) -> None:
        r = self.records.get(b.sender)
        if r is None:
            d = distance(self.my_position, b.position)
            self.records[b.sender] = NeighborRecord(
                id=b.sender,
                position=b.position,
                distance_to_me=d,
                distance_to_sink=distance(b.position, self.sink_position),
                residual_energy=b.residual_energy,
                link_rate=link_rate(d),
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

    def live_records(self, now: float, expiry_s: float) -> list[NeighborRecord]:
        """Records fresh enough to be trusted, from nodes with energy left,
        in ascending id order."""
        records = self.records
        if len(records) != self._sorted_len:
            by_id = sorted(records.items())
            records.clear()
            records.update(by_id)
            self._sorted_len = len(records)
        return [
            r
            for r in records.values()
            if now - r.last_beacon_time <= expiry_s and r.residual_energy > 0
        ]
