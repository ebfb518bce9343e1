"""GPSR baseline: greedy forwarding with perimeter-mode recovery.

`next_hop` is the one place GPSR's forwarding rule lives, and this module
owns a node's forwarding memory (`KeptRoute`): its greedy choice
(`greedy_next_hop`) and its Gabriel neighbours (`planar_neighbors`), kept
between routes rather than rescanning the table on every hop.  The engine
holds one record per node and drops them all when a broadcast goes on air.
Perimeter mode walks the Gabriel-planarized radio graph with the right-hand
rule (next edge counterclockwise from the incoming edge), resuming greedy as
soon as the packet reaches a node strictly closer to the sink than where it
entered perimeter mode, and dropping when no planar edge is left or the
traversal would retrace the first perimeter edge.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .neighbors import NeighborRecord, NeighborTable, live
from .topology import Position

if TYPE_CHECKING:
    from .engine import DataPacket

TWO_PI = 2.0 * math.pi


@dataclass
class PerimeterState:
    """Carried in the packet while in perimeter mode."""

    entry_distance: float  # the entry node's distance to the sink
    first_edge: tuple[int, int]


@dataclass(slots=True)
class KeptRoute:
    """A node's greedy choice and Gabriel set, valid until the next broadcast
    goes on air, which the caller marks by starting from a fresh record.  The
    defaults keep nothing: a time of -inf has always expired.

    Between broadcasts GPSR writes no overlay and a death changes no
    BeaconState, so a record only stops being live by expiring, the oldest
    first, and none becomes live or closer.  So the greedy choice stands
    until its own record expires, as another expiring leaves the nearest one
    chosen, and a local minimum (heard = inf) stands until the broadcast.
    The Gabriel set stands until the oldest live record it was computed from
    expires, a witness outside the set included."""

    greedy: int | None = None  # None at a local minimum
    heard: float = -math.inf  # the greedy hop's last beacon time
    gabriel: tuple[NeighborRecord, ...] = ()
    # the oldest last beacon time of the live records `gabriel` was
    # computed from (inf when none was live)
    oldest: float = -math.inf


def next_hop(t: NeighborTable, pk: DataPacket, kept: KeptRoute, now: float,
             expiry_s: float) -> tuple[int | None, str | None]:
    """(next hop, None) or (None, loss reason) at `now` for `pk` at the last
    node on its path, pk.path[-1], whose table is `t` and whose forwarding
    memory is `kept`, which it rebuilds where it has expired.  Every route
    takes the greedy choice; only a route in perimeter mode takes the
    Gabriel set, and before it reads any record but the greedy choice's, as
    its read of every live record makes the records of the hops not taken
    (NeighborTable).  The hop the packet came from, pk.path[-2], reached
    that node, so it is in range and then has a record."""
    if now - kept.heard > expiry_s:
        hop = kept.greedy = greedy_next_hop(t, now, expiry_s)
        kept.heard = math.inf if hop is None else t.record(hop).state.last_beacon_time
    state = pk.perimeter
    if state is not None and t.my_sink_distance < state.entry_distance:
        pk.perimeter = state = None  # past the void: resume greedy
    if state is None and kept.greedy is not None:
        return kept.greedy, None
    if now - kept.oldest > expiry_s:
        kept.gabriel, kept.oldest = planar_neighbors(t, now, expiry_s)
    if state is None:
        first = perimeter_first_hop(t.my_position, t.sink_position, kept.gabriel)
        if first is None:
            return None, "perimeter_exhausted"
        pk.perimeter = PerimeterState(t.my_sink_distance, (pk.path[-1], first))
        return first, None
    nxt = perimeter_next_hop(t.my_position, t.records[pk.path[-2]].position, kept.gabriel)
    if nxt is None or (pk.path[-1], nxt) == state.first_edge:
        return None, "perimeter_exhausted"  # stranded, or walked the whole face
    return nxt, None


def greedy_next_hop(t: NeighborTable, now: float, expiry_s: float) -> int | None:
    """Live neighbor nearest the sink, if strictly closer than we are;
    None signals a local minimum (perimeter trigger).  Ties by ascending id."""
    links = t.sinkward_links()
    best, nearest = None, math.inf
    # ascending id order: on equal distances the first link seen wins
    for v, d, s, r in zip(links.ids, links.dists, links.states, links.records):
        if d < nearest and live(s, r, now, expiry_s) is not None:
            best, nearest = v, d
    return best


def planar_neighbors(
    t: NeighborTable, now: float, expiry_s: float
) -> tuple[tuple[NeighborRecord, ...], float]:
    """Gabriel-graph neighbors computed from the whole local table, and the
    earliest last-beacon time among the live records they were computed
    from (inf when none is live).  The link to v survives iff no other live
    neighbor sits inside or on the circle with diameter (me, v).  Any
    witness for an in-range link is itself in range, so the local test
    agrees with the global planarization."""
    live = t.live_records(now, expiry_s)
    oldest = min([r.state.last_beacon_time for r in live], default=math.inf)
    me = t.my_position
    kept = []
    for r in live:
        mx, my = (me.x + r.position.x) / 2.0, (me.y + r.position.y) / 2.0
        r2 = ((me.x - r.position.x) ** 2 + (me.y - r.position.y) ** 2) / 4.0
        if all(
            (w.position.x - mx) ** 2 + (w.position.y - my) ** 2 > r2
            for w in live
            if w.id != r.id
        ):
            kept.append(r)
    return tuple(kept), oldest


def _bearing(frm: Position, to: Position) -> float:
    return math.atan2(to.y - frm.y, to.x - frm.x)


def _next_ccw(
    me: Position, ref_angle: float, candidates: Sequence[NeighborRecord], zero_wraps: bool
) -> int | None:
    """Candidate whose bearing is the first counterclockwise from ref_angle;
    None when there is none.

    With zero_wraps, a candidate lying exactly along the reference direction
    (typically the node the packet came from) counts as a full turn, so it is
    chosen only as a last resort.
    """
    best_id = None
    best_key = None
    for r in candidates:
        delta = (_bearing(me, r.position) - ref_angle) % TWO_PI
        if zero_wraps and delta == 0.0:
            delta = TWO_PI
        key = (delta, r.id)
        if best_key is None or key < best_key:
            best_key, best_id = key, r.id
    return best_id


def perimeter_first_hop(
    me: Position, sink: Position, planar: Sequence[NeighborRecord]
) -> int | None:
    """Edge to start the perimeter walk on: first counterclockwise from the
    straight line toward the sink."""
    return _next_ccw(me, _bearing(me, sink), planar, zero_wraps=False)


def perimeter_next_hop(
    me: Position, prev: Position, planar: Sequence[NeighborRecord]
) -> int | None:
    """Right-hand rule step: next planar edge counterclockwise from the edge
    the packet arrived on.  A degree-one node sends the packet back."""
    return _next_ccw(me, _bearing(me, prev), planar, zero_wraps=True)
