"""GEAMS next-hop selection.

Smart greedy forwarding spreads consecutive packets of a stream across the
sink-ward neighbors ranked by an energy-aware score, steered by per-source
state (a reference hop count plus the rank whose score sits nearest the set
average).  When no sink-ward neighbor exists the node switches to walking-back
forwarding: it flags itself unusable and hands the packet to the neighbor
least far from the sink.

A best-neighbor set is flat (ids and scores in two parallel lists), so the
engine can keep one per node between broadcasts and, after each forward,
rescore only the hop it chose (rescore).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .metrics import float_sum
from .neighbors import NeighborRecord, NeighborTable, live


@dataclass(slots=True)
class BestNeighborSet:
    """Sink-ward neighbours by descending score, ties by ascending id, held
    flat: `ids[i]` scores `scores[i]`.  `oldest` is the earliest last-beacon
    time among the entries when the set was built (inf when it was empty):
    no entry has expired while `now - oldest` is within the expiry."""

    ids: list[int]
    scores: list[float]
    oldest: float


@dataclass(slots=True)
class SourceState:
    """Per-source forwarding memory, updated in place by select_next_hop.

    ref_hop_count: running reference hop count for packets of this source.
    balance_index: 1-based rank in the best-neighbor set whose score is
        nearest the set average, recomputed when the set's order changes.
    neighbor_ids: the set ordering balance_index was computed against.
    """

    ref_hop_count: int
    balance_index: int
    neighbor_ids: tuple[int, ...] = ()


def build_best_neighbor_set(
    t: NeighborTable, now: float, expiry_s: float, k_bits: float, rx: float
) -> BestNeighborSet:
    """Live, non-void-flagged neighbors strictly closer to the sink than we
    are, sorted by descending score with ties broken by ascending id.

    A neighbor's score is its fitness in joules: its remaining energy minus
    the cost of pushing one k-bit packet through it: our transmit to it, at
    its record's price per bit, then its receive, which costs `rx` joules.
    """
    candidates = []
    oldest = math.inf
    for r, energy in live(t.sinkward_records(), now, expiry_s):
        s = r.state
        if s.void_flagged:
            continue
        candidates.append((r.id, (energy - k_bits * r.j_per_bit) - rx))
        if s.last_beacon_time < oldest:
            oldest = s.last_beacon_time
    # the input is in ascending id order and the sort is stable, so equal
    # scores stay in ascending id order
    candidates.sort(key=itemgetter(1), reverse=True)
    return BestNeighborSet([i for i, _ in candidates], [v for _, v in candidates], oldest)


def rescore(s: BestNeighborSet, r: NeighborRecord, energy: float, k_bits: float,
            rx: float) -> None:
    """Bring entry `r` of `s` in step with the overlay just written on it,
    which left `energy` (NeighborRecord.add_load's return), as
    build_best_neighbor_set would score it: overwrite its score where it
    stays in place, move it down to its place, or drop it when its energy is
    not positive.  An overlay only lowers a residual, so the entry only
    moves down.  `oldest` is left as it was: at worst it is earlier than the
    entries left, which rebuilds the set sooner."""
    ids, scores = s.ids, s.scores
    node_id = r.id
    i = ids.index(node_id)
    if energy > 0:
        v = (energy - k_bits * r.j_per_bit) - rx
        j, n = i + 1, len(ids)
        while j < n and (scores[j] > v or scores[j] == v and ids[j] < node_id):
            j += 1
        if j == i + 1:
            scores[i] = v
            return
        del ids[i], scores[i]
        ids.insert(j - 1, node_id)
        scores.insert(j - 1, v)
    else:
        del ids[i], scores[i]


def average_score_index(s: BestNeighborSet) -> int:
    """1-based rank of the entry of a nonempty set whose score is nearest
    the mean score; equidistant candidates resolve to the better (smaller)
    rank."""
    scores = s.scores
    mean = float_sum(scores) / len(scores)
    best_rank, best_gap = 1, abs(scores[0] - mean)
    for rank, v in enumerate(scores[1:], start=2):
        gap = abs(v - mean)
        if gap < best_gap:
            best_rank, best_gap = rank, gap
    return best_rank


def refresh_state(state: SourceState, s: BestNeighborSet) -> SourceState:
    """Recompute the balance rank in place if the set membership or order
    changed since it was last computed, and return the state.  Only the
    order counts: a rescore that keeps every entry in place leaves the rank
    as it was."""
    ids = tuple(s.ids)
    if state.neighbor_ids != ids:
        state.balance_index = average_score_index(s)
        state.neighbor_ids = ids
    return state


def select_next_hop(
    state: SourceState | None, s: BestNeighborSet, hop_count: int
) -> tuple[int, SourceState]:
    """Smart greedy choice among the sorted sink-ward neighbors.

    The state is first refreshed against the set (refresh_state).  The
    first packet from a source goes to the top-ranked neighbor and seeds a
    new state, which has no ids, so its balance rank is computed.  Later
    packets pick rank (balance_index + ref_hop_count - hop_count), clamping
    out-of-range picks to the best or worst rank while shifting the
    reference hop count so the balance point tracks the traffic.  A given
    state is updated in place and returned.
    """
    ids = s.ids
    if state is None:
        return ids[0], refresh_state(SourceState(hop_count, 0), s)
    refresh_state(state, s)
    m = len(ids)
    index = state.balance_index + (state.ref_hop_count - hop_count)
    if index <= 0:
        state.ref_hop_count -= index - 1
        index = 1
    elif index > m:
        state.ref_hop_count -= index - m
        index = m
    return ids[index - 1], state


def walking_back_candidate(
    t: NeighborTable, excluded: set[int], now: float, expiry_s: float
) -> int | None:
    """Neighbor to delegate a stuck packet to: the live, unflagged, not yet
    visited neighbor least far from the sink; None when the void is
    unresolvable from here."""
    best: NeighborRecord | None = None
    for r in t.live_records(now, expiry_s):
        if r.id in excluded or r.state.void_flagged:
            continue
        if best is None or (r.distance_to_sink, r.id) < (best.distance_to_sink, best.id):
            best = r
    return None if best is None else best.id
