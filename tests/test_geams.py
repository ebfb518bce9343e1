import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from conftest import best_set, entries, record, score, table
from geams_sim.engine import Simulation
from geams_sim.geams import (
    SourceState,
    average_score_index,
    build_best_neighbor_set,
    refresh_state,
    rescore,
    select_next_hop,
    walking_back_candidate,
)
from geams_sim.scenario import ScenarioConfig
from geams_sim.topology import Position

# the scenario's radio constants, e_elec and eps_amp
RADIO = (ScenarioConfig().e_elec_j_per_bit, ScenarioConfig().eps_amp_j_per_bit_m2)
E_ELEC = RADIO[0]
K_BITS = 1064


def one_score(r, k_bits, me, sink):
    """The score build_best_neighbor_set gives `r` as a table's only record."""
    [(node_id, value)] = entries(
        build_best_neighbor_set(table(me, sink, [r]), 0.0, 2.5, k_bits, k_bits * E_ELEC))
    assert node_id == r.id
    return value


def test_score_worked_example():
    me, sink = Position(0, 0), Position(500, 0)
    r = record(2, Position(50, 0), me, sink, energy=1.0)
    assert math.isclose(one_score(r, 1000, me, sink), 0.9875, rel_tol=1e-15)


def test_score_of_zero_bits_is_the_residual_energy():
    me, sink = Position(0, 0), Position(500, 0)
    r = record(2, Position(50, 0), me, sink, energy=0.25)
    assert one_score(r, 0, me, sink) == 0.25


def test_score_prefers_nearer_neighbor_at_equal_energy():
    me, sink = Position(0, 0), Position(500, 0)
    near = record(2, Position(10, 0), me, sink, energy=1.0)
    far = record(3, Position(70, 0), me, sink, energy=1.0)
    assert one_score(near, 1000, me, sink) > one_score(far, 1000, me, sink)


def test_best_neighbor_set_empty_when_all_farther():
    me, sink = Position(100, 90), Position(490, 90)
    t = table(me, sink, [
        record(2, Position(60, 90), me, sink, 1.0),
        record(3, Position(80, 120), me, sink, 1.0),
    ])
    assert entries(build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)) == []


def test_best_neighbor_set_orders_by_score_then_id():
    me, sink = Position(100, 90), Position(490, 90)
    t = table(me, sink, [
        record(5, Position(160, 90), me, sink, 1.0),
        record(2, Position(160, 90), me, sink, 1.0),  # tie with 5: id wins
        record(3, Position(160, 90), me, sink, 2.0),  # more energy: top rank
    ])
    s = build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)
    assert s.ids == [3, 2, 5]
    assert s == build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)


def test_best_neighbor_set_skips_dead_expired_and_flagged():
    me, sink = Position(100, 90), Position(490, 90)
    t = table(me, sink, [
        record(2, Position(160, 90), me, sink, 1.0),
        record(3, Position(160, 100), me, sink, 0.0),               # dead
        record(4, Position(170, 90), me, sink, 1.0, beacon_time=-5.0),  # expired
        record(5, Position(160, 80), me, sink, 1.0, void=True),     # flagged
    ])
    s = build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)
    assert s.ids == [2]


def test_average_score_index_singleton():
    assert average_score_index(best_set([(2, 10.0)])) == 1


def test_average_score_index_equidistant_prefers_better():
    assert average_score_index(best_set([(2, 6.0), (3, 2.0)])) == 1


def test_average_score_index_middle():
    # mean 4.0; gaps 4, 1, 2, 3 so rank 2 is closest
    assert average_score_index(best_set([(2, 8.0), (3, 5.0), (4, 2.0), (5, 1.0)])) == 2


def test_refresh_state_keeps_matching_set():
    s = best_set([(2, 8.0), (3, 5.0)])
    state = SourceState(ref_hop_count=4, balance_index=2, neighbor_ids=(2, 3))
    assert refresh_state(state, s) is state


def test_refresh_state_recomputes_on_change():
    s = best_set([(2, 8.0), (3, 5.0), (4, 2.0), (5, 1.0)])
    state = SourceState(ref_hop_count=4, balance_index=1, neighbor_ids=(2, 3))
    new = refresh_state(state, s)
    assert new is state
    assert new.ref_hop_count == 4
    assert new.balance_index == 2
    assert new.neighbor_ids == (2, 3, 4, 5)


FOUR = best_set([(2, 9.0), (3, 7.0), (4, 5.0), (5, 3.0)])


def test_select_first_contact_takes_top_rank():
    choice, state = select_next_hop(None, FOUR, hop_count=6)
    assert choice == 2
    assert state.ref_hop_count == 6
    assert state.balance_index == average_score_index(FOUR)
    assert state.neighbor_ids == (2, 3, 4, 5)


def test_select_in_range_pick():
    state = SourceState(ref_hop_count=3, balance_index=2, neighbor_ids=(2, 3, 4, 5))
    choice, new = select_next_hop(state, FOUR, hop_count=3)
    assert choice == 3
    assert (new.ref_hop_count, new.balance_index) == (3, 2)


def test_select_clamps_low_to_best_rank():
    state = SourceState(ref_hop_count=3, balance_index=2, neighbor_ids=(2, 3, 4, 5))
    choice, new = select_next_hop(state, FOUR, hop_count=6)
    assert new is state
    assert choice == 2
    assert (new.ref_hop_count, new.balance_index) == (5, 2)


def test_select_clamps_high_to_worst_rank():
    state = SourceState(ref_hop_count=3, balance_index=2, neighbor_ids=(2, 3, 4, 5))
    choice, new = select_next_hop(state, FOUR, hop_count=0)
    assert new is state
    assert choice == 5
    assert (new.ref_hop_count, new.balance_index) == (2, 2)


def test_select_refreshes_a_stale_state_itself():
    """A state computed against another set is refreshed before the pick:
    FOUR's balance rank is 2, so hop 3 at reference 3 picks rank 2."""
    state = SourceState(ref_hop_count=3, balance_index=1, neighbor_ids=(2, 3))
    choice, new = select_next_hop(state, FOUR, hop_count=3)
    assert new is state
    assert choice == 3
    assert (new.ref_hop_count, new.balance_index, new.neighbor_ids) == (3, 2, (2, 3, 4, 5))


@given(
    ref=st.integers(0, 20),
    j=st.integers(1, 6),
    m=st.integers(1, 6),
    hop=st.integers(0, 20),
)
def test_select_always_stays_in_set(ref, j, m, hop):
    s = best_set([(i + 2, float(10 * m - i)) for i in range(m)])
    state = SourceState(ref_hop_count=ref, balance_index=min(j, m),
                        neighbor_ids=tuple(s.ids))
    choice, new = select_next_hop(state, s, hop)
    assert choice in set(s.ids)
    assert new.balance_index == min(j, m)


@given(
    halves=st.lists(st.integers(1, 100), min_size=2, max_size=6, unique=True),
    shift_halves=st.integers(0, 100),
)
def test_order_invariant_under_energy_shift(halves, shift_halves):
    me, sink = Position(100, 90), Position(490, 90)
    shift = 0.5 * shift_halves
    recs = [record(i + 2, Position(160, 90), me, sink, 0.5 * h)
            for i, h in enumerate(halves)]
    base = table(me, sink, recs)
    shifted = table(me, sink, [
        record(r.id, r.position, me, sink, r.residual_energy + shift) for r in recs
    ])
    order = build_best_neighbor_set(base, 0.0, 2.5, K_BITS, K_BITS * E_ELEC).ids
    order_shifted = build_best_neighbor_set(shifted, 0.0, 2.5, K_BITS, K_BITS * E_ELEC).ids
    assert order == order_shifted


# A node has a sink-ward neighbour, and so need not walk back, exactly when its
# best-neighbour set is nonempty.

def test_has_sinkward_true_with_closer_neighbor():
    me, sink = Position(100, 90), Position(490, 90)
    t = table(me, sink, [record(2, Position(160, 90), me, sink, 1.0)])
    assert build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC).ids == [2]


def test_has_sinkward_false_on_empty_table():
    t = table(Position(100, 90), Position(490, 90), [])
    assert entries(build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)) == []


@pytest.mark.parametrize("closer", [
    dict(void=True),           # flagged
    dict(beacon_time=-2.6),    # expired: 2.6 s old against a 2.5 s expiry
    dict(energy=0.0),          # dead
], ids=["void_flagged", "expired", "zero_energy"])
def test_has_sinkward_ignores_unusable_closer_neighbor(closer):
    me, sink = Position(100, 90), Position(490, 90)
    kw = dict(energy=1.0) | closer
    t = table(me, sink, [
        record(2, Position(60, 90), me, sink, 1.0),   # usable but farther
        record(3, Position(160, 90), me, sink, **kw),
    ])
    assert entries(build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)) == []


def test_has_sinkward_expiry_boundary_is_inclusive():
    me, sink = Position(100, 90), Position(490, 90)
    t = table(me, sink, [record(2, Position(160, 90), me, sink, 1.0, beacon_time=0.5)])
    assert build_best_neighbor_set(t, 3.0, 2.5, K_BITS, K_BITS * E_ELEC).ids == [2]
    assert entries(build_best_neighbor_set(t, 3.0000001, 2.5, K_BITS, K_BITS * E_ELEC)) == []


@given(st.lists(
    # x on our y line: a table holds no sub-metre link
    st.tuples(st.integers(0, 200).filter(lambda x: x != 100), st.booleans(),
              st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, -2.5, -3.0]),
              st.sampled_from([None, 0.0, 0.5]), st.booleans()),
    max_size=6))
def test_has_sinkward_agrees_with_best_neighbor_set(specs):
    """The engine's void check is true exactly when the brute-force best
    set is nonempty."""
    me, sink = Position(100, 90), Position(490, 90)
    sim = Simulation(ScenarioConfig(n_sensors=0))  # expiry 2.5 s, now 0.0
    node = sim.nodes[1]
    node.table = table(me, sink, [
        record(i + 2, Position(x, 90), me, sink, energy, void=void, beacon_time=bt,
               pending=pending, stale=stale)
        for i, (x, void, energy, bt, pending, stale) in enumerate(specs)
    ])
    assert sim._has_sinkward(node) == \
        bool(reference_best_set(node.table, 0.0, 2.5, sim.cfg.data_packet_bits,
                                sim.cfg.e_elec_j_per_bit, sim.cfg.eps_amp_j_per_bit_m2))


def test_walking_back_picks_least_far():
    me, sink = Position(100, 90), Position(490, 90)
    t = table(me, sink, [
        record(2, Position(60, 90), me, sink, 1.0),    # 430 m from sink
        record(3, Position(80, 120), me, sink, 1.0),   # about 411 m from sink
    ])
    assert walking_back_candidate(t, set(), 0.0, 2.5) == 3


def test_walking_back_respects_exclusions_and_flags():
    me, sink = Position(100, 90), Position(490, 90)
    t = table(me, sink, [
        record(2, Position(60, 90), me, sink, 1.0),
        record(3, Position(80, 120), me, sink, 1.0, void=True),
    ])
    assert walking_back_candidate(t, set(), 0.0, 2.5) == 2
    assert walking_back_candidate(t, {2}, 0.0, 2.5) is None


def reference_best_set(t, now, expiry_s, k_bits, e_elec, eps_amp):
    """build_best_neighbor_set by brute force: score() over live_records."""
    s = [(r.id, score(r, t.my_position, k_bits, e_elec, eps_amp))
         for r in t.live_records(now, expiry_s)
         if not r.state.void_flagged and r.distance_to_sink < t.my_sink_distance]
    s.sort(key=lambda item: (-item[1], item[0]))
    return s


# offsets from ME on a coarse grid: mirrored dy give equal link lengths and so
# equal scores at equal energy
_RECORD = st.tuples(
    st.sampled_from([-40, -20, 0, 20, 40]),         # dx
    st.sampled_from([-30, -15, 15, 30]),            # dy
    st.sampled_from([0.0, 0.5, 1.0]),               # residual energy
    st.booleans(),                                  # void flagged
    st.sampled_from([0.0, -1.0, -2.5, -2.6]),       # beacon time (expiry 2.5)
    st.sampled_from([None, -0.25, 0.0, 0.25]),      # pending-load overlay
    st.booleans(),                                  # overlay taken before the beacon
)


@given(
    specs=st.lists(_RECORD, min_size=0, max_size=12),
    ids=st.permutations(range(2, 14)),
)
def test_best_neighbor_set_agrees_with_brute_force(specs, ids):
    me, sink = Position(100, 90), Position(490, 90)
    t = table(me, sink, [
        record(node_id, Position(100 + dx, 90 + dy), me, sink, energy, void=void,
               beacon_time=bt, pending=pending, stale=stale)
        for node_id, (dx, dy, energy, void, bt, pending, stale) in zip(ids, specs)])
    s = build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)
    assert entries(s) == reference_best_set(t, 0.0, 2.5, K_BITS, *RADIO)
    assert s.oldest == min((t.records[i].state.last_beacon_time for i in s.ids),
                           default=math.inf)


@given(
    specs=st.lists(_RECORD, min_size=1, max_size=12),
    forwards=st.lists(st.tuples(st.integers(0, 11), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
                      max_size=8),
)
def test_rescore_after_a_forward_agrees_with_a_fresh_build(specs, forwards):
    """After a forward lowers the chosen hop's overlay, rescoring that one
    entry gives the set a fresh build gives, its order and floats; a hop
    whose energy falls to zero or below leaves the set."""
    me, sink = Position(100, 90), Position(490, 90)
    t = table(me, sink, [
        record(node_id, Position(100 + dx, 90 + dy), me, sink, energy, void=void,
               beacon_time=bt, pending=pending, stale=stale)
        for node_id, (dx, dy, energy, void, bt, pending, stale) in enumerate(specs, start=2)])
    kept = build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)
    for pick, load in forwards:
        if not kept.ids:
            break
        r = t.records[kept.ids[pick % len(kept.ids)]]
        energy = r.add_load(load)
        assert energy == r.residual_energy
        rescore(kept, r, energy, K_BITS, K_BITS * E_ELEC)
        fresh = build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)
        assert (kept.ids, kept.scores) == (fresh.ids, fresh.scores)
        assert (r.id in kept.ids) == (r.residual_energy > 0)


def test_rescore_moves_a_hop_past_its_equals_with_lower_ids():
    """At equal scores the lower id ranks first, whichever entry moved."""
    me, sink = Position(100, 90), Position(490, 90)
    t = table(me, sink, [record(i, Position(160, 90), me, sink, 1.0) for i in (2, 3, 4)])
    t.records[3].state.residual_energy = 1.5
    kept = build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)
    assert kept.ids == [3, 2, 4]
    r = t.records[3]
    r.pending, r.pending_time = 1.0, r.state.last_beacon_time
    rescore(kept, r, r.residual_energy, K_BITS, K_BITS * E_ELEC)
    assert kept.ids == [2, 3, 4]
    assert kept == build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)


def test_rescore_keeps_an_entry_that_stays_in_place():
    """A hop whose new score ties the next entry, whose id is higher, keeps
    its rank: its score is overwritten and the order stands.  A hop whose
    energy runs out drops out of the set."""
    me, sink = Position(100, 90), Position(490, 90)
    t = table(me, sink, [record(i, Position(160, 90), me, sink, 1.0) for i in (2, 3, 4)])
    t.records[2].state.residual_energy = 1.5
    kept = build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)
    assert kept.ids == [2, 3, 4] and kept.scores[0] > kept.scores[1]
    r = t.records[2]
    rescore(kept, r, r.add_load(0.5), K_BITS, K_BITS * E_ELEC)
    assert kept.ids == [2, 3, 4]
    assert kept.scores[0] == kept.scores[1]  # 3 ties it, just below
    assert kept == build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)
    rescore(kept, r, r.add_load(1.0), K_BITS, K_BITS * E_ELEC)
    assert kept.ids == [3, 4]
    assert kept == build_best_neighbor_set(t, 0.0, 2.5, K_BITS, K_BITS * E_ELEC)


@given(steps=st.lists(st.tuples(
    st.lists(st.integers(2, 8), min_size=1, max_size=5, unique=True),
    st.integers(0, 12)), min_size=1, max_size=12))
def test_select_sequence_same_with_or_without_reused_state(steps):
    """The engine's one-call loop makes the same choices whether
    select_next_hop updates one state in place or every step works on a
    fresh copy."""
    reused = copied = None
    for node_ids, hop in steps:
        s = best_set([(node_id, float(10 - rank)) for rank, node_id in enumerate(node_ids)])
        given = reused
        choice_a, reused = select_next_hop(reused, s, hop)
        choice_b, copied = select_next_hop(
            None if copied is None else replace(copied), s, hop)
        assert given is None or reused is given
        assert choice_a == choice_b
        assert reused == copied


def reference_select(state, s, hop_count):
    """select_next_hop written out on a [ref_hop_count, balance_index,
    neighbor_ids] list, comparing tuple(s.ids) on every call."""
    ids = tuple(s.ids)
    if state is None:
        return ids[0], [hop_count, average_score_index(s), ids]
    if state[2] != ids:
        state[1], state[2] = average_score_index(s), ids
    index = state[1] + state[0] - hop_count
    if index <= 0:
        state[0] -= index - 1
        index = 1
    elif index > len(ids):
        state[0] -= index - len(ids)
        index = len(ids)
    return ids[index - 1], state


_STEP = st.one_of(
    # a beacon from sender a with residual b, then a rebuild (b None: the
    # rebuild alone, which may give the order the set had)
    st.tuples(st.just("beacon"), st.integers(0, 7), st.sampled_from([None, 0.25, 0.5, 1.0])),
    # source a's packet at hop count b, forwarded to the chosen hop with a
    # load of c joules (c None: no forward)
    st.tuples(st.just("select"), st.integers(0, 1), st.integers(0, 12),
              st.sampled_from([None, 0.0, 0.125, 0.25, 0.5])),
)


@given(
    # every record sink-ward of ME; mirrored dy give equal links, and so
    # ties at equal energy
    specs=st.lists(st.tuples(st.sampled_from([10, 20, 30, 40]),
                             st.sampled_from([-30, -15, 15, 30]),
                             st.sampled_from([0.5, 0.75, 1.0])), min_size=1, max_size=8),
    steps=st.lists(_STEP, max_size=30),
)
def test_select_refreshes_only_when_the_order_changed(specs, steps):
    """Two sources steer by one kept set, which forwards rescore and
    beacons rebuild.  select_next_hop, which recomputes a state's balance
    rank only when the set's order is not the state's neighbor_ids, makes
    the choices and leaves the ranks, reference hop counts and ids of
    reference_select."""
    me, sink = Position(100, 90), Position(490, 90)
    t = table(me, sink, [record(node_id, Position(100 + dx, 90 + dy), me, sink, energy)
                         for node_id, (dx, dy, energy) in enumerate(specs, start=2)])
    now = 0.0
    kept = build_best_neighbor_set(t, now, 2.5, K_BITS, K_BITS * E_ELEC)
    states, refs = [None, None], [None, None]
    for op, a, b, *load in steps:
        if op == "beacon":
            if b is not None:
                now += 0.5
                s = t.records[a % len(specs) + 2].state
                s.residual_energy, s.last_beacon_time = b, now
            kept = build_best_neighbor_set(t, now, 2.5, K_BITS, K_BITS * E_ELEC)
        elif kept.ids:
            held = states[a]
            choice, state = select_next_hop(held, kept, b)
            states[a] = state
            expected, refs[a] = reference_select(refs[a], kept, b)
            assert held is None or state is held
            assert choice == expected
            assert [state.ref_hop_count, state.balance_index, state.neighbor_ids] == refs[a]
            if load[0] is not None:
                r = t.records[choice]
                rescore(kept, r, r.add_load(load[0]), K_BITS, K_BITS * E_ELEC)
