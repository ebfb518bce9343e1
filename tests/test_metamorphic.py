"""Metamorphic relations: a run against the run of a rescaled scenario, an
oracle that needs no reference engine.  Scaling by 2 is exact in binary
floating point, so each relation holds bit for bit, not up to rounding.

Time x2: doubling the beacon and image intervals and the horizon, and
halving the base rate, doubles every event time.  A frame's serialization
time doubles, as (base / 2) / sqrt(d) is exactly half of base / sqrt(d), and
the neighbour expiry (intervals times the beacon interval) doubles, so every
expiry test compares doubled times and decides as before.  Each packet keeps
its seq, outcome and hop count, and its delay doubles; no debit changes, so
each node keeps its residual and alive flag.

Energy x2: doubling both radio constants and every battery doubles every
price, each hop's price per bit among them, and every residual, so every
comparison of joules decides as before: the per-packet log is unchanged and
every residual doubles.

Three limits change nothing on a run they never bound: a larger
queue_capacity on a run with no buffer_overflow, a TTL of 10**6 on a run
with no ttl_expired, and a later horizon on a run that accounted for every
packet before its own (such a run ends there, and no beacon round past it
ran).  Each limit is one comparison that decided "not reached" every time,
and a looser limit decides the same.  "Unchanged" is the per-packet log, the
time of the last event, and every node's residual and alive flag.

Every relation runs over the differential test's draws (conftest); the
limit relations assert that enough draws qualify, and report the share that
does as a Hypothesis event.  No such draw reaches the default TTL, so the
TTL relation also draws scenarios with a TTL of a few hops, which binds on
some draws and is never reached on others.  Time x2 and energy x2 do not
hold if a hop is priced or timed with a constant other than the run's.

GPSR's delivery guarantee is an oracle of its own: on a placement whose
t = 0 range graph joins the source to the sink, with batteries no run can
drain and no TTL that binds, every packet reaches the sink or is dropped at
a full queue.
"""
from collections import deque

from hypothesis import assume, event, example, given, settings, strategies as st

from conftest import _DYING_STREAM, _SMALL
from geams_sim.engine import Simulation
from geams_sim.scenario import ScenarioConfig
from geams_sim.topology import SINK_ID, SOURCE_ID, generate_topology

# the limit relations qualify on about 4 draws in 5 (queue, horizon, TTL);
# asking half of them keeps a real skew visible
QUALIFY = 75
_DRAWS = st.one_of(_SMALL, _DYING_STREAM)
# dying streams with a TTL of a few hops, which binds on about 2 draws in 5
_SHORT_TTL = st.tuples(_DYING_STREAM, st.integers(1, 6)).map(lambda d: dict(d[0], ttl=d[1]))


def _run(cfg: ScenarioConfig):
    """The finished Simulation of `cfg` and its per-packet log."""
    sim = Simulation(cfg)
    return sim, sim.run().per_packet_log


def _state(sim, log):
    """What a limit that never bound leaves unchanged."""
    return log, sim.now, [(i, n.battery.residual, n.alive) for i, n in sorted(sim.nodes.items())]


def _shows_statistics(test):
    """Mark `test`, which runs a @given relation of its own, as a Hypothesis
    test, so that --hypothesis-show-statistics prints the relation's events:
    the share of draws on which the limit bound."""
    test.is_hypothesis_test = True
    return test


def _unchanged_where_not_bound(bound, loosen, looser, draws=_DRAWS) -> int:
    """Over 150 draws from `draws`, every run where `bound(sim, log)` is
    false equals the run of `loosen(cfg, x)`, x drawn from `looser`; at
    least QUALIFY of the draws qualify.  Returns the number that do not."""
    qualified, bound_runs = [], []

    @settings(max_examples=150, deadline=None)
    @given(fields=draws, x=looser)
    def relation(fields, x):
        cfg = ScenarioConfig(**fields)
        sim, log = _run(cfg)
        if bound(sim, log):
            event("the limit bound")
            bound_runs.append(cfg)
            return
        event("the limit never bound")
        qualified.append(cfg)
        assert _state(*_run(loosen(cfg, x))) == _state(sim, log)

    relation()
    assert len(qualified) >= QUALIFY
    return len(bound_runs)


@settings(max_examples=200, deadline=None)
@given(fields=_DRAWS)
def test_doubling_every_time_doubles_every_delay(fields):
    cfg = ScenarioConfig(**fields)
    sim, log = _run(cfg)
    slow, slow_log = _run(cfg.replace(
        beacon_interval_s=2 * cfg.beacon_interval_s,
        image_interval_s=2 * cfg.image_interval_s,
        horizon_s=2 * cfg.horizon_s,
        base_rate_bps=cfg.base_rate_bps / 2))
    assert [(p.seq, p.outcome, p.hops) for p in slow_log] == \
        [(p.seq, p.outcome, p.hops) for p in log]
    assert [p.delay for p in slow_log] == [None if p.delay is None else 2 * p.delay
                                           for p in log]
    assert slow.now == 2 * sim.now
    assert [(i, n.battery.residual, n.alive) for i, n in sorted(slow.nodes.items())] == \
        [(i, n.battery.residual, n.alive) for i, n in sorted(sim.nodes.items())]


@settings(max_examples=200, deadline=None)
@given(fields=_DRAWS)
def test_doubling_every_price_and_battery_doubles_every_residual(fields):
    cfg = ScenarioConfig(**fields)
    sim, log = _run(cfg)
    rich, rich_log = _run(cfg.replace(
        e_elec_j_per_bit=2 * cfg.e_elec_j_per_bit,
        eps_amp_j_per_bit_m2=2 * cfg.eps_amp_j_per_bit_m2,
        initial_energy_j=2 * cfg.initial_energy_j,
        gateway_energy_j=2 * cfg.gateway_energy_j))
    assert rich_log == log
    assert [(i, n.battery.residual, n.alive) for i, n in sorted(rich.nodes.items())] == \
        [(i, 2 * n.battery.residual, n.alive) for i, n in sorted(sim.nodes.items())]


@_shows_statistics
def test_a_queue_limit_that_never_bound_changes_nothing():
    _unchanged_where_not_bound(
        lambda sim, log: any(p.outcome == "buffer_overflow" for p in log),
        lambda cfg, more: cfg.replace(queue_capacity=cfg.queue_capacity + more),
        st.integers(1, 10**6))


@_shows_statistics
def test_a_ttl_that_never_bound_changes_nothing():
    assert _unchanged_where_not_bound(
        lambda sim, log: any(p.outcome == "ttl_expired" for p in log),
        lambda cfg, _: cfg.replace(ttl=10**6),
        st.none(), st.one_of(_DRAWS, _SHORT_TTL)) > 0


@_shows_statistics
def test_a_horizon_past_the_end_changes_nothing():
    _unchanged_where_not_bound(
        lambda sim, log: not (sim.emissions_done and len(log) == sim.emitted),
        lambda cfg, later: cfg.replace(horizon_s=cfg.horizon_s + later),
        st.floats(0.0, 1e6, exclude_min=True))


def _joined(cfg: ScenarioConfig, topology) -> bool:
    """Whether the range graph of `topology` at `cfg`'s radio range joins
    the source to the sink: a breadth-first search from the source."""
    lists = topology.range_lists(cfg.radio_range)
    seen, queue = {SOURCE_ID}, deque([SOURCE_ID])
    while queue:
        for v in lists[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return SINK_ID in seen


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([20, 30, 40, 60]), seed=st.integers(1, 10_000))
# a perimeter walk of 70 hops, longer than the default TTL of 64
@example(n=30, seed=55)
def test_gpsr_delivers_every_packet_on_a_connected_placement(n, seed):
    """Beacons cost nothing and every battery holds 1000 J, so no node dies
    and the t = 0 range graph is the graph of the whole run."""
    cfg = ScenarioConfig(protocol="gpsr", n_sensors=n, seed=seed, image_count=5,
                         beacon_energy=False, initial_energy_j=1000.0,
                         gateway_energy_j=1000.0, ttl=10**6)
    topology = generate_topology(cfg)
    assume(_joined(cfg, topology))
    sim = Simulation(cfg, topology)
    log = sim.run().per_packet_log
    assert len(log) == sim.emitted
    assert {p.outcome for p in log} <= {"delivered", "buffer_overflow"}, (n, seed)
