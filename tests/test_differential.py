"""`src/` against perfbench/refsim, the frozen original engine, which the
benchmark keeps unchanged (differential testing).  Every change since that
copy was meant to leave runs alone, so a run equals refsim's bit for bit:
every packet's (seq, outcome, delay, hops), every node's (residual, alive),
and the MetricsReport that `geams_sim.metrics` computes from refsim's
residuals and log.  refsim's own mean and variance use sum(), which
compensates from Python 3.12 on, and it books one ledger entry per
reception, so neither is compared.

Excluded: a run whose source battery ends at 0.0 J.  An underfunded gateway
now goes on with its queue (CHANGES.md, "One neighbour-liveness rule and one
overlay write"), so such runs differ from then on.  Only generated
topologies are drawn: refsim steers to the scenario's sink position, `src/`
to node 0's row, so a hand-built topology needs a scenario whose sink and
source positions match its rows.
"""
import dataclasses
import importlib.util
import sys
from pathlib import Path

from hypothesis import event, given, settings, strategies as st

from conftest import _DYING_STREAM, _SMALL, assert_energy_balanced, equivalence_cells
from geams_sim.engine import Simulation
from geams_sim.metrics import MetricsReport, PacketOutcome, dead_node_count, \
    delay_and_loss, energy_stats, regional_energy
from geams_sim.scenario import PROTOCOLS, ScenarioConfig
from geams_sim.topology import SOURCE_ID

REFSIM = Path(__file__).resolve().parent.parent / "perfbench" / "refsim"


def _load_refsim():
    """Import perfbench/refsim as the package `refsim`, without putting
    perfbench/ on sys.path and without writing bytecode next to it.  A
    missing or broken copy fails the module, so no test here can skip."""
    spec = importlib.util.spec_from_file_location(
        "refsim", REFSIM / "__init__.py", submodule_search_locations=[str(REFSIM)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["refsim"] = module  # its modules import each other relatively
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


refsim = _load_refsim()


def _source_ran_dry(sim) -> bool:
    return sim.nodes[SOURCE_ID].battery.residual == 0.0


def _node_states(sim) -> list[tuple]:
    return [(i, n.battery.residual, n.alive) for i, n in sorted(sim.nodes.items())]


def assert_equals_refsim(cfg: ScenarioConfig, sim, report) -> None:
    """`sim`, a finished `src/` run of `cfg` that returned `report`, equals
    refsim's run of the same scenario bit for bit; the report is compared
    with the one `geams_sim.metrics` computes from refsim's sensor residuals,
    in ascending id order, and its log."""
    ref = refsim.Simulation(refsim.ScenarioConfig(**dataclasses.asdict(cfg)))
    log = [PacketOutcome(p.seq, p.outcome, p.delay, p.hops) for p in ref.run().per_packet_log]
    assert report.per_packet_log == log, cfg
    assert _node_states(sim) == _node_states(ref), cfg
    sensors = [ref.nodes[i] for i in sorted(ref.topology.sensor_ids)]
    residuals = [n.battery.residual for n in sensors]
    regional = regional_energy([(n.position, n.battery.residual) for n in sensors],
                               cfg.field_width)
    delay_mean, delay_var, lost = delay_and_loss(log)
    assert report == MetricsReport(
        dead_node_count(residuals), *energy_stats(residuals), regional, delay_mean,
        delay_var, len(log) - sum(lost.values()), lost, log), cfg


def test_fixed_cells_equal_refsim():
    """The cells the kept-choice checkers run.  The kept-GEAMS-set rebuild
    on expiry shows only in their n = 100 low-energy cells.  Of them, only
    the two cells whose gateways start at 0.05 J run the source dry; the
    other gateway cells stop a gateway's beacons while the source stays
    funded, and are compared.  Of the compared cells, some of each protocol
    lose packets to their TTL."""
    dry, ttl_lost = [], set()
    for cfg in equivalence_cells():
        sim = Simulation(cfg)
        report = sim.run()
        if _source_ran_dry(sim):
            dry.append(cfg.gateway_energy_j)
        else:
            assert_equals_refsim(cfg, sim, report)
            if report.lost["ttl_expired"]:
                ttl_lost.add(cfg.protocol)
    assert dry == [0.05, 0.05]
    assert ttl_lost == set(PROTOCOLS)


@settings(max_examples=300, deadline=None)
@given(fields=st.one_of(_SMALL, _DYING_STREAM))
def test_small_random_scenarios_conserve_packets_balance_and_equal_refsim(fields):
    """Any small scenario runs to an end, accounts for every packet it
    emitted and books every joule drawn, underfunded gateways included; one
    whose source stays funded equals refsim bit for bit."""
    cfg = ScenarioConfig(**fields)
    sim = Simulation(cfg)
    report = sim.run()
    assert sim.now <= cfg.horizon_s
    log = report.per_packet_log
    assert len({p.seq for p in log}) == len(log)
    in_flight = sim.emitted - report.delivered - report.lost_total
    assert in_flight >= 0
    assert report.delivered + report.lost_total + in_flight == sim.emitted
    if sim.emissions_done and len(log) == sim.emitted:
        assert in_flight == 0
    assert_energy_balanced(*sim.energy_drawdown())
    if _source_ran_dry(sim):
        event("source ran dry: not compared")
        return
    assert_equals_refsim(cfg, sim, report)
