"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line (visible with -v / -rA) and asserting the criterion.

Criteria 1-4 are comparative, evaluated on a 20-seed matrix at the two
densest deployments; the matrix is computed once per session.
"""
import math
import multiprocessing
import statistics
from concurrent.futures import ProcessPoolExecutor

import pytest

from conftest import PathSimulation, assert_energy_balanced, best_set, chain_positions, \
    first_hop
from geams_sim.energy import rx_energy, tx_energy
from geams_sim.engine import Simulation
from geams_sim.experiment import ExperimentPlan, run_experiment
from geams_sim.geams import SourceState, select_next_hop
from geams_sim.scenario import ScenarioConfig

SEEDS = tuple(range(1, 21))
SIZES = (80, 100)
WIN_THRESHOLD = 0.8  # criteria 2-4: share of seeds that must favor geams


def _cell_worker(cfg):
    sim = Simulation(cfg)
    report = sim.run()
    drawn, ledger_total = sim.energy_drawdown()
    return report, drawn, ledger_total, sim.emitted


@pytest.fixture(scope="module")
def matrix():
    cells = [
        ScenarioConfig(protocol=p, n_sensors=n, seed=s)
        for p in ("geams", "gpsr") for n in SIZES for s in SEEDS
    ]
    try:
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=8, mp_context=ctx) as pool:
            results = list(pool.map(_cell_worker, cells))
    except ValueError:  # fork unavailable on this platform
        results = [_cell_worker(c) for c in cells]
    return {
        (c.protocol, c.n_sensors, c.seed): r for c, r in zip(cells, results)
    }


def _reports(matrix, protocol, n):
    return [matrix[(protocol, n, s)][0] for s in SEEDS]


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _win_share(matrix, n, better):
    wins = sum(
        1 for s in SEEDS
        if better(matrix[("geams", n, s)][0], matrix[("gpsr", n, s)][0])
    )
    return wins / len(SEEDS)


def test_criterion_01_dead_nodes_tend_to_zero(matrix):
    geams = statistics.median(r.dead_nodes for r in _reports(matrix, "geams", 100))
    gpsr = statistics.median(r.dead_nodes for r in _reports(matrix, "gpsr", 100))
    ok = geams <= gpsr and geams <= 1
    _verdict(1, ok, f"median dead at n=100: geams={geams} gpsr={gpsr}")


def test_criterion_02_energy_variance_lower(matrix):
    shares = {
        n: _win_share(matrix, n, lambda a, b: a.energy_variance < b.energy_variance)
        for n in SIZES
    }
    ok = all(v >= WIN_THRESHOLD for v in shares.values())
    _verdict(2, ok, "variance win share " + str(shares))


def test_criterion_03_residual_energy_lower(matrix):
    shares = {
        n: _win_share(matrix, n, lambda a, b: a.mean_energy <= b.mean_energy)
        for n in SIZES
    }
    ok = all(v >= WIN_THRESHOLD for v in shares.values())
    _verdict(3, ok, "mean residual win share " + str(shares))


def test_criterion_04_delay_and_loss_lower(matrix):
    loss_share = _win_share(matrix, 100, lambda a, b: a.lost_total <= b.lost_total)

    def delay_better(a, b):
        return (a.delay_mean is not None and b.delay_mean is not None
                and a.delay_mean <= b.delay_mean)

    delay_share = _win_share(matrix, 100, delay_better)
    ok = loss_share >= WIN_THRESHOLD and delay_share >= WIN_THRESHOLD
    _verdict(4, ok, f"win share at n=100: loss={loss_share} delay={delay_share}")


def _selection_oracle(ref, j, m, hop_count):
    """Independent transcription of the smart-greedy rank update rule, with
    out-of-range picks clamped to the best (1) and worst (m) ranks."""
    index = j + (ref - hop_count)
    if index <= 0:
        ref = ref - index + 1
        index = 1
    if index > m:
        ref = ref - index + m
        index = m
    return index, ref


def test_criterion_05_selection_matches_oracle_exhaustively():
    mismatches = 0
    checked = 0
    for m in range(1, 7):
        s = best_set([(i + 2, float(100 - i)) for i in range(m)])
        ids = tuple(s.ids)
        for j in range(1, m + 1):
            for ref in range(0, 21):
                for hop in range(0, 21):
                    state = SourceState(ref_hop_count=ref, balance_index=j,
                                        neighbor_ids=ids)
                    choice, new = select_next_hop(state, s, hop)
                    index, want_ref = _selection_oracle(ref, j, m, hop)
                    checked += 1
                    if choice != s.ids[index - 1] or new.ref_hop_count != want_ref \
                            or new.balance_index != j:
                        mismatches += 1
    _verdict(5, mismatches == 0, f"{checked} cases, {mismatches} mismatches")


def test_criterion_06_energy_model_values():
    cfg = ScenarioConfig()
    tx = tx_energy(1000, 80, cfg.e_elec_j_per_bit, cfg.eps_amp_j_per_bit_m2)
    rx = rx_energy(1000, cfg.e_elec_j_per_bit)
    ok = (math.isclose(tx, 1.14e-2, rel_tol=1e-15)
          and math.isclose(rx, 5.0e-3, rel_tol=1e-15))
    _verdict(6, ok, f"tx={tx!r} rx={rx!r}")


def test_criterion_07_link_model_values():
    # the hop time the engine schedules for one frame at the link's rate
    (t1, bits), (t25, _) = first_hop(1.0), first_hop(25.0)
    ok = (t1 == bits / 250_000.0
          and math.isclose(t25, bits / 50_000.0, rel_tol=1e-15))
    _verdict(7, ok, f"hop(1 m)={t1!r} hop(25 m)={t25!r} for {bits} bits")


def test_criterion_08_conservation_and_accounting(matrix):
    for key, (report, drawn, ledger_total, emitted) in matrix.items():
        assert emitted == 300, key
        assert report.delivered + report.lost_total == emitted, key
        assert_energy_balanced(drawn, ledger_total)
    _verdict(8, True, f"{len(matrix)} runs balanced, 300 packets each")


def test_criterion_09_determinism_and_parallel_equivalence(tmp_path):
    plan = ExperimentPlan(seeds=(1, 2), node_counts=(30, 80))
    dirs = [tmp_path / name for name in ("serial1", "serial2", "parallel")]
    run_experiment(plan, dirs[0])
    run_experiment(plan, dirs[1])
    run_experiment(plan, dirs[2], jobs=8)
    identical = all(
        (dirs[0] / name).read_bytes()
        == (dirs[1] / name).read_bytes()
        == (dirs[2] / name).read_bytes()
        for name in ("summary.csv", "regional.csv", "comparison.csv")
    )
    _verdict(9, identical, "repeat and --jobs 8 outputs byte-identical")


def test_criterion_10_chain_degeneracy(topo_builder):
    topo = topo_builder(chain_positions())
    paths = {}
    reports = {}
    for protocol in ("geams", "gpsr"):
        cfg = ScenarioConfig(protocol=protocol, n_sensors=7, initial_energy_j=20.0)
        sim = PathSimulation(cfg, topo)
        reports[protocol] = sim.run()
        paths[protocol] = sim.paths
    full_delivery = all(r.delivered == 300 and r.lost_total == 0
                        for r in reports.values())
    same_routes = paths["geams"] == paths["gpsr"]
    _verdict(10, full_delivery and same_routes,
             "single-choice chain: both protocols deliver 300/300 on one route")
