"""Experiment matrix runner: every (protocol, node count, seed) cell once,
each deployment placed once for all its protocols, with CSV outputs written
in deterministic plan order regardless of how the cells were scheduled.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

from .engine import Simulation, run_scenario
from .metrics import (MetricsReport, PACKET_COLUMNS, REGIONAL_COLUMNS,
                      SUMMARY_COLUMNS, SUMMARY_FIGURES, float_sum, packet_rows,
                      regional_rows, summary_row, write_csv)
from .scenario import PROTOCOLS, ScenarioConfig, ScenarioError

DEFAULT_NODE_COUNTS = (30, 50, 80, 100)

COMPARISON_COLUMNS = ["n", "metric", "mean_delta", "min_delta", "max_delta"]


@dataclass(frozen=True)
class ExperimentPlan:
    seeds: tuple[int, ...]
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS
    protocols: tuple[str, ...] = PROTOCOLS
    base: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self):
        if not self.seeds or not self.node_counts or not self.protocols:
            raise ScenarioError("plan lists must be nonempty")
        for p in self.protocols:
            if p not in PROTOCOLS:
                raise ScenarioError(f"unknown protocol {p!r}; expected one of {PROTOCOLS}")
        # a repeated entry would run its cells twice and count them twice
        for name, values in (("seed", self.seeds), ("node count", self.node_counts),
                             ("protocol", self.protocols)):
            seen = set()
            for v in values:
                if v in seen:
                    raise ScenarioError(f"{name} {v!r} is listed more than once")
                seen.add(v)

    def cells(self) -> list[ScenarioConfig]:
        return [
            self.base.replace(protocol=p, n_sensors=n, seed=s)
            for p in self.protocols
            for n in self.node_counts
            for s in self.seeds
        ]


@dataclass(frozen=True)
class _PacketRows:
    """Every report's packet rows, made report by report as they are written,
    not held in one list; sized like that list, as perfbench's tracer counts
    the rows write_csv is given."""
    keyed_reports: list

    def __iter__(self):
        for key, rep in self.keyed_reports:
            yield from packet_rows(rep, *key)

    def __len__(self):
        return sum(len(rep.per_packet_log) for _, rep in self.keyed_reports)


def write_reports(out_dir, keyed_reports, write_packets: bool) -> None:
    """Write summary.csv and regional.csv (plus packets.csv when asked, else
    remove an old one) under the existing out_dir: the rows of each
    (protocol, seed, n) key and its report, in the order given.  An old
    comparison.csv is removed: these reports do not match it.
    `keyed_reports` is read once per file."""
    write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_COLUMNS,
              [summary_row(rep, *key) for key, rep in keyed_reports])
    write_csv(os.path.join(out_dir, "regional.csv"), REGIONAL_COLUMNS,
              [row for key, rep in keyed_reports for row in regional_rows(rep, *key)])
    packets = os.path.join(out_dir, "packets.csv")
    if write_packets:
        write_csv(packets, PACKET_COLUMNS, _PacketRows(keyed_reports))
    elif os.path.exists(packets):
        os.remove(packets)  # an earlier run's, which these reports do not match
    comparison = os.path.join(out_dir, "comparison.csv")
    if os.path.exists(comparison):
        os.remove(comparison)


def _run_group(cells: list[ScenarioConfig]) -> list[MetricsReport]:
    """Run cells of one (n_sensors, seed) deployment in the order given, on
    one placement: the first cell places it, and every later one reuses its
    topology and so its range lists.  No finished Simulation outlives its
    run, and the topology goes when this returns."""
    sim = Simulation(cells[0])
    topology = sim.topology
    reports = [sim.run()]
    del sim  # freed before the next run is set up
    return reports + [run_scenario(cfg, topology) for cfg in cells[1:]]


def run_experiment(plan: ExperimentPlan, out_dir, jobs: int = 1,
                   write_packets: bool = False) -> list[MetricsReport]:
    """Run the full matrix and write summary.csv, regional.csv and, when the
    plan has both protocols, comparison.csv (plus packets.csv when asked)
    under out_dir; an old comparison.csv or packets.csv this run does not
    write is removed.  A cell the scenario rejects, or `jobs` below 1,
    leaves out_dir as it was.

    Execution order: the cells are grouped by deployment (n_sensors, seed),
    the groups in the order of their first cell in plan order, and the cells
    of a group in plan order (the plan's protocol order).  A group's cells
    share one placement and its range lists; groups run one after another
    in this process, or, when `jobs` > 1 and there are several groups, are
    shared out among a process pool's workers.  Reports and CSV rows are in
    plan order either way."""
    if jobs < 1:
        raise ScenarioError(f"jobs must be at least 1, got {jobs}")
    cells = plan.cells()  # validates every cell
    os.makedirs(out_dir, exist_ok=True)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, c in enumerate(cells):
        groups.setdefault((c.n_sensors, c.seed), []).append(i)
    group_cells = [[cells[i] for i in members] for members in groups.values()]
    # a fork pool starts every worker at once: none beyond one per deployment
    workers = min(jobs, len(group_cells))
    if workers > 1:
        # imported here, so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_run_group, group_cells))
    else:
        runs = list(map(_run_group, group_cells))
    reports = [None] * len(cells)
    for members, group_reports in zip(groups.values(), runs):
        for i, rep in zip(members, group_reports):
            reports[i] = rep
    write_reports(out_dir, [((c.protocol, c.seed, c.n_sensors), r)
                            for c, r in zip(cells, reports)], write_packets)
    if "geams" in plan.protocols and "gpsr" in plan.protocols:
        write_csv(os.path.join(out_dir, "comparison.csv"), COMPARISON_COLUMNS,
                  _comparison_rows(plan, cells, reports))
    return reports


def _comparison_rows(plan, cells, reports) -> list[list[str]]:
    """Per node count and metric: geams-minus-gpsr delta per seed, aggregated
    over seeds as mean / min / max.  Seeds where either side lacks the metric
    (no delivered packets) are skipped for the delay rows."""
    by_cell = {(c.protocol, c.n_sensors, c.seed): r for c, r in zip(cells, reports)}
    rows = []
    for n in plan.node_counts:
        for name, get in SUMMARY_FIGURES:
            deltas = []
            for s in plan.seeds:
                a = get(by_cell[("geams", n, s)])
                b = get(by_cell[("gpsr", n, s)])
                if a is None or b is None:
                    continue
                deltas.append(float(a) - float(b))
            if not deltas:
                rows.append([str(n), name, "", "", ""])
                continue
            mean = float_sum(deltas) / len(deltas)
            rows.append([str(n), name, repr(mean), repr(min(deltas)), repr(max(deltas))])
    return rows
