"""Run measurements: node deaths, energy distribution (global and by 40 m
x-regions), delivered-packet delay statistics, and loss counts by reason.

Every report field is recomputable from the per-packet log and the final node
states, which the test suite exploits as an independent cross-check.
"""
from __future__ import annotations

import csv
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import reduce
from operator import add, attrgetter

from .topology import Position

LOSS_REASONS = (
    "buffer_overflow",
    "ttl_expired",
    "next_hop_died",
    "void_unresolvable",
    "perimeter_exhausted",
    "sender_died",
)

REGION_WIDTH_M = 40.0
REGION_ANCHOR_X = 10.0


@dataclass(frozen=True)
class PacketOutcome:
    seq: int
    outcome: str  # "delivered" or a loss reason
    delay: float | None  # end-to-end seconds, delivered packets only
    hops: int


@dataclass
class MetricsReport:
    dead_nodes: int
    mean_energy: float
    energy_variance: float
    regional_mean_energy: list[tuple[float, float, float]]  # (x_lo, x_hi, mean joules)
    delay_mean: float | None
    delay_variance: float | None
    delivered: int
    lost: dict[str, int]
    per_packet_log: list[PacketOutcome] = field(default_factory=list)

    @property
    def lost_total(self) -> int:
        return sum(self.lost.values())


def dead_node_count(residuals: list[float]) -> int:
    """Sensors whose battery hit zero, from the sensors' residuals alone."""
    return sum(1 for r in residuals if r == 0.0)


def float_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum.  sum() compensates float sums from
    Python 3.12 on, so a figure summed with it would differ between
    supported Pythons."""
    return reduce(add, values, 0.0)


def energy_stats(values: list[float]) -> tuple[float, float]:
    """Population mean and population variance of sensor residual energies."""
    if not values:
        return 0.0, 0.0
    mean = float_sum(values) / len(values)
    var = float_sum((v - mean) ** 2 for v in values) / len(values)
    return mean, var


def regional_energy(
    sensors: list[tuple[Position, float]], width: float
) -> list[tuple[float, float, float]]:
    """Mean residual energy per 40 m x-interval anchored at x=10.

    Sensors left of the anchor join the first bin, sensors beyond the last
    edge join the last bin; empty bins are omitted.
    """
    edges = []
    lo = REGION_ANCHOR_X
    while lo + REGION_WIDTH_M <= width - REGION_ANCHOR_X:
        edges.append((lo, lo + REGION_WIDTH_M))
        lo += REGION_WIDTH_M
    if not edges:
        edges = [(0.0, width)]
    sums = [0.0] * len(edges)
    counts = [0] * len(edges)
    for pos, residual in sensors:
        idx = int((pos.x - REGION_ANCHOR_X) // REGION_WIDTH_M)
        idx = min(max(idx, 0), len(edges) - 1)
        sums[idx] += residual
        counts[idx] += 1
    return [
        (edges[i][0], edges[i][1], sums[i] / counts[i])
        for i in range(len(edges))
        if counts[i]
    ]


def delay_and_loss(
    log: list[PacketOutcome],
) -> tuple[float | None, float | None, dict[str, int]]:
    """Delay mean/variance over delivered packets (absent when none were
    delivered) and loss counts bucketed by reason."""
    delays = [p.delay for p in log if p.outcome == "delivered"]
    lost = {reason: 0 for reason in LOSS_REASONS}
    for p in log:
        if p.outcome != "delivered":
            lost[p.outcome] += 1
    if not delays:
        return None, None, lost
    mean, var = energy_stats(delays)  # same population statistics
    return mean, var, lost


# the report's figures, one summary.csv column each, in column order;
# comparison.csv compares the same figures
SUMMARY_FIGURES = (
    ("dead", attrgetter("dead_nodes")),
    ("mean_e", attrgetter("mean_energy")),
    ("var_e", attrgetter("energy_variance")),
    ("delay_mean", attrgetter("delay_mean")),
    ("delay_var", attrgetter("delay_variance")),
    ("delivered", attrgetter("delivered")),
    ("lost_total", attrgetter("lost_total")),
)

SUMMARY_COLUMNS = (
    ["protocol", "seed", "n"] + [name for name, _ in SUMMARY_FIGURES]
    + [f"lost_{r}" for r in LOSS_REASONS]
)

REGIONAL_COLUMNS = ["protocol", "seed", "n", "region_lo", "region_hi", "mean_e"]

PACKET_COLUMNS = ["protocol", "seed", "n", "seq", "outcome", "delay", "hops"]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def summary_row(report: MetricsReport, protocol: str, seed: int, n: int) -> list[str]:
    row = ([protocol, seed, n] + [get(report) for _, get in SUMMARY_FIGURES]
           + [report.lost[r] for r in LOSS_REASONS])
    return [_fmt(v) for v in row]


def regional_rows(report: MetricsReport, protocol: str, seed: int, n: int) -> list[list[str]]:
    return [
        [_fmt(v) for v in (protocol, seed, n, lo, hi, mean)]
        for lo, hi, mean in report.regional_mean_energy
    ]


def packet_rows(report: MetricsReport, protocol: str, seed: int, n: int) -> list[tuple]:
    """The packet rows, unformatted: csv.writer writes None as "" and any
    other value with str(), which for a float is repr(), as _fmt does."""
    return [(protocol, seed, n, p.seq, p.outcome, p.delay, p.hops)
            for p in report.per_packet_log]


def write_csv(path, header: list[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
