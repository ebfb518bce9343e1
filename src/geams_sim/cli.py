"""Command-line entry points.

`geams-sim run` executes one scenario and prints a short summary;
`geams-sim experiment` runs the full comparison matrix.  Precedence for every
setting: command-line flag > scenario file key > built-in default.  The
default output directory comes from $GEAMS_SIM_OUT when set.
"""
from __future__ import annotations

import argparse
import os
import sys

from .engine import Simulation
from .experiment import DEFAULT_NODE_COUNTS, ExperimentPlan, run_experiment, write_reports
from .scenario import PROTOCOLS, ScenarioConfig, ScenarioError, load_scenario
from .topology import PlacementError, load_topology_csv, save_topology_csv


def _default_out_dir() -> str:
    return os.environ.get("GEAMS_SIM_OUT", "geams_out")


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Accept '1,2,3' and ascending ranges like '1-20' (mixable: '1-3,7')."""
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        # a leading '-' is a negative seed's sign, not a range
        lo, dash, hi = part[1:].partition("-")
        try:
            first = int(part[:1] + lo)
            last = int(hi) if dash else first
        except ValueError:
            raise ScenarioError(f"--seeds: {part!r} is neither a seed nor a range "
                                f"like 1-20") from None
        if last < first:
            raise ScenarioError(f"--seeds: range {part!r} is descending")
        seeds.extend(range(first, last + 1))
    return tuple(seeds)


def _base_config(args) -> ScenarioConfig:
    cfg = load_scenario(args.scenario) if args.scenario else ScenarioConfig()
    overrides = {}
    if args.protocol:
        overrides["protocol"] = args.protocol
    if args.nodes is not None:
        overrides["n_sensors"] = args.nodes
    if args.seed is not None:
        overrides["seed"] = args.seed
    return cfg.replace(**overrides) if overrides else cfg


def _cmd_run(args) -> int:
    cfg = _base_config(args)
    topology = None
    if args.topology_in:
        topology = load_topology_csv(args.topology_in, cfg)
    sim = Simulation(cfg, topology)
    if args.topology_out:
        save_topology_csv(sim.topology, args.topology_out)
    report = sim.run()

    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    # a loaded topology brings its own sensor count
    n = len(sim.topology.sensor_ids)
    write_reports(out_dir, [((cfg.protocol, cfg.seed, n), report)], args.packets)

    emitted = sim.emitted
    ratio = report.delivered / emitted if emitted else 0.0
    print(f"protocol={cfg.protocol} n={n} seed={cfg.seed}")
    print(f"dead nodes:      {report.dead_nodes}")
    print(f"delivery ratio:  {report.delivered}/{emitted} ({ratio:.1%})")
    # packets neither delivered nor lost when the horizon stopped the run
    print(f"in flight:       {emitted - report.delivered - report.lost_total}")
    delay = "n/a" if report.delay_mean is None else f"{report.delay_mean:.4f} s"
    print(f"mean delay:      {delay}")
    print(f"energy mean/var: {report.mean_energy:.4f} J / {report.energy_variance:.6f} J^2")
    print(f"reports in:      {out_dir}")
    return 0


def _cmd_experiment(args) -> int:
    base = load_scenario(args.scenario) if args.scenario else ScenarioConfig()
    plan = ExperimentPlan(
        seeds=_parse_seeds(args.seeds),
        node_counts=tuple(args.nodes) if args.nodes else DEFAULT_NODE_COUNTS,
        protocols=tuple(args.protocols.split(",")) if args.protocols else PROTOCOLS,
        base=base,
    )
    run_experiment(plan, args.out_dir, jobs=args.jobs, write_packets=args.packets)
    n_cells = len(plan.protocols) * len(plan.node_counts) * len(plan.seeds)
    print(f"{n_cells} runs complete; reports in {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geams-sim",
        description="Deterministic GEAMS vs GPSR sensor-network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single scenario")
    run_p.add_argument("--protocol", choices=PROTOCOLS)
    run_p.add_argument("--nodes", type=int, help="number of sensor nodes")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--scenario", help="JSON scenario file")
    run_p.add_argument("--topology-in", help="use node placement from CSV")
    run_p.add_argument("--topology-out", help="write node placement to CSV")
    run_p.add_argument("--out-dir", default=_default_out_dir())
    run_p.add_argument("--packets", action="store_true", help="write per-packet CSV")
    run_p.set_defaults(func=_cmd_run)

    exp_p = sub.add_parser("experiment", help="run the comparison matrix")
    exp_p.add_argument("--protocols", help="comma-separated subset of geams,gpsr")
    exp_p.add_argument("--nodes", type=int, nargs="+", help="sensor counts")
    exp_p.add_argument("--seeds", default="1-20", help="e.g. 1-20 or 1,5,9")
    exp_p.add_argument("--scenario", help="JSON scenario file with base settings")
    exp_p.add_argument("--out-dir", default=_default_out_dir())
    exp_p.add_argument("--jobs", type=int, default=1, help="parallel run workers")
    exp_p.add_argument("--packets", action="store_true", help="write per-packet CSV")
    exp_p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, PlacementError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
