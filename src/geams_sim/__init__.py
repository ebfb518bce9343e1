"""Deterministic discrete-event simulator for GEAMS and GPSR geographic
routing in wireless multimedia sensor networks."""

from .engine import Simulation, run_scenario
from .scenario import ScenarioConfig, load_scenario
from .topology import Position, Topology, generate_topology

__all__ = [
    "Position",
    "ScenarioConfig",
    "Simulation",
    "Topology",
    "generate_topology",
    "load_scenario",
    "run_scenario",
]
