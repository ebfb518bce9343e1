"""The benchmark's speed reference: a frozen copy of the simulator package
(`src/geams_sim`, without `cli` and `experiment`) as it stood when the
benchmark was defined.

`worker.py` runs one fixed scenario of this copy between the scenario runs
it measures, and scales each measured run by how fast the reference ran
around it.  Do not edit these files along with the simulator: the reference
must stay the same code for figures to stay comparable across commits."""

from .engine import Simulation, run_scenario
from .scenario import ScenarioConfig, load_scenario
from .topology import FieldSpec, Position, Topology, generate_topology

__all__ = [
    "FieldSpec",
    "Position",
    "ScenarioConfig",
    "Simulation",
    "Topology",
    "generate_topology",
    "load_scenario",
    "run_scenario",
]
