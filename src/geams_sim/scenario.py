"""Scenario configuration: defaults, JSON loading, validation.

Unknown keys are hard errors so a typo never silently falls back to a default.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

PROTOCOLS = ("geams", "gpsr")


class ScenarioError(ValueError):
    """Invalid or unparseable scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    # experiment cell
    protocol: str = "geams"
    n_sensors: int = 100
    seed: int = 1
    # field geometry
    field_width: float = 500.0
    field_height: float = 200.0
    sink_x: float = 490.0
    sink_y: float = 90.0
    source_x: float = 10.0
    source_y: float = 90.0
    radio_range: float = 80.0
    min_separation: float = 1.0
    # energy model
    e_elec_j_per_bit: float = 5e-6
    eps_amp_j_per_bit_m2: float = 1e-9
    initial_energy_j: float = 3.0
    gateway_energy_j: float = 1e6  # sink/source battery; exempt from death
    beacon_energy: bool = True
    # traffic
    image_count: int = 30
    image_interval_s: float = 1.0
    image_bits: int = 10_000
    packet_bits: int = 1_000
    header_bits: int = 64
    # control plane
    beacon_interval_s: float = 1.0
    beacon_bits: int = 128
    void_announcement_bits: int = 128
    neighbor_expiry_intervals: float = 2.5
    # engine
    base_rate_bps: float = 250_000.0
    queue_capacity: int = 10
    ttl: int | None = None  # None: 2 x total node count
    horizon_s: float = 120.0

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ScenarioError(f"unknown protocol {self.protocol!r}; expected one of {PROTOCOLS}")
        if self.n_sensors < 0:
            raise ScenarioError("n_sensors must be nonnegative")
        if self.queue_capacity < 1:
            raise ScenarioError("queue_capacity must be at least 1")
        if self.packet_bits < 1 or self.image_bits < 1:
            raise ScenarioError("packet_bits and image_bits must be positive")
        if self.ttl is not None and self.ttl < 1:
            raise ScenarioError("ttl must be positive when given")
        # NaN fails too; a zero beacon interval never reaches the horizon
        for name in ("beacon_interval_s", "base_rate_bps", "neighbor_expiry_intervals"):
            if not getattr(self, name) > 0:
                raise ScenarioError(f"{name} must be positive")
        # an infinite field never finishes placement, an infinite radio
        # constant or range drains every sensor at t = 0, and an infinite
        # horizon schedules beacon rounds forever once traffic cannot finish
        for name in ("field_width", "field_height", "radio_range", "e_elec_j_per_bit",
                     "eps_amp_j_per_bit_m2", "horizon_s"):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                label = name.replace("field_", "field ")  # "field width", "radio_range"
                raise ScenarioError(f"{label} must be positive and finite")
        if self.image_count < 1:
            raise ScenarioError("image_count must be at least 1")
        if not self.image_interval_s >= 0:  # NaN fails too; negative runs the clock back
            raise ScenarioError("image_interval_s must be nonnegative")
        # an infinite battery leaves inf - inf = NaN in the reports and the ledger
        for name in ("initial_energy_j", "gateway_energy_j"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ScenarioError(f"{name} must be nonnegative and finite")
        for name in ("header_bits", "beacon_bits", "void_announcement_bits"):
            if getattr(self, name) < 0:
                raise ScenarioError(f"{name} must be nonnegative")
        # the link model's floor: no in-run check guards a shorter link
        if not self.min_separation >= 1.0:  # NaN fails too
            raise ScenarioError("min_separation must be at least 1 m")
        for x, y in ((self.sink_x, self.sink_y), (self.source_x, self.source_y)):
            if not (0 <= x <= self.field_width and 0 <= y <= self.field_height):
                raise ScenarioError(f"designated node at ({x}, {y}) lies outside the field")
        # a closer pair would be a link shorter than the floor
        gap = math.hypot(self.sink_x - self.source_x, self.sink_y - self.source_y)
        if gap < self.min_separation:
            raise ScenarioError(f"sink and source are {gap} m apart, closer than "
                                f"min_separation {self.min_separation}")

    def effective_ttl(self, total_nodes: int) -> int:
        return self.ttl if self.ttl is not None else 2 * total_nodes

    @property
    def neighbor_expiry_s(self) -> float:
        return self.neighbor_expiry_intervals * self.beacon_interval_s

    @property
    def data_packet_bits(self) -> int:
        """Standard on-air size of a data packet (payload plus header)."""
        return self.packet_bits + self.header_bits

    def replace(self, **overrides) -> "ScenarioConfig":
        return dataclasses.replace(self, **overrides)


# the JSON values each declared field type accepts; bool is an int subclass,
# so it is rejected separately everywhere but in a bool field
_JSON_TYPES = {
    "str": ((str,), "a string"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "int | None": ((int, type(None)), "an integer or null"),
}
_FIELD_TYPES = {f.name: _JSON_TYPES[f.type] for f in dataclasses.fields(ScenarioConfig)}


def config_from_dict(d: dict) -> ScenarioConfig:
    unknown = sorted(set(d) - set(_FIELD_TYPES))
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {', '.join(unknown)}")
    for key, value in d.items():
        types, kind = _FIELD_TYPES[key]
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise ScenarioError(f"{key} must be {kind}, not {json.dumps(value)}")
    return ScenarioConfig(**d)


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return config_from_dict(raw)
