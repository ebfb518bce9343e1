"""Link capacity and serialization timing.

The link rate shrinks with the square root of link length; propagation delay
is treated as zero, so a hop takes exactly its serialization time.
"""
from __future__ import annotations

import math

BASE_RATE_BPS = 250_000.0


def link_rate(length_m: float, base_rate_bps: float = BASE_RATE_BPS) -> float:
    """Bits per second over a link of the given length: base_rate / sqrt(length).
    Links are at least 1 m long: the scenario's `min_separation` is, and
    every deployment is checked against it at load time."""
    return base_rate_bps / math.sqrt(length_m)


def serialization_delay(k_bits: float, rate_bps: float) -> float:
    """Seconds to clock k bits onto a link of the given (load-time checked,
    positive) rate."""
    return k_bits / rate_bps
