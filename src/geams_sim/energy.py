"""First-order radio energy model and per-node battery accounting.

Transmit cost grows quadratically with distance through the amplifier term;
receive cost depends only on packet size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


def tx_energy(k_bits: float, d_meters: float, e_elec: float, eps_amp: float) -> float:
    """Energy to transmit k bits over distance d: k * (e_elec + eps_amp * d^2),
    with e_elec the electronics cost per bit and eps_amp the amplifier cost
    per bit per m^2."""
    return k_bits * (e_elec + eps_amp * d_meters * d_meters)


def rx_energy(k_bits: float, e_elec: float) -> float:
    """Energy to receive k bits: k * e_elec."""
    return k_bits * e_elec


class BinadeSteps(dict):
    """What m subtractions of one price `c` take from a residual, in closed
    form: binade exponent e (math.frexp(r)[1]) -> (lo, q), worked out on
    first use.

    Every float r in the binade [lo, 2 lo), lo = 2^(e-1), is a multiple of
    its grid step u = 2^(e-53).  While the real r - c stays at or above lo,
    the float r - c is the real one rounded to that grid, which is r - q
    with q = c rounded to a multiple of u, unless c lies exactly halfway
    between two (a tie, which rounds to whichever result is even, so it
    depends on r).  So m subtractions that all stay in the binade leave
    exactly r - m q.  The last one stays when the real r - (m - 1) q - c is
    at least lo, that is when

        (r - lo) - (m - 1) * q >= c

    and every float operation here is exact: r - lo by Sterbenz's lemma,
    and each product or difference is a multiple of u below 2^53 u, or, for
    a product that is not, fails the check all the same.  A residual below
    lo makes r - lo negative, which fails for every m >= 1 (and m = 0 takes
    nothing), so one entry serves a residual for as long as it only
    decreases.  Where the closed form does not hold, the entry is
    (inf, 0.0), which fails every check: a tie, a subnormal binade (whose
    grid is not u), or c >= 2^52 u = lo, which no subtraction survives in
    the binade.  Prices are nonnegative."""

    __slots__ = ("price",)

    def __init__(self, price: float):
        super().__init__()
        self.price = price

    def __missing__(self, e: int) -> tuple[float, float]:
        steps = self.price / math.ldexp(1.0, e - 53) if e >= -1021 else math.inf
        if steps < 2.0 ** 52 and steps - math.floor(steps) != 0.5:
            entry = (math.ldexp(1.0, e - 1), math.ldexp(round(steps), e - 53))
        else:
            entry = (math.inf, 0.0)
        self[e] = entry
        return entry


@dataclass(slots=True)
class Battery:
    residual: float
    initial: float

    def debit(self, amount: float) -> tuple[float, bool]:
        """Drain up to `amount` joules, flooring at zero.

        Returns (drained, died): `drained` is the energy actually removed
        (may be less than `amount` on an underfunded battery), `died` is true
        iff this debit is the one that brought the residual to zero.  Amounts
        are nonnegative: bit counts and radio constants are checked at load.
        """
        residual = self.residual
        # drains the residual itself when underfunded, so the floor at zero
        # is exact in floating point
        drained = residual if residual < amount else amount
        self.residual = residual - drained
        died = residual > 0 and self.residual == 0.0 and amount > 0
        return drained, died

    def forfeit(self) -> float:
        """Zero the battery (node dies without transmitting); returns the loss."""
        remaining = self.residual
        self.residual = 0.0
        return remaining
