"""First-order radio energy model and per-node battery accounting.

Transmit cost grows quadratically with distance through the amplifier term;
receive cost depends only on packet size.
"""
from __future__ import annotations

from dataclasses import dataclass


def tx_energy(k_bits: float, d_meters: float, e_elec: float, eps_amp: float) -> float:
    """Energy to transmit k bits over distance d: k * (e_elec + eps_amp * d^2),
    with e_elec the electronics cost per bit and eps_amp the amplifier cost
    per bit per m^2."""
    return k_bits * (e_elec + eps_amp * d_meters * d_meters)


def rx_energy(k_bits: float, e_elec: float) -> float:
    """Energy to receive k bits: k * e_elec."""
    return k_bits * e_elec


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
