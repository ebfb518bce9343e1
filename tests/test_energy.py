import math

from hypothesis import given, strategies as st

from geams_sim.energy import Battery, rx_energy, tx_energy
from geams_sim.scenario import ScenarioConfig

# the scenario's radio constants: electronics and amplifier cost per bit
E_ELEC = ScenarioConfig().e_elec_j_per_bit
EPS_AMP = ScenarioConfig().eps_amp_j_per_bit_m2


def test_tx_energy_at_range():
    assert math.isclose(tx_energy(1000, 80, E_ELEC, EPS_AMP), 1.14e-2, rel_tol=1e-15)


def test_tx_energy_zero_distance():
    assert math.isclose(tx_energy(1000, 0, E_ELEC, EPS_AMP), 5.0e-3, rel_tol=1e-15)


def test_tx_energy_zero_bits():
    assert tx_energy(0, 50, E_ELEC, EPS_AMP) == 0.0


def test_rx_energy_values():
    assert math.isclose(rx_energy(1000, E_ELEC), 5.0e-3, rel_tol=1e-15)
    assert rx_energy(0, E_ELEC) == 0.0
    assert math.isclose(rx_energy(128, E_ELEC), 6.4e-4, rel_tol=1e-15)


@given(
    k1=st.floats(0, 1e6), k2=st.floats(0, 1e6),
    d1=st.floats(0, 1e3), d2=st.floats(0, 1e3),
)
def test_tx_energy_monotone(k1, k2, d1, d2):
    lo_k, hi_k = sorted((k1, k2))
    lo_d, hi_d = sorted((d1, d2))
    assert tx_energy(lo_k, lo_d, E_ELEC, EPS_AMP) <= tx_energy(hi_k, hi_d, E_ELEC, EPS_AMP)


@given(k=st.floats(0, 1e6), d=st.floats(0, 1e3))
def test_tx_at_least_rx(k, d):
    assert tx_energy(k, d, E_ELEC, EPS_AMP) >= rx_energy(k, E_ELEC)


def test_debit_normal():
    b = Battery(residual=1.0, initial=1.0)
    drained, died = b.debit(0.0114)
    assert drained == 0.0114
    assert not died
    assert math.isclose(b.residual, 0.9886, rel_tol=1e-15)


def test_debit_underfunded_floors_at_zero():
    b = Battery(residual=0.005, initial=1.0)
    drained, died = b.debit(0.0114)
    assert drained == 0.005
    assert died
    assert b.residual == 0.0


def test_debit_zero_amount():
    b = Battery(residual=0.5, initial=1.0)
    drained, died = b.debit(0.0)
    assert (drained, died) == (0.0, False)
    assert b.residual == 0.5


def test_death_reported_once():
    b = Battery(residual=0.01, initial=1.0)
    _, died = b.debit(0.02)
    assert died
    drained, died = b.debit(0.02)
    assert drained == 0.0
    assert not died


def test_forfeit():
    b = Battery(residual=0.37, initial=1.0)
    assert b.forfeit() == 0.37
    assert b.residual == 0.0
    assert b.forfeit() == 0.0


@given(amounts=st.lists(st.floats(0, 0.3), max_size=30))
def test_debit_sequence_invariants(amounts):
    b = Battery(residual=1.0, initial=1.0)
    total_drained = 0.0
    for a in amounts:
        drained, _ = b.debit(a)
        total_drained += drained
        assert 0.0 <= b.residual <= b.initial
    assert math.isclose(total_drained, b.initial - b.residual,
                        rel_tol=1e-9, abs_tol=1e-12)
