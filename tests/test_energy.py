import math

from hypothesis import event, given, settings, strategies as st

from geams_sim.energy import Battery, BinadeSteps, rx_energy, tx_energy
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


# Closed-form reception settling (energy.BinadeSteps), as a batched beacon
# round applies it: one entry, looked up once for the starting residual,
# serves the receptions before the node's own beacon and those after it.

def grid_step(r: float) -> float:
    """The float spacing u = 2^(e-53) of the binade of `r`."""
    return math.ldexp(1.0, math.frexp(r)[1] - 53)


_RESIDUALS = st.one_of(
    st.floats(0.0, 1e6),
    # within a few steps of a power of two, on either side
    st.builds(lambda e, k: math.ldexp(1.0, e) + k * math.ldexp(1.0, e - 53),
              st.integers(-60, 60), st.integers(-8, 8)),
    st.floats(0.0, 2.0 ** -1022, exclude_max=True),  # subnormals
    st.just(0.0),
)


@st.composite
def settles(draw):
    """(r, c, t, below, above): a residual, a reception price c, a beacon
    price t, and the receptions before and after the beacon."""
    r = draw(_RESIDUALS)
    u = grid_step(r)
    k = draw(st.integers(0, 2 ** 40))
    price = st.one_of(
        st.just(0.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0).map(lambda f: (k + f) * u),
        st.just((k + 0.5) * u),  # a tie on r's grid
        st.integers(2 ** 52, 2 ** 60).map(lambda j: j * u),  # c >= 2^52 u
    )
    m = st.integers(0, 1000)
    return r, draw(price), draw(price), draw(m), draw(m)


@settings(max_examples=300, deadline=None)
@given(case=settles())
def test_binade_steps_settle_receptions_as_subtractions_do(case):
    """Where the check passes, r - m q equals m sequential subtractions of
    c bit for bit; elsewhere the subtractions run one by one."""
    r, c, t, below, above = case
    lo, q = BinadeSteps(c)[math.frexp(r)[1]]
    loop = closed = r
    for m, then in ((below, t), (above, 0.0)):
        for _ in range(m):
            loop -= c
        if (closed - lo) - (m - 1) * q >= c:
            event("closed form")
            closed -= m * q
        else:
            for _ in range(m):
                closed -= c
        assert closed.hex() == loop.hex(), (r, c, t, below, above)
        loop -= then
        closed -= then


def test_binade_steps_cover_a_round_and_refuse_ties_subnormals_and_large_prices():
    """A beacon reception at the scenario's radio constants settles a
    sensor's round in closed form; a tie, a subnormal binade and a price of
    2^52 grid steps or more never do."""
    u = grid_step(1.0)  # the binade [1, 2)
    assert BinadeSteps(2.25 * u)[1] == (1.0, 2.0 * u)
    assert BinadeSteps(2.5 * u)[1] == (math.inf, 0.0)
    assert BinadeSteps(1.0)[1] == (math.inf, 0.0)
    assert BinadeSteps(0.0)[-1021] == (2.0 ** -1022, 0.0)  # the least normal binade
    assert BinadeSteps(0.0)[-1022] == (math.inf, 0.0)
    c = rx_energy(ScenarioConfig().beacon_bits, E_ELEC)
    r, m = 1.5, 78
    lo, q = BinadeSteps(c)[math.frexp(r)[1]]
    assert (r - lo) - (m - 1) * q >= c
