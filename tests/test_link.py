import math

from geams_sim.link import link_rate, serialization_delay


def test_rate_at_one_meter():
    assert link_rate(1) == 250_000.0


def test_rate_at_25_meters():
    assert math.isclose(link_rate(25), 50_000.0, rel_tol=1e-15)


def test_rate_at_64_meters():
    assert math.isclose(link_rate(64), 31_250.0, rel_tol=1e-15)


def test_serialization_delay_values():
    assert math.isclose(serialization_delay(1000, 50_000), 0.02, rel_tol=1e-15)
    assert serialization_delay(0, 123.0) == 0.0
    assert math.isclose(serialization_delay(10_000, 250_000), 0.04, rel_tol=1e-15)
