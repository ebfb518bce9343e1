import json

import pytest

from geams_sim.scenario import (
    ScenarioConfig,
    ScenarioError,
    config_from_dict,
    load_scenario,
)


def test_defaults():
    cfg = ScenarioConfig()
    assert cfg.protocol == "geams"
    assert cfg.n_sensors == 100
    assert cfg.data_packet_bits == 1064
    assert cfg.neighbor_expiry_s == 2.5
    assert cfg.effective_ttl(102) == 204


def test_explicit_ttl_wins():
    assert ScenarioConfig(ttl=7).effective_ttl(102) == 7


def test_replace_returns_new_config():
    cfg = ScenarioConfig()
    other = cfg.replace(seed=9)
    assert other.seed == 9
    assert cfg.seed == 1


def test_rejects_unknown_protocol():
    with pytest.raises(ScenarioError):
        ScenarioConfig(protocol="dsr")


def test_rejects_bad_numbers():
    with pytest.raises(ScenarioError):
        ScenarioConfig(n_sensors=-1)
    with pytest.raises(ScenarioError):
        ScenarioConfig(queue_capacity=0)
    with pytest.raises(ScenarioError):
        ScenarioConfig(packet_bits=0)
    with pytest.raises(ScenarioError):
        ScenarioConfig(ttl=0)


def test_unknown_keys_are_errors():
    with pytest.raises(ScenarioError, match="seeed"):
        config_from_dict({"seeed": 3})


def test_load_scenario(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"protocol": "gpsr", "n_sensors": 25}))
    cfg = load_scenario(path)
    assert cfg.protocol == "gpsr"
    assert cfg.n_sensors == 25
    assert cfg.seed == 1  # untouched default


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="missing.json"):
        load_scenario(tmp_path / "missing.json")


def test_load_scenario_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  \"protocol\": geams\n}\n")
    with pytest.raises(ScenarioError, match="line 2"):
        load_scenario(path)


def test_load_scenario_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ScenarioError, match="object"):
        load_scenario(path)


@pytest.mark.parametrize("interval", [0, -1.0, float("nan")])
def test_rejects_non_positive_beacon_interval(interval):
    # a zero interval re-schedules beacon ticks at t = 0 forever
    with pytest.raises(ScenarioError, match="beacon_interval_s"):
        config_from_dict({"beacon_interval_s": interval})


@pytest.mark.parametrize("key,value", [
    ("initial_energy_j", -1.0),
    ("initial_energy_j", float("nan")),
    ("gateway_energy_j", -1.0),
    ("gateway_energy_j", float("nan")),
    ("header_bits", -5),
    ("beacon_bits", -1),
    ("void_announcement_bits", -1),
])
def test_rejects_negative_energy_and_sizes(key, value):
    with pytest.raises(ScenarioError, match=key):
        config_from_dict({key: value})


def test_accepts_zero_energy_and_sizes():
    cfg = config_from_dict({"initial_energy_j": 0.0, "header_bits": 0,
                            "beacon_bits": 0, "void_announcement_bits": 0})
    assert (cfg.initial_energy_j, cfg.header_bits) == (0.0, 0)


@pytest.mark.parametrize("key,value", [
    ("image_count", 0),
    ("image_count", -3),
    ("image_interval_s", -1.0),
    ("image_interval_s", float("nan")),
    ("horizon_s", 0.0),
    ("horizon_s", -5.0),
    ("horizon_s", float("nan")),
    ("horizon_s", float("inf")),
    ("base_rate_bps", 0.0),
    ("base_rate_bps", -1.0),
    ("base_rate_bps", float("nan")),
    ("n_sensors", 2.5),
    ("n_sensors", True),
    ("beacon_energy", "no"),
    ("seed", "abc"),
    ("protocol", None),
    ("horizon_s", "5"),
    ("ttl", 2.5),
    ("e_elec_j_per_bit", float("nan")),
    ("e_elec_j_per_bit", 0.0),
    ("eps_amp_j_per_bit_m2", -1e-9),
    ("eps_amp_j_per_bit_m2", float("nan")),
    ("neighbor_expiry_intervals", -1),
    ("neighbor_expiry_intervals", 0),
    ("min_separation", 0.2),
    ("min_separation", float("nan")),
    ("radio_range", -1),
    ("radio_range", 0.0),
    ("radio_range", float("nan")),
    ("radio_range", float("inf")),
    ("e_elec_j_per_bit", float("inf")),
    ("eps_amp_j_per_bit_m2", float("inf")),
    ("initial_energy_j", float("inf")),
    ("gateway_energy_j", float("inf")),
])
def test_rejects_traffic_and_engine_values_that_run_wrongly(key, value):
    # image_count < 1 still emitted one image, a negative interval ran the
    # clock backwards, and a zero rate failed mid-run; a float n_sensors
    # crashed, "no" switched beacon energy on and seed "abc" was written out;
    # NaN radio constants ran to a NaN report, a negative expiry left no
    # neighbour live, a sub-metre separation failed mid-run on a crowded field
    # and a negative range failed only when the Simulation was built; an
    # infinite range or radio constant killed every sensor at t = 0, an
    # infinite battery wrote NaN into the reports and the ledger check, and an
    # infinite horizon behind an infinite image interval scheduled beacon
    # rounds forever, as the second image never came
    with pytest.raises(ScenarioError, match=key):
        config_from_dict({key: value})


@pytest.mark.parametrize("key", ["field_width", "field_height"])
@pytest.mark.parametrize("value", [float("inf"), 0, -1])
def test_rejects_a_field_size_that_is_not_positive_and_finite(key, value):
    # an infinite width loaded, placed every sensor at x = inf and never finished
    with pytest.raises(ScenarioError, match=key.replace("_", " ") + " must be positive and finite"):
        config_from_dict({key: value})


def test_rejects_a_sink_closer_to_the_source_than_min_separation():
    # it loaded, then failed mid-run on a degenerate 0.4 m link
    with pytest.raises(ScenarioError, match="sink and source are .* closer than min_separation"):
        config_from_dict({"sink_x": 10.0, "sink_y": 90.4})
    with pytest.raises(ScenarioError, match="closer than min_separation 5.0"):
        config_from_dict({"sink_x": 14.0, "sink_y": 90.0, "min_separation": 5.0})


def test_rejects_a_min_separation_below_the_link_floor():
    # the link rate is base / sqrt(length) for links of 1 m or more, and no
    # in-run check guards a shorter link
    with pytest.raises(ScenarioError, match="min_separation must be at least 1 m"):
        ScenarioConfig(min_separation=0.5)


@pytest.mark.parametrize("key,value", [
    ("e_elec_j_per_bit", -1e-9),
    ("e_elec_j_per_bit", float("nan")),
    ("beacon_bits", -1),
    ("void_announcement_bits", -1),
])
def test_rejects_constants_that_would_make_a_negative_receive_cost(key, value):
    # a broadcast debits every receiver k * e_elec with no sign check
    with pytest.raises(ScenarioError, match=key):
        ScenarioConfig(**{key: value})


def test_accepts_json_ints_for_floats_and_null_ttl():
    cfg = config_from_dict({"horizon_s": 5, "min_separation": 1, "ttl": None})
    assert (cfg.horizon_s, cfg.min_separation, cfg.ttl) == (5, 1, None)


def test_accepts_back_to_back_images():
    assert config_from_dict({"image_interval_s": 0.0}).image_interval_s == 0.0
