import dataclasses
import math

import pytest

from dphawkes import ConfigError, HawkesParams, ParamBounds, PrivacyBudget
from dphawkes.config import (CONFIG_KEYS, ExperimentConfig, delta_from_rule, parse_config_file,
                             parse_value, round_to_multiple_of_5)


def test_delta_rule_matches_synthetic_setup():
    assert delta_from_rule("log", 1e5) == 10.0


def test_delta_rule_rounding_and_floor():
    assert round_to_multiple_of_5(12.0) == 10
    assert round_to_multiple_of_5(12.5) == 15
    assert round_to_multiple_of_5(0.3) == 5
    assert delta_from_rule("log", 20.0) == 5.0  # small T floors at 5


def test_delta_rule_fixed_value():
    assert delta_from_rule("25", 1e5) == 25.0
    with pytest.raises(ConfigError):
        delta_from_rule("-3", 1e5)
    with pytest.raises(ConfigError):
        delta_from_rule("weekly", 1e5)


def test_defaults_match_experiment_section():
    cfg = ExperimentConfig()
    assert cfg.mu_upper == 2.0
    assert cfg.alpha_upper == 0.75
    assert cfg.gamma == 0.05
    assert cfg.delta == 10.0
    assert cfg.epsilons == (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(horizon=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(repetitions=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(epsilons=())
    with pytest.raises(ConfigError):
        ExperimentConfig(b_values=("ten",))
    with pytest.raises(ConfigError):
        ExperimentConfig(alpha=1.5)


def test_every_config_field_is_a_config_key():
    # a field outside CONFIG_KEYS is one that no flag or config file can set
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} == set(CONFIG_KEYS)


def test_config_keys_are_the_fields_and_parse_their_defaults():
    # the keys are the fields in order, and each field's parser reads its default's text back
    fields = dataclasses.fields(ExperimentConfig)
    assert CONFIG_KEYS == tuple(f.name for f in fields)
    default = ExperimentConfig()
    for f in fields:
        value = getattr(default, f.name)
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        parsed = parse_value(f.name, text)
        assert parsed == value and type(parsed) is type(value), f.name


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# synthetic setup\n"
        "mu = 1.5\n"
        "alpha = 0.3\n"
        "horizon = 50000  # shorter run\n"
        "epsilons = 0.5, 2, 10\n"
        "b_values = 10, auto\n"
        "delta_mode = log\n"
        "seed = 99\n")
    cfg = ExperimentConfig(**parse_config_file(path))
    assert cfg.mu == 1.5
    assert cfg.alpha == 0.3
    assert cfg.epsilons == (0.5, 2.0, 10.0)
    assert cfg.b_values == ("10", "auto")
    assert cfg.seed == 99


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mue = 1.0\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_line_without_equals_sign_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# a comment\n\nmu = 1.0\nalpha 0.3\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:4: expected key = value"):
        parse_config_file(path)


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("mu = 1.5\nseed = 99\n")
    cfg = ExperimentConfig(**{**parse_config_file(path), "mu": 2.0})
    assert cfg.mu == 2.0
    assert cfg.seed == 99


@pytest.mark.parametrize("kwargs, owner", [
    (dict(mu=math.inf), lambda: HawkesParams(math.inf, 0.5)),
    (dict(mu_upper=math.inf), lambda: ParamBounds(0.5, math.inf, 0.1, 0.75)),
    (dict(gamma=0.7), lambda: PrivacyBudget(0.5, 0.7)),
    (dict(epsilons=(math.nan,)), lambda: PrivacyBudget(math.nan, 0.05)),
], ids=["params", "bounds", "gamma", "epsilon"])
def test_config_refusals_come_from_the_owning_type(kwargs, owner):
    with pytest.raises(ConfigError) as config_error:
        ExperimentConfig(**kwargs)
    with pytest.raises(ConfigError) as owner_error:
        owner()
    assert str(config_error.value) == str(owner_error.value)


@pytest.mark.parametrize("kwargs", [
    dict(horizon=math.inf), dict(horizon=math.nan), dict(seed=-1), dict(delta_mode="inf"),
    dict(b_values=(str(2**53 + 1),)), dict(b_values=("1" * 5000,)),
], ids=["horizon_inf", "horizon_nan", "seed", "delta", "b_past_float", "b_5000_digits"])
def test_config_refuses_values_no_other_type_owns(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(epsilons=(10.0, 10.0)), dict(epsilons=(1.0, 10.0, 1.0)),
    dict(b_values=("10", "10")), dict(b_values=("10", "010")),
    dict(b_values=("auto", "25", "auto")),
], ids=["eps", "eps_apart", "b", "b_leading_zero", "auto"])
def test_config_refuses_a_repeated_grid_value(kwargs):
    # the sweep summary and the time-to-threshold search key cells by
    # (epsilon, B), so a repeated value would merge two cells into one
    with pytest.raises(ConfigError, match="must not repeat"):
        ExperimentConfig(**kwargs)
