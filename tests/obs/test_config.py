"""ObsConfig rejects, when it is built, the values that would break a run
late: each error names the field, and a bad value the value too."""

import re

import pytest

from repro.obs import ObsConfig


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.05])
def test_tick_interval_must_be_positive_and_finite(value):
    with pytest.raises(ValueError,
                       match=r"tick_interval .* got " + re.escape(repr(value))):
        ObsConfig(tick_interval=value)


@pytest.mark.parametrize("value", ["x", None, True])
def test_tick_interval_must_be_a_number(value):
    with pytest.raises(TypeError, match="tick_interval"):
        ObsConfig(tick_interval=value)


@pytest.mark.parametrize("value", [1.5, True, "3"])
def test_max_hops_per_value_must_be_an_int(value):
    with pytest.raises(TypeError, match="max_hops_per_value"):
        ObsConfig(max_hops_per_value=value)


def test_max_hops_per_value_must_not_be_negative():
    with pytest.raises(ValueError, match="max_hops_per_value .* got -1"):
        ObsConfig(max_hops_per_value=-1)


def test_valid_values_are_kept():
    config = ObsConfig(tick_interval=1, max_hops_per_value=0)
    assert config.tick_interval == 1 and config.max_hops_per_value == 0


@pytest.mark.parametrize("field", ["spans", "hops", "timeseries"])
@pytest.mark.parametrize("value", ["no", 0, 1, None])
def test_switches_must_be_bools(field, value):
    with pytest.raises(TypeError, match="^{} must be a bool".format(field)):
        ObsConfig(**{field: value})
