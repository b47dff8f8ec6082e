from dataclasses import replace

import pytest

from wavelab import ConfigParseError, ConfigValidationError, parse_scenario
from wavelab.config import DEFAULT_CFL
from wavelab.scenarios import default_config

MINIMAL = """
[scenario]
name = conservation

[data]
epsilon = 0.3

[bump]
component = 1
kind = g
radius = 1.0
amplitude = 1.0

[bump]
component = 2
kind = g
radius = 1.0
amplitude = 0.5
"""


def test_minimal_document_defaults():
    cfg = parse_scenario(MINIMAL)
    assert cfg.name == "conservation"
    assert cfg.mode == "radial"
    assert cfg.cfl == DEFAULT_CFL == 0.45
    assert cfg.h == pytest.approx(1.0 / 128.0)       # R0 / 128 with R0 = 1
    assert cfg.T == pytest.approx(4.0 / 0.3)
    assert cfg.eps_list == (0.3,)
    assert len(cfg.data.g1) == 1 and len(cfg.data.g2) == 1
    assert cfg.theta_samples == (0.0,)


def test_epsilon_comma_list_and_overrides():
    text = MINIMAL.replace("epsilon = 0.3", "epsilon = 0.4, 0.2, 0.1") + """
[grid]
h = 0.02
cfl = 0.5

[scenario]
T = 12.5
mode = radial
"""
    cfg = parse_scenario(text)
    assert cfg.eps_list == (0.4, 0.2, 0.1)
    assert cfg.data.epsilon == 0.4
    assert cfg.h == 0.02 and cfg.cfl == 0.5 and cfg.T == 12.5


@pytest.mark.parametrize("section, key", [("scenario", "T"), ("grid", "h")])
def test_explicit_zero_is_not_a_default(section, key):
    text = MINIMAL + f"\n[{section}]\n{key} = 0\n"
    with pytest.raises(ConfigValidationError) as err:
        parse_scenario(text)
    assert err.value.field == key
    with pytest.raises(ConfigValidationError, match="must be positive"):
        replace(parse_scenario(MINIMAL), **{key: 0.0})


def test_negative_radius_names_field():
    bad = MINIMAL.replace("radius = 1.0", "radius = -1", 1)
    with pytest.raises(ConfigValidationError, match="radius"):
        parse_scenario(bad)


def test_radial_offcenter_names_mode():
    bad = MINIMAL + "\n[bump]\ncomponent = 1\nkind = f\ncenter = 1, 0\nradius = 0.5\namplitude = 1.0\n"
    with pytest.raises(ConfigValidationError, match="mode"):
        parse_scenario(bad)


def test_cartesian_accepts_offcenter():
    text = MINIMAL + """
[scenario]
mode = cartesian-2d

[bump]
component = 1
kind = f
center = 1, 0
radius = 0.5
amplitude = 1.0
"""
    cfg = parse_scenario(text)
    assert cfg.mode == "cartesian-2d"
    assert len(cfg.theta_samples) == 16


def test_parse_error_reports_line():
    bad = "[scenario]\nname = x\nthis line has no equals\n"
    with pytest.raises(ConfigParseError) as err:
        parse_scenario(bad)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


def test_unknown_key_and_section():
    with pytest.raises(ConfigParseError, match="unknown key"):
        parse_scenario("[scenario]\nname = x\nbogus = 1\n")
    with pytest.raises(ConfigParseError, match="unknown section"):
        parse_scenario("[mystery]\nname = x\n")


def test_missing_required_keys():
    with pytest.raises(ConfigValidationError, match="scenario.name"):
        parse_scenario("[data]\nepsilon = 0.1\n")
    with pytest.raises(ConfigValidationError, match="bump"):
        parse_scenario("[scenario]\nname = x\n[data]\nepsilon = 0.1\n")


def test_bad_numbers_report_line():
    bad = MINIMAL.replace("epsilon = 0.3", "epsilon = abc")
    with pytest.raises(ConfigParseError, match="epsilon"):
        parse_scenario(bad)


def test_bad_epsilon_value():
    bad = MINIMAL.replace("epsilon = 0.3", "epsilon = -0.3")
    with pytest.raises(ConfigValidationError, match="epsilon"):
        parse_scenario(bad)


def test_comments_and_blank_lines():
    text = "# header\n" + MINIMAL.replace("epsilon = 0.3", "epsilon = 0.3  # amplitude")
    cfg = parse_scenario(text)
    assert cfg.data.epsilon == 0.3


def test_sigma_and_theta_lists():
    text = MINIMAL + "\n[data]\nsigma_samples = -3, 0, 0.25\ntheta_samples = 0, 1.57\n"
    cfg = parse_scenario(text)
    assert cfg.sigma_samples == (-3.0, 0.0, 0.25)
    assert cfg.theta_samples == (0.0, 1.57)


RADIATION_DECAY_2D = """
[scenario]
name = radiation-decay
mode = cartesian-2d
T = 1

[data]
epsilon = 0.2

[bump]
component = 1
kind = g
radius = 1.0
amplitude = 1.0

[bump]
component = 2
kind = g
radius = 1.0
amplitude = 1.0
"""


def test_theta_default_follows_mode_in_code_and_file():
    """The mode picks the default angles, for a run built in code or parsed."""
    in_code = replace(default_config("radiation-decay"), mode="cartesian-2d")
    from_file = parse_scenario(RADIATION_DECAY_2D)
    assert in_code == from_file
    assert in_code.theta_samples == from_file.theta_samples
    assert len(in_code.theta_samples) == 16
    assert replace(in_code, mode="radial").theta_samples == (0.0,)
    chosen = replace(in_code, theta_samples=[0.5, 1.0])
    assert replace(chosen, mode="radial").theta_samples == (0.5, 1.0)
