from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from wavelab import (BumpSpec, ConfigParseError, ConfigValidationError, InitialData,
                     ScenarioConfig, parse_scenario)
from wavelab.config import CFL_LIMITS, DEFAULT_CFL, DEFAULT_SIGMA_SAMPLES
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


@pytest.mark.parametrize("text,line,first", [
    (MINIMAL.replace("name = conservation", "name = conservation\nname = other"), 4, 3),
    # a second [scenario] header is the same section
    (MINIMAL + "\n[scenario]\nname = other\n", 21, 3),
    (MINIMAL.replace("radius = 1.0", "radius = 1.0\nradius = 2.0", 1), 12, 11),
], ids=["scenario", "repeated-section", "bump"])
def test_key_set_twice_is_an_error(text, line, first):
    with pytest.raises(ConfigParseError, match=f"already set on line {first}$") as err:
        parse_scenario(text)
    assert err.value.line == line


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
    with pytest.raises(ConfigValidationError, match="empty epsilon list"):
        replace(parse_scenario(MINIMAL), eps_list=())


def test_comments_and_blank_lines():
    text = "# header\n" + MINIMAL.replace("epsilon = 0.3", "epsilon = 0.3  # amplitude")
    cfg = parse_scenario(text)
    assert cfg.data.epsilon == 0.3


def test_sigma_and_theta_lists():
    text = MINIMAL + "\n[data]\nsigma_samples = -3, 0, 0.25\ntheta_samples = 0, 1.57\n"
    cfg = parse_scenario(text)
    assert cfg.sigma_samples == (-3.0, 0.0, 0.25)
    assert cfg.theta_samples == (0.0, 1.57)


@pytest.mark.parametrize("thetas", ["1, 0", "0.5, 0.5"])
def test_theta_samples_must_increase(thetas):
    """The angles are a radiation table's grid, checked where the config is
    built, in a file or in code."""
    text = MINIMAL + f"\n[data]\ntheta_samples = {thetas}\n"
    with pytest.raises(ConfigValidationError, match="theta_samples: must be strictly increasing"):
        parse_scenario(text)
    with pytest.raises(ConfigValidationError, match="theta_samples"):
        replace(parse_scenario(MINIMAL), theta_samples=(1.0, 0.0))


RADIATION_DECAY_2D = """
[scenario]
name = radiation-decay
mode = cartesian-2d

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


def test_sigma_default_follows_scenario_in_code_and_file():
    """symmetric-decay samples the one ray sigma = 0 by default and the other
    scenarios the default rays, for a run built in code or parsed."""
    from_file = parse_scenario(RADIATION_DECAY_2D.replace(
        "name = radiation-decay\nmode = cartesian-2d", "name = symmetric-decay"))
    in_code = default_config("symmetric-decay")
    assert from_file.sigma_samples == in_code.sigma_samples == (0.0,)
    assert replace(in_code, name="epsilon-scaling").sigma_samples == DEFAULT_SIGMA_SAMPLES
    assert parse_scenario(MINIMAL).sigma_samples == DEFAULT_SIGMA_SAMPLES


def test_sigma_samples_must_not_repeat():
    """A repeated ray would be sampled, and reported, twice."""
    with pytest.raises(ConfigValidationError, match="sigma_samples: repeated sigma in 0, -1, 0"):
        parse_scenario(MINIMAL + "\n[data]\nsigma_samples = 0, -1, 0\n")
    with pytest.raises(ConfigValidationError, match="sigma_samples"):
        replace(parse_scenario(MINIMAL), sigma_samples=(0.5, 0.5))


def _bumps(radius):
    return InitialData(g1=(BumpSpec((0.0, 0.0), radius, 1.0),),
                       g2=(BumpSpec((0.0, 0.0), radius, 1.0),), epsilon=0.2)


def test_replace_derives_h_from_new_data():
    data = _bumps(2.0)
    assert replace(default_config("radiation-decay"), data=data).h == 0.015625
    assert ScenarioConfig(name="radiation-decay", data=data).h == 0.015625


def test_replace_derives_eps_list_from_new_data():
    cfg = default_config("conservation")
    assert replace(cfg, data=cfg.data.with_epsilon(0.1)).eps_list == (0.1,)


def test_replace_derives_T_from_new_eps_list():
    cfg = replace(default_config("epsilon-scaling"), eps_list=(1.0, 0.8, 0.6))
    assert cfg.T == 4.0 / 0.6


def test_given_values_survive_replace():
    cfg = ScenarioConfig(name="conservation", data=_bumps(1.0), h=0.05, T=3.0,
                         eps_list=(0.2, 0.1), theta_samples=(0.5,))
    other = replace(cfg, data=_bumps(2.0).with_epsilon(0.4), mode="cartesian-2d")
    assert (other.h, other.T, other.eps_list, other.theta_samples) == (
        0.05, 3.0, (0.2, 0.1), (0.5,))


# -- round trip through the documented text format --------------------------------

def _render(mode, h, cfl, T, eps, sigmas, thetas, bumps) -> str:
    """A configuration document giving exactly these values (None: key absent)."""
    def floats(values):
        return ", ".join(repr(v) for v in values)

    lines = ["[scenario]", "name = conservation", f"mode = {mode}"]
    if T is not None:
        lines.append(f"T = {T!r}")
    lines.append("[grid]")
    if h is not None:
        lines.append(f"h = {h!r}")
    if cfl is not None:
        lines.append(f"cfl = {cfl!r}")
    lines += ["[data]", f"epsilon = {floats(eps)}"]
    if sigmas is not None:
        lines.append(f"sigma_samples = {floats(sigmas)}")
    if thetas is not None:
        lines.append(f"theta_samples = {floats(thetas)}")
    for component, kind, spec in bumps:
        lines += ["", "[bump]", f"component = {component}", f"kind = {kind}",
                  f"center = {floats(spec.center)}", f"radius = {spec.radius!r}",
                  f"amplitude = {spec.amplitude!r}"]
    return "\n".join(lines) + "\n"


def _optional(strategy):
    return st.one_of(st.none(), strategy)


@st.composite
def _config_values(draw):
    mode = draw(st.sampled_from(sorted(CFL_LIMITS)))
    centre = st.just(0.0) if mode == "radial" else st.floats(-2.0, 2.0)
    bump = st.builds(BumpSpec, st.tuples(centre, centre), st.floats(0.1, 3.0),
                     st.floats(-2.0, 2.0))
    return dict(
        mode=mode,
        h=draw(_optional(st.floats(1e-3, 0.5))),
        cfl=draw(_optional(st.floats(0.01, CFL_LIMITS[mode]))),
        T=draw(_optional(st.floats(0.1, 100.0))),
        eps=draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=3)),
        sigmas=draw(_optional(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4,
                                       unique=True))),
        thetas=draw(_optional(st.lists(st.floats(0.0, 6.3), min_size=1, max_size=3,
                                       unique=True).map(sorted))),
        bumps=draw(st.lists(st.tuples(st.sampled_from((1, 2)), st.sampled_from("fg"), bump),
                            min_size=1, max_size=3)))


@settings(max_examples=150, deadline=None)
@given(_config_values())
def test_rendered_config_parses_to_the_config_built_in_code(v):
    fields = {"f1": [], "g1": [], "f2": [], "g2": []}
    for component, kind, spec in v["bumps"]:
        fields[f"{kind}{component}"].append(spec)
    data = InitialData(**fields, epsilon=v["eps"][0])
    cfl = DEFAULT_CFL if v["cfl"] is None else v["cfl"]
    shared = dict(name="conservation", mode=v["mode"], h=v["h"], cfl=cfl, T=v["T"],
                  sigma_samples=v["sigmas"], theta_samples=v["thetas"])
    in_code = ScenarioConfig(data=data, eps_list=tuple(v["eps"]), **shared)

    parsed = parse_scenario(_render(**v))
    assert parsed == in_code
    # another run's config with the same given values: replace derives what
    # they leave out (eps_list, h, T, angles) from the new data, as parsing does
    unrelated = ScenarioConfig(data=_bumps(0.37).with_epsilon(0.77), **shared)
    if len(v["eps"]) == 1:
        assert replace(unrelated, data=data) == parsed
    assert replace(unrelated, eps_list=tuple(v["eps"]), data=data) == parsed
