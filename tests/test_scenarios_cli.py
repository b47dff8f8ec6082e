import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wavelab

from wavelab import InstabilityError, WaveState
from wavelab.cli import main
from wavelab.config import _KEYS, ConfigValidationError, ScenarioConfig, parse_scenario
from wavelab.profile import RayTraceCollector
from wavelab.radiation import RadiationTable
from wavelab.reporting import NonFiniteReportError, render_csv, render_summary
from wavelab.scenarios import (EPS_LIST, SCENARIOS, UsageError, default_config,
                               run_scenario)
from wavelab.solver import sample_steps

TINY_CONFIG = """
[scenario]
name = conservation
mode = radial
T = 6

[grid]
h = 0.03125

[data]
epsilon = 0.3

[bump]
component = 1
kind = f
radius = 1.0
amplitude = 1.0

[bump]
component = 1
kind = g
radius = 0.7
amplitude = -0.5

[bump]
component = 2
kind = g
radius = 1.0
amplitude = 1.0
"""


def test_unknown_scenario_exit_code(tmp_path, capsys):
    code = main(["scenario", "does-not-exist", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_default_config_rejects_unknown():
    with pytest.raises(UsageError):
        default_config("nope")


def test_run_scenarios_tool_rejects_unknown(tmp_path):
    tool = Path(__file__).resolve().parents[1] / "tools" / "run_scenarios.py"
    proc = _run_python(str(tool), str(tmp_path / "o"), "profile-oracle", "nope")
    assert proc.returncode == 2
    assert proc.stderr.startswith("unknown scenario 'nope'; choose from [")
    assert proc.stdout == "" and not (tmp_path / "o").exists()


def test_profile_oracle_via_cli(tmp_path, capsys):
    code = main(["scenario", "profile-oracle", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "all assertions passed" in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is True
    assert (tmp_path / "profile_oracle.csv").exists()
    assert (tmp_path / "trichotomy.csv").exists()


def _run_python(*args):
    """`python ARGS` in a subprocess, with this checkout's package."""
    src = str(Path(wavelab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_module_entry_point_runs_a_scenario(tmp_path):
    """`python -m wavelab` reaches cli.entry and exits with main's status."""
    proc = _run_python("-m", "wavelab", "scenario", "profile-oracle", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "summary.json").read_text())["passed"] is True


def test_unstable_run_exits_two(tmp_path):
    # eps = 1e60 overflows the cubic term in the first step; the run goes
    # through a subprocess, so that stderr is what a user sees under Python's
    # default warning filters (pytest would raise numpy's warnings instead);
    # component 2's bump has amplitude 0.5, as identical components are refused
    cfg_path = tmp_path / "unstable.cfg"
    text = _sampling_config("conservation", "").replace("epsilon = 0.2", "epsilon = 1e60")
    head, tail = text.rsplit("amplitude = 1.0", 1)
    cfg_path.write_text(head + "amplitude = 0.5" + tail
                        + "\n[scenario]\nT = 2\n[grid]\nh = 0.05\n")
    proc = _run_python("-m", "wavelab", "run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr == "wavelab: non-finite field value at t=0.0225, grid index (0,)\n"
    assert not (tmp_path / "o").exists()


def test_tiny_bump_radius_exits_two_on_one_line(tmp_path):
    # R^2 of a radius of 1e-300 is 0.0, which every profile argument divides
    # by; the subprocess shows stderr under Python's default warning filters,
    # where a division by it would print numpy's warning first
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(_sampling_config("conservation", "").replace(
        "radius = 1.0", "radius = 1e-300", 1).replace("amplitude = 1.0", "amplitude = 0.5", 1))
    proc = _run_python("-m", "wavelab", "run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr == ("wavelab: radius: bump radius must be at least 1.49e-154, where "
                           "its square is a normal float, got 1e-300\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["radiation-decay", "nondecay-demo"])
def test_overflowing_radiation_table_exits_two(tmp_path, name):
    # a bump of amplitude 1e308 overflows the radiation table's quadrature;
    # the subprocess shows stderr under Python's default warning filters
    cfg_path = tmp_path / "overflow.cfg"
    cfg_path.write_text(_sampling_config(name, "").replace("amplitude = 1.0",
                                                           "amplitude = 1e308", 1))
    proc = _run_python("-m", "wavelab", "run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr == "wavelab: non-finite value in radiation table quadrature\n"
    assert not (tmp_path / "o").exists()


def _unstable_config():
    config = default_config("conservation")
    return replace(config, T=2.0, h=0.05, eps_list=(1e60,),
                   data=config.data.with_epsilon(1e60))


def test_failed_run_removes_the_directories_it_created(tmp_path):
    out_dir = tmp_path / "a" / "b"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InstabilityError):
            run_scenario(_unstable_config(), out_dir=str(out_dir))
    assert list(tmp_path.iterdir()) == []


def test_failed_run_keeps_a_directory_that_existed(tmp_path):
    (tmp_path / "keep.txt").write_text("kept")
    for out_dir in (tmp_path, tmp_path / "new"):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InstabilityError):
                run_scenario(_unstable_config(), out_dir=str(out_dir))
        assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]
        assert (tmp_path / "keep.txt").read_text() == "kept"


def test_csv_refuses_a_non_finite_value(tmp_path):
    path = tmp_path / "r.csv"
    rows = [(0.0, 1.0), (0.5, np.float64(-np.inf))]
    with pytest.raises(NonFiniteReportError,
                       match=r"r\.csv: column u, row 2 is -inf, not a finite number"):
        render_csv(path, ("t", "u"), rows)
    assert not path.exists()


def test_summary_refuses_a_non_finite_value(tmp_path):
    path = tmp_path / "summary.json"
    with pytest.raises(NonFiniteReportError,
                       match=r"summary\.json: values\.floor\.-1 is not a finite number"):
        render_summary(path, "x", [], {"slope": 2.5, "floor": {"0": 1e-9, "-1": math.nan}}, {})
    assert not path.exists()


def test_non_finite_report_exits_two(tmp_path, capsys, monkeypatch):
    def run(config, runtimes):
        return [], {"slope": math.inf}, {}

    monkeypatch.setitem(SCENARIOS, "profile-oracle", replace(SCENARIOS["profile-oracle"], run=run))
    code = main(["scenario", "profile-oracle", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("wavelab: ") and err.count("\n") == 1
    assert "values.slope is not a finite number" in err
    assert not (tmp_path / "o").exists()


def test_missing_compiler_exits_two(tmp_path, capsys, monkeypatch):
    """Without the C compiler the step kernel cannot be built for the first
    solver state of a process: one line naming the compiler command, exit 2
    and no directory."""
    monkeypatch.setattr(wavelab._step, "CC", "wavelab-no-such-compiler")
    monkeypatch.setattr(wavelab._step, "_LIB", None)
    code = main(["scenario", "nondecay-demo", "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("wavelab: cannot compile the step kernel with "
                          "'wavelab-no-such-compiler': ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_non_utf8_config_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "bin.cfg"
    cfg_path.write_bytes(b"\xff\xfe\x00bad")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"wavelab: {cfg_path}: not UTF-8") and err.count("\n") == 1


def test_run_with_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    out_dir = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["scenario"] == "conservation"
    names = {a["name"] for a in summary["assertions"]}
    assert "difference_law_drift" in names
    assert (out_dir / "energy_trace_base.csv").exists()
    assert (out_dir / "energy_trace_half.csv").exists()


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nname oops\n")
    code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_missing_config_file_exit_code(tmp_path):
    code = main(["run", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path)])
    assert code == 2


def test_scenario_epsilon_override(tmp_path):
    cfg = default_config("symmetric-decay")
    cfg = replace(cfg, T=4.0, h=1.0 / 32.0)
    summary = run_scenario(cfg, out_dir=str(tmp_path))
    # short horizon weakens nothing structural: symmetry must still be exact
    sym = [a for a in summary["assertions"] if a["name"] == "component_symmetry_gap"]
    assert sym and sym[0]["passed"]


def test_reports_deterministic(tmp_path):
    cfg = default_config("profile-oracle")
    s1 = run_scenario(cfg, out_dir=str(tmp_path / "a"))
    s2 = run_scenario(cfg, out_dir=str(tmp_path / "b"))
    for s in (s1, s2):
        s.pop("runtimes")
    assert s1 == s2
    csv_a = (tmp_path / "a" / "profile_oracle.csv").read_bytes()
    csv_b = (tmp_path / "b" / "profile_oracle.csv").read_bytes()
    assert csv_a == csv_b
    # byte-identical summaries except the runtimes block
    ja = json.loads((tmp_path / "a" / "summary.json").read_text())
    jb = json.loads((tmp_path / "b" / "summary.json").read_text())
    ja.pop("runtimes"), jb.pop("runtimes")
    assert ja == jb


@pytest.mark.parametrize("eps", ["abc", ",", "-1"])
def test_malformed_eps_exit_code(tmp_path, capsys, eps):
    code = main(["scenario", "profile-oracle", "--out", str(tmp_path), "--eps", eps])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("wavelab: --eps") and err.count("\n") == 1


@pytest.mark.parametrize("eps", ["", "0", "-1", "nan", "inf"],
                         ids=["empty", "0", "-1", "nan", "inf"])
def test_one_epsilon_rule(tmp_path, capsys, eps):
    """A bad epsilon list gives the same message through a config file, --eps
    and ScenarioConfig, after the label epsilon: or --eps:."""
    text = _sampling_config("conservation", "").replace("epsilon = 0.2", f"epsilon = {eps}")
    with pytest.raises(ConfigValidationError) as from_file:
        parse_scenario(text)
    data = default_config("conservation").data
    with pytest.raises(ConfigValidationError) as from_config:
        ScenarioConfig("conservation", data, eps_list=tuple(float(e) for e in eps.split(",") if e))
    assert main(["scenario", "conservation", "--eps", eps, "--out", str(tmp_path / "o")]) == 2
    message = str(from_file.value).removeprefix("epsilon: ")
    assert str(from_config.value) == str(from_file.value) == f"epsilon: {message}"
    assert capsys.readouterr().err == f"wavelab: --eps: {message}\n"
    assert not (tmp_path / "o").exists()


def _default_document(name, given=None):
    """A config file of scenario name's default config, with the keys in
    given ({"section.key": text}) set to their texts instead."""
    config = default_config(name)
    keys = {"scenario.name": name, "data.epsilon": ", ".join(map(repr, config.eps_list))}
    if "T" in SCENARIOS[name].settings:
        keys["scenario.T"] = repr(config.T)
    keys.update(given or {})
    doc = "".join(f"[{k.split('.')[0]}]\n{k.split('.')[1]} = {v}\n" for k, v in keys.items())
    for slot in ("f1", "g1", "f2", "g2"):
        for bump in getattr(config.data, slot):
            doc += (f"[bump]\ncomponent = {slot[1]}\nkind = {slot[0]}\n"
                    f"radius = {bump.radius!r}\namplitude = {bump.amplitude!r}\n")
    return doc


@pytest.mark.parametrize("name,option,key,text", [
    ("conservation", "--h", "grid.h", "0.0625"),
    ("conservation", "--cfl", "grid.cfl", "0.3"),
    ("conservation", "--T", "scenario.T", "2.5"),
    ("epsilon-scaling", "--eps", "data.epsilon", "0.5, 0.25,0.125"),
])
def test_option_reads_like_its_file_key(tmp_path, monkeypatch, name, option, key, text):
    """An option gives the config that a file setting its key to the same
    text gives, where the file without it gives the default config."""
    configs = []

    def captured(config, out_dir):
        configs.append(config)
        return {"assertions": [], "scenario": name, "passed": True}

    monkeypatch.setattr(wavelab.cli, "run_scenario", captured)
    for label, given in (("default", None), ("given", {key: text})):
        cfg_path = tmp_path / f"{label}.cfg"
        cfg_path.write_text(_default_document(name, given))
        assert main(["run", "--config", str(cfg_path)]) == 0
    assert main(["scenario", name, option, text]) == 0
    from_default, from_file, from_option = configs
    assert from_default == default_config(name)
    assert from_option == from_file != from_default


def test_zero_spacing_exit_code(tmp_path, capsys):
    # 0 is an explicit value, not a request for the default spacing
    code = main(["scenario", "conservation", "--out", str(tmp_path), "--h", "0"])
    assert code == 2
    assert "h: must be positive" in capsys.readouterr().err


def test_zero_horizon_config_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text(TINY_CONFIG.replace("T = 6", "T = 0"))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "T: must be positive" in capsys.readouterr().err


def test_exit_one_on_assertion_failure(tmp_path, capsys):
    # a deliberately coarse grid pushes the conservation drift past 5e-3
    code = main(["scenario", "conservation", "--out", str(tmp_path),
                 "--h", "0.125", "--T", "10"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is False


def _sampling_config(name, data_line):
    """A radial config of scenario name with two unit g-bumps and data_line."""
    eps = "0.4, 0.3, 0.2" if name == "epsilon-scaling" else "0.2"
    bumps = "".join(f"\n[bump]\ncomponent = {c}\nkind = g\nradius = 1.0\namplitude = 1.0\n"
                    for c in (1, 2))
    return f"[scenario]\nname = {name}\n\n[data]\nepsilon = {eps}\n{data_line}\n{bumps}"


# Each case's id is written out, so removing a case renames no other; its
# codes{N} ends the id pytest once made from the case's position.
@pytest.mark.parametrize("args,out,codes", [
    # check times and cadence follow T, so a short horizon still samples on-grid
    pytest.param("free-validation --T 0.1", "o", {0, 1}, id="free-validation --T 0.1-o-codes0"),
    # the profile reference time max(2, -2 sigma) lies beyond T
    pytest.param("symmetric-decay --T 1", "o", {2}, id="symmetric-decay --T 1-o-codes1"),
    # --out names an existing file
    pytest.param("profile-oracle", "afile", {2}, id="profile-oracle-afile-codes2"),
    # T/4 is a whole number of default-CFL steps, so cadence / (n0 h) rounds up
    # to 0.45000000000000007, past the Cartesian bound
    pytest.param("free-validation --h 0.15 --T 0.27", "o", {0, 1},
                 id="free-validation --h 0.15 --T 0.27-o-codes3"),
    # "run NAME: LINE" runs a config file of scenario NAME with LINE in [data]:
    # an empty or non-finite sampling list, or angles out of order for a
    # radiation table
    pytest.param("run radiation-decay: theta_samples =", "o", {2},
                 id="run radiation-decay: theta_samples =-o-codes4"),
    pytest.param("run radiation-decay: theta_samples = 1, 0", "o", {2},
                 id="run radiation-decay: theta_samples = 1, 0-o-codes5"),
    pytest.param("run radiation-decay: theta_samples = nan", "o", {2},
                 id="run radiation-decay: theta_samples = nan-o-codes6"),
    pytest.param("run epsilon-scaling: sigma_samples =", "o", {2},
                 id="run epsilon-scaling: sigma_samples =-o-codes7"),
    pytest.param("run epsilon-scaling: theta_samples = 0.5, 0.5", "o", {2},
                 id="run epsilon-scaling: theta_samples = 0.5, 0.5-o-codes8"),
    pytest.param("run nondecay-demo: theta_samples = 1, 0", "o", {2},
                 id="run nondecay-demo: theta_samples = 1, 0-o-codes9"),
    # a non-finite horizon, spacing or amplitude is a usage error, not a crash
    pytest.param("conservation --T inf", "o", {2}, id="conservation --T inf-o-codes10"),
    pytest.param("conservation --h inf", "o", {2}, id="conservation --h inf-o-codes11"),
    pytest.param("conservation --eps inf", "o", {2}, id="conservation --eps inf-o-codes12"),
    # a ray past the support radius R0 = 1, whose profile is 0, or one whose
    # reference time max(2, -2 sigma) = 30 lies past the shortest rung's
    # horizon 4/0.4 = 10
    pytest.param("run epsilon-scaling: sigma_samples = -1, 1.5", "o", {2},
                 id="run epsilon-scaling: sigma_samples = -1, 1.5-o-codes13"),
    pytest.param("run epsilon-scaling: sigma_samples = -15, 0", "o", {2},
                 id="run epsilon-scaling: sigma_samples = -15, 0-o-codes14"),
    pytest.param("run symmetric-decay: sigma_samples = 1.5", "o", {2},
                 id="run symmetric-decay: sigma_samples = 1.5-o-codes15"),
    # symmetric-decay samples one ray; epsilon-scaling fits one residual per
    # distinct epsilon, refused before any rung runs
    pytest.param("run symmetric-decay: sigma_samples = 0, 0.5", "o", {2},
                 id="run symmetric-decay: sigma_samples = 0, 0.5-o-codes16"),
    pytest.param("epsilon-scaling --eps 1,1,0.8 --h 0.0625", "o", {2},
                 id="epsilon-scaling --eps 1,1,0.8 --h 0.0625-o-codes17"),
    # a repeated ray would be sampled, and reported, twice
    pytest.param("run epsilon-scaling: sigma_samples = 0, 0", "o", {2},
                 id="run epsilon-scaling: sigma_samples = 0, 0-o-codes18"),
    # T passes the reference time 2, but the last profile sample, at the
    # step nearest T, lands at t = 1.996875
    pytest.param("symmetric-decay --T 2 --h 0.0625", "o", {2},
                 id="symmetric-decay --T 2 --h 0.0625-o-codes19"),
    # at the default h the last profile sample, at the step nearest T = 2,
    # reaches the reference time 2: the run reports
    pytest.param("symmetric-decay --T 2", "o", {0, 1}, id="symmetric-decay --T 2-o-codes20"),
])
def test_bad_invocation_exit_code(tmp_path, capsys, args, out, codes):
    (tmp_path / "afile").write_text("")
    if args.startswith("run "):
        name, line = args[len("run "):].split(": ")
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(_sampling_config(name, line))
        argv = ["run", "--config", str(cfg_path)]
    else:
        argv = ["scenario", *args.split()]
    assert main([*argv, "--out", str(tmp_path / out)]) in codes
    captured = capsys.readouterr()
    if codes == {2}:
        assert captured.err.startswith("wavelab: ") and captured.err.count("\n") == 1
    else:
        assert f"scenario {args.split()[0]}:" in captured.out


# data a scenario cannot use, refused before any output is written: identical
# components, also as the same bumps in another order or with a zero-amplitude
# bump (the difference law is identically 0); a support radius R0 = 6 that
# reaches the decay-fit window sigma < -10 (which needs R0 < 5); data for one
# component only, also as a zero-amplitude bump (no decay to fit for the other)
_IDENTICAL = _sampling_config("conservation", "").replace(
    "name = conservation", "name = conservation\nT = 1\n[grid]\nh = 0.125")
_TWO_BUMPS = _sampling_config("radiation-decay", "")
_ONE_BUMP = _TWO_BUMPS[:_TWO_BUMPS.rindex("[bump]")]
_SMALL_BUMP = "\n[bump]\ncomponent = {}\nkind = g\nradius = 0.5\namplitude = {}\n"
# component 1 lists the small bump first, component 2 last
_REORDERED = (_IDENTICAL.replace("[bump]", _SMALL_BUMP.format(1, 0.5) + "[bump]", 1)
              + _SMALL_BUMP.format(2, 0.5))


@pytest.mark.parametrize("text,message", [
    (_IDENTICAL, "identical components"),
    (_REORDERED, "identical components"),
    (_IDENTICAL + _SMALL_BUMP.format(2, 0.0), "identical components"),
    (_TWO_BUMPS.replace("radius = 1.0", "radius = 6.0"), "R0=6"),
    (_ONE_BUMP, "component 2 has no nonzero data"),
    (_ONE_BUMP + _SMALL_BUMP.format(2, 0.0), "component 2 has no nonzero data"),
], ids=["conservation-identical", "conservation-reordered", "conservation-zero-amplitude",
        "radiation-decay-R0",
        "radiation-decay-one-component", "radiation-decay-zero-amplitude"])
def test_unusable_data_exit_code(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "data.cfg"
    cfg_path.write_text(text)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("wavelab: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name,code", [("conservation", 1), ("nondecay-demo", 0)])
def test_horizon_below_one_step_runs(tmp_path, name, code):
    """T = 1e-12 is far below one step; the run still takes one and reports."""
    argv = ["scenario", name, "--T", "1e-12", "--h", "0.25", "--out", str(tmp_path)]
    assert main(argv) == code
    assert json.loads((tmp_path / "summary.json").read_text())["passed"] is (code == 0)


def test_symmetric_decay_file_samples_one_ray_by_default(tmp_path):
    """A symmetric-decay file without sigma_samples samples sigma = 0, as
    default_config does, and runs as the same file with sigma_samples = 0."""
    reports = []
    for line in ("", "sigma_samples = 0"):
        text = _sampling_config("symmetric-decay", line).replace(
            "name = symmetric-decay", "name = symmetric-decay\nT = 4\n[grid]\nh = 0.0625")
        if not line:
            assert parse_scenario(text).sigma_samples == (0.0,)
        cfg_path = tmp_path / f"sym{len(reports)}.cfg"
        cfg_path.write_text(text)
        out = tmp_path / f"o{len(reports)}"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        reports.append((out / "profile_trace.csv").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("line,field", [("radius = inf", "radius"),
                                        ("amplitude = nan", "amplitude")])
def test_non_finite_bump_config_exit_code(tmp_path, capsys, line, field):
    cfg_path = tmp_path / "bump.cfg"
    cfg_path.write_text(TINY_CONFIG.replace(f"{field} = 1.0", line, 1))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"wavelab: {field}: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_free_validation_reads_cfl(tmp_path, capsys):
    values = []
    for extra in ([], ["--cfl", "0.3"]):
        out = tmp_path / f"o{len(extra)}"
        main(["scenario", "free-validation", "--out", str(out), "--h", "0.125", *extra])
        values.append(json.loads((out / "summary.json").read_text())["values"])
    assert values[0] != values[1]


@pytest.mark.parametrize("args", [
    "epsilon-scaling --T 5",
    *(f"{name} {opt}" for name in ("radiation-decay", "profile-oracle")
      for opt in ("--h 0.1", "--cfl 0.3", "--T 5", "--eps 0.1")),
    "free-validation --eps 1,0.5",
    "symmetric-decay --eps 0.4,0.2",
])
def test_ignored_override_exit_code(tmp_path, capsys, args):
    # each of these overrides would run and change no report
    assert main(["scenario", *args.split(), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("wavelab: scenario ") and err.count("\n") == 1


PROFILE_ORACLE_CONFIG = """
[scenario]
name = profile-oracle

[data]
epsilon = 0.2

[bump]
component = 1
kind = g
radius = 1.0
amplitude = 1.0
"""


def _assert_rejected(tmp_path, capsys, text, rejected):
    cfg_path = tmp_path / "oracle.cfg"
    cfg_path.write_text(text)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"wavelab: scenario profile-oracle does not read {rejected}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("extra,rejected", [
    ("[scenario]\nT = 5\n[grid]\nh = 0.1\n", "grid.h, scenario.T"),
    ("[grid]\ncfl = 0.3\n", "grid.cfl"),
])
def test_run_config_rejects_unread_keys(tmp_path, capsys, extra, rejected):
    _assert_rejected(tmp_path, capsys, PROFILE_ORACLE_CONFIG + extra, rejected)


def test_run_config_rejects_an_epsilon_list(tmp_path, capsys):
    text = PROFILE_ORACLE_CONFIG.replace("epsilon = 0.2", "epsilon = 0.2, 0.1")
    _assert_rejected(tmp_path, capsys, text, "data.epsilon with more than one value")


def test_run_config_accepts_read_keys(tmp_path, capsys):
    cfg_path = tmp_path / "oracle.cfg"
    cfg_path.write_text(PROFILE_ORACLE_CONFIG)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 0
    assert "all assertions passed" in capsys.readouterr().out


def test_epsilon_scaling_default_derives_its_horizon():
    cfg = default_config("epsilon-scaling")
    assert cfg.T == 4.0 / min(cfg.eps_list)


@pytest.mark.parametrize("config,extra,rejected", [
    (TINY_CONFIG, "[data]\nsigma_samples = 7, 9\n", "conservation does not read data.sigma_samples"),
    (TINY_CONFIG, "[data]\ntheta_samples = 1, 2\n", "conservation does not read data.theta_samples"),
    (PROFILE_ORACLE_CONFIG, "[scenario]\nmode = cartesian-2d\n",
     "profile-oracle does not read scenario.mode"),
    # radial only: every angle gives the same profiles
    (_sampling_config("epsilon-scaling", "theta_samples = 0"), "",
     "epsilon-scaling does not read data.theta_samples"),
    (_sampling_config("symmetric-decay", "theta_samples = 0"), "",
     "symmetric-decay does not read data.theta_samples"),
])
def test_run_config_rejects_unread_sampling_and_mode(tmp_path, capsys, config, extra, rejected):
    cfg_path = tmp_path / "unread.cfg"
    cfg_path.write_text(config + extra)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"wavelab: scenario {rejected}\n"
    assert not (tmp_path / "o").exists()


def test_nondecay_crossing_reads_every_angle(tmp_path, monkeypatch):
    """The crossing condition is taken over every tabulated angle: in this
    stubbed two-angle table it holds at angle 1 alone."""
    def table(data, sigma_grid, theta_grid):
        n = len(sigma_grid)
        dF = np.zeros((2, n, len(theta_grid)))
        dF[0, :n // 2, 1] = 1.0             # dF1 dominates on the inner half
        dF[1, n // 2:, 1] = 1.0             # dF2 on the outer half
        return RadiationTable(sigma_grid, theta_grid, np.zeros_like(dF), dF,
                              data.support_radius)

    monkeypatch.setattr(wavelab.scenarios, "radiation_table", table)
    cfg = replace(default_config("nondecay-demo"), theta_samples=(0.0, 1.0),
                  T=1.0, h=1.0 / 16.0)
    summary = run_scenario(cfg, out_dir=tmp_path)
    passed = {a["name"]: a["passed"] for a in summary["assertions"]}
    assert passed["crossing_dF1_dominates"] and passed["crossing_dF2_dominates"]


def test_reads_names_config_keys():
    keys = {f"{section}.{key}" for section, names in _KEYS.items()
            if section != "bump" for key in names}
    for record in SCENARIOS.values():
        assert record.reads <= keys | {EPS_LIST}


def test_epsilon_scaling_rejects_cartesian_mode(tmp_path, capsys):
    """The two scenarios that sample ray profiles run in radial mode only."""
    scaling = (PROFILE_ORACLE_CONFIG.replace("profile-oracle", "epsilon-scaling")
               .replace("epsilon = 0.2", "epsilon = 0.4, 0.2, 0.1"))
    for name, text in (("epsilon-scaling", scaling),
                       ("symmetric-decay", _sampling_config("symmetric-decay", ""))):
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(text + "[scenario]\nmode = cartesian-2d\n")
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / name)])
        assert code == 2
        assert capsys.readouterr().err == f"wavelab: {name} runs in radial mode\n"
        assert not (tmp_path / name).exists()


# on the shortest rung, to T = 4/2, the ray at sigma = -1 is sampled only at
# the step nearest T, t = 2.0475, within one step of its reference time 2
_ONE_SAMPLE = ("[scenario]\nname = epsilon-scaling\n[grid]\nh = 0.65\n"
               "[data]\nepsilon = 2, 1, 0.5\nsigma_samples = -1, 0\n"
               + "".join(f"\n[bump]\ncomponent = {c}\nkind = g\nradius = 1.0\namplitude = {a}\n"
                         for c, a in ((1, 1.0), (2, 0.6))))


def _symmetric_file(*bumps):
    """A short symmetric-decay file with (component, radius, amplitude) g-bumps."""
    return ("[scenario]\nname = symmetric-decay\nT = 4\n[grid]\nh = 0.0625\n"
            "[data]\nepsilon = 0.4\nsigma_samples = 0\n"
            + "".join(f"\n[bump]\ncomponent = {c}\nkind = g\nradius = {r}\namplitude = {a}\n"
                      for c, r, a in bumps))


def test_symmetric_decay_compares_nonzero_bumps_in_any_order(tmp_path):
    """The same nonzero bumps, listed in another order or beside a
    zero-amplitude bump, are identical component data: they run, and report
    what the same-order file reports."""
    same = [(1, 0.5, 1), (1, 1, 1), (2, 0.5, 1), (2, 1, 1)]
    files = {"same": same,
             "reordered": [(1, 0.5, 1), (1, 1, 1), (2, 1, 1), (2, 0.5, 1)],
             "zero-padded": same + [(2, 0.8, 0)]}
    reports = {}
    for label, bumps in files.items():
        cfg_path = tmp_path / f"{label}.cfg"
        cfg_path.write_text(_symmetric_file(*bumps))
        out = tmp_path / label
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) in (0, 1)
        reports[label] = json.loads((out / "summary.json").read_text())
        reports[label].pop("runtimes")
    assert reports["reordered"] == reports["same"]
    assert reports["zero-padded"] == reports["same"]


@pytest.mark.parametrize("name,h,sigma", [("epsilon-scaling", "0.7", "-1"),
                                          ("epsilon-scaling", "1", "-1"),
                                          ("symmetric-decay", "3", "0")])
def test_late_first_ray_sample_exit_code(tmp_path, capsys, name, h, sigma):
    """On a coarse grid the first profile sample of a ray lands more than one
    step past its reference time 2, where the profile is read."""
    assert main(["scenario", name, "--h", h, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"wavelab: {name}: with h={h} the first profile sample of "
                          f"sigma={sigma} lands at t=") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_epsilon_scaling_first_sample_in_time_runs(tmp_path):
    """At h = 0.6 the first sample of sigma = -1, at t = 2.16, lies within one
    step (0.27) of its reference time: the ladder runs and reports."""
    code = main(["scenario", "epsilon-scaling", "--h", "0.6", "--out", str(tmp_path)])
    assert code in (0, 1)
    assert (tmp_path / "summary.json").exists()


# The one table of refusals that come before any run: "ARGS" runs the
# scenario command, "run NAME: LINE" a _sampling_config file of NAME with LINE
# in [data], "file KEY" the config _REFUSAL_FILES[KEY], and "memory N: ARGS"
# ARGS with solver._MEMORY = N bytes.  Each message begins the error line.
_REFUSALS = [
    # mode, checked by run_scenario before any directory exists
    ("run free-validation: \n[scenario]\nmode = radial", "free-validation runs in cartesian-2d mode"),
    ("run epsilon-scaling: \n[scenario]\nmode = cartesian-2d", "epsilon-scaling runs in radial mode"),
    ("run symmetric-decay: \n[scenario]\nmode = cartesian-2d", "symmetric-decay runs in radial mode"),
    # component data
    ("file conservation", "conservation needs different component data: with identical "
     "components"),
    ("file symmetric-decay-different", "symmetric-decay requires identical component data"),
    ("file symmetric-decay-zero", "symmetric-decay needs nonzero data"),
    ("file radiation-decay-one", "radiation-decay fits the decay of both components, but "
     "component 2 has no nonzero data"),
    ("file radiation-decay-wide", "radiation-decay fits the decay on sigma in [-40, -10], which "
     "must lie below -2 R0; the data's support radius is R0=6"),
    # the epsilon ladder
    ("epsilon-scaling --eps 0.4,0.2", "epsilon-scaling needs at least 3 epsilon values"),
    ("epsilon-scaling --eps 1,1,0.8", "epsilon-scaling needs distinct epsilon values"),
    # a malformed number option, worded as a malformed --eps
    ("conservation --h abc", "--h: cannot parse 'abc' as a number"),
    ("conservation --cfl 0.5x", "--cfl: cannot parse '0.5x' as a number"),
    ("conservation --T 1,2", "--T: cannot parse '1,2' as a number"),
    # rays: support, reference times, first samples, one sigma and no sigma twice
    ("run epsilon-scaling: sigma_samples = -1, 1.5", "epsilon-scaling: sigma=1.5 exceeds the "
     "data's support radius"),
    ("run symmetric-decay: sigma_samples = 1.5", "symmetric-decay: sigma=1.5 exceeds the "
     "data's support radius"),
    ("run epsilon-scaling: sigma_samples = -15, 0", "epsilon-scaling: the reference time "
     "max(2, -2 sigma) of sigma=-15 exceeds the shortest rung's horizon"),
    ("symmetric-decay --T 1", "symmetric-decay needs a profile sample at t >= 2"),
    # T passes the reference time 2, but the last sample lands at t = 1.996875
    ("symmetric-decay --T 2 --h 0.0625", "symmetric-decay needs a profile sample at t >= 2"),
    ("epsilon-scaling --h 0.7", "epsilon-scaling: with h=0.7 the first profile sample of "
     "sigma=-1 lands at t="),
    ("epsilon-scaling --h 1", "epsilon-scaling: with h=1 the first profile sample of "
     "sigma=-1 lands at t="),
    ("symmetric-decay --h 3", "symmetric-decay: with h=3 the first profile sample of "
     "sigma=0 lands at t="),
    ("run symmetric-decay: sigma_samples = 0, 0.5", "symmetric-decay samples one ray"),
    # a repeated ray would be sampled, and reported, twice
    ("run epsilon-scaling: sigma_samples = 0, 0", "sigma_samples: repeated sigma in 0, 0"),
    # corrected_invariant needs two samples of a ray on the shortest rung
    ("file epsilon-scaling-one-sample", "epsilon-scaling: with h=0.65 sigma=-1 gets one "
     "profile sample, at t=2.048, up to its horizon; it needs two"),
    # the size of every run: nondecay-demo's before its radiation table, and
    # in 2000 bytes, where only conservation's h/2 grid (19 cells of 112 bytes)
    # does not fit
    ("nondecay-demo --cfl 1e-12", "cfl: cfl=1e-12, h=0.0078125 and T=20 take 2.56e+15 steps"),
    ("memory 2000: conservation --T 1 --h 0.25", "grid: h=0.125 and T=1 need 19 cells"),
    # the size of every quadrature, counted at its largest rule: the radiation
    # tables' tau nodes (2,304 bytes each), after the runs' grids, and
    # free-validation's oracle nodes (224 bytes each), after its finest grid
    ("memory 100000: radiation-decay", "radius: the smallest bump radius 1 and R0=1 need "
     "192 radiation quadrature nodes, whose buffers exceed the"),
    ("memory 500000: nondecay-demo", "radius: the smallest bump radius 0.5 and R0=1 need "
     "384 radiation quadrature nodes"),
    ("memory 100000: epsilon-scaling --h 0.25", "radius: the smallest bump radius 1 and R0=1 "
     "need 192 radiation quadrature nodes"),
    ("memory 1000000: free-validation --h 0.5", "radius: the smallest bump radius 1.5 and "
     "R0=1.8 need 1.15e+04 free-field oracle nodes"),
]
_REFUSAL_FILES = {
    "conservation": _IDENTICAL,
    "symmetric-decay-different": _symmetric_file((1, 1, 1), (2, 1, 0.5)),
    "symmetric-decay-zero": _symmetric_file((1, 1, 0), (2, 1, 0)),
    "radiation-decay-one": _ONE_BUMP,
    "radiation-decay-wide": _TWO_BUMPS.replace("radius = 1.0", "radius = 6.0"),
    "epsilon-scaling-one-sample": _ONE_SAMPLE,
}


@pytest.mark.parametrize("args,message", _REFUSALS,
                         ids=[args.replace("\n[scenario]\n", "") for args, _ in _REFUSALS])
def test_refusals_come_before_any_run_or_table(tmp_path, capsys, monkeypatch, args, message):
    """Every refusal of a scenario exits 2 with one line, its message, before
    a solver run or a radiation table starts, and leaves no output directory."""
    def unreached(*args, **kwargs):
        raise AssertionError("a refused scenario started a run or a table")

    monkeypatch.setattr(wavelab.scenarios, "run_simulation", unreached)
    monkeypatch.setattr(wavelab.scenarios, "radiation_table", unreached)
    if args.startswith("memory "):
        memory, args = args[len("memory "):].split(": ")
        monkeypatch.setattr(wavelab.solver, "_MEMORY", int(memory))
    cfg_path = tmp_path / "refused.cfg"
    if args.startswith("run "):
        name, line = args[len("run "):].split(": ")
        cfg_path.write_text(_sampling_config(name, line))
        argv = ["run", "--config", str(cfg_path)]
    elif args.startswith("file "):
        cfg_path.write_text(_REFUSAL_FILES[args[len("file "):]])
        argv = ["run", "--config", str(cfg_path)]
    else:
        argv = ["scenario", *args.split()]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"wavelab: {message}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


# 0.5 runs; at 0.55 to 0.7 the ray at sigma = -1 is sampled once up to T = 2
@pytest.mark.parametrize("h", ["0.5", "0.55", "0.6", "0.65", "0.7"])
def test_epsilon_scaling_samples_each_ray_twice_or_refuses(tmp_path, monkeypatch, h):
    """Each ray either gets, on the shortest rung, two profile samples or more,
    the first at most one step past its reference time, or the ladder is
    refused with a ray's UsageError before it runs."""
    runs = []

    def recorded(cfg, sigmas, run_rung=wavelab.scenarios._run_rung):
        runs.append((cfg, run_rung(cfg, sigmas)))
        return runs[-1][1]

    monkeypatch.setattr(wavelab.scenarios, "_run_rung", recorded)
    config = parse_scenario(_ONE_SAMPLE.replace("h = 0.65", f"h = {h}"))
    try:
        run_scenario(config, out_dir=str(tmp_path / "o"))
    except UsageError as exc:
        assert "profile sample" in str(exc) and not runs
        return
    cfg, traces = min(runs, key=lambda run: run[0].T)
    assert cfg.T == 2.0 and [tr.sigma for tr in traces] == [-1.0, 0.0]
    for tr in traces:
        assert len(tr.t) >= 2 and tr.t[0] <= tr.t0 + cfg.dt + 1e-9


@pytest.mark.parametrize("args,cells", [
    ("conservation --h 1e-300", "4.1e+301 cells"),
    ("conservation --T 1e300", "1.28e+302 cells"),
    ("conservation --h 1e-310", "inf cells"),
    ("symmetric-decay --T 1e300", "1.28e+302 cells"),
    ("epsilon-scaling --eps 1e-100,1e-101,1e-102 --h 0.125", "3.2e+101 cells"),
])
def test_grid_too_large_exit_code(tmp_path, capsys, args, cells):
    """A grid whose buffers would exceed physical memory is refused, on one
    line, before anything is allocated for it."""
    tracemalloc.start()
    try:
        code = main(["scenario", *args.split(), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 10 ** 7
    err = capsys.readouterr().err
    assert err.startswith("wavelab: grid: h=") and err.count("\n") == 1
    assert f"need {cells}, whose buffers exceed the" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args,steps", [
    ("conservation --cfl 1e-310", "inf steps"),
    ("conservation --cfl 5e-324 --h 0.25", "inf steps"),      # cfl * h rounds to 0
    ("epsilon-scaling --cfl 1e-12", "1.28e+15 steps"),
    ("epsilon-scaling --cfl 1e-310", "inf steps"),
    ("symmetric-decay --cfl 1e-12", "5.12e+15 steps"),
    ("free-validation --cfl 1e-310", "inf steps"),
    ("nondecay-demo --cfl 1e-12", "2.56e+15 steps"),
])
def test_too_many_steps_exit_code(tmp_path, capsys, args, steps):
    """A step count that is not finite, or whose per-step arrays would exceed
    physical memory, is refused on one line before anything is allocated
    for it."""
    tracemalloc.start()
    try:
        code = main(["scenario", *args.split(), "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 10 ** 7
    err = capsys.readouterr().err
    assert err.startswith("wavelab: cfl: cfl=") and err.count("\n") == 1
    assert f"take {steps}, whose per-step arrays exceed the" in err
    assert not (tmp_path / "o").exists()


def test_epsilon_scaling_samples_each_step_once():
    """On the default eps = 0.4 rung the trace times ask for 713 steps, 712 of
    them distinct; each ray holds one sample per distinct step its foot
    point reaches, none twice, each at exactly that step times dt."""
    config = default_config("epsilon-scaling")
    rung = wavelab.scenarios._rung(config, 0.4)
    steps = sample_steps(rung, wavelab.scenarios._trace_times(rung))
    distinct = np.unique(steps)
    assert len(steps) == 713 and len(distinct) == 712
    dt = rung.dt
    traces = wavelab.scenarios._run_rung(rung, list(config.sigma_samples))
    for tr in traces:
        reached = distinct[RayTraceCollector.samples_at(distinct * dt, tr.sigma, rung.h)]
        assert np.array_equal(tr.t, reached * dt), tr.sigma


def test_ray_samples_follow_the_step_clock():
    """For sigma = -2 the foot point reaches h at step 1140, 1140 dt = 2.00390625
    = h - sigma, where a sum of dt falls 3.5e-14 short: each ray holds a
    sample at exactly n dt for every step n the rule takes, as _check_rays
    predicts, no more and no fewer."""
    rung = replace(wavelab.scenarios._rung(default_config("epsilon-scaling"), 0.1, h=1 / 256),
                   T=2.1)
    steps = np.unique(sample_steps(rung, wavelab.scenarios._trace_times(rung)))
    for tr in wavelab.scenarios._run_rung(rung, [-2.0, -1.0]):
        predicted = steps[RayTraceCollector.samples_at(steps * rung.dt, tr.sigma, rung.h)]
        assert np.array_equal(tr.t, predicted * rung.dt), tr.sigma


# the five scenarios that run the solver, shrunk to a second or less each
_SMALL_RUNS = {"conservation": {"T": 2.0, "h": 1 / 16},
               "free-validation": {"h": 1 / 8},
               "epsilon-scaling": {"eps_list": (1.0, 0.8, 0.6), "h": 1 / 32},
               "nondecay-demo": {"T": 2.0, "h": 1 / 16},
               "symmetric-decay": {"T": 4.0, "h": 1 / 32}}


@pytest.mark.parametrize("name", ["epsilon-scaling", "symmetric-decay"])
def test_solver_reports_deterministic(tmp_path, name):
    """Two runs of a ray-sampling scenario write byte-identical CSVs and the
    same summary once its runtimes are dropped."""
    config = replace(default_config(name), **_SMALL_RUNS[name])
    summaries = [run_scenario(config, out_dir=str(tmp_path / run)) for run in "ab"]
    for s in summaries:
        s.pop("runtimes")
    assert summaries[0] == summaries[1]
    csvs = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    assert csvs and csvs == sorted(p.name for p in (tmp_path / "b").glob("*.csv"))
    for csv in csvs:
        assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()
    ja, jb = (json.loads((tmp_path / run / "summary.json").read_text()) for run in "ab")
    ja.pop("runtimes"), jb.pop("runtimes")
    assert ja == jb


@pytest.mark.parametrize("name", sorted(_SMALL_RUNS))
def test_every_run_is_sized_before_the_first(tmp_path, monkeypatch, name):
    """Every config a scenario passes to run_simulation went through run_size,
    which refuses a run that does not fit, before the scenario's first run."""
    sized, runs = [], []

    def sizing(cfg, run_size=wavelab.solver.run_size):
        if not runs:
            sized.append(cfg)
        return run_size(cfg)

    def running(cfg, *args, run_simulation=wavelab.solver.run_simulation, **kwargs):
        runs.append(cfg)
        return run_simulation(cfg, *args, **kwargs)

    monkeypatch.setattr(wavelab.solver, "run_size", sizing)
    monkeypatch.setattr(wavelab.scenarios, "run_size", sizing)
    monkeypatch.setattr(wavelab.scenarios, "run_simulation", running)
    config = replace(default_config(name), **_SMALL_RUNS[name])
    run_scenario(config, out_dir=str(tmp_path / "o"))
    assert runs and all(cfg in sized for cfg in runs)


def test_free_validation_reads_no_energies(tmp_path, monkeypatch):
    """free-validation samples point values only: no energy or dissipation."""
    def unreached(state):
        raise AssertionError("free-validation computed an energy diagnostic")

    monkeypatch.setattr(WaveState, "energies", unreached)
    monkeypatch.setattr(WaveState, "dissipation", unreached)
    assert run_scenario(default_config("free-validation"), out_dir=str(tmp_path / "o"))["passed"]


# conservation's epsilon with g-bumps of amplitude 1e-200 (component 1) and 2e-200
_TINY_AMPLITUDES = (_sampling_config("conservation", "").replace("epsilon = 0.2", "epsilon = 0.3")
                    .replace("amplitude = 1.0", "amplitude = 1e-200", 1)
                    .replace("amplitude = 1.0", "amplitude = 2e-200"))


@pytest.mark.parametrize("argv", [
    ["scenario", "conservation", "--eps", "1e-200", "--T", "2", "--h", "0.0625"],
    ["run", "--config", "tiny-amplitudes.cfg"],
], ids=["tiny-epsilon", "tiny-amplitudes"])
def test_energy_underflow_exit_code(tmp_path, capsys, monkeypatch, argv):
    """Data whose energies, of order (eps A)^2, underflow to 0 is refused."""
    (tmp_path / "tiny-amplitudes.cfg").write_text(_TINY_AMPLITUDES)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("wavelab: epsilon: eps=") and err.count("\n") == 1
    assert "where its energy underflows to 0" in err
    assert not (tmp_path / "o").exists()


def test_smallest_data_reaches_a_verdict(tmp_path):
    """eps |A| = 1.5e-154 lies just above the refusal's bound: the run reports."""
    code = main(["scenario", "conservation", "--eps", "1.5e-154", "--T", "2", "--h", "0.0625",
                 "--out", str(tmp_path)])
    assert code in (0, 1) and (tmp_path / "summary.json").exists()


def test_symmetric_decay_refuses_all_zero_data(tmp_path, capsys):
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text(_symmetric_file((1, 1, 0), (1, 0.5, 0), (2, 1, 0), (2, 0.5, 0)))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "wavelab: symmetric-decay needs nonzero data\n"
    assert not (tmp_path / "o").exists()


def test_data_sampled_to_zero_exit_code(tmp_path, capsys):
    """At h = 2 every radial cell centre lies on or outside the support of
    symmetric-decay's radius-1 bumps: the grid holds no data."""
    assert main(["scenario", "symmetric-decay", "--h", "2", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "wavelab: h: h=2 samples component 1's nonzero data to 0 at every grid point\n")
    assert not (tmp_path / "o").exists()


def test_failed_rerun_leaves_the_reports_as_they_were(tmp_path):
    out = tmp_path / "o"
    assert main(["scenario", "symmetric-decay", "--T", "4", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(before) == {"energy_trace.csv", "profile_trace.csv", "summary.json"}
    assert main(["scenario", "symmetric-decay", "--T", "4", "--h", "2",
                 "--out", str(out)]) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_non_finite_later_report_writes_nothing(tmp_path, monkeypatch):
    """Every report is rendered before out_dir exists: a NaN in the second
    table names that file, and nothing is written, not even the first."""
    def run(config, runtimes):
        return [], {"slope": 1.0}, {"first.csv": (("t", "u"), [(0.0, 1.0)]),
                                    "second.csv": (("t", "u"), [(0.0, 1.0), (0.5, math.nan)])}

    monkeypatch.setitem(SCENARIOS, "profile-oracle", replace(SCENARIOS["profile-oracle"], run=run))
    out_dir = tmp_path / "o"
    with pytest.raises(NonFiniteReportError, match=r"second\.csv: column u, row 2 is nan"):
        run_scenario(default_config("profile-oracle"), out_dir=str(out_dir))
    assert list(tmp_path.iterdir()) == []
