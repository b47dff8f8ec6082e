import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import wavelab

from wavelab.cli import main
from wavelab.config import _SECTION_KEYS
from wavelab.scenarios import (EPS_LIST, READS, SCENARIOS, UsageError, default_config,
                               run_scenario)

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


def test_profile_oracle_via_cli(tmp_path, capsys):
    code = main(["scenario", "profile-oracle", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "all assertions passed" in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is True
    assert (tmp_path / "profile_oracle.csv").exists()
    assert (tmp_path / "trichotomy.csv").exists()


def test_module_entry_point_runs_a_scenario(tmp_path):
    """`python -m wavelab` reaches cli.entry and exits with main's status."""
    src = str(Path(wavelab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "wavelab", "scenario", "profile-oracle", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "summary.json").read_text())["passed"] is True


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


@pytest.mark.parametrize("args,out,codes", [
    # check times and cadence follow T, so a short horizon still samples on-grid
    ("free-validation --T 0.1", "o", {0, 1}),
    # the profile reference time max(2, -2 sigma) lies beyond T
    ("symmetric-decay --T 1", "o", {2}),
    # --out names an existing file
    ("profile-oracle", "afile", {2}),
    # T/4 is a whole number of default-CFL steps, so cadence / (n0 h) rounds up
    # to 0.45000000000000007, past the Cartesian bound
    ("free-validation --h 0.15 --T 0.27", "o", {0, 1}),
    # "run NAME: LINE" runs a config file of scenario NAME with LINE in [data]:
    # an empty or non-finite sampling list, or angles out of order for a
    # radiation table
    ("run radiation-decay: theta_samples =", "o", {2}),
    ("run radiation-decay: theta_samples = 1, 0", "o", {2}),
    ("run radiation-decay: theta_samples = nan", "o", {2}),
    ("run epsilon-scaling: sigma_samples =", "o", {2}),
    ("run epsilon-scaling: theta_samples = 0.5, 0.5", "o", {2}),
    ("run nondecay-demo: theta_samples = 1, 0", "o", {2}),
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
        assert "scenario free-validation:" in captured.out


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


@pytest.mark.parametrize("extra,rejected", [
    ("[scenario]\nT = 5\n[grid]\nh = 0.1\n", "grid.h, scenario.T"),
    ("[grid]\ncfl = 0.3\n", "grid.cfl"),
    ("[data]\nepsilon = 0.2, 0.1\n", "data.epsilon with more than one value"),
])
def test_run_config_rejects_unread_keys(tmp_path, capsys, extra, rejected):
    cfg_path = tmp_path / "oracle.cfg"
    cfg_path.write_text(PROFILE_ORACLE_CONFIG + extra)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"wavelab: scenario profile-oracle does not read {rejected}\n"
    assert not (tmp_path / "o").exists()


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
])
def test_run_config_rejects_unread_sampling_and_mode(tmp_path, capsys, config, extra, rejected):
    cfg_path = tmp_path / "unread.cfg"
    cfg_path.write_text(config + extra)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == f"wavelab: scenario {rejected}\n"
    assert not (tmp_path / "o").exists()


def test_reads_names_config_keys():
    keys = {f"{section}.{key}" for section, names in _SECTION_KEYS.items()
            if section != "bump" for key in names}
    assert set(READS) == set(SCENARIOS)
    for reads in READS.values():
        assert reads <= keys | {EPS_LIST}


def test_epsilon_scaling_rejects_cartesian_mode(tmp_path, capsys):
    cfg_path = tmp_path / "scaling.cfg"
    cfg_path.write_text(PROFILE_ORACLE_CONFIG.replace("profile-oracle", "epsilon-scaling")
                        .replace("epsilon = 0.2", "epsilon = 0.4, 0.2, 0.1")
                        + "[scenario]\nmode = cartesian-2d\n")
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err == "wavelab: epsilon-scaling runs in radial mode\n"
    assert not (tmp_path / "o" / "radiation_table.csv").exists()
