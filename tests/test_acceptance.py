"""Acceptance suite: every headline claim at its contracted tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s or check the
captured output).  Scenario runs are shared per session, so the whole suite
costs one execution of each of the seven scenarios.
"""

import pytest

from wavelab.scenarios import SCENARIOS, default_config, run_scenario


def _get(summary, name):
    for a in summary["assertions"]:
        if a["name"] == name:
            return a
    raise KeyError(f"assertion {name!r} missing from {summary['scenario']}")


def _report(criterion, label, items):
    ok = all(a["passed"] for a in items)
    detail = ", ".join(f"{a['name']}={a['value']:.4g} {a['op']} {a['threshold']:.4g}"
                       for a in items)
    print(f"ACCEPTANCE {criterion:>2} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="session")
def outroot(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def conservation(outroot):
    return run_scenario(default_config("conservation"),
                        out_dir=str(outroot / "conservation"))


@pytest.fixture(scope="session")
def free_validation(outroot):
    return run_scenario(default_config("free-validation"),
                        out_dir=str(outroot / "free-validation"))


@pytest.fixture(scope="session")
def radiation_decay(outroot):
    return run_scenario(default_config("radiation-decay"),
                        out_dir=str(outroot / "radiation-decay"))


@pytest.fixture(scope="session")
def profile_oracle(outroot):
    return run_scenario(default_config("profile-oracle"),
                        out_dir=str(outroot / "profile-oracle"))


@pytest.fixture(scope="session")
def epsilon_scaling(outroot):
    return run_scenario(default_config("epsilon-scaling"),
                        out_dir=str(outroot / "epsilon-scaling"))


@pytest.fixture(scope="session")
def nondecay(outroot):
    return run_scenario(default_config("nondecay-demo"),
                        out_dir=str(outroot / "nondecay-demo"))


@pytest.fixture(scope="session")
def symmetric(outroot):
    return run_scenario(default_config("symmetric-decay"),
                        out_dir=str(outroot / "symmetric-decay"))


def test_criterion_01_difference_conservation_law(conservation):
    items = [_get(conservation, "difference_law_drift"),
             _get(conservation, "difference_law_order")]
    assert _report(1, "difference law drift <= 5e-3, order >= 1.8", items)


def test_criterion_02_energy_balance(conservation):
    items = [_get(conservation, "energy_balance_residual"),
             _get(conservation, "energy_balance_order")]
    assert _report(2, "energy balance residual <= 5e-3", items)


def test_criterion_03_free_solver_vs_oracle(free_validation):
    items = [a for a in free_validation["assertions"]
             if a["name"].startswith("oracle_error_h=")]
    items.append(_get(free_validation, "solver_convergence_order"))
    assert len(items) == 4
    assert _report(3, "free solver error <= 5h^2, order >= 1.9", items)


def test_criterion_04_radiation_field_decay(radiation_decay):
    items = [_get(radiation_decay, "support_tail_max"),
             _get(radiation_decay, "decay_slope_gap_component1"),
             _get(radiation_decay, "decay_slope_gap_component2")]
    assert _report(4, "dF decay slope in [-1.65,-1.35], support exact", items)


def test_criterion_05_radiation_field_approximation(free_validation):
    items = [a for a in free_validation["assertions"]
             if a["name"].startswith("ray_approx_slope")]
    assert len(items) == 2
    assert _report(5, "|x|^1/2 du - omega dF decays with slope <= -0.8", items)


def test_criterion_06_profile_ode_oracle(profile_oracle):
    items = [_get(profile_oracle, "closed_form_rel_err"),
             _get(profile_oracle, "invariant_drift")]
    assert _report(6, "reduced ODE vs closed form <= 1e-8, drift <= 1e-9", items)


def test_criterion_07_trichotomy(profile_oracle):
    items = [a for a in profile_oracle["assertions"]
             if a["name"].startswith("trichotomy")]
    assert len(items) == 5
    assert _report(7, "invariant sign decides the surviving component", items)


def test_criterion_08_leading_term_scaling(epsilon_scaling):
    items = [_get(epsilon_scaling, "residual_scaling_slope")]
    items += [a for a in epsilon_scaling["assertions"]
              if a["name"].startswith("pointwise_rel")]
    assert _report(8, "residual ~ eps^(>=2.2), pointwise within 15%", items)


def test_criterion_09_nondecay_criterion(nondecay):
    items = [_get(nondecay, "crossing_dF1_dominates"),
             _get(nondecay, "crossing_dF2_dominates"),
             _get(nondecay, "energy_floor_component1"),
             _get(nondecay, "energy_floor_component2")]
    assert _report(9, "crossing condition, both energies stay above 0.2x", items)


def test_criterion_10_symmetric_single_equation(outroot, symmetric):
    items = [_get(symmetric, "component_symmetry_gap"),
             _get(symmetric, "total_energy_monotone_decay"),
             _get(symmetric, "profile_shape_rel_dev")]
    assert _report(10, "u1 = u2 to 1e-12, monotone decay, log-shape within 20%", items)
    # the profile trace reports the measured remainder K, not 0.0 placeholders
    header, *rows = (outroot / "symmetric-decay" / "profile_trace.csv").read_text(
        encoding="utf-8").splitlines()
    k1 = header.split(",").index("K1")
    assert any(float(row.split(",")[k1]) != 0.0 for row in rows)


def test_every_csv_cell_parses_as_float(outroot, conservation, free_validation,
                                        radiation_decay, profile_oracle,
                                        epsilon_scaling, nondecay, symmetric):
    """Every cell below the header of every scenario CSV reads back with float().

    numpy scalars must not leak their repr (np.float64(...)) into a report.
    """
    paths = sorted(outroot.rglob("*.csv"))
    assert {p.parent.name for p in paths} == set(SCENARIOS)
    for path in paths:
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        assert rows, path
        for row in rows:
            cells = row.split(",")
            assert len(cells) == len(header.split(",")), path
            for cell in cells:
                float(cell)
