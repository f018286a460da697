"""Tests for the command-line front end: parsing, execution, artifacts."""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import cmaeig.cli as cli
import cmaeig.dirichlet as dirichlet
import cmaeig.eigenpath as eigenpath

from cmaeig.cli import (
    RunConfig,
    SummaryRecord,
    build_config,
    config_hash,
    main,
    parse_config,
    run,
)
from cmaeig.domain import Ball, Constant, CustomRho, Ellipsoid, GaussianBump
from cmaeig.errors import ConfigError, NewtonStalled
from cmaeig.serialize import read_field
from cmaeig.verify import InvariantRow, VerifyReport

from oracles import LAMBDA1_UNIT_DISC


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_minimal_radial_config_fills_defaults():
    config = build_config({"command": "radial", "n": "1", "R": "1"})
    assert config.command == "radial"
    assert config.domain == Ball(n=1, radius=1.0)
    assert config.density == Constant(1.0)
    assert config.tol == 1e-8
    assert config.seed == 42
    assert config.h is None
    assert config.max_iters is None
    assert config.emit == frozenset({"csv", "binary", "summary"})
    assert config.output_dir == "results"


def test_zero_tol_rejected():
    with pytest.raises(ConfigError, match="tol"):
        build_config({"command": "radial", "n": "1", "R": "1", "tol": "0"})


def test_conflicting_ball_and_ellipsoid_names_both_keys():
    with pytest.raises(ConfigError) as excinfo:
        build_config({"command": "solve", "h": "0.1",
                      "R": "1", "domain.axes": "1,1.5"})
    message = str(excinfo.value)
    assert "R" in message and "domain.axes" in message


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config({"command": "radial", "n": "1", "radius": "1"})


def test_command_required_and_validated():
    with pytest.raises(ConfigError, match="command"):
        build_config({"n": "1"})
    with pytest.raises(ConfigError, match="command"):
        build_config({"command": "eigen", "n": "1"})


def test_h_required_for_grid_commands():
    with pytest.raises(ConfigError, match="h"):
        build_config({"command": "solve", "n": "1"})
    with pytest.raises(ConfigError, match="h"):
        build_config({"command": "solve", "n": "1", "h": "-0.1"})


def test_ellipsoid_axes_fix_n():
    config = build_config({"command": "solve", "h": "0.25",
                           "domain.axes": "1.0, 1.5"})
    assert config.domain == Ellipsoid(axes=(1.0, 1.5))
    assert config.n == 2
    with pytest.raises(ConfigError, match="n"):
        build_config({"command": "solve", "h": "0.25", "n": "3",
                      "domain.axes": "1.0, 1.5"})


def test_custom_domain_round_trip():
    config = build_config({
        "command": "solve", "h": "0.1",
        "domain.kind": "custom",
        "domain.coeffs": "2,0: 1; 0,2: 1; 0,0: -1",
        "domain.seed_point": "0, 0",
        "domain.box": "-1.1, 1.1; -1.1, 1.1",
    })
    assert isinstance(config.domain, CustomRho)
    assert config.domain.coeffs[(2, 0)] == 1.0
    assert config.domain.box == ((-1.1, 1.1), (-1.1, 1.1))


def test_custom_domain_missing_pieces():
    with pytest.raises(ConfigError, match="domain.seed_point"):
        build_config({"command": "solve", "h": "0.1",
                      "domain.coeffs": "2,0:1; 0,2:1; 0,0:-1",
                      "domain.box": "-1,1;-1,1"})


def test_bump_density_parsing():
    config = build_config({
        "command": "solve", "n": "1", "h": "0.1",
        "density.center": "0.2, 0.0",
        "density.amplitude": "1.5",
        "density.width": "0.5",
    })
    assert config.density == GaussianBump(center=(0.2, 0.0),
                                          amplitude=1.5, width=0.5)
    with pytest.raises(ConfigError, match="density.width"):
        build_config({"command": "solve", "n": "1", "h": "0.1",
                      "density.center": "0,0", "density.amplitude": "1"})
    with pytest.raises(ConfigError, match="density.value"):
        build_config({"command": "solve", "n": "1", "h": "0.1",
                      "density.kind": "bump", "density.value": "2",
                      "density.center": "0,0", "density.amplitude": "1",
                      "density.width": "0.5"})


def test_emit_subset_and_rejects_unknown_target():
    config = build_config({"command": "radial", "n": "1", "emit": "summary"})
    assert config.emit == frozenset({"summary"})
    with pytest.raises(ConfigError, match="emit"):
        build_config({"command": "radial", "n": "1", "emit": "csv,plots"})


def test_filter_only_for_verify():
    with pytest.raises(ConfigError, match="filter"):
        build_config({"command": "radial", "n": "1", "filter": "bound-chain"})


def test_config_file_with_flag_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "command = radial\n"
        "n = 1\n"
        "R = 2.0   # trailing comment\n"
        "tol = 1e-6\n"
    )
    config = parse_config(["--config", str(path), "--tol", "1e-7"])
    assert config.domain.radius == 2.0
    assert config.tol == 1e-7


def test_malformed_config_lines(tmp_path):
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("command = radial\ncommand = solve\n")
    missing = tmp_path / "nope.cfg"
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(["--config", str(missing)])


def parse_config_text(text):
    from cmaeig.cli import _parse_kv_text
    return build_config(_parse_kv_text(text))


def test_config_hash_deterministic_and_sensitive():
    pairs = {"command": "radial", "n": "1", "R": "1"}
    a = config_hash(build_config(pairs))
    b = config_hash(build_config(dict(pairs)))
    assert a == b and len(a) == 64
    flags = parse_config(["--command", "radial", "--n", "1"])
    assert config_hash(flags) == a
    reseeded = build_config({**pairs, "seed": "7"})
    assert config_hash(reseeded) != a
    moved = build_config({**pairs, "out": "elsewhere"})
    assert config_hash(moved) == a


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def test_radial_run_matches_pinned_eigenvalue(tmp_path):
    config = build_config({"command": "radial", "n": "1", "R": "1",
                           "out": str(tmp_path / "out")})
    code, record = run(config)
    assert code == 0
    assert record.lambda1 == pytest.approx(1.445796, abs=1e-5)
    assert (tmp_path / "out" / "summary.txt").exists()
    branch = (tmp_path / "out" / "branch.csv").read_text().splitlines()
    assert branch[0] == "t,phi,dphi"
    assert not (tmp_path / "out" / "field.csv").exists()
    text = (tmp_path / "out" / "summary.txt").read_text()
    assert f"lambda1={format(record.lambda1, '.17g')}" in text
    assert f"config_hash={record.config_hash}" in text


def test_continuation_run_within_two_percent(tmp_path):
    config = build_config({"command": "eigen-continuation", "n": "1",
                           "h": "0.015625", "out": str(tmp_path / "out")})
    code, record = run(config)
    assert code == 0
    assert abs(record.lambda1 - LAMBDA1_UNIT_DISC) / LAMBDA1_UNIT_DISC < 0.02
    lines = (tmp_path / "out" / "branch.csv").read_text().splitlines()
    assert lines[0] == "lambda,sup_norm,iterations,residual"
    assert len(lines) - 1 == record.diagnostics["branch_points"]


def test_continuation_on_custom_n2_domain(tmp_path):
    """The unit 4-ball spelled as a custom rho runs like Ball(2): a custom
    domain's starts are multiples of its own rho, with no jump at the
    boundary."""
    config = build_config({
        "command": "eigen-continuation", "n": "2", "h": "0.25", "emit": "summary",
        "domain.kind": "custom",
        "domain.coeffs": "2,0,0,0: 1; 0,2,0,0: 1; 0,0,2,0: 1; 0,0,0,2: 1; 0,0,0,0: -1",
        "domain.seed_point": "0, 0, 0, 0",
        "domain.box": "-1, 1; -1, 1; -1, 1; -1, 1",
        "out": str(tmp_path / "out"),
    })
    code, record = run(config)
    assert code == 0, record.diagnostics.get("error")
    assert record.lambda1 == pytest.approx(1.66133, abs=1e-5)


@pytest.mark.parametrize("command", ["eigen-continuation", "eigen-inverse-power"])
def test_eigen_summary_counts_krylov_iterations(tmp_path, command):
    config = build_config({"command": command, "n": "2", "h": "0.25",
                           "emit": "summary", "out": str(tmp_path / "out")})
    code, record = run(config)
    count = record.diagnostics["krylov_iterations"]
    assert code == 0 and count > 0
    assert f"\nkrylov_iterations={count}\n" in (tmp_path / "out" / "summary.txt").read_text()


def test_n1_continuation_krylov_iterations_count_the_shared_basis(tmp_path, monkeypatch):
    """Every vector of an n = 1 grid's shared shifted basis is one LU solve
    and one Krylov iteration, so the summary's count is the basis size; the
    branch CSV stays free of timings."""
    bases = []

    class Recorded(dirichlet._Arnoldi):
        def __init__(self, *args):
            super().__init__(*args)
            bases.append(self)

    monkeypatch.setattr(dirichlet, "_Arnoldi", Recorded)
    config = build_config({"command": "eigen-continuation", "n": "1", "h": "0.0625",
                           "emit": "summary,csv", "out": str(tmp_path / "out")})
    code, record = run(config)
    assert code == 0 and len(bases) == 1
    count = record.diagnostics["krylov_iterations"]
    assert count == len(bases[0].Z) > 0
    assert f"\nkrylov_iterations={count}\n" in (tmp_path / "out" / "summary.txt").read_text()
    headers = {p.name: p.read_text().splitlines()[0]
               for p in (tmp_path / "out").glob("*.csv")}
    assert headers["branch.csv"] == "lambda,sup_norm,iterations,residual"
    assert not any("time" in h or "_s," in h + "," for h in headers.values())


@pytest.mark.parametrize("command,module,solver", [
    ("eigen-continuation", "cmaeig.eigenpath", "solve_nonlinear"),
    ("eigen-inverse-power", "cmaeig.variational", "solve_frozen"),
])
def test_eigen_summary_reports_union_of_solve_flags(tmp_path, monkeypatch,
                                                     command, module, solver):
    def run_summary(name):
        config = build_config({"command": command, "n": "1", "h": "0.0625",
                               "emit": "summary", "out": str(tmp_path / name)})
        code, record = run(config)
        assert code == 0
        return record, (tmp_path / name / "summary.txt").read_text()

    record, text = run_summary("clean")
    assert record.diagnostics["flags"] == "" and "\nflags=\n" in text

    # the first patched solve falls back to its anchor, every later one
    # also misses its residual tolerance; the routes call the solver's form
    # on orbit values, <solver>_orbits
    solver += "_orbits"
    real = getattr(sys.modules[module], solver)
    calls = []

    def flagged(*args, **kwargs):
        u, report = real(*args, **kwargs)
        report.flags += ("feasible_start_anchor",) if not calls else (
            "linear_residual_above_tol", "feasible_start_anchor")
        calls.append(solver)
        return u, report

    monkeypatch.setattr(sys.modules[module], solver, flagged)
    record, text = run_summary("flagged")
    assert len(calls) > 2
    union = "feasible_start_anchor,linear_residual_above_tol"
    assert record.diagnostics["flags"] == union
    assert f"\nflags={union}\n" in text


def test_continuation_summary_reports_extrapolation_flag(tmp_path, monkeypatch):
    real = eigenpath._extrapolate

    def flagged(*args):
        lam1, fit_residual, _ = real(*args)
        return lam1, fit_residual, ("extrapolation_slope_nonnegative",)

    monkeypatch.setattr(eigenpath, "_extrapolate", flagged)
    config = build_config({"command": "eigen-continuation", "n": "1", "h": "0.0625",
                           "emit": "summary", "out": str(tmp_path / "out")})
    code, record = run(config)
    assert code == 0 and record.diagnostics["flags"] == "extrapolation_slope_nonnegative"
    text = (tmp_path / "out" / "summary.txt").read_text()
    assert "\nflags=extrapolation_slope_nonnegative\n" in text


@pytest.mark.parametrize("command", ["eigen-continuation", "eigen-inverse-power"])
def test_eigen_summary_counts_factorizations(tmp_path, command):
    config = build_config({"command": command, "n": "2", "h": "0.25",
                           "emit": "summary", "out": str(tmp_path / "out")})
    code, record = run(config)
    count = record.diagnostics["factorizations"]
    assert code == 0 and count > 0
    assert f"\nfactorizations={count}\n" in (tmp_path / "out" / "summary.txt").read_text()


def test_inverse_power_summary_counts_the_start_lu(tmp_path, monkeypatch):
    """eigen-inverse-power's factorizations count every splu call, the start
    solve's included: on the h = 1/32 disc the one quarter-Laplacian LU."""
    real = dirichlet.splu
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dirichlet, "splu", counted)
    config = build_config({"command": "eigen-inverse-power", "n": "1", "h": "0.03125",
                           "emit": "summary", "out": str(tmp_path / "out")})
    code, record = run(config)
    assert code == 0 and len(calls) == 1
    assert record.diagnostics["factorizations"] == 1
    assert "\nfactorizations=1\n" in (tmp_path / "out" / "summary.txt").read_text()


@pytest.mark.parametrize("command", ["eigen-continuation", "eigen-inverse-power"])
def test_eigen_summary_reports_newton_counters(tmp_path, monkeypatch, command):
    """The summary sums the branch's line-search backtracks (one forced by a
    long first Newton step) and mu shrinks; a continuation also lists its
    rejected steps by exception class and counts its predictor fallbacks."""
    real = eigenpath._branch_step
    calls = []
    newton_step = dirichlet._newton_step
    steps = []

    def fails_once(*args):
        calls.append(1)
        if len(calls) == 2:
            raise NewtonStalled("probe")
        return real(*args)

    def long_first_step(grid, J, F, rtol, orbits):
        # five times too long: the line search halves it at least twice
        delta, iterations, factored = newton_step(grid, J, F, rtol, orbits)
        steps.append(1)
        return (5.0 if len(steps) == 1 else 1.0) * delta, iterations, factored

    monkeypatch.setattr(eigenpath, "_branch_step", fails_once)
    monkeypatch.setattr(dirichlet, "_newton_step", long_first_step)
    config = build_config({"command": command, "n": "2", "h": "0.25",
                           "emit": "summary", "out": str(tmp_path / "out")})
    code, record = run(config)
    text = (tmp_path / "out" / "summary.txt").read_text()
    assert code == 0
    names = ("backtracks", "mu_shrinks")
    if command == "eigen-continuation":
        names += ("predictor_fallbacks",)
    for name in names:
        count = record.diagnostics[name]
        assert isinstance(count, int) and f"\n{name}={count}\n" in text
    assert record.diagnostics["backtracks"] > 0
    if command == "eigen-continuation":
        assert "\nrejected_steps=NewtonStalled:1\n" in text
        assert record.diagnostics["predictor_fallbacks"] == 0
    else:
        assert "rejected_steps" not in record.diagnostics and calls == []
        assert "predictor_fallbacks" not in record.diagnostics


def test_solve_run_emits_recoverable_field(tmp_path):
    out = tmp_path / "out"
    config = build_config({"command": "solve", "n": "1", "h": "0.0625",
                           "out": str(out)})
    code, record = run(config)
    assert code == 0
    assert record.lambda1 is None
    u = read_field(out / "field.bin")
    assert u.sup_norm() == pytest.approx(1.0, abs=1e-10)
    lines = (out / "branch.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")
    rows = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)
    assert rows.shape == (u.grid.num_interior, 3)
    assert np.array_equal(rows[:, 2], u.interior)


def test_rayleigh_run_reports_quotient(tmp_path):
    config = build_config({"command": "rayleigh", "n": "1", "h": "0.0625",
                           "out": str(tmp_path / "out")})
    code, record = run(config)
    assert code == 0
    d = record.diagnostics
    assert d["rayleigh"] == pytest.approx(d["energy"] / d["mass"])
    assert d["rayleigh"] >= d["eigenvalue_lower_bound"]


@pytest.mark.parametrize("command", ["solve", "rayleigh"])
def test_frozen_summary_reports_newton_counters_and_flags(tmp_path, monkeypatch, command):
    """solve and rayleigh report their frozen solve's Newton counters and its
    SolveReport flags, so that a substituted start is not silent."""
    def run_summary(name):
        config = build_config({"command": command, "n": "2", "h": "0.25",
                               "density.center": "0.3, 0, 0, 0", "density.amplitude": "1",
                               "density.width": "0.5", "emit": "summary",
                               "out": str(tmp_path / name)})
        code, record = run(config)
        assert code == 0
        return record.diagnostics, (tmp_path / name / "summary.txt").read_text()

    diagnostics, text = run_summary("clean")
    assert diagnostics["flags"] == "" and "\nflags=\n" in text
    assert diagnostics["krylov_iterations"] > 0 and diagnostics["factorizations"] > 0
    for name in ("krylov_iterations", "factorizations", "backtracks", "mu_shrinks"):
        assert f"\n{name}={diagnostics[name]}\n" in text

    real = cli.solve_frozen

    def flagged(*args, **kwargs):
        u, report = real(*args, **kwargs)
        report.flags += ("feasible_start_anchor",)
        return u, report

    monkeypatch.setattr(cli, "solve_frozen", flagged)
    diagnostics, text = run_summary("flagged")
    assert diagnostics["flags"] == "feasible_start_anchor"
    assert "\nflags=feasible_start_anchor\n" in text


def test_emit_controls_artifacts(tmp_path):
    out = tmp_path / "out"
    config = build_config({"command": "solve", "n": "1", "h": "0.125",
                           "emit": "csv", "out": str(out)})
    run(config)
    assert sorted(p.name for p in out.iterdir()) == ["branch.csv", "field.csv"]


def test_verify_run_exit_code_and_single_row_filter(tmp_path):
    out = tmp_path / "out"
    config = build_config({"command": "verify",
                           "filter": "functional-homogeneity",
                           "out": str(out)})
    code, record = run(config)
    assert code == 0
    assert record.diagnostics == {"rows": 1, "failures": 0}
    lines = (out / "branch.csv").read_text().splitlines()
    assert lines[0] == "invariant,fixture,margin,result"
    assert len(lines) == 2 and lines[1].endswith("PASS")
    assert "PASS" in record.table


def test_verify_failure_exits_one(tmp_path, monkeypatch):
    rows = (InvariantRow("demo", "fixture", -1.0, False),)
    monkeypatch.setattr("cmaeig.cli.run_suite",
                        lambda **kw: VerifyReport(rows=rows))
    config = build_config({"command": "verify", "out": str(tmp_path / "out")})
    code, record = run(config)
    assert code == 1
    assert record.diagnostics["failures"] == 1


def test_solver_failure_exits_one_with_error_summary(tmp_path):
    out = tmp_path / "out"
    config = build_config({"command": "eigen-continuation", "n": "1",
                           "h": "0.0625", "max_iters": "1", "out": str(out)})
    code, record = run(config)
    assert code == 1
    assert "ScheduleExhausted" in record.diagnostics["error"]
    assert sorted(p.name for p in out.iterdir()) == ["summary.txt"]
    assert "error=" in (out / "summary.txt").read_text()


def test_unbuildable_grid_is_a_config_error(tmp_path):
    # two-well domain whose interior is disconnected at any lattice spacing
    config = build_config({
        "command": "solve", "n": "1", "h": "0.1",
        "domain.kind": "custom",
        "domain.coeffs": "4,0:1; 2,0:-2; 0,2:1; 0,0:0.9",
        "domain.seed_point": "1, 0",
        "domain.box": "-1.5,1.5; -0.5,0.5",
        "out": str(tmp_path / "out"),
    })
    with pytest.raises(ConfigError, match="h"):
        run(config)


def test_negative_seed_is_a_config_error(capsys):
    with pytest.raises(ConfigError, match="seed"):
        build_config({"command": "verify", "seed": "-1"})
    assert main(["--command", "verify", "--seed", "-1"]) == 2
    assert "config error: seed" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["R=inf", "domain.axes=1, inf"])
def test_infinite_radius_or_axis_is_a_domain_error(line, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"command=solve\nh=0.25\n{line}\n")
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: domain:") and "finite" in err


@pytest.mark.parametrize("lines, section", [
    ("domain.center = inf, 0", "domain"),
    ("density.center = 0, 0\ndensity.amplitude = inf\ndensity.width = 0.5", "density"),
])
def test_non_finite_center_or_amplitude_is_a_spec_error(lines, section, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"command=solve\nh=0.25\n{lines}\n")
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}:") and "finite" in err


def test_underflowing_bump_width_is_a_spec_error(tmp_path, capsys):
    """A width whose square underflows is refused when the config is read
    (exit 2), not by the solver as a NaN density (exit 1)."""
    path = tmp_path / "run.cfg"
    path.write_text("command=solve\nh=0.25\ndensity.center = 0, 0\n"
                    "density.amplitude = 1\ndensity.width = 1e-200\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: density:") and "underflows" in err
    assert not (tmp_path / "out").exists()


def test_main_exit_codes(tmp_path, capsys):
    assert main(["--command", "radial", "--n", "1",
                 "--out", str(tmp_path / "a")]) == 0
    assert "lambda1=" in capsys.readouterr().out
    assert main(["--command", "radial", "--n", "1", "--tol", "0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_csv_outputs_bit_identical_across_runs(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        config = build_config({"command": "eigen-inverse-power", "n": "1",
                               "h": "0.0625", "out": str(out)})
        assert run(config)[0] == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                        if p.suffix in (".csv", ".bin")})
    assert outputs[0] == outputs[1]


def test_kill_mid_run_leaves_no_partial_final_files(tmp_path):
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in sys.path if p] + [env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "cmaeig", "--command", "verify",
         "--out", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )
    # verify runs for about 1.7 s on a 2-core host (0.4 s of it imports), so the
    # kill lands mid-run
    time.sleep(1.0)
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    assert proc.returncode == -signal.SIGKILL
    if out.exists():
        names = [p.name for p in out.iterdir()]
        assert not any(name.startswith(".tmp-") for name in names)
        for name in names:
            # anything under a final name must be complete, never partial
            text = (out / name).read_text()
            assert text.endswith("\n")


def test_summary_record_text_layout():
    record = SummaryRecord(command="solve", config_hash="ab", lambda1=None,
                           residuals={"residual": 1e-9}, wall_time=0.25,
                           diagnostics={"iterations": 3})
    text = record.to_text()
    assert text.splitlines() == [
        "command=solve",
        "config_hash=ab",
        "residual=1.0000000000000001e-09",
        "iterations=3",
        "wall_time_s=0.250",
    ]


def test_run_config_direct_construction_is_validated():
    with pytest.raises(ConfigError, match="emit"):
        RunConfig(command="radial", domain=Ball(1), density=Constant(),
                  emit=frozenset({"png"}))


def test_run_config_takes_n_from_the_domain():
    """n is the domain's complex dimension, not a field that can disagree
    with it, and the config hashes as when parsed with that n."""
    config = RunConfig(command="solve", domain=Ball(2), density=Constant(), h=0.25)
    assert config.n == 2
    assert config_hash(config) == config_hash(
        build_config({"command": "solve", "n": "2", "h": "0.25"}))
    with pytest.raises(TypeError, match="'n'"):
        RunConfig(command="solve", domain=Ball(2), density=Constant(), n=1, h=0.25)
