"""Tests for the named invariant suite."""

import pytest

from cmaeig.domain import Ball, GaussianBump, build_grid
from cmaeig.eigenpath import continuation
from cmaeig.variational import inverse_power
from cmaeig.verify import (
    InvariantRow,
    VerifyReport,
    available_invariants,
    run_suite,
    verify_eigenpair,
)


@pytest.fixture(scope="module")
def report():
    return run_suite(seed=42)


@pytest.fixture(scope="module")
def report_alt_seed():
    return run_suite(seed=7)


def test_default_suite_all_pass(report):
    failures = [r for r in report.rows if not r.passed]
    assert report.ok, f"failing rows: {failures}"


def test_margin_sign_matches_result(report):
    for row in report.rows:
        assert row.passed == (row.margin >= 0.0), row


def test_rows_sorted_by_name_then_fixture(report):
    keys = [(r.invariant, r.fixture) for r in report.rows]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_every_invariant_produces_at_least_one_row(report):
    names = {r.invariant for r in report.rows}
    assert names == set(available_invariants())


def test_registry_names_are_kebab_case():
    names = available_invariants()
    assert names == tuple(sorted(names))
    assert len(names) == 28
    for name in names:
        assert name == name.lower()
        assert " " not in name and "_" not in name


def test_pass_set_is_seed_independent(report, report_alt_seed):
    by_key = lambda rep: {(r.invariant, r.fixture): r.passed for r in rep.rows}
    assert by_key(report) == by_key(report_alt_seed)


def test_same_seed_reproduces_margins(report):
    again = run_suite(seed=42, only="rayleigh-lower-bound")
    wanted = report["rayleigh-lower-bound"]
    assert len(again.rows) == len(wanted)
    for fresh, cached in zip(again.rows, wanted):
        assert fresh == cached


def test_only_filter_restricts_to_one_invariant(report):
    sub = run_suite(seed=42, only="functional-homogeneity")
    assert {r.invariant for r in sub.rows} == {"functional-homogeneity"}
    assert sub.rows == tuple(report["functional-homogeneity"])


def test_only_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown invariant"):
        run_suite(seed=42, only="no-such-check")


def test_report_lookup(report):
    rows = report["radial-lower-bound"]
    assert len(rows) == 6
    assert all(isinstance(r, InvariantRow) for r in rows)
    with pytest.raises(KeyError):
        report["missing-name"]


def test_table_renders_one_line_per_row(report):
    text = report.table()
    lines = text.strip("\n").split("\n")
    assert lines[0].startswith("invariant")
    assert len(lines) == 1 + len(report.rows)
    assert all(line.endswith("PASS") for line in lines[1:])


def test_report_ok_reflects_row_status():
    good = InvariantRow("a", "f", 1.0, True)
    bad = InvariantRow("a", "f", -1.0, False)
    assert VerifyReport(rows=(good,)).ok
    assert not VerifyReport(rows=(good, bad)).ok


@pytest.mark.parametrize("route", [continuation, inverse_power])
def test_verify_eigenpair_takes_density_and_grid_positionally(route):
    """The call the benchmark makes: verify_eigenpair(result, density, grid),
    for both routes, with a non-constant density."""
    grid = build_grid(Ball(1, 1.0), 1.0 / 16)
    density = GaussianBump(center=(0.3, 0.0), amplitude=1.0, width=0.5)
    result = route(density, grid, 1e-8)
    report = verify_eigenpair(result, density, grid)
    assert report.ok, [r for r in report.rows if not r.passed]
    assert len(report.rows) == 7
    for row in report.rows:
        assert row.fixture == result.method
        assert row.passed == (row.margin >= 0.0), row
