"""Command-line front end: config parsing, orchestration, artifact emission.

Commands
--------
solve                 det(u_jk) = f^n with zero boundary values (the lam=0
                      member of the branch family); emits the solution field.
eigen-continuation    ground eigenpair by branch continuation.
eigen-inverse-power   ground eigenpair by variational inverse-power iteration.
radial                shooting eigenvalue of a ball; the ODE profile plays the
                      role of the branch history.
rayleigh              energy / mass / Rayleigh quotient of the deterministic
                      trial field u0 solving det = f^n (the field behind the
                      certified eigenvalue lower bound 1/sup|u0|).
verify                named invariant suite; exit code 0 iff every row passes.

Configs are flat ``key = value`` text (``#`` comments), with dotted keys for
the domain/density sections and no expression language; command-line flags
override file values.  Artifacts always use the fixed names summary.txt,
branch.csv, field.bin, field.csv inside the output directory, written via
temp-file + rename so an interrupted run never leaves a partial file under a
final name.  Commands without a lattice field (radial, verify) simply do not
write field.*.

Exit codes: 0 success, 1 solver failure (or failing verify rows), 2 config
error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .dirichlet import solve_frozen
from .domain import (
    Ball,
    Constant,
    CustomRho,
    Ellipsoid,
    GaussianBump,
    build_grid,
    density_vector,
)
from .eigenpath import BranchPoint, SchedulePolicy, continuation
from .errors import CmaError, ConfigError, EmptyInterior, ResolutionTooCoarse
from .radial import radial_lambda1, shoot
from .serialize import (
    atomic_write_text,
    branch_to_csv,
    field_to_csv,
    profile_to_csv,
    spec_to_dict,
    write_field,
)
from .variational import energy, inverse_power, mass, rayleigh
from .verify import run_suite

__all__ = [
    "COMMANDS",
    "RunConfig",
    "SummaryRecord",
    "build_config",
    "config_hash",
    "main",
    "parse_config",
    "run",
]

COMMANDS = (
    "solve",
    "eigen-continuation",
    "eigen-inverse-power",
    "radial",
    "rayleigh",
    "verify",
)
EMIT_TARGETS = ("csv", "binary", "summary")
GRID_COMMANDS = ("solve", "eigen-continuation", "eigen-inverse-power", "rayleigh")

_KNOWN_KEYS = frozenset({
    "command", "n", "h", "tol", "max_iters", "seed", "out", "emit", "filter",
    "R", "domain.kind", "domain.radius", "domain.center", "domain.axes",
    "domain.coeffs", "domain.seed_point", "domain.box",
    "density.kind", "density.value", "density.center", "density.amplitude",
    "density.width",
})


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; construct via build_config/parse_config."""

    command: str
    domain: object
    density: object
    n: int
    h: Optional[float] = None
    tol: float = 1e-8
    max_iters: Optional[int] = None
    seed: int = 42
    output_dir: str = "results"
    emit: frozenset = frozenset(EMIT_TARGETS)
    filter: Optional[str] = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(
                f"command: expected one of {', '.join(COMMANDS)}; got {self.command!r}"
            )
        if not 0.0 < self.tol <= 0.1:
            raise ConfigError(f"tol: must lie in (0, 0.1]; got {self.tol!r}")
        if self.h is not None and not self.h > 0:
            raise ConfigError(f"h: must be positive; got {self.h!r}")
        if self.command in GRID_COMMANDS and self.h is None:
            raise ConfigError(f"h: required for command {self.command!r}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ConfigError(f"max_iters: must be >= 1; got {self.max_iters!r}")
        if self.n < 1:
            raise ConfigError(f"n: must be >= 1; got {self.n!r}")
        bad = set(self.emit) - set(EMIT_TARGETS)
        if bad or not self.emit:
            raise ConfigError(
                f"emit: expected a nonempty subset of {{{', '.join(EMIT_TARGETS)}}}; "
                f"got {sorted(self.emit) or '(empty)'}"
            )
        if self.filter is not None and self.command != "verify":
            raise ConfigError("filter: only meaningful for the verify command")


@dataclass(frozen=True)
class SummaryRecord:
    """What a run reported: echoed config, estimates, residuals, wall time."""

    command: str
    config_hash: str
    lambda1: Optional[float]
    residuals: dict
    wall_time: float
    diagnostics: dict = dc_field(default_factory=dict)
    table: Optional[str] = None

    def to_text(self):
        lines = [
            f"command={self.command}",
            f"config_hash={self.config_hash}",
        ]
        if self.lambda1 is not None:
            lines.append(f"lambda1={format(self.lambda1, '.17g')}")
        for name, value in self.residuals.items():
            lines.append(f"{name}={format(float(value), '.17g')}")
        for name, value in self.diagnostics.items():
            if isinstance(value, float):
                value = format(value, ".17g")
            lines.append(f"{name}={value}")
        lines.append(f"wall_time_s={self.wall_time:.3f}")
        text = "\n".join(lines) + "\n"
        if self.table is not None:
            text += "\n" + self.table
        return text


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _parse_kv_text(text):
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key in {raw!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _as_float(pairs, key):
    try:
        return float(pairs[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {pairs[key]!r}") from None


def _as_int(pairs, key):
    try:
        return int(pairs[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {pairs[key]!r}") from None


def _as_floats(pairs, key):
    try:
        return tuple(float(part) for part in pairs[key].split(",") if part.strip())
    except ValueError:
        raise ConfigError(
            f"{key}: expected comma-separated numbers, got {pairs[key]!r}"
        ) from None


def _parse_domain(pairs, n):
    ball_keys = [k for k in ("R", "domain.radius", "domain.center") if k in pairs]
    ellipsoid_keys = [k for k in ("domain.axes",) if k in pairs]
    custom_keys = [k for k in ("domain.coeffs", "domain.seed_point", "domain.box")
                   if k in pairs]
    radius_keys = [k for k in ("R", "domain.radius") if k in pairs]
    for group_a, group_b in ((radius_keys, ellipsoid_keys),
                             (radius_keys, custom_keys),
                             (ellipsoid_keys, custom_keys)):
        if group_a and group_b:
            raise ConfigError(
                "conflicting domain keys: "
                f"{', '.join(group_a)} and {', '.join(group_b)}"
            )
    if len(radius_keys) == 2:
        raise ConfigError("conflicting domain keys: R and domain.radius")

    kind = pairs.get("domain.kind")
    if kind is None:
        kind = ("ellipsoid" if ellipsoid_keys
                else "custom" if custom_keys else "ball")
    if kind not in ("ball", "ellipsoid", "custom"):
        raise ConfigError(
            f"domain.kind: expected ball, ellipsoid, or custom; got {kind!r}"
        )
    declared = {"ball": ball_keys, "ellipsoid": ellipsoid_keys,
                "custom": custom_keys}
    for other, keys in declared.items():
        if other != kind and keys:
            raise ConfigError(
                f"domain.kind: {kind} conflicts with {other} keys: {', '.join(keys)}"
            )

    try:
        if kind == "ball":
            radius = _as_float(pairs, radius_keys[0]) if radius_keys else 1.0
            center = _as_floats(pairs, "domain.center") if "domain.center" in pairs else ()
            return Ball(n=n, radius=radius, center=center)
        if kind == "ellipsoid":
            if not ellipsoid_keys:
                raise ConfigError("domain.axes: required for an ellipsoid domain")
            axes = _as_floats(pairs, "domain.axes")
            if "n" in pairs and n != len(axes):
                raise ConfigError(
                    f"n: {len(axes)} semi-axes imply n={len(axes)}, got n={n}"
                )
            return Ellipsoid(axes=axes)
        missing = [k for k in ("domain.coeffs", "domain.seed_point", "domain.box")
                   if k not in pairs]
        if missing:
            raise ConfigError(
                f"custom domain needs {', '.join(missing)}"
            )
        coeffs = _parse_coeffs(pairs["domain.coeffs"])
        seed_point = _as_floats(pairs, "domain.seed_point")
        box = _parse_box(pairs["domain.box"])
        return CustomRho(n=n, coeffs=coeffs, seed_point=seed_point, box=box)
    except ValueError as exc:
        raise ConfigError(f"domain: {exc}") from exc


def _parse_coeffs(text):
    """Polynomial terms 'e1,...,e2n: coeff' separated by ';'."""
    coeffs = {}
    for term in text.split(";"):
        term = term.strip()
        if not term:
            continue
        if ":" not in term:
            raise ConfigError(
                f"domain.coeffs: expected 'exponents: coefficient', got {term!r}"
            )
        expo_text, coeff_text = term.split(":", 1)
        try:
            expo = tuple(int(e) for e in expo_text.split(","))
            coeffs[expo] = float(coeff_text)
        except ValueError:
            raise ConfigError(f"domain.coeffs: malformed term {term!r}") from None
    if not coeffs:
        raise ConfigError("domain.coeffs: no terms given")
    return coeffs


def _parse_box(text):
    box = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ConfigError(f"domain.box: expected 'lo,hi' pairs, got {part!r}")
        try:
            box.append((float(pieces[0]), float(pieces[1])))
        except ValueError:
            raise ConfigError(f"domain.box: malformed pair {part!r}") from None
    if not box:
        raise ConfigError("domain.box: no intervals given")
    return tuple(box)


def _parse_density(pairs, n):
    kind = pairs.get("density.kind")
    bump_keys = [k for k in ("density.center", "density.amplitude", "density.width")
                 if k in pairs]
    if kind is None:
        kind = "bump" if bump_keys else "constant"
    if kind == "constant":
        if bump_keys:
            raise ConfigError(
                f"density.kind: constant conflicts with {', '.join(bump_keys)}"
            )
        value = _as_float(pairs, "density.value") if "density.value" in pairs else 1.0
        try:
            return Constant(value=value)
        except ValueError as exc:
            raise ConfigError(f"density.value: {exc}") from exc
    if kind == "bump":
        if "density.value" in pairs:
            raise ConfigError("density.value: only meaningful for the constant density")
        missing = [k for k in ("density.center", "density.amplitude", "density.width")
                   if k not in pairs]
        if missing:
            raise ConfigError(f"bump density needs {', '.join(missing)}")
        center = _as_floats(pairs, "density.center")
        if len(center) != 2 * n:
            raise ConfigError(
                f"density.center: expected {2 * n} real coordinates, got {len(center)}"
            )
        try:
            return GaussianBump(
                center=center,
                amplitude=_as_float(pairs, "density.amplitude"),
                width=_as_float(pairs, "density.width"),
            )
        except ValueError as exc:
            raise ConfigError(f"density: {exc}") from exc
    raise ConfigError(f"density.kind: expected constant or bump; got {kind!r}")


def build_config(pairs):
    """Validated RunConfig from a flat key -> string mapping."""
    pairs = dict(pairs)
    unknown = sorted(set(pairs) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    if "command" not in pairs:
        raise ConfigError("command: required (one of " + ", ".join(COMMANDS) + ")")

    n = _as_int(pairs, "n") if "n" in pairs else 1
    domain = _parse_domain(pairs, n)
    n = domain.n
    density = _parse_density(pairs, n)

    emit = frozenset(EMIT_TARGETS)
    if "emit" in pairs:
        emit = frozenset(part.strip() for part in pairs["emit"].split(",")
                         if part.strip())
    return RunConfig(
        command=pairs["command"],
        domain=domain,
        density=density,
        n=n,
        h=_as_float(pairs, "h") if "h" in pairs else None,
        tol=_as_float(pairs, "tol") if "tol" in pairs else 1e-8,
        max_iters=_as_int(pairs, "max_iters") if "max_iters" in pairs else None,
        seed=_as_int(pairs, "seed") if "seed" in pairs else 42,
        output_dir=pairs.get("out", "results"),
        emit=emit,
        filter=pairs.get("filter"),
    )


def _arg_parser():
    parser = argparse.ArgumentParser(
        prog="cmaeig",
        description="Complex Monge-Ampere Dirichlet / eigenvalue experiments.",
    )
    parser.add_argument("--config", metavar="PATH", help="flat key=value config file")
    parser.add_argument("--command", choices=COMMANDS)
    parser.add_argument("--n", type=int)
    parser.add_argument("--h", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", metavar="DIR")
    parser.add_argument("--filter", metavar="NAME",
                        help="restrict verify to one invariant")
    return parser


def parse_config(argv=None):
    """RunConfig from CLI flags, optionally layered over --config file values."""
    args = _arg_parser().parse_args(argv)
    pairs = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}") from exc
        pairs.update(_parse_kv_text(text))
    for key in ("command", "n", "h", "tol", "seed", "out", "filter"):
        value = getattr(args, key)
        if value is not None:
            pairs[key] = str(value)
    return build_config(pairs)


def _density_to_dict(density):
    if isinstance(density, Constant):
        return {"kind": "constant", "value": density.value}
    return {
        "kind": "bump",
        "center": list(density.center),
        "amplitude": density.amplitude,
        "width": density.width,
    }


def config_hash(config):
    """sha256 over the canonical JSON of everything that affects the numbers."""
    payload = {
        "command": config.command,
        "n": config.n,
        "h": config.h,
        "tol": config.tol,
        "max_iters": config.max_iters,
        "seed": config.seed,
        "domain": spec_to_dict(config.domain),
        "density": _density_to_dict(config.density),
        "filter": config.filter,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------


def _single_point_branch(u, report):
    return [BranchPoint(lam=0.0, sup_norm=u.sup_norm(), u=u, report=report,
                        outer_steps=max(report.iterations, 1))]


def _result_flags(result):
    """Sorted union of the EigenResult's flags and its branch points'
    SolveReport flags, comma-separated (empty when nothing substituted a
    default)."""
    flags = set(result.flags).union(*(p.report.flags for p in result.branch))
    return ",".join(sorted(flags))


def _run_solve(config):
    grid = build_grid(config.domain, config.h)
    fn = density_vector(config.density, grid, power=grid.n)
    u, report = solve_frozen(fn, grid, config.tol)
    return {
        "lambda1": None,
        "residuals": {"residual": report.final_residual},
        "diagnostics": {
            "iterations": report.iterations,
            "sup_norm": u.sup_norm(),
            "psh_margin": report.psh_margin,
            "eigenvalue_lower_bound": 1.0 / u.sup_norm(),
        },
        "field": u,
        "branch": _single_point_branch(u, report),
    }


def _run_continuation(config):
    grid = build_grid(config.domain, config.h)
    policy = (None if config.max_iters is None
              else SchedulePolicy(max_points=config.max_iters))
    result = continuation(f=config.density, grid=grid, tol=config.tol,
                          schedule_policy=policy)
    return {
        "lambda1": result.lambda1,
        "residuals": {
            "residual": result.residual,
            "residual_tol": result.residual_tol,
            "fit_residual": result.fit_residual,
        },
        "diagnostics": {
            "method": result.method,
            "branch_points": len(result.branch),
            "krylov_iterations": sum(p.report.krylov_iterations for p in result.branch),
            "factorizations": sum(p.report.factorizations for p in result.branch),
            "flags": _result_flags(result),
            "rayleigh_value": result.rayleigh_value,
        },
        "field": result.eigenfunction,
        "branch": result.branch,
    }


def _run_inverse_power(config):
    grid = build_grid(config.domain, config.h)
    kwargs = {} if config.max_iters is None else {"max_iters": config.max_iters}
    result = inverse_power(g=config.density, grid=grid, tol=config.tol, **kwargs)
    return {
        "lambda1": result.lambda1,
        "residuals": {
            "residual": result.residual,
            "residual_tol": result.residual_tol,
        },
        "diagnostics": {
            "method": result.method,
            "iterations": len(result.branch) - 1,
            "factorizations": sum(p.report.factorizations for p in result.branch),
            "flags": _result_flags(result),
            "rayleigh_value": result.rayleigh_value,
        },
        "field": result.eigenfunction,
        "branch": result.branch,
    }


def _run_radial(config):
    if not isinstance(config.domain, Ball):
        raise ConfigError("domain: the radial command needs a ball")
    if not isinstance(config.density, Constant):
        raise ConfigError(
            "density.kind: the radial command supports only the constant density"
        )
    spec = config.domain
    lam = radial_lambda1(spec.n, spec.radius, config.tol)
    _, profile = shoot(spec.n, spec.radius, lam)
    return {
        # constant density c rescales the eigenvalue by 1/c (same profile)
        "lambda1": lam / config.density.value,
        "residuals": {"terminal_value": abs(profile.phi[-1])},
        "diagnostics": {
            "radius": spec.radius,
            "lambda1_radius_sq": (lam / config.density.value) * spec.radius ** 2,
            "samples": len(profile.t),
        },
        "profile": profile,
    }


def _run_rayleigh(config):
    grid = build_grid(config.domain, config.h)
    fn = density_vector(config.density, grid, power=grid.n)
    u0, report = solve_frozen(fn, grid, config.tol)
    return {
        "lambda1": None,
        "residuals": {"residual": report.final_residual},
        "diagnostics": {
            "energy": energy(u0, grid),
            "mass": mass(u0, fn, grid),
            "rayleigh": rayleigh(u0, fn, grid),
            "rayleigh_root": rayleigh(u0, fn, grid) ** (1.0 / grid.n),
            "eigenvalue_lower_bound": 1.0 / u0.sup_norm(),
        },
        "field": u0,
        "branch": _single_point_branch(u0, report),
    }


def _run_verify(config):
    try:
        report = run_suite(seed=config.seed, tol=config.tol, only=config.filter)
    except KeyError as exc:
        raise ConfigError(f"filter: {exc.args[0]}") from exc
    failures = sum(1 for row in report.rows if not row.passed)
    lines = ["invariant,fixture,margin,result"]
    for row in report.rows:
        lines.append(",".join([
            row.invariant,
            row.fixture.replace(",", ";"),
            format(row.margin, ".17g"),
            "PASS" if row.passed else "FAIL",
        ]))
    return {
        "lambda1": None,
        "residuals": {},
        "diagnostics": {"rows": len(report.rows), "failures": failures},
        "table": report.table(),
        "table_csv": "\n".join(lines) + "\n",
        "ok": report.ok,
    }


_DISPATCH = {
    "solve": _run_solve,
    "eigen-continuation": _run_continuation,
    "eigen-inverse-power": _run_inverse_power,
    "radial": _run_radial,
    "rayleigh": _run_rayleigh,
    "verify": _run_verify,
}


def _emit_artifacts(config, record, outcome):
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    if "summary" in config.emit:
        atomic_write_text(os.path.join(out, "summary.txt"), record.to_text())
    if "csv" in config.emit:
        if "branch" in outcome:
            branch_to_csv(outcome["branch"], os.path.join(out, "branch.csv"))
        elif "profile" in outcome:
            profile_to_csv(outcome["profile"], os.path.join(out, "branch.csv"))
        elif "table_csv" in outcome:
            atomic_write_text(os.path.join(out, "branch.csv"), outcome["table_csv"])
        if outcome.get("field") is not None:
            field_to_csv(outcome["field"], os.path.join(out, "field.csv"))
    if "binary" in config.emit and outcome.get("field") is not None:
        write_field(outcome["field"], os.path.join(out, "field.bin"))


def run(config):
    """Execute a validated config; returns (exit_code, SummaryRecord).

    Artifacts land atomically under fixed names in config.output_dir.  Solver
    failures yield exit code 1 (with an error summary when requested); grid
    preconditions violated by the configured h surface as ConfigError.
    """
    start = time.perf_counter()
    try:
        outcome = _DISPATCH[config.command](config)
    except ConfigError:
        raise
    except (EmptyInterior, ResolutionTooCoarse) as exc:
        raise ConfigError(f"h: {exc}") from exc
    except CmaError as exc:
        record = SummaryRecord(
            command=config.command,
            config_hash=config_hash(config),
            lambda1=None,
            residuals={},
            wall_time=time.perf_counter() - start,
            diagnostics={"error": f"{type(exc).__name__}: {exc}"},
        )
        if "summary" in config.emit:
            os.makedirs(config.output_dir, exist_ok=True)
            atomic_write_text(os.path.join(config.output_dir, "summary.txt"),
                              record.to_text())
        return 1, record

    record = SummaryRecord(
        command=config.command,
        config_hash=config_hash(config),
        lambda1=outcome["lambda1"],
        residuals=outcome["residuals"],
        wall_time=time.perf_counter() - start,
        diagnostics=outcome["diagnostics"],
        table=outcome.get("table"),
    )
    _emit_artifacts(config, record, outcome)
    return (0 if outcome.get("ok", True) else 1), record


def main(argv=None):
    try:
        config = parse_config(argv)
        code, record = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(record.to_text())
    return code
