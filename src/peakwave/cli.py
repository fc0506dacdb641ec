"""Command-line front end with deterministic CSV/JSON report emission.

Every report starts with a JSON header recording the command, parameters, and
numerical defaults, so a saved file is self-describing and reruns are
byte-identical.  Floats are written with 17 significant digits (lossless for
binary64 round-trips).  Files are written to a temporary path and renamed, so
no command leaves a partial file behind.

Exit codes: 0 success, 2 parameter/usage error, 3 numerical error, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import dynamics, spectral, stability, vk
from .errors import DomainError, PeakwaveError, RegimeError
from .profile import ProfileEvaluator, Side, validate_params
from .spectral import OperatorKind, Sector

__all__ = ["main", "RunConfig", "emit_report"]


@dataclass
class RunConfig:
    header: dict
    columns: list[str]
    output_path: str | None
    fmt: str


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def emit_report(rows, cfg: RunConfig) -> None:
    """Write rows deterministically as CSV or JSON (stdout when no path)."""
    header_json = json.dumps(cfg.header, sort_keys=True)
    if cfg.fmt == "json":
        payload = {
            "header": cfg.header,
            "columns": cfg.columns,
            "rows": [[_format_value(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    else:
        lines = ["# " + header_json, ",".join(cfg.columns)]
        lines.extend(",".join(_format_value(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if cfg.output_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(cfg.output_path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".peakwave-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, cfg.output_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _add_wave_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--l1", type=float, required=True, help="cubic coefficient lambda1")
    parser.add_argument("--l2", type=float, required=True, help="quintic coefficient lambda2")
    parser.add_argument("--omega", type=float, required=True, help="frequency omega < 0")
    parser.add_argument("--z", type=float, required=True, help="defect strength Z")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=str, default=None, help="output file (stdout when omitted)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    parser.add_argument("--outdir", type=str, default=None, help="directory for relative output paths")


def _resolve_out(args) -> str | None:
    if args.out is None:
        return None
    if args.outdir is not None and not os.path.isabs(args.out):
        return os.path.join(args.outdir, args.out)
    return args.out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peakwave",
        description="Peak standing waves of the cubic-quintic defect NLS: "
                    "profiles, stability indices, threshold search, and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_profile = sub.add_parser("profile", help="tabulate the wave profile and its derivative")
    _add_wave_flags(p_profile)
    p_profile.add_argument("--xmax", type=float, default=10.0)
    p_profile.add_argument("--n", type=int, default=2001)
    _add_output_flags(p_profile)

    p_scan = sub.add_parser("vk-scan", help="charge and slope index over an (omega, Z) grid")
    p_scan.add_argument("--l1", type=float, default=1.0)
    p_scan.add_argument("--l2", type=float, default=1.0)
    p_scan.add_argument("--omega-min", type=float, required=True)
    p_scan.add_argument("--omega-max", type=float, required=True)
    p_scan.add_argument("--omega-points", type=int, default=50)
    p_scan.add_argument("--z-min", type=float, required=True)
    p_scan.add_argument("--z-max", type=float, default=None)
    p_scan.add_argument("--z-points", type=int, default=1)
    _add_output_flags(p_scan)

    p_spec = sub.add_parser("spectrum", help="discrete spectrum of a linearized operator")
    _add_wave_flags(p_spec)
    p_spec.add_argument("--kind", choices=("L1", "L2", "free"), default="L1")
    p_spec.add_argument("--sector", choices=("full", "even"), default="full")
    p_spec.add_argument("--n", type=int, default=4001)
    p_spec.add_argument("--k", type=int, default=3, help="number of eigenpairs to extract")
    _add_output_flags(p_spec)

    p_cls = sub.add_parser("classify", help="stability verdict, numeric and analytic")
    _add_wave_flags(p_cls)
    p_cls.add_argument("--space", choices=("full", "even"), default="full")
    p_cls.add_argument("--n", type=int, default=2001)
    _add_output_flags(p_cls)

    p_z = sub.add_parser("find-zstar", help="locate the slope-sign threshold Z*")
    p_z.add_argument("--bracket", type=float, nargs=2, default=(-0.95, -0.75),
                     metavar=("LO", "HI"))
    p_z.add_argument("--probes", type=float, nargs="+", default=list(vk.DEFAULT_PROBE_GRID))
    _add_output_flags(p_z)

    p_sim = sub.add_parser("simulate", help="time-domain run with conserved-quantity series")
    _add_wave_flags(p_sim)
    p_sim.add_argument("--perturbation", choices=("none", "even", "odd"), default="none")
    p_sim.add_argument("--amplitude", type=float, default=0.0)
    p_sim.add_argument("--horizon", type=float, default=10.0)
    p_sim.add_argument("--dt", type=float, default=None)
    p_sim.add_argument("--n", type=int, default=4001)
    _add_output_flags(p_sim)
    return parser


def _cmd_profile(args) -> int:
    p = validate_params(args.l1, args.l2, args.omega, args.z)
    if args.n < 2:
        raise DomainError(f"--n must be >= 2, got {args.n}")
    if not (math.isfinite(args.xmax) and args.xmax > 0.0):
        raise DomainError(f"--xmax must be finite and positive, got {args.xmax}")
    ev = ProfileEvaluator.from_params(p)
    n = _odd(args.n)
    h = 2.0 * args.xmax / (n - 1)
    x = h * (np.arange(n) - (n - 1) // 2)
    rows = list(zip(x.tolist(), ev.value(x).tolist(), ev.derivative(x, Side.RIGHT).tolist()))
    cfg = RunConfig(
        {
            "command": "profile",
            "lambda1": args.l1, "lambda2": args.l2, "omega": args.omega, "z": args.z,
            "regime": p.regime.value, "shift_b": ev.shift_b,
            "xmax": args.xmax, "n": n,
        },
        ["x", "phi", "dphi"],
        _resolve_out(args), args.format,
    )
    emit_report(rows, cfg)
    return 0


def _cmd_vk_scan(args) -> int:
    omegas = _linspace(args.omega_min, args.omega_max, args.omega_points)
    z_max = args.z_min if args.z_max is None else args.z_max
    zs = _linspace(args.z_min, z_max, args.z_points)
    rows = [
        (r.omega, r.z, r.norm_sq, r.dnorm_domega, r.p_index)
        for r in vk.scan(args.l1, args.l2, omegas, zs)
    ]
    cfg = RunConfig(
        {
            "command": "vk-scan", "lambda1": args.l1, "lambda2": args.l2,
            "omega_min": args.omega_min, "omega_max": args.omega_max,
            "omega_points": args.omega_points,
            "z_min": args.z_min, "z_max": z_max, "z_points": args.z_points,
        },
        ["omega", "z", "norm_sq", "dnorm_domega", "p_index"],
        _resolve_out(args), args.format,
    )
    emit_report(rows, cfg)
    return 0


def _cmd_spectrum(args) -> int:
    p = validate_params(args.l1, args.l2, args.omega, args.z)
    kind = {"L1": OperatorKind.L1, "L2": OperatorKind.L2, "free": OperatorKind.FREE_WITH_DELTA}[args.kind]
    sector = Sector.FULL_LINE if args.sector == "full" else Sector.EVEN_SECTOR
    grid = spectral.default_grid(p, _odd(args.n))
    if sector is Sector.EVEN_SECTOR:
        grid = grid.even_half()
    report = spectral.spectrum_report(kind, p, grid, k=args.k)
    rows = [(i, lam) for i, (lam, _) in enumerate(report.lowest_pairs)]
    cfg = RunConfig(
        {
            "command": "spectrum", "kind": args.kind, "sector": args.sector,
            "lambda1": args.l1, "lambda2": args.l2, "omega": args.omega, "z": args.z,
            "half_width": grid.half_width, "n_points": grid.n_points,
            "spacing": grid.spacing,
            "negative_count": report.negative_count,
            "kernel_residual": report.kernel_residual,
            "essential_edge": report.essential_edge,
            "zero_exclusion_shift": spectral.zero_exclusion_shift(grid, p),
        },
        ["index", "eigenvalue"],
        _resolve_out(args), args.format,
    )
    emit_report(rows, cfg)
    return 0


def _cmd_classify(args) -> int:
    p = validate_params(args.l1, args.l2, args.omega, args.z)
    space = stability.Space.FULL_H1 if args.space == "full" else stability.Space.EVEN_H1
    grid = spectral.default_grid(p, _odd(args.n))
    numeric = stability.classify_numeric(p, space, grid)
    analytic = stability.classify_analytic(p, space)
    agreement = "numeric=analytic" if numeric.outcome is analytic.outcome else "numeric!=analytic"
    print(f"{numeric.outcome.value} ({agreement})")
    rows = [
        ("numeric", numeric.n_hessian, numeric.p_index, numeric.outcome.value, numeric.note),
        ("analytic", analytic.n_hessian, analytic.p_index, analytic.outcome.value, analytic.note),
    ]
    if args.out is not None:
        cfg = RunConfig(
            {
                "command": "classify", "space": args.space,
                "lambda1": args.l1, "lambda2": args.l2, "omega": args.omega, "z": args.z,
                "grid_n": grid.n_points, "half_width": grid.half_width,
            },
            ["provenance", "n_hessian", "p_index", "outcome", "note"],
            _resolve_out(args), args.format,
        )
        emit_report(rows, cfg)
    return 0


def _cmd_find_zstar(args) -> int:
    lo, hi = args.bracket
    zstar = vk.find_zstar(tuple(args.probes), lo, hi)
    print(f"Z* = {zstar:.9f}")
    if args.out is not None:
        cfg = RunConfig(
            {
                "command": "find-zstar", "bracket_lo": lo, "bracket_hi": hi,
                "probes": list(args.probes), "bisection_width": 1e-7,
            },
            ["zstar"],
            _resolve_out(args), args.format,
        )
        emit_report([(zstar,)], cfg)
    return 0


def _cmd_simulate(args) -> int:
    p = validate_params(args.l1, args.l2, args.omega, args.z)
    kind = {
        "none": dynamics.PerturbationKind.NONE,
        "even": dynamics.PerturbationKind.EVEN_BUMP,
        "odd": dynamics.PerturbationKind.ODD_BUMP,
    }[args.perturbation]
    grid = spectral.default_grid(p, _odd(args.n))
    dt = args.dt if args.dt is not None else 0.25 * grid.spacing
    result = dynamics.simulate(
        p, dynamics.Perturbation(kind, args.amplitude), args.horizon, dt, grid
    )
    rows = [(r.time, r.energy, r.charge, r.orbital_distance) for r in result.rows]
    cfg = RunConfig(
        {
            "command": "simulate", "perturbation": args.perturbation,
            "amplitude": args.amplitude, "horizon": args.horizon, "dt": dt,
            "lambda1": args.l1, "lambda2": args.l2, "omega": args.omega, "z": args.z,
            "grid_n": grid.n_points, "half_width": grid.half_width, "spacing": grid.spacing,
        },
        ["time", "energy", "charge", "orbital_distance"],
        _resolve_out(args), args.format,
    )
    emit_report(rows, cfg)
    return 0


def _odd(n: int) -> int:
    """Node count rounded up to odd, so a full-line grid has a node at x = 0."""
    return n if n % 2 == 1 else n + 1


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    if count < 1:
        raise DomainError(f"point count must be >= 1, got {count}")
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


_COMMANDS = {
    "profile": _cmd_profile,
    "vk-scan": _cmd_vk_scan,
    "spectrum": _cmd_spectrum,
    "classify": _cmd_classify,
    "find-zstar": _cmd_find_zstar,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RegimeError, DomainError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except PeakwaveError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
