"""Command-line front end with deterministic CSV/JSON report emission.

Every report starts with a JSON header holding `command`, whichever of the
coefficient and wave flags the command takes (`lambda1`, `lambda2`, `omega`,
`z`) and the command's own parameters and numerical defaults, so a saved file
is self-describing and reruns are byte-identical.  Choice flags take the
values of the library enums they select (`OperatorKind`, `Space` for both
`--sector` and `--space`, `PerturbationKind`).  Floats are written with 17
significant digits (lossless for binary64 round-trips).  `--out` is written
as `open(path, "w")` writes it, with the mode it gives a new file under the
current umask, through a link to the file it names and through a FIFO or
device; a regular file is written to a temporary path and renamed, so no
command leaves a partial file behind.

`--format json` on `classify` and `find-zstar` needs `--out`, without which
they print a one-line summary.  Exit codes: 0 success, 2 parameter/usage
error (a point within rounding of an edge of the window, a bad
`simulate --dt`, `find-zstar --bracket` or `vk-scan` bound, a `--n` below 2
or above `MAX_GRID_POINTS`, a `simulate --amplitude` other than 0 with
`--perturbation none` or with a bump of zero discrete H^1 norm, a `simulate`
of no step or more than `dynamics.MAX_STEPS`, a `vk-scan` of more than
`MAX_SCAN_ROWS` rows, an empty `--out`), 3 numerical error (grid errors
included), 4 I/O error (an `--out` naming a directory or ending in a
separator, or in a missing directory).
A header holding NaN or Infinity is not written.
"""

from __future__ import annotations

import argparse
import enum
import errno
import json
import math
import os
import stat
import sys
from dataclasses import dataclass

from . import dynamics, spectral, stability, vk
from .errors import DomainError, GridError, PeakwaveError, RegimeError
from .profile import ProfileEvaluator, validate_params
from .spectral import GridSpec, OperatorKind, Space

__all__ = ["main", "RunConfig", "emit_report"]


@dataclass
class RunConfig:
    header: dict
    columns: list[str]
    output_path: str | None
    fmt: str


def _format_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def emit_report(rows, cfg: RunConfig) -> None:
    """Write rows deterministically as CSV or JSON (stdout when no path).

    A path is written as `open(path, "w")` would write it, but no partial
    regular file is left: a link is followed to the file it names, which is
    written as a temporary file beside it and renamed over it; a FIFO or
    device is written through.  An OSError of a directory names `--out`."""
    header_json = json.dumps(cfg.header, sort_keys=True, allow_nan=False)
    if cfg.fmt == "json":
        payload = {
            "header": cfg.header,
            "columns": cfg.columns,
            "rows": [[_format_value(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"
    else:
        lines = ["# " + header_json, ",".join(cfg.columns)]
        lines.extend(",".join(_format_value(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    path = cfg.output_path
    if path is None:
        sys.stdout.write(text)
        return
    if not os.path.basename(path):
        raise IsADirectoryError(errno.EISDIR, "--out names a directory", path)
    try:
        mode = os.stat(path).st_mode
    except (FileNotFoundError, NotADirectoryError):
        mode = stat.S_IFREG  # made by the rename below
    if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        with open(path, "w", newline="\n") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)
    directory = os.path.dirname(target)
    tmp_path = os.path.join(directory, f".peakwave-{os.urandom(8).hex()}.tmp")
    try:
        # 0o666 cut by the umask, the mode a plain open() gives a new file.
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise type(exc)(exc.errno, "the directory of --out does not exist", directory) from None
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        try:
            os.replace(tmp_path, target)
        except IsADirectoryError as exc:
            raise IsADirectoryError(exc.errno, "--out names a directory", path) from None
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


#: Header key of each coefficient and wave flag, echoed by every command that takes it.
_WAVE_KEYS = {"l1": "lambda1", "l2": "lambda2", "omega": "omega", "z": "z"}


def _report(args, columns: list[str], rows, **fields) -> None:
    """Emit `rows` under a header of the command, its wave flags and `fields`."""
    header = {"command": args.command}
    header.update({key: getattr(args, flag) for flag, key in _WAVE_KEYS.items() if hasattr(args, flag)})
    header.update(fields)
    emit_report(rows, RunConfig(header, columns, args.out, args.format))


def _add_wave_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--l1", type=float, required=True, help="cubic coefficient lambda1")
    parser.add_argument("--l2", type=float, required=True, help="quintic coefficient lambda2")
    parser.add_argument("--omega", type=float, required=True, help="frequency omega < 0")
    parser.add_argument("--z", type=float, required=True, help="defect strength Z")


def _add_choice(parser: argparse.ArgumentParser, flag: str, default: enum.Enum) -> None:
    """A flag whose choices are the values of `default`'s enum, in declaration order."""
    parser.add_argument(flag, choices=[m.value for m in type(default)], default=default.value)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=str, default=None, help="output file (stdout when omitted)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


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
    _add_choice(p_spec, "--kind", OperatorKind.L1)
    _add_choice(p_spec, "--sector", Space.FULL_H1)
    p_spec.add_argument("--n", type=int, default=spectral.DEFAULT_GRID_POINTS)
    p_spec.add_argument("--k", type=int, default=3, help="number of lowest eigenvalues to list")
    _add_output_flags(p_spec)

    p_cls = sub.add_parser("classify", help="stability verdict, numeric and analytic")
    _add_wave_flags(p_cls)
    _add_choice(p_cls, "--space", Space.FULL_H1)
    p_cls.add_argument("--n", type=int, default=stability.NUMERIC_GRID_POINTS)
    _add_output_flags(p_cls)

    p_z = sub.add_parser("find-zstar", help="locate the slope-sign threshold Z*")
    p_z.add_argument("--bracket", type=float, nargs=2, default=vk.DEFAULT_BRACKET, metavar=("LO", "HI"))
    p_z.add_argument("--probes", type=float, nargs="+", default=list(vk.DEFAULT_PROBE_GRID))
    _add_output_flags(p_z)

    p_sim = sub.add_parser("simulate", help="time-domain run with conserved-quantity series")
    _add_wave_flags(p_sim)
    _add_choice(p_sim, "--perturbation", dynamics.PerturbationKind.NONE)
    p_sim.add_argument("--amplitude", type=float, default=0.0)
    p_sim.add_argument("--horizon", type=float, default=10.0)
    p_sim.add_argument("--dt", type=float, default=None)
    p_sim.add_argument("--n", type=int, default=spectral.DEFAULT_GRID_POINTS)
    _add_output_flags(p_sim)
    return parser


def _cmd_profile(args) -> int:
    p = validate_params(args.l1, args.l2, args.omega, args.z)
    n = _odd(args.n)
    if not (math.isfinite(args.xmax) and args.xmax > 0.0):
        raise DomainError(f"--xmax must be finite and positive, got {args.xmax}")
    try:
        x = GridSpec(args.xmax, n).nodes()
    except GridError as exc:
        raise DomainError(f"--xmax {args.xmax} is too large: {exc}") from None
    ev = ProfileEvaluator.from_params(p)
    rows = list(zip(x.tolist(), ev.value(x).tolist(), ev.derivative(x).tolist()))
    _report(args, ["x", "phi", "dphi"], rows,
            regime=p.regime.value, shift_b=ev.shift_b, xmax=args.xmax, n=n)
    return 0


#: Most rows one vk-scan may tabulate (--omega-points times --z-points).
MAX_SCAN_ROWS = 10**6


def _cmd_vk_scan(args) -> int:
    if args.omega_points * args.z_points > MAX_SCAN_ROWS:
        raise DomainError(f"--omega-points {args.omega_points} times --z-points {args.z_points} "
                          f"exceeds the cap of {MAX_SCAN_ROWS} rows")
    omegas = _linspace("omega", args.omega_min, args.omega_max, args.omega_points)
    z_max = args.z_min if args.z_max is None else args.z_max
    zs = _linspace("z", args.z_min, z_max, args.z_points)
    rows = [
        (r.omega, r.z, r.norm_sq, r.dnorm_domega, r.p_index)
        for r in vk.scan(args.l1, args.l2, omegas, zs)
    ]
    _report(args, ["omega", "z", "norm_sq", "dnorm_domega", "p_index"], rows,
            omega_min=args.omega_min, omega_max=args.omega_max, omega_points=args.omega_points,
            z_min=args.z_min, z_max=z_max, z_points=args.z_points)
    return 0


def _cmd_spectrum(args) -> int:
    p = validate_params(args.l1, args.l2, args.omega, args.z)
    grid = spectral.default_grid(p, _odd(args.n))
    report = spectral.spectrum_report(OperatorKind(args.kind), p, grid, k=args.k,
                                      sector=Space(args.sector))
    rows = list(enumerate(report.eigenvalues))
    _report(args, ["index", "eigenvalue"], rows,
            kind=args.kind, sector=args.sector,
            half_width=grid.half_width, n_points=report.n_points, spacing=grid.spacing,
            negative_count=report.negative_count, kernel_residual=report.kernel_residual,
            essential_edge=report.essential_edge,
            zero_exclusion_shift=spectral.zero_exclusion_shift(grid, p))
    return 0


def _cmd_classify(args) -> int:
    p = validate_params(args.l1, args.l2, args.omega, args.z)
    space = Space(args.space)
    grid = spectral.default_grid(p, _odd(args.n))
    numeric = stability.classify_numeric(p, grid)[space]
    analytic = stability.classify_analytic(p)[space]
    agreement = "numeric=analytic" if numeric.outcome is analytic.outcome else "numeric!=analytic"
    print(f"{numeric.outcome.value} ({agreement})")
    if args.out is not None:
        rows = [(v.provenance.value, v.n_hessian, v.p_index, v.outcome.value, v.note)
                for v in (numeric, analytic)]
        _report(args, ["provenance", "n_hessian", "p_index", "outcome", "note"], rows,
                space=args.space, grid_n=grid.n_points, half_width=grid.half_width)
    return 0


def _cmd_find_zstar(args) -> int:
    lo, hi = args.bracket
    zstar = vk.find_zstar(tuple(args.probes), lo, hi)
    print(f"Z* = {zstar:.9f}")
    if args.out is not None:
        _report(args, ["zstar"], [(zstar,)],
                bracket_lo=lo, bracket_hi=hi, probes=list(args.probes), bisection_width=vk.BISECTION_WIDTH)
    return 0


def _cmd_simulate(args) -> int:
    p = validate_params(args.l1, args.l2, args.omega, args.z)
    grid = spectral.default_grid(p, _odd(args.n))
    dt = args.dt if args.dt is not None else dynamics.DEFAULT_STEP_PER_SPACING * grid.spacing
    perturbation = dynamics.Perturbation(dynamics.PerturbationKind(args.perturbation), args.amplitude)
    result = dynamics.simulate(p, perturbation, args.horizon, dt, grid)
    rows = [(r.time, r.energy, r.charge, r.orbital_distance) for r in result.rows]
    _report(args, ["time", "energy", "charge", "orbital_distance"], rows,
            perturbation=args.perturbation, amplitude=args.amplitude, horizon=args.horizon, dt=dt,
            grid_n=grid.n_points, half_width=grid.half_width, spacing=grid.spacing)
    return 0


#: Most grid nodes one command may build (--n, after rounding up to odd).
MAX_GRID_POINTS = 10**6


def _odd(n: int) -> int:
    """Node count rounded up to odd, so a full-line grid has a node at x = 0;
    DomainError below 2 or above MAX_GRID_POINTS, before any grid is built."""
    if n < 2:
        raise DomainError(f"--n must be >= 2, got {n}")
    odd = n if n % 2 == 1 else n + 1
    if odd > MAX_GRID_POINTS:
        raise DomainError(f"--n {n} exceeds the cap of {MAX_GRID_POINTS} grid points")
    return odd


def _linspace(name: str, lo: float, hi: float, count: int) -> list[float]:
    """`count` evenly spaced values of the --{name}-min/max/points flags."""
    if count < 1:
        raise DomainError(f"--{name}-points must be >= 1, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"--{name}-min and --{name}-max must be finite, got {lo} and {hi}")
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


def _check_output_flags(args) -> None:
    """Reject output flags that would otherwise be dropped without a word."""
    if args.out == "":
        raise DomainError("--out must name a file, got ''")
    if args.out is None and args.format == "json" and args.command in ("classify", "find-zstar"):
        raise DomainError(f"{args.command} writes its report only to --out; --format json needs --out")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_flags(args)
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
