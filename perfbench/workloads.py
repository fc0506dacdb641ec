"""Seeded inputs, operations and output checks of the three benchmark workloads.

Inputs are plain tuples drawn from ``random.Random(seed)``, so the same seed
gives the same inputs in every interpreter.  ``prepare`` turns them into the
library objects an operation needs; that work belongs to set-up, not to the
timed operation.  ``check`` runs outside the timed span and returns a list of
problems (empty when the output is correct).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os
import random
import sys
from pathlib import Path

#: Proven slope threshold for unit coefficients (-sqrt(3)/2 to 12 digits).
ZSTAR = -0.866025403784

#: Thread caps applied before numpy loads: one thread of one process issues ops.
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Inputs drawn per run; a run that uses them all starts over from the first.
INPUT_COUNT = 512

#: Strang steps per orbit-sim op (n = 4001, dt = h/4, output every 3 steps).
ORBIT_STEPS = 1200
#: Rows of each vk-scan in a table-report op.  Sized so that neither the
#: spectrum nor the rest of the op takes less than a third of it: with 96 rows,
#: untraced per-command wall times on a 2-CPU x86-64 host split an op 0.55-0.58
#: spectrum to 0.42-0.45 vk-scan + profile + find-zstar for each coefficient
#: pair (64 rows gave 0.61-0.63 to 0.37-0.39).
SCAN_POINTS = 96
#: Unit-box frequencies probed by each table-report find-zstar.
ZSTAR_PROBES = 6
#: Focusing-focusing coefficient pairs of table-report (all on the quadrature path).
FF_PAIRS = ((2.0, 3.0), (3.0, 2.0), (1.0, 0.1))


class BootstrapError(RuntimeError):
    """The checkout does not hold the peakwave sources."""


def bootstrap(root: Path):
    """Cap BLAS threads, put ``root/src`` first on the path and import peakwave.

    Must run before anything imports numpy.  Refuses an installed peakwave
    that does not come from this checkout.
    """
    src = (root / "src").resolve()
    if not (src / "peakwave" / "__init__.py").is_file():
        raise BootstrapError(f"no peakwave sources under {src}")
    os.environ.update(BLAS_ENV)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import peakwave

    if Path(peakwave.__file__).resolve().parent != src / "peakwave":
        raise BootstrapError(f"imported peakwave from {peakwave.__file__}, not from {src}")
    return peakwave


# ---------------------------------------------------------------- input boxes

def _unit_box_point(rng: random.Random) -> tuple[float, float]:
    """(omega, Z) in the unit-coefficient box of acceptance criterion 6."""
    while True:
        z = rng.uniform(-1.8, 2.2)
        if abs(z) >= 0.2 and abs(z - ZSTAR) >= 0.05:
            break
    return -rng.uniform(_unit_floor(z), 8.0), z


def _unit_floor(z: float) -> float:
    return max(1.3 * z * z / 4.0 + 0.2, 1.2)


def _ar_window(z: float) -> tuple[float, float]:
    """-omega range of the (2, -1) box with 8 % margins at both ends."""
    width = 0.75 - z * z / 4.0
    return z * z / 4.0 + 0.08 * width, 0.75 - 0.08 * width


def _ar_box_point(rng: random.Random) -> tuple[float, float]:
    """(omega, Z) in the (2, -1) focusing-defocusing box of criterion 6."""
    z = rng.uniform(0.25, 1.15) * rng.choice((-1.0, 1.0))
    lo, hi = _ar_window(z)
    return -rng.uniform(lo, hi), z


def _blocks(rng: random.Random, cases, count: int) -> list:
    """`count` cases in seeded order, each run of len(cases) holding every case once.

    Every run of the benchmark then holds the cases in the same proportions,
    so medians differ between seeds only through the points drawn.
    """
    out = []
    while len(out) < count:
        block = list(cases)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def input_digest(inputs) -> str:
    return hashlib.sha256(json.dumps(inputs).encode()).hexdigest()


def set_up(w, seed: int) -> tuple[list, list]:
    """What ``setup_s`` times: import the workload's modules, draw and prepare its inputs."""
    for module in w.modules:
        importlib.import_module(f"peakwave.{module}")
    raw = w.make_inputs(seed)
    return raw, [w.prepare(r) for r in raw]


# ---------------------------------------------------------------- workloads

class VerdictSweep:
    """One op is stability.compare(p) at the default n = 2001 grid."""

    name = "verdict-sweep"
    why = ("the paper's central output: numeric vs proven verdicts, spent in spectral "
           "inertia counts and stability's repeated checks; never touches dynamics")
    modules = ("stability",)
    trace_window = 8

    def make_inputs(self, seed: int, count: int = INPUT_COUNT) -> list:
        rng = random.Random(seed)
        out = []
        for regime in _blocks(rng, ("unit", "ar"), count):
            if regime == "unit":
                omega, z = _unit_box_point(rng)
                out.append((1.0, 1.0, omega, z))
            else:
                omega, z = _ar_box_point(rng)
                out.append((2.0, -1.0, omega, z))
        return out

    def prepare(self, raw):
        from peakwave.profile import validate_params

        return validate_params(*raw)

    def op(self, p, ctx):
        from peakwave import stability

        return stability.compare(p)

    def check(self, p, result, ctx) -> list[str]:
        return [] if result is True else [f"compare returned {result!r}, expected True"]


class OrbitSim:
    """One op is dynamics.simulate for ORBIT_STEPS Strang steps at n = 4001."""

    name = "orbit-sim"
    why = ("the time-domain check of a verdict: fixed-length Strang runs where dynamics "
           "does the work and spectral's solvers and stability are never called")
    modules = ("dynamics",)
    trace_window = 6
    # Criterion 7's stable and unstable unit points and (2, -1, -0.5, +-1).
    points = (
        ((1.0, 1.0, -2.0, 1.0), True),
        ((1.0, 1.0, -2.0, -0.5), False),
        ((2.0, -1.0, -0.5, 1.0), True),
        ((2.0, -1.0, -0.5, -1.0), False),
    )
    bumps = ("none", "even", "odd")
    amplitude = 1e-2
    n_points = 4001

    def make_inputs(self, seed: int, count: int = INPUT_COUNT) -> list:
        rng = random.Random(seed)
        cases = [(params, stable, bump) for params, stable in self.points for bump in self.bumps]
        return [(*params, bump, stable) for params, stable, bump in _blocks(rng, cases, count)]

    def prepare(self, raw):
        from peakwave import dynamics
        from peakwave.profile import validate_params
        from peakwave.spectral import GridSpec

        *params, bump, stable = raw
        p = validate_params(*params)
        grid = GridSpec(30.0 / math.sqrt(-p.omega), self.n_points)
        dt = 0.25 * grid.spacing
        amplitude = 0.0 if bump == "none" else self.amplitude
        pert = dynamics.Perturbation(dynamics.PerturbationKind(bump), amplitude)
        return p, pert, ORBIT_STEPS * dt, dt, grid, bump, stable

    def op(self, prepared, ctx):
        from peakwave import dynamics

        p, pert, horizon, dt, grid, _, _ = prepared
        return dynamics.simulate(p, pert, horizon, dt, grid)

    def check(self, prepared, result, ctx) -> list[str]:
        import numpy as np

        _, _, horizon, dt, _, bump, stable = prepared
        problems = []
        if abs(result.final.time - horizon) > 0.5 * dt:
            problems.append(f"final time {result.final.time} is not {ORBIT_STEPS} steps ({horizon})")
        q0, e0 = result.rows[0].charge, result.rows[0].energy
        charge = max(abs(r.charge - q0) / q0 for r in result.rows)
        energy = max(abs(r.energy - e0) / abs(e0) for r in result.rows)
        ctx.setdefault("recorded", []).append({"bump": bump, "stable": stable, "energy_drift": energy})
        if not charge < 1e-10:
            problems.append(f"charge drift {charge:.3e} >= 1e-10")
        if bump != "odd":
            u = result.final.samples
            parity = float(np.max(np.abs(u - u[::-1])))
            if not parity < 1e-10:
                problems.append(f"parity drift {parity:.3e} >= 1e-10")
        if stable and not energy < 1e-5:
            problems.append(f"energy drift {energy:.3e} >= 1e-5 at a stable point")
        return problems


class TableReport:
    """One op is a point's report set written through cli.main into temp files.

    The set is a spectrum, a vk-scan over the point's frequency window, a
    profile table and a find-zstar over seeded unit-box probe frequencies.
    """

    name = "table-report"
    why = ("the reports users tabulate: spectrum eigenpairs by inverse iteration, vk-scan "
           "quadrature for general coefficients, a scalar profile table, find-zstar and CLI emission")
    modules = ("cli",)
    trace_window = 4

    def make_inputs(self, seed: int, count: int = INPUT_COUNT) -> list:
        rng = random.Random(seed)
        cases = [(pair, kind) for pair in range(len(FF_PAIRS) + 1) for kind in ("L1", "L2")]
        out = []
        for pair, kind in _blocks(rng, cases, count):
            if pair < len(FF_PAIRS):
                # A unit-box point mapped through the exact scaling
                # phi(x) = A psi(Bx), A^2 = l1/l2, B^2 = l1^2/l2: the image keeps
                # the Morse counts and the slope sign of its unit preimage.
                l1, l2 = FF_PAIRS[pair]
                omega_u, z_u = _unit_box_point(rng)
                w_scale, z_scale = l1 * l1 / l2, l1 / math.sqrt(l2)
                omega, z = omega_u * w_scale, z_u * z_scale
                lo, hi = _unit_floor(z_u) * w_scale, 8.0 * w_scale
            else:
                l1, l2 = 2.0, -1.0
                omega, z = _ar_box_point(rng)
                lo, hi = _ar_window(z)
            probes = tuple(sorted(-rng.uniform(1.2, 8.0) for _ in range(ZSTAR_PROBES)))
            out.append((l1, l2, omega, z, kind, -hi, -lo, probes))
        return out

    def prepare(self, raw):
        from peakwave.profile import validate_params

        l1, l2, omega, z, kind, w_min, w_max, probes = raw
        return validate_params(l1, l2, omega, z), kind, w_min, w_max, probes

    def argvs(self, prepared, outdir: str) -> dict[str, list[str]]:
        p, kind, w_min, w_max, probes = prepared
        wave = ["--l1", repr(p.lambda1), "--l2", repr(p.lambda2),
                "--omega", repr(p.omega), "--z", repr(p.z)]
        return {
            "spectrum": ["spectrum", *wave, "--kind", kind, "--n", "4001", "--k", "3",
                         "--out", os.path.join(outdir, "spectrum.csv")],
            "vk-scan": ["vk-scan", "--l1", repr(p.lambda1), "--l2", repr(p.lambda2),
                        "--omega-min", repr(w_min), "--omega-max", repr(w_max),
                        "--omega-points", str(SCAN_POINTS), "--z-min", repr(p.z),
                        "--out", os.path.join(outdir, "vk-scan.csv")],
            "profile": ["profile", *wave, "--out", os.path.join(outdir, "profile.csv")],
            "find-zstar": ["find-zstar", "--probes", *map(repr, probes),
                           "--out", os.path.join(outdir, "find-zstar.csv")],
        }

    def op(self, prepared, ctx):
        from peakwave import cli

        # find-zstar also prints its value; that line is part of the op's output.
        with contextlib.redirect_stdout(io.StringIO()):
            return {cmd: cli.main(argv) for cmd, argv in self.argvs(prepared, ctx["outdir"]).items()}

    def check(self, prepared, codes, ctx) -> list[str]:
        import numpy as np
        from peakwave import spectral, vk
        from peakwave.profile import ProfileEvaluator, Regime, Side
        from peakwave.spectral import OperatorKind

        p, kind, w_min, w_max, probes = prepared
        problems = [f"{cmd} exited {rc}" for cmd, rc in codes.items() if rc != 0]
        if problems:
            return problems
        outdir = ctx["outdir"]

        # The spectrum is checked by Sturm certificates from the library's own
        # inertia count rather than by recomputing it, which would cost as
        # much as the op: each listed eigenvalue must be the index-th one.
        header, rows = _read_report(os.path.join(outdir, "spectrum.csv"))
        grid = spectral.default_grid(p, 4001)
        op = spectral.discretize_operator(OperatorKind(kind), p, grid)
        shift = spectral.zero_exclusion_shift(grid, p)
        expected = {"n_points": grid.n_points, "half_width": grid.half_width, "spacing": grid.spacing,
                    "essential_edge": -p.omega, "zero_exclusion_shift": shift}
        if any(header[key] != value for key, value in expected.items()):
            problems.append("spectrum header differs from the library's grid values")
        morse = 0 if kind == "L2" else (1 if p.z > 0.0 else 2)
        if header["negative_count"] != morse or spectral.inertia_below(op, -shift) != morse:
            problems.append(f"{kind} negative count {header['negative_count']}, proven {morse}")
        if len(rows) != min(3, spectral.inertia_below(op, -p.omega)):
            problems.append(f"{len(rows)} eigenvalues listed below the essential edge")
        tol = 1e-8 * max(1.0, -p.omega)
        for index, text in rows:
            lam = float(text)
            if format(lam, ".17g") != text:
                problems.append(f"eigenvalue {text} does not round-trip")
            elif not (spectral.inertia_below(op, lam - tol) <= int(index)
                      < spectral.inertia_below(op, lam + tol)):
                problems.append(f"eigenvalue {index} = {text} is not within {tol} of the spectrum")

        _, rows = _read_report(os.path.join(outdir, "vk-scan.csv"))
        step = (w_max - w_min) / (SCAN_POINTS - 1)
        omegas = [w_min + i * step for i in range(SCAN_POINTS)]
        lib = vk.scan(p.lambda1, p.lambda2, omegas, [p.z])
        parsed = [(float(w), float(z), float(n), float(d), int(k)) for w, z, n, d, k in rows]
        if parsed != [(r.omega, r.z, r.norm_sq, r.dnorm_domega, r.p_index) for r in lib]:
            problems.append("vk-scan rows differ from vk.scan")
        if p.regime is Regime.ATTRACTIVE_REPULSIVE:
            proven = 1
        else:
            proven = int(p.z * math.sqrt(p.lambda2) / p.lambda1 > ZSTAR)
        wrong = [w for w, _, _, _, k in parsed if k != proven]
        if wrong:
            problems.append(f"p_index != {proven} at omega {wrong[:3]}")

        header, rows = _read_report(os.path.join(outdir, "profile.csv"))
        n = header["n"]
        h = 2.0 * header["xmax"] / (n - 1)
        x = h * (np.arange(n) - (n - 1) // 2)
        ev = ProfileEvaluator.from_params(p)
        table = np.array([[float(v) for v in row] for row in rows])
        if table.shape != (n, 3) or not (
            np.array_equal(table[:, 0], x)
            and np.array_equal(table[:, 1], ev.value(x))
            and np.array_equal(table[:, 2], ev.derivative(x, Side.RIGHT))
        ):
            problems.append("profile rows differ from ProfileEvaluator")

        _, rows = _read_report(os.path.join(outdir, "find-zstar.csv"))
        zstar = float(rows[0][0])
        if zstar != vk.find_zstar(probes):
            problems.append(f"find-zstar wrote {zstar!r}, vk.find_zstar gives {vk.find_zstar(probes)!r}")
        if not abs(zstar - ZSTAR) < 1e-6:
            problems.append(f"find-zstar {zstar!r} is not within 1e-6 of {ZSTAR}")
        return problems


def _read_report(path: str) -> tuple[dict, list[list[str]]]:
    with open(path, newline="") as handle:
        header = json.loads(handle.readline()[2:])
        rows = list(csv.reader(handle))
    return header, rows[1:]


WORKLOADS = {w.name: w for w in (VerdictSweep(), OrbitSim(), TableReport())}
