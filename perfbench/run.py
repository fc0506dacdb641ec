"""Benchmark of peakwave's three user workloads.

    python3 perfbench/run.py --workload verdict-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload is a closed loop: one thread of one process issues one op at a
time and the next op starts when the previous one returns.  Inputs come from
``--seed`` only.  Every op's output is checked outside its timed span; an op
that raises or fails its check is counted as failed and listed with its input.

Every op and every set-up probe is timed in wall seconds and bracketed by two
samples of a fixed reference work (``hostspeed``); the reported times are
scaled to reference host speed, which removes the drift of a shared host's
speed from them.  The raw wall times are printed and recorded too.

``--trace 0`` reports the end-to-end metrics with no wrappers installed.
``--trace 1`` first runs ops untraced for half of ``--seconds``, then replays
the same ops with every public function of the six library modules wrapped,
and reports the per-layer metrics: call counts over the first
``trace_window`` ops (exact for a given seed and code), self time per op,
layer counters, and the tracing overhead as traced over untraced ops per
second on the same inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record with
the environment, per-op times and any failures goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: End-to-end metrics with their units, reported by every ``--trace 0`` run.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)
#: Fresh interpreters timed per run; setup_s is their median.
SETUP_PROBES = 5
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def measure_setup(name: str, seed: int, probes: int, speed) -> tuple[float, float, set[str]]:
    """Median launch-to-ready time of `probes` fresh interpreters, scaled and raw, and their input digests."""
    times, scaled, digests = [], [], set()
    for _ in range(probes):
        before = speed.sample()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", name, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}")
        scaled.append(times[-1] * speed.factor(before, speed.sample()))
        digests.add(line.strip())
    return statistics.median(scaled), statistics.median(times), digests


def closed_loop(w, prepared: list, ctx: dict, speed, until, spans=None, window: int = 0) -> list[dict]:
    """Issue ops on inputs 0, 1, 2, ... (cycling) until ``until(ops_done, elapsed)``.

    Each op's wall time is also given scaled to reference host speed, from
    samples of the reference work taken right before and right after it.
    """
    results = []
    began = time.perf_counter()
    i = 0
    while not until(i, time.perf_counter() - began):
        inp = prepared[i % len(prepared)]
        before = speed.sample()
        start = time.perf_counter()
        try:
            if spans is None:
                out = w.op(inp, ctx)
            else:
                with spans.op_span(i, i < window):
                    out = w.op(inp, ctx)
        except Exception:
            seconds = time.perf_counter() - start
            factor = speed.factor(before, speed.sample())
            problems = ["raised: " + traceback.format_exc().strip().splitlines()[-1]]
        else:
            seconds = time.perf_counter() - start
            factor = speed.factor(before, speed.sample())
            try:
                problems = w.check(inp, out, ctx)
            except Exception:
                problems = ["check raised: " + traceback.format_exc().strip().splitlines()[-1]]
        results.append({"index": i, "seconds": seconds, "scaled": seconds * factor,
                        "problems": problems})
        i += 1
    return results


def percentile_line(times: list[float]) -> str:
    """op_p90_s when at least TAIL_SAMPLES ops lie beyond it, else why not."""
    if len(times) * 0.1 < TAIL_SAMPLES:
        return f"op_p90_s   n/a: {len(times)} ops leave fewer than {TAIL_SAMPLES} beyond p90"
    p90 = statistics.quantiles(times, n=10)[-1]
    return f"op_p90_s   {p90:.6f} s  (n = {len(times)})"


def environment(w) -> dict:
    import numpy
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "peakwave").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": _git_revision(),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in workloads.BLAS_ENV},
        "workload": w.name,
        "why": w.why,
    }


def _git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(args) -> dict:
    w = workloads.WORKLOADS[args.workload]
    workloads.bootstrap(ROOT)
    speed = hostspeed.HostSpeed()
    setup_s, setup_wall_s, probe_digests = measure_setup(
        w.name, args.seed, 1 if args.smoke else SETUP_PROBES, speed)
    raw, prepared = workloads.set_up(w, args.seed)
    digest = workloads.input_digest(raw)
    warmup = w.prepare(w.make_inputs(args.seed + 1, 1)[0])
    deterministic = probe_digests == {digest}

    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="ops-", dir=OUT_DIR)
    ctx = {"outdir": tmp}
    try:
        w.op(warmup, ctx)  # fills lazy caches (threshold Z*, stepper factors) before timing
        if args.trace:
            record = trace_run(w, prepared, ctx, speed, args)
        else:
            record = timed_run(w, prepared, ctx, speed, args, setup_s, setup_wall_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = record.pop("ops")
    failures = [
        {"index": r["index"], "input": raw[r["index"] % len(raw)], "problems": r["problems"]}
        for r in ops if r["problems"]
    ]
    correct = deterministic and not failures and record.pop("consistent", True)
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    report = {
        **result,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sha256": digest,
        "inputs_deterministic": deterministic,
        "failures": failures,
        "op_seconds": [r["seconds"] for r in ops],
        "op_scaled_seconds": [r["scaled"] for r in ops],
        "reference_seconds": hostspeed.REFERENCE_SECONDS,
        "notes": record.get("notes", []),
        "recorded": ctx.get("recorded", []),
        "environment": environment(w),
    }
    path = OUT_DIR / f"{w.name}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  ({w.why})")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for note in record.get("notes", []):
        print(f"  {note}")
    print(f"  failed_frac {len(failures) / len(ops):.4g} ({len(failures)} of {len(ops)} ops)")
    for f in failures:
        print(f"  FAILED op {f['index']} input {f['input']}: {'; '.join(f['problems'])}")
    if not deterministic:
        print(f"  inputs differ between interpreters: {sorted(probe_digests)} vs {digest}")
    print(f"  environment {json.dumps(report['environment'])}")
    print(f"  record {path.relative_to(ROOT)}")
    return result


def timed_run(w, prepared, ctx, speed, args, setup_s: float, setup_wall_s: float) -> dict:
    ops = closed_loop(w, prepared, ctx, speed, _until(args, 1, args.seconds))
    times = [r["scaled"] for r in ops]
    wall = [r["seconds"] for r in ops]
    ok = sum(1 for r in ops if not r["problems"])
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(ops) / sum(times),
        "op_p50_s": statistics.median(times),
        "ok_frac": ok / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = dict(END_TO_END)
    return {
        "ops": ops,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "notes": [percentile_line(times),
                  f"wall time: setup_s {setup_wall_s:.6f} s, ops_per_s {len(wall) / sum(wall):.6f} 1/s, "
                  f"op_p50_s {statistics.median(wall):.6f} s; host at "
                  f"{sum(times) / sum(wall):.3f} of reference speed"],
    }


def trace_run(w, prepared, ctx, speed, args) -> dict:
    window = 1 if args.smoke else w.trace_window
    plain = closed_loop(w, prepared, ctx, speed, _until(args, window, args.seconds / 2.0))
    spans = tracer.Tracer()
    with spans.installed():
        traced = closed_loop(w, prepared, ctx, speed, lambda i, _: i >= len(plain), spans, window)
    metrics, problems = spans.metrics(window, [r["seconds"] for r in traced])
    untraced_rate = len(plain) / sum(r["scaled"] for r in plain)
    traced_rate = len(traced) / sum(r["scaled"] for r in traced)
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.overhead_ratio"] = traced_rate / untraced_rate
    spans.write_spans(OUT_DIR / f"{w.name}-spans.npz")
    units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    return {
        "ops": plain + traced,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "consistent": not problems,
        "notes": [f"counts cover the first {window} ops; self times are per op over {len(traced)} ops",
                  *(f"ACCOUNTING: {p}" for p in problems)],
    }


def _until(args, min_ops: int, seconds: float):
    if args.smoke:
        return lambda i, _: i >= min_ops
    return lambda i, elapsed: i >= min_ops and elapsed >= seconds


def run_all(args) -> dict:
    """Every workload in its own interpreter; metrics are keyed ``<workload>.<metric>``."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one op per pass and one set-up probe, for testing the benchmark")
    args = parser.parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except workloads.BootstrapError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
