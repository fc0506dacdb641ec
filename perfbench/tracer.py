"""Span tracing of peakwave from outside the library.

``Tracer.installed()`` wraps the public functions and public methods of the
six library modules, and rebinds every module attribute that holds one of the
originals (``validate_params`` is bound in ``peakwave``, ``vk`` and ``cli``),
so internal calls are traced too.  Every original is restored on exit.

Each wrapped call records a span (name, start, end, parent span, op id) in
flat arrays; the benchmark opens one root span named ``op`` per operation.
Spans are written out at the end of a run.  Self time is a span's duration
minus the time its child spans cover; the root span's self time is the
benchmark's own remainder.  The accounting is checked against op times taken
independently of the spans (see ``accounting_problems``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

MODULES = ("profile", "vk", "spectral", "stability", "dynamics", "cli")
ROOT = "op"

#: Wrapped functions reported as ``<name>.calls`` (count window) and ``<name>.self_s`` (per op).
REPORTED = (
    "spectral.inertia_below",
    "spectral.kernel_residual",
    "spectral.morse_index",
    "spectral.discretize_operator",
    "spectral.lowest_eigenpairs",
    "spectral.spectrum_report",
    "stability.compare",
    "stability.classify_numeric",
    "stability.classify_analytic",
    "dynamics.strang_step",
    "dynamics.cn_linear_step",
    "dynamics.nonlinear_phase_step",
    "dynamics.simulate",
    "vk.scan",
    "vk.norm_sq_quadrature",
    "vk.dnorm_domega_numeric",
    "vk.dnorm_domega_closed",
    "vk.p_index",
    "vk.find_zstar",
    "profile.ProfileEvaluator.value",
    "profile.ProfileEvaluator.from_params",
    "cli.main",
    "cli.emit_report",
)
#: Spans whose inclusive time is ``dynamics.observables.self_s``; orbital_distance
#: includes its resampling of the profile (``sampled_profile`` and ``profile.*``).
OBSERVABLES = ("dynamics.discrete_energy", "dynamics.discrete_charge", "dynamics.orbital_distance")
#: Largest share of an independently timed op that its root span may leave uncovered.
ACCOUNTING_TOLERANCE = 1e-3

#: Every per-layer metric with its unit and direction, in report order.
PER_LAYER = (
    [(f"{n}.calls", "count", "lower") for n in REPORTED]
    + [(f"{n}.self_s", "s/op", "lower") for n in REPORTED]
    + [
        ("spectral.sturm_pivots", "count", "lower"),
        ("stability.kernel_check_useful_ratio", "ratio", "higher"),
        ("stability.inertia_calls_per_verdict", "ratio", "lower"),
        ("dynamics.observables.self_s", "s/op", "lower"),
        ("dynamics.point_updates", "count", "lower"),
        ("vk.value_calls_per_quadrature", "ratio", "lower"),
        ("profile.value_points", "count", "lower"),
        ("profile.points_per_value_call", "ratio", "higher"),
        ("cli.report_bytes", "bytes", "lower"),
    ]
    + [(f"{m}.self_s", "s/op", "lower") for m in MODULES]
    + [(f"{m}.errors", "count", "lower") for m in MODULES]
    + [
        ("trace.ops", "count", "higher"),
        ("trace.op_s", "s/op", "lower"),
        ("trace.remainder_s", "s/op", "lower"),
        ("trace.accounted_frac", "ratio", "higher"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "higher"),
    ]
)


def _size_hook(counter, arg_index, measure):
    def hook(tracer, args):
        tracer.counters[counter] += measure(args[arg_index])
    return hook


def _kernel_key(tracer, args):
    tracer.kernel_keys.add((args[0], args[1]))


def _report_bytes(tracer, args):
    path = args[1].output_path
    if path is not None:
        tracer.counters["cli.report_bytes"] += os.path.getsize(path)


def _points(x):
    import numpy as np

    return int(np.size(x))


#: Counters taken at a layer boundary from the arguments of a finished call.
HOOKS = {
    "spectral.inertia_below": _size_hook("spectral.sturm_pivots", 0, lambda op: op.size),
    "dynamics.strang_step": _size_hook("dynamics.point_updates", 0, lambda u: u.grid.n_points),
    # args[0] is the instance; the evaluation points follow it.
    "profile.ProfileEvaluator.value": _size_hook("profile.value_points", 1, _points),
    "spectral.kernel_residual": _kernel_key,
    "cli.emit_report": _report_bytes,
}


class Tracer:
    """In-memory span store plus the wrapper layer that fills it."""

    def __init__(self):
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.recording = False
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.kernel_keys: set = set()
        self._stack = [-1]
        self._op_id = -1
        self._counting = False
        self._error = Exception

    # ------------------------------------------------------------ spans

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op_span(self, op_id: int, counted: bool):
        """Root span of one operation; layer counters run only when `counted`."""
        self._op_id = op_id
        self.recording = True
        self._counting = counted
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self.recording = False

    def _wrap(self, name: str, func):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        module = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = func(*args, **kwargs)
            except tracer._error:
                parent = tracer.parent[idx]
                if not tracer.names[tracer.name_id[parent]].startswith(module + "."):
                    tracer.errors[module] += 1
                raise
            finally:
                tracer._close(idx)
            if hook is not None and tracer._counting:
                hook(tracer, args)
            return result

        return wrapper

    # ------------------------------------------------------------ patching

    @contextmanager
    def installed(self):
        """Wrap the library's public callables for the duration of the block."""
        from peakwave.errors import PeakwaveError

        self._error = PeakwaveError
        patches = []  # (owner, attribute, original) in application order
        try:
            replaced = {}
            for short in MODULES:
                mod = importlib.import_module(f"peakwave.{short}")
                for attr in mod.__all__:
                    obj = getattr(mod, attr)
                    if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                        replaced[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                    elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                        self._patch_class(obj, f"{short}.{attr}", patches)
            for mod in _library_modules():
                for attr, obj in list(vars(mod).items()):
                    entry = replaced.get(id(obj))
                    if entry is not None and entry[0] is obj:
                        patches.append((mod, attr, obj))
                        setattr(mod, attr, entry[1])
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _patch_class(self, cls, prefix: str, patches: list) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(raw):
                wrapped = self._wrap(f"{prefix}.{attr}", raw)
            elif isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(f"{prefix}.{attr}", raw.__func__))
            else:
                continue
            patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    # ------------------------------------------------------------ results

    def write_spans(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), op=np.asarray(self.op),
            start=np.asarray(self.start), end=np.asarray(self.end),
        )

    def metrics(self, window_ops: int, op_seconds: list[float]) -> tuple[dict, list[str]]:
        """Per-layer metrics and accounting problems.

        Counts cover the first `window_ops` ops and self times are per op.
        `op_seconds` are the traced ops' wall times, taken outside their spans.
        """
        names, nid, parent, op = self.names, self.name_id, self.parent, self.op
        selfs = self_times(self.start, self.end, parent)
        n_ops = sum(1 for i in nid if i == 0)
        calls, self_s = Counter(), Counter()
        under_quad = [False] * len(nid)
        under_obs = [False] * len(nid)
        quad = self._ids.get("vk.norm_sq_quadrature", -1)
        value = self._ids.get("profile.ProfileEvaluator.value", -1)
        observables = {self._ids.get(n, -1) for n in OBSERVABLES}
        value_in_quad = 0
        observables_s = 0.0
        for i, k in enumerate(nid):
            name = names[k]
            self_s[name] += selfs[i]
            p = parent[i]
            under_quad[i] = p >= 0 and (under_quad[p] or nid[p] == quad)
            under_obs[i] = p >= 0 and (under_obs[p] or nid[p] in observables)
            if k in observables and not under_obs[i]:
                observables_s += self.end[i] - self.start[i]
            if op[i] < window_ops:
                calls[name] += 1
                if k == value and under_quad[i]:
                    value_in_quad += 1
        per_op = 1.0 / n_ops if n_ops else 0.0
        out = {}
        for name in REPORTED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name] * per_op
        ctr = self.counters
        out["spectral.sturm_pivots"] = ctr["spectral.sturm_pivots"]
        out["stability.kernel_check_useful_ratio"] = _ratio(
            len(self.kernel_keys), calls["spectral.kernel_residual"])
        out["stability.inertia_calls_per_verdict"] = _ratio(
            calls["spectral.inertia_below"], calls["stability.compare"])
        out["dynamics.observables.self_s"] = observables_s * per_op
        out["dynamics.point_updates"] = ctr["dynamics.point_updates"]
        out["vk.value_calls_per_quadrature"] = _ratio(value_in_quad, calls["vk.norm_sq_quadrature"])
        out["profile.value_points"] = ctr["profile.value_points"]
        out["profile.points_per_value_call"] = _ratio(
            ctr["profile.value_points"], calls["profile.ProfileEvaluator.value"])
        out["cli.report_bytes"] = ctr["cli.report_bytes"]
        for m in MODULES:
            out[f"{m}.self_s"] = sum(v for n, v in self_s.items() if n.startswith(m + ".")) * per_op
        for m in MODULES:
            out[f"{m}.errors"] = self.errors[m]
        out["trace.ops"] = n_ops
        out["trace.op_s"] = sum(op_seconds) * per_op
        out["trace.remainder_s"] = self_s[ROOT] * per_op
        out["trace.accounted_frac"] = _ratio(sum(selfs), sum(op_seconds))
        roots = [self.end[i] - self.start[i] for i, k in enumerate(nid) if k == 0]
        return out, accounting_problems(selfs, roots, op_seconds)


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread in start order, so children of a span are
    disjoint and lie inside it.
    """
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def accounting_problems(selfs, root_seconds, op_seconds) -> list[str]:
    """Ways in which the spans fail to account for the independently timed ops.

    A negative self time means a span's children overlap or outlast it.  Each
    op's root span lies inside the op's own timer, so it must cover that time
    to within ACCOUNTING_TOLERANCE; the self times then add up to the op times
    to within the same share.
    """
    problems = [f"span {i} has self time {s:.3e} s" for i, s in enumerate(selfs) if s < -1e-9]
    if len(root_seconds) != len(op_seconds):
        return problems + [f"{len(root_seconds)} op spans for {len(op_seconds)} timed ops"]
    for i, (span, timed) in enumerate(zip(root_seconds, op_seconds)):
        if not (1.0 - ACCOUNTING_TOLERANCE) * timed <= span <= timed:
            problems.append(f"op {i}: span covers {span:.6f} s of {timed:.6f} s timed")
    return problems


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _library_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "peakwave" or n.startswith("peakwave."))]
