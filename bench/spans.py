"""Span recorder for the traced run, and the per-layer metrics derived from it.

``Recorder.install`` replaces every public function of the listed rmgflow
modules with a wrapper that records (function, start, end, parent span).
Because the module attribute itself is replaced, calls made inside the
package through a module-level name (``exp_map`` -> ``tangency_defect``,
``interpolate`` -> ``log_map``, the sampler's field -> ``forward``) are
recorded too.  Spans stay in memory and are dumped once, when the command
returns.  Nothing here touches the package's source.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time
from collections import defaultdict

import numpy as np

MODULES = ("manifold", "flow", "net", "metrics", "motion", "cli")


def _digest(a) -> str:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    return f"{a.shape}:{hashlib.blake2b(a.tobytes(), digest_size=8).hexdigest()}"


def _dense_flops(spec, batch: int) -> int:
    """FLOPs of one forward + backward pass of the dense field, from shapes:
    2*B*(fan-in*fan-out) per matmul, and the backward pass costs two matmuls
    per forward matmul."""
    macs = (spec.in_features * spec.hidden_dim
            + (spec.num_layers - 1) * spec.hidden_dim ** 2
            + spec.hidden_dim * spec.input_dim)
    return 6 * batch * macs


# Small facts recorded per call, from the bound arguments and the result.
NOTES = {
    "net.loss_and_grad": lambda a, r: _dense_flops(a["params"].spec, a["batch"].x_t.shape[0]),
    "metrics.pairwise_distance": lambda a, r: [_digest(a["a"]), _digest(a["b"]), int(r.size)],
    "flow.sample_ode": lambda a, r: a["integ"].num_steps,
    "motion.sequence_to_points": lambda a, r: len(a["seq"]),
    "motion.convert_to_position_format": lambda a, r: len(a["seq"]),
    "motion.save_motion": lambda a, r: len(a["seq"]),
    "motion.load_motion": lambda a, r: len(r),
}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index, note]
        self._stack = [-1]

    def install(self, modules: dict) -> None:
        for short, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    setattr(mod, name, self._wrap(f"{short}.{name}", obj))

    def _wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        note = NOTES.get(qualname)
        signature = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def dump(self, start: float, end: float) -> dict:
        return {"names": self.names, "spans": self.spans, "wall_s": end - start}


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

# name -> unit of every per-layer metric, in report order.
UNITS = {
    "manifold.self_share": "ratio",
    "manifold.exp_map.calls": "count",
    "manifold.exp_map.ms_per_call": "ms",
    "manifold.log_map.calls": "count",
    "manifold.log_map.ms_per_call": "ms",
    "manifold.project_tangent.calls": "count",
    "manifold.project_tangent.ms_per_call": "ms",
    "manifold.tangency_defect.ms_per_call": "ms",
    "manifold.distance.ms_per_call": "ms",
    "flow.self_share": "ratio",
    "flow.make_flow_batch.ms_per_call": "ms",
    "flow.make_flow_batch.redraw_ratio": "ratio",
    "flow.field_evals_per_step": "calls/step",
    "flow.projections_per_step": "calls/step",
    "net.self_share": "ratio",
    "net.loss_and_grad.ms_per_call": "ms",
    "net.loss_and_grad.gflop_per_s": "computed_GFLOP/s",
    "net.adamw_step.ms_per_call": "ms",
    "net.ema_update.ms_per_call": "ms",
    "net.save_checkpoint.ms_per_call": "ms",
    "net.forward.ms_per_call": "ms",
    "net.forward.first_call_ms": "ms",
    "net.load_checkpoint.ms_per_call": "ms",
    "metrics.self_share": "ratio",
    "metrics.pairwise_distance.calls_per_eval": "calls/eval",
    "metrics.distance_matrix_reuse": "ratio",
    "metrics.pairwise_distance.ms_per_mpair": "ms/Mpair",
    "metrics.median_bandwidth.ms_per_call": "ms",
    "motion.self_share": "ratio",
    "motion.forward_kinematics.calls_per_frame": "calls/frame",
    "motion.forward_kinematics.ms_per_call": "ms",
    "motion.sequence_to_points.ms_per_frame": "ms/frame",
    "motion.convert_to_position_format.ms_per_frame": "ms/frame",
    "motion.load_motion.ms_per_frame": "ms/frame",
    "motion.save_motion.ms_per_frame": "ms/frame",
    "cli.self_share": "ratio",
    "cli.cmd_sample.self_s": "s",
    "cli.cmd_eval.self_s": "s",
    "cli.cmd_convert.self_s": "s",
    "cli.cmd_train.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    """num / den, and 0.0 when the layer never ran in this workload."""
    return num / den if den else 0.0


class _Totals:
    """Per-function sums over the spans of all traced processes."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.notes = defaultdict(list)   # name -> notes of its calls
        self.under = defaultdict(int)    # (name, ancestor) -> calls
        self.first_forward: list[float] = []
        # (trace tag, evaluate_samples span) -> notes of its pairwise_distance calls
        self.eval_calls: dict[tuple, list] = defaultdict(list)
        self.wall = 0.0

    def add(self, trace: dict, tag: int) -> None:
        names = trace["names"]
        spans = trace["spans"]
        self.wall += trace["wall_s"]
        child_time = [0.0] * len(spans)
        for index, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        seen_forward = False
        for i, (index, start, end, parent, note) in enumerate(spans):
            name = names[index]
            duration = end - start
            self.calls[name] += 1
            self.inclusive[name] += duration
            self.self_time[name] += duration - child_time[i]
            if note is not None:
                self.notes[name].append(note)
            if name == "net.forward" and not seen_forward:
                self.first_forward.append(duration)
                seen_forward = True
            ancestors = set()
            p = parent
            while p >= 0:
                ancestor = names[spans[p][0]]
                ancestors.add(ancestor)
                if name == "metrics.pairwise_distance" and ancestor == "metrics.evaluate_samples":
                    self.eval_calls[tag, p].append(note)
                p = spans[p][3]
            for ancestor in ancestors:
                self.under[name, ancestor] += 1


def layer_metrics(traces: list[dict], frames: int, traced_wall: list[float],
                  untraced_wall: list[float]) -> dict[str, float]:
    """Per-layer metrics of one workload from the spans of its traced jobs.

    ``frames`` counts the motion frames the traced jobs converted;
    ``traced_wall`` / ``untraced_wall`` are job wall times with and without
    the recorder.
    """
    t = _Totals()
    for tag, trace in enumerate(traces):
        t.add(trace, tag)
    jobs = len(traced_wall)

    def ms_per_call(name):
        return _ratio(1e3 * t.inclusive[name], t.calls[name])

    out: dict[str, float] = {}
    for module in MODULES:
        own = sum(v for k, v in t.self_time.items() if k.split(".")[0] == module)
        out[f"{module}.self_share"] = _ratio(own, t.wall)
    for fn in ("exp_map", "log_map", "project_tangent"):
        out[f"manifold.{fn}.calls"] = _ratio(t.calls[f"manifold.{fn}"], jobs)
        out[f"manifold.{fn}.ms_per_call"] = ms_per_call(f"manifold.{fn}")
    for name in ("manifold.tangency_defect", "manifold.distance", "flow.make_flow_batch",
                 "net.loss_and_grad", "net.adamw_step", "net.ema_update",
                 "net.save_checkpoint", "net.forward", "net.load_checkpoint",
                 "metrics.median_bandwidth", "motion.forward_kinematics"):
        out[f"{name}.ms_per_call"] = ms_per_call(name)

    out["flow.make_flow_batch.redraw_ratio"] = _ratio(
        t.under["flow.interpolate", "flow.make_flow_batch"], t.calls["flow.make_flow_batch"])
    steps = sum(t.notes["flow.sample_ode"])
    out["flow.field_evals_per_step"] = _ratio(t.under["net.forward", "flow.sample_ode"], steps)
    out["flow.projections_per_step"] = _ratio(
        t.under["manifold.project_tangent", "flow.sample_ode"]
        - t.under["manifold.project_tangent", "manifold.sample_wrapped_gaussian"], steps)

    out["net.loss_and_grad.gflop_per_s"] = _ratio(
        1e-9 * sum(t.notes["net.loss_and_grad"]), t.inclusive["net.loss_and_grad"])
    out["net.forward.first_call_ms"] = (1e3 * float(np.median(t.first_forward))
                                        if t.first_forward else 0.0)

    evals = list(t.eval_calls.values())
    out["metrics.pairwise_distance.calls_per_eval"] = _ratio(
        sum(len(calls) for calls in evals), t.calls["metrics.evaluate_samples"])
    out["metrics.distance_matrix_reuse"] = _ratio(
        sum(len({(a, b) for a, b, _ in calls}) for calls in evals),
        sum(len(calls) for calls in evals))
    pairs = sum(n for _, _, n in t.notes["metrics.pairwise_distance"])
    out["metrics.pairwise_distance.ms_per_mpair"] = _ratio(
        1e3 * t.inclusive["metrics.pairwise_distance"], pairs / 1e6)

    out["motion.forward_kinematics.calls_per_frame"] = _ratio(
        t.calls["motion.forward_kinematics"], frames)
    for fn in ("sequence_to_points", "convert_to_position_format", "load_motion",
               "save_motion"):
        name = f"motion.{fn}"
        out[f"{name}.ms_per_frame"] = _ratio(1e3 * t.inclusive[name], sum(t.notes[name]))

    for cmd in ("sample", "eval", "convert", "train"):
        name = f"cli.cmd_{cmd}"
        out[f"{name}.self_s"] = _ratio(t.self_time[name], t.calls[name])

    out["trace.coverage"] = _ratio(sum(t.self_time.values()), t.wall)
    out["trace.overhead_ratio"] = (float(np.median(traced_wall))
                                   / float(np.median(untraced_wall)) - 1.0)
    return {name: out[name] for name in UNITS}
