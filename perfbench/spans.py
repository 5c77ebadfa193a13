"""Spans around calls into the package, recorded from the benchmark's side.

`instrument` replaces every public function and public method of the
package's layer modules with a wrapper that records a span (id, parent,
name, start, end, thread) in memory, and rebinds the wrapper wherever a
module imported the original by name. Nothing inside the package
changes. A span started in a thread that has no open span (the
pipeline's segment pool) gets the run's root span as its parent.

`layer_metrics` turns one traced run's spans and counts into the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np
from scipy.special import expit

from workmodel import forward_work

LAYERS = ("wave_io", "filterbank", "spectral", "resunet", "cirm", "pipeline", "metrics", "cli")

# |logit| above ln(1e6): the sigmoid is within 1e-6 of 0 or 1
MASK_SAT_LOGIT = float(np.log(1e6))

# metric -> spans whose outermost calls it sums
TIME_GROUPS = {
    "resunet.forward_s": ("resunet.Model.forward",),
    "resunet.load_s": ("resunet.read_store", "resunet.model_from_store"),
    "filterbank.analysis_s": ("filterbank.analysis",),
    "filterbank.synthesis_s": ("filterbank.synthesis",),
    "spectral.stft_s": ("spectral.stft", "spectral.stft_streams"),
    "spectral.magphase_s": ("spectral.to_magphase", "spectral.from_magphase"),
    "spectral.istft_s": ("spectral.istft",),
    "cirm.apply_s": ("cirm.apply_cirm",),
    "pipeline.segment_s": ("pipeline.segment", "pipeline.desegment"),
    "wave_io.read_s": ("wave_io.read_wav",),
    "wave_io.write_s": ("wave_io.write_wav",),
    "metrics.sdr_s": ("metrics.sdr_global", "metrics.sdr_framewise_median"),
}
COUNT_METRICS = (
    "filterbank.samples",
    "spectral.frames",
    "pipeline.segments",
    "wave_io.bytes_written",
    "resunet.gflop",
    "resunet.mb_moved",
)
BAND_METRICS = tuple(
    f"filterbank.{kind}_s.b{n}" for kind in ("design", "measure") for n in (2, 4, 8)
)
COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, thread)
        self.counts = defaultdict(float)
        self.active = True
        self.root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [self.root]
        return stack

    @contextlib.contextmanager
    def root_span(self, name):
        """The run's root span; spans of threads with no open span get it as parent."""
        stack = self._stack()
        sid = self.root = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self.spans.append((sid, 0, name, start, perf_counter(), threading.get_ident()))

    def wrap(self, fn, name, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            with self._lock:
                sid = next(self._ids)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, threading.get_ident()))
            if count is not None:
                with self._lock:
                    count(self.counts, args, kwargs, result, end - start)
                    cid = next(self._ids)
                self.spans.append((cid, parent, COUNT_SPAN, end, perf_counter(), threading.get_ident()))
            return result

        return traced


def _count_analysis(counts, args, kwargs, result, seconds):
    counts["filterbank.samples"] += args[0].samples.size


def _count_synthesis(counts, args, kwargs, result, seconds):
    counts["filterbank.samples"] += result.samples.size


def _count_design(counts, args, kwargs, result, seconds):
    counts[f"filterbank.design_s.b{result.num_bands}"] += seconds


def _count_measure(counts, args, kwargs, result, seconds):
    fb = args[0] if args else kwargs["fb"]
    counts[f"filterbank.measure_s.b{fb.num_bands}"] += seconds


def _count_frames(counts, args, kwargs, result, seconds):
    counts["spectral.frames"] += result.data.shape[0] * result.data.shape[1]


def _count_cirm(counts, args, kwargs, result, seconds):
    mix, out = args[:2]
    m = out.mask_logits
    counts["cirm.cells"] += m.size
    counts["cirm.mask_sat"] += np.count_nonzero(np.abs(m) > MASK_SAT_LOGIT)
    pre = mix.magnitude * expit(m) + out.mag_residual
    counts["cirm.relu_clip"] += np.count_nonzero(pre < 0)


def _count_segments(counts, args, kwargs, result, seconds):
    counts["pipeline.segments"] += len(result.segments)


def _count_forward(counts, args, kwargs, result, seconds):
    model, mag = args[:2]
    flop, nbytes = forward_work(model.params, model.config.num_levels, mag.shape[1], mag.shape[2])
    counts["resunet.gflop"] += flop / 1e9
    counts["resunet.mb_moved"] += nbytes / 1e6


def _count_written(counts, args, kwargs, result, seconds):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["wave_io.bytes_written"] += os.path.getsize(path)


COUNTERS = {
    "filterbank.analysis": _count_analysis,
    "filterbank.synthesis": _count_synthesis,
    "filterbank.design_filterbank": _count_design,
    "filterbank.measure_reconstruction": _count_measure,
    "spectral.stft_streams": _count_frames,
    "cirm.apply_cirm": _count_cirm,
    "pipeline.segment": _count_segments,
    "resunet.Model.forward": _count_forward,
    "wave_io.write_wav": _count_written,
}


def instrument(tracer: Tracer, package) -> None:
    """Wrap the public functions and methods of the package's layer modules."""
    modules = {short: importlib.import_module(f"{package.__name__}.{short}") for short in LAYERS}
    wrapped = {}  # id(original) -> (original, wrapper)
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{short}.{attr}"
                wrapped[id(obj)] = (obj, tracer.wrap(obj, name, COUNTERS.get(name)))
            elif inspect.isclass(obj):
                for m, member in list(vars(obj).items()):
                    name = f"{short}.{attr}.{m}"
                    if m.startswith("_"):
                        continue
                    if inspect.isfunction(member):
                        setattr(obj, m, tracer.wrap(member, name, COUNTERS.get(name)))
                    elif isinstance(member, classmethod):
                        setattr(obj, m, classmethod(tracer.wrap(member.__func__, name)))
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans, counts, root: int) -> dict:
    """Per-layer metrics of one traced run (all but trace.overhead_s)."""
    by_id = {s[0]: s for s in spans}

    def outermost(span, group):
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] in group:
                return False
            parent = by_id.get(parent[1])
        return True

    out = {}
    for metric, group in TIME_GROUPS.items():
        out[metric] = float(sum(s[4] - s[3] for s in spans if s[2] in group and outermost(s, group)))
    for metric in COUNT_METRICS + BAND_METRICS:
        out[metric] = float(counts.get(metric, 0.0))
    forward_s = out["resunet.forward_s"]
    out["resunet.gflops"] = out["resunet.gflop"] / forward_s if forward_s else 0.0
    cells = counts.get("cirm.cells", 0.0)
    out["cirm.mask_sat_frac"] = counts.get("cirm.mask_sat", 0.0) / cells if cells else 0.0
    out["cirm.relu_clip_frac"] = counts.get("cirm.relu_clip", 0.0) / cells if cells else 0.0

    # Stages of separate: the spans it opens on its own thread and the
    # top-level spans of its segment threads. Time inside separate that
    # no stage covers is unattributed, not spread over the stages.
    busy = wall = unattributed = 0.0
    for sep in (s for s in spans if s[2] == "pipeline.separate"):
        stages = [
            s for s in spans
            if s[1] in (sep[0], root) and s is not sep and sep[3] <= s[3] and s[4] <= sep[4]
        ]
        busy += sum(s[4] - s[3] for s in stages if s[2] != COUNT_SPAN)
        wall += sep[4] - sep[3]
        unattributed += (sep[4] - sep[3]) - _covered((s[3], s[4]) for s in stages)
    out["pipeline.busy_s"] = busy
    out["pipeline.speedup"] = busy / wall if wall else 0.0
    out["pipeline.unattributed_s"] = unattributed

    # cli self time: covered by a cli span and by no span of another layer
    cli = [(s[3], s[4]) for s in spans if s[2].startswith("cli.")]
    other = [(s[3], s[4]) for s in spans if not s[2].startswith("cli.") and s[0] != root]
    out["cli.self_s"] = _covered(cli + other) - _covered(other)
    return out
