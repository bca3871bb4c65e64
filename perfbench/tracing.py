"""Host-side layer spans recorded from outside the program.

The benchmark wraps the public entry points of each layer of ``repro``
(see :data:`LAYER_ENTRY_POINTS`) for the duration of a traced run and
restores the originals afterwards; nothing under ``src/`` is edited.  A
span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (``-1`` for a top-level span) and ``op`` the id of the
benchmark operation it ran in.  Spans are kept in memory and written out
when the run ends.

A layer's *self time* is the sum of its spans' durations minus the time
their direct child spans cover, so the per-layer figures partition the
traced wall time without double counting: ``core.render`` is the
renderer's own code, with encode, MLP, compositing and difficulty spans
subtracted.

Only calls made while an operation is active are recorded; set-up,
reference rendering and output checks run untraced.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer span name -> ``(module, attribute)`` of each entry point.  A
#: dotted attribute names a method on a class; a bare one a module-level
#: function, which is rebound in every loaded ``repro`` module that
#: imported it by name.  ``FrameExecution.run`` is included with
#: ``step``/``finish`` because the serving loop drives execution quanta
#: through ``run`` directly.
LAYER_ENTRY_POINTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "nerf.encode": (("repro.nerf.hashgrid", "HashGridEncoder.encode"),),
    "nerf.density_mlp": (("repro.nerf.model", "InstantNGPModel.query_density"),),
    "nerf.color_mlp": (("repro.nerf.model", "InstantNGPModel.query_color"),),
    "nerf.volume": (
        ("repro.nerf.volume", "composite"),
        ("repro.nerf.volume", "composite_prefix"),
        ("repro.nerf.volume", "composite_subsample"),
        ("repro.nerf.volume", "early_termination_counts"),
    ),
    "core.difficulty": (
        ("repro.core.difficulty", "select_sample_budgets"),
        ("repro.core.sampling_plan", "interpolate_budgets"),
    ),
    "core.render": (("repro.core.pipeline", "ASDRRenderer.render_image"),),
    "arch.simulate": (("repro.arch.accelerator", "ASDRAccelerator.simulate_trace"),),
    "exec.plan_build": (("repro.exec.batch", "build_frame_plans"),),
    "exec.step": (
        ("repro.exec.execution", "FrameExecution.step"),
        ("repro.exec.execution", "FrameExecution.run"),
        ("repro.exec.execution", "FrameExecution.finish"),
    ),
    "serving.alone_cycles": (("repro.serving.server", "SequenceServer.alone_cycles"),),
    "serving.submit": (
        ("repro.serving.server", "SequenceServer.submit"),
        ("repro.serving.cluster", "ClusterServer.submit"),
    ),
    "serving.loop": (
        ("repro.serving.server", "SequenceServer.serve"),
        ("repro.serving.cluster", "ClusterServer.serve"),
    ),
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers.

    Also a tap for simulated reports: ``report_taps`` receives every
    :class:`~repro.arch.accelerator.SimReport` returned by
    ``FrameExecution.finish`` inside a serving loop but outside its solo
    reference runs (the frames the round executed on the engines), which
    is how the serve workload gets its per-frame engine breakdown without
    a telemetry recorder.
    """

    def __init__(self) -> None:
        self.spans: List[List] = []
        self.counts: Dict[str, int] = {}
        self.report_taps: List = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        self._op = None

    def _in(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        taps_result = fn.__name__ == "finish"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            if name == "nerf.encode":
                tracer._count("nerf.encode.points", len(args[1]))
            elif name in ("exec.plan_build", "serving.alone_cycles"):
                tracer._count(f"{name}.calls", 1)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer._op]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if taps_result and tracer._tapping():
                tracer.report_taps.append(result)
            return result

        return traced

    def _tapping(self) -> bool:
        return self._in("serving.loop") and not self._in("serving.alone_cycles")

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`LAYER_ENTRY_POINTS`."""
        for name, points in LAYER_ENTRY_POINTS.items():
            for module_name, attr in points:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    self._patch(owner, meth, self._wrap(name, getattr(owner, meth)))
                else:
                    original = getattr(module, attr)
                    wrapped = self._wrap(name, original)
                    for mod in list(sys.modules.values()):
                        if (
                            getattr(mod, "__name__", "").startswith("repro")
                            and getattr(mod, attr, None) is original
                        ):
                            self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original entry point back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: span durations minus their direct
        children's durations, summed by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {name: 0.0 for name in LAYER_ENTRY_POINTS}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def to_json(self) -> Dict:
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": self.counts,
        }
