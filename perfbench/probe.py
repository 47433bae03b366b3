"""Layer timers: wrap public functions of each ``repro`` layer with spans.

The traced run needs per-layer timings without editing ``src/``. Where an
entry point accepts a recorder (``ooc_qr``, ``FactorService``) the run
passes one; everywhere else :class:`LayerProbe` replaces a public function
*where its caller binds it* with a wrapper that records one span per call
into the same :class:`~repro.obs.span.SpanRecorder`, so all spans share
one timebase and one Perfetto export.

A target that no longer exists is listed in :attr:`LayerProbe.missing`;
the metrics that depend on it are then reported as absent, not as zero.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner`` is a module path, or
    ``module:Class`` for a method."""

    owner: str
    attr: str
    layer: str

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}"


def _is_graph_build(args: tuple) -> bool:
    """A QR driver call is graph build when it drives a GraphBuilder."""
    return type(args[0]).__name__ == "GraphBuilder"


def _tasks(args: tuple, _result: Any) -> dict:
    return {"tasks": len(args[0].graph.tasks)}


def _comm_words(_args: tuple, result: Any) -> dict:
    comm = result.comm
    return {"words": comm.total_up_words + comm.down_words}


def _ckpt_bytes(_args: tuple, result: Any) -> dict:
    return {"bytes": int(result)}


_SCHEDULER = "repro.runtime.scheduler:DagScheduler"
_SENTINEL = "repro.health.sentinel:HealthSentinel"

#: (target, span name, call filter on args, span attrs from (args, result)).
TIMERS: list[tuple[Target, str, Callable | None, Callable | None]] = [
    (Target("repro.execution.numeric", "tc_gemm", "tc"), "tc_gemm", None, None),
    (Target("repro.qr.incore", "tc_gemm", "tc"), "tc_gemm", None, None),
    (Target("repro.factor.incore", "tc_gemm", "tc"), "tc_gemm", None, None),
    (Target("repro.tc.gemm", "round_to", "tc"), "round_to", None, None),
    (Target("repro.qr.api", "ooc_recursive_qr", "runtime"), "build",
     _is_graph_build, None),
    (Target("repro.qr.api", "ooc_blocking_qr", "runtime"), "build",
     _is_graph_build, None),
    (Target(_SCHEDULER, "run_serial", "runtime"), "schedule", None, _tasks),
    (Target(_SCHEDULER, "run_threaded", "runtime"), "schedule", None, _tasks),
    (Target("repro.analysis", "capture_job", "analysis"), "capture", None, None),
    (Target("repro.analysis", "verify_program", "analysis"), "verify", None, None),
    (Target("repro.analysis.precision", "propagate", "analysis"), "precision",
     None, None),
    (Target("repro.serve.service", "job_cache_key", "serve"), "cache_key",
     None, None),
    (Target("repro.serve.service:FactorService", "submit", "serve"), "submit",
     None, None),
    (Target("repro.dist.numeric", "dist_qr_numeric", "dist"), "dist_qr",
     None, _comm_words),
    (Target("repro.ckpt.manager:CheckpointManager", "save", "ckpt"), "commit",
     None, _ckpt_bytes),
] + [
    (Target(_SENTINEL, probe, "health"), "probe", None, None)
    for probe in (
        "check_h2d", "check_d2h", "check_gemm", "check_output",
        "after_panel", "probe_host_panel",
    )
]

#: NumericExecutor op methods: (method, lane, span cat, default tag,
#: RunStats field whose increase is the op's bytes or flops).
OPS = [
    ("h2d", "h2d", "copy_h2d", "h2d", "h2d_bytes"),
    ("d2h", "d2h", "copy_d2h", "d2h", "d2h_bytes"),
    ("d2d", "compute", "copy_d2d", "d2d", "d2d_bytes"),
    ("gemm", "compute", "gemm", "gemm", "gemm_flops"),
    ("trsm", "compute", "gemm", "trsm", "gemm_flops"),
    ("panel_qr", "compute", "panel", "panel", "panel_flops"),
    ("panel_lu", "compute", "panel", "panel-lu", "panel_flops"),
    ("panel_cholesky", "compute", "panel", "panel-chol", "panel_flops"),
]
OPS_OWNER = "repro.execution.numeric:NumericExecutor"
ALLOCATOR = Target("repro.sim.memory:DeviceAllocator", "check_balanced", "execution")

#: Per-layer metrics and the targets they are measured through.
METRIC_TARGETS = {
    "tc.round_s": ["repro.tc.gemm.round_to"],
    "tc.gemm_s": ["repro.execution.numeric.tc_gemm"],
    "tc.gemm_calls": ["repro.execution.numeric.tc_gemm"],
    "runtime.build_s": ["repro.qr.api.ooc_recursive_qr"],
    "runtime.schedule_s": [f"{_SCHEDULER}.run_threaded"],
    "runtime.tasks": [f"{_SCHEDULER}.run_threaded"],
    "runtime.dispatch_us": [f"{_SCHEDULER}.run_threaded"],
    "analysis.capture_s": ["repro.analysis.capture_job"],
    "analysis.verify_s": ["repro.analysis.verify_program"],
    "analysis.calls": ["repro.analysis.verify_program"],
    "analysis.precision_s": ["repro.analysis.precision.propagate"],
    "serve.submit_s": ["repro.serve.service:FactorService.submit"],
    "serve.cache_key_s": ["repro.serve.service.job_cache_key"],
    "dist.qr_s": ["repro.dist.numeric.dist_qr_numeric"],
    "dist.comm_words": ["repro.dist.numeric.dist_qr_numeric"],
    "ckpt.commit_s": ["repro.ckpt.manager:CheckpointManager.save"],
    "health.probe_s": [f"{_SENTINEL}.check_h2d"],
    "health.probes": [f"{_SENTINEL}.check_h2d"],
    "execution.device_peak_bytes": [ALLOCATOR.label],
}


def _resolve(owner: str):
    """The module or class *owner* names, or None when it is gone."""
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class LayerProbe:
    """Installs span-recording wrappers for the duration of a ``with``.

    Parameters
    ----------
    rec
        The :class:`~repro.obs.span.SpanRecorder` wrapper spans go to.
    """

    def __init__(self, rec):
        self.rec = rec
        self.missing: set[str] = set()
        #: Device-allocator peaks, one per finished run.
        self.allocator_peaks: list[int] = []
        self._undo: list[tuple[Any, str, Any, bool]] = []

    def __enter__(self) -> "LayerProbe":
        for target, name, when, attrs in TIMERS:
            self._timer(target, name, when, attrs)
        for method, lane, cat, tag, field in OPS:
            self._op(method, lane, cat, tag, field)
        self._allocator()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def absent_metrics(self) -> list[str]:
        """Per-layer metrics whose wrapped function no longer exists."""
        return sorted(
            metric
            for metric, labels in METRIC_TARGETS.items()
            if any(label in self.missing for label in labels)
        )

    # -- wrappers -------------------------------------------------------------

    def _replace(self, owner_path: str, attr: str, make: Callable) -> None:
        owner = _resolve(owner_path)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.add(f"{owner_path}.{attr}")
            return
        # an inherited method is shadowed on the subclass, then deleted
        own = not isinstance(owner, type) or attr in vars(owner)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._undo.append((owner, attr, original, own))

    def _timer(self, target: Target, name: str, when, attrs) -> None:
        rec = self.rec
        layer = target.layer

        def make(original):
            def timed(*args, **kwargs):
                if when is not None and not when(args):
                    return original(*args, **kwargs)
                start = rec.now()
                result = original(*args, **kwargs)
                rec.record(
                    name, start, rec.now(), cat=layer, lane=layer,
                    attrs=attrs(args, result) if attrs else None,
                )
                return result
            return timed

        self._replace(target.owner, target.attr, make)

    def _op(self, method: str, lane: str, cat: str, tag: str, field: str) -> None:
        """Time a NumericExecutor op where the entry point took no recorder;
        the serial executor runs the op body inside the call."""
        rec = self.rec
        key = "nbytes" if field.endswith("bytes") else "flops"

        def make(original):
            def timed(ex, *args, **kwargs):
                if type(ex).__name__ != "NumericExecutor" or ex.obs.enabled:
                    return original(ex, *args, **kwargs)
                before = getattr(ex.stats, field)
                start = rec.now()
                result = original(ex, *args, **kwargs)
                end = rec.now()
                op_tag = kwargs.get("tag", tag)
                rec.record(
                    f"{op_tag} (probe)", start, end, cat=cat, lane=lane,
                    attrs={"tag": op_tag, key: getattr(ex.stats, field) - before},
                )
                return result
            return timed

        self._replace(OPS_OWNER, method, make)

    def _allocator(self) -> None:
        peaks = self.allocator_peaks

        def make(original):
            def check_balanced(alloc, *args, **kwargs):
                peaks.append(alloc.peak)
                return original(alloc, *args, **kwargs)
            return check_balanced

        self._replace(ALLOCATOR.owner, ALLOCATOR.attr, make)
