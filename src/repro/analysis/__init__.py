"""Static analysis: plan verifier and repo lint pack.

Proves OOC pipelines race-free, leak-free, and within the device-memory
budget *before* they run. :mod:`repro.analysis.verify` runs happens-before
hazard analysis, allocator lifetime proofs, exact peak-memory accounting,
and §3.2 transfer-volume checks over a recorded program — the
:class:`~repro.runtime.task.TaskGraph` an engine emits under a symbolic
:class:`~repro.runtime.builder.GraphBuilder` (no data, no clock);
:mod:`repro.analysis.engines` holds the one table of shipped engine
configurations (:data:`ENGINE_BINDINGS`), the verifier sweep over it and
serve admission's :func:`capture_job`;
:mod:`repro.analysis.precision` is the static precision / error-flow pass
(per-tile precision lattice + symbolic forward-error bound, judged
against a caller tolerance); :mod:`repro.analysis.lint` is the AST-based
repo lint pack behind ``tools/lint_repro.py``. See docs/analysis.md.

The graph registry (``repro.runtime.GRAPH_BUILDERS``) derives from the
same binding table. The runtime imports this package, so the functions
here that record graphs import the runtime at call time, keeping the
dependency one-way. See docs/runtime.md.
"""

from repro.analysis.engines import (
    ENGINE_BINDINGS,
    EngineBinding,
    capture_job,
    verify_all_engines,
    verify_engine,
)
from repro.analysis.precision import (
    DEFAULT_TOLERANCE,
    PRECISION_LEVELS,
    PRECISION_RULES,
    PrecisionFlow,
    PrecisionPlan,
    assert_precision_ok,
    check_precision,
    propagate,
)
from repro.analysis.verify import (
    VOLUME_SLACK,
    AnalysisFinding,
    AnalysisReport,
    MemEvent,
    assert_plan_ok,
    exact_peak_bytes,
    verify_program,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "ENGINE_BINDINGS",
    "PRECISION_LEVELS",
    "PRECISION_RULES",
    "VOLUME_SLACK",
    "AnalysisFinding",
    "AnalysisReport",
    "EngineBinding",
    "MemEvent",
    "PrecisionFlow",
    "PrecisionPlan",
    "assert_plan_ok",
    "assert_precision_ok",
    "capture_job",
    "check_precision",
    "exact_peak_bytes",
    "propagate",
    "verify_all_engines",
    "verify_engine",
    "verify_program",
]
