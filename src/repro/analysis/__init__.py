"""Static analysis: plan verifier and repo lint pack.

Proves OOC pipelines race-free, leak-free, and within the device-memory
budget *before* they run. :mod:`repro.analysis.capture` records an
engine's op stream symbolically (no data, no clock);
:mod:`repro.analysis.verify` runs happens-before hazard analysis,
allocator lifetime proofs, exact peak-memory accounting, and §3.2
transfer-volume checks over the captured program;
:mod:`repro.analysis.engines` holds the one table of shipped engine
configurations (:data:`ENGINE_BINDINGS`) and the capture sweep over it;
:mod:`repro.analysis.precision` is the static precision / error-flow pass
(per-tile precision lattice + symbolic forward-error bound, judged
against a caller tolerance); :mod:`repro.analysis.lint` is the AST-based
repo lint pack behind ``tools/lint_repro.py``. See docs/analysis.md.

:func:`verify_program` also accepts a first-class
:class:`~repro.runtime.task.TaskGraph` from the DAG runtime directly —
see :mod:`repro.runtime` (its ``GRAPH_BUILDERS`` registry derives from the
same binding table; the runtime module imports this package, so the graph
sweep lives there to keep the dependency one-way). See docs/runtime.md.
"""

from repro.analysis.capture import CapturedProgram, CaptureExecutor, MemEvent
from repro.analysis.engines import (
    ENGINE_BINDINGS,
    ENGINE_CAPTURES,
    EngineBinding,
    capture_engine,
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
    assert_plan_ok,
    exact_peak_bytes,
    verify_program,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "ENGINE_BINDINGS",
    "ENGINE_CAPTURES",
    "PRECISION_LEVELS",
    "PRECISION_RULES",
    "VOLUME_SLACK",
    "AnalysisFinding",
    "AnalysisReport",
    "CaptureExecutor",
    "CapturedProgram",
    "EngineBinding",
    "MemEvent",
    "PrecisionFlow",
    "PrecisionPlan",
    "assert_plan_ok",
    "assert_precision_ok",
    "capture_engine",
    "capture_job",
    "check_precision",
    "exact_peak_bytes",
    "propagate",
    "verify_all_engines",
    "verify_engine",
    "verify_program",
]
