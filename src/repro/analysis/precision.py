"""Static precision / error-flow verification of mixed-precision plans.

The paper's speedup rests on fp16 TensorCore GEMMs with fp32 accumulation
(plus the Markidis-style fp16x3/fp16x4 precision-splitting variants); the
runtime health sentinel (docs/health.md) discovers precision trouble only
*after* burning device time. This pass proves — when the graph is
recorded, before execution — that a plan's worst-case rounding error fits the
caller's tolerance, by abstract interpretation over the same *program
protocol* the rest of :mod:`repro.analysis.verify` consumes (so one pass
covers :class:`~repro.runtime.task.TaskGraph` DAGs and the dist layer's
:class:`~repro.dist.placement.DeviceProgram` slices).

Precision lattice
-----------------
Formats are ranked by decreasing unit roundoff, seeded from
:data:`repro.tc.precision.UNIT_ROUNDOFF`::

    bf16 (2^-8) < fp16 (2^-11) <= tf32 (2^-11) < fp16x3 (2^-22)
        < fp16x4 (2^-24) <= fp32 (2^-24) < fp64 (2^-53)

tf32 ranks above fp16 at equal roundoff (fp32 exponent range, no overflow
hazard) and fp32 above fp16x4 (native, not a 4-term reconstruction).

Error-flow recurrence (first-order, Higham-style; constants folded into
the documented safety slack of the derived tolerances):

* every host-resident tile starts at ``u(storage)`` (the element format
  the config stores and transfers, from ``config.element_bytes``);
* ``h2d`` joins the host region's bound into the destination buffer,
  ``d2h`` stores back adding one ``u(storage)`` rounding;
* a GEMM with inputs quantized to format *f* and a *k*-term accumulation
  in format *g* adds ``2 u(f) + k u(g)`` on top of the *joined* (max)
  operand bound — the bound is an error **level**, not a sum: summing
  operand bounds re-counts shared ancestry at every level of a
  factorization and diverges exponentially in chain depth, while the
  constant factor the join drops is folded into the recurrence
  constants. *k* is recovered per-op from the recorded flops and the
  output rect, so the pass is **length-aware**: a deep reduction chain
  costs more than a shallow one, and repeated accumulation into the same
  buffer pays one step per op (the ``beta = 1`` worst case);
* a panel factorization of *r* rows behaves like a GEMM chain of depth
  *r* in the same formats: ``+ 2 u(f) + r u(g)``. This prices the worst
  rung of every panel algorithm, so it needs no per-algorithm case: the
  default CholQR2 panel forms its Gram and applies ``R⁻¹`` in fp32
  (``2 u(fp32) + r u(fp32)``), and the panels its rule rejects run the
  recursive-CGS fallback, whose GEMMs quantize to *f* — the price above.

Because CAQR reduction-tree merges are ordinary panel ops on stacked R
factors, walking a dist graph prices the tree *by its depth*: a binomial
tree accrues ``log2 P`` merge contributions on the root R chain, a flat
tree ``P - 1`` — which is exactly what makes the flat tree the negative
control (see docs/dist.md).

The bound tracked is a predicted upper bound on the **relative residual**
``|A - Q R| / |A|`` (backward-error flavoured, so it stays O(u) for
ill-conditioned inputs — orthogonality loss is the health sentinel's
runtime concern, scaling with kappa, and is *not* claimed here). The
differential suite in ``tests/test_analysis_precision.py`` checks the
static bound upper-bounds the measured residual across the kappa sweep.

Findings (rule strings, all surfaced through the ordinary
:class:`~repro.analysis.verify.AnalysisReport`):

``tc-format-invariant``
    The plan breaks a TensorCore structural invariant: an input format
    outside the lattice, or a TC input format with a non-fp32 MMA
    accumulator.
``wasted-upcast``
    A multi-term split input format (fp16x3/fp16x4, 3-4x the TC work)
    quantizes data whose storage format is already far coarser — the
    extra split terms reconstruct bits the storage rounding destroyed.
``unsafe-downcast``
    A live-error-carrying tile is quantized through a format whose unit
    roundoff alone exceeds the caller's tolerance: no downstream op can
    recover, so the first such op is named. Only checked when a
    tolerance is given.
``tolerance-exceeded``
    The propagated terminal bound exceeds the caller's tolerance (and no
    single downcast explains it — ``unsafe-downcast`` takes precedence
    as the root cause, and either structural finding suppresses both
    tolerance rules).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.verify import AnalysisFinding
from repro.errors import PrecisionViolation, ValidationError
from repro.sim.ops import OpKind
from repro.tc.precision import UNIT_ROUNDOFF
from repro.util.regions import rects_overlap
from repro.util.validation import positive_float

#: The precision lattice, coarsest to finest (see module docstring for
#: the two documented rank tie-breaks).
PRECISION_LEVELS: tuple[str, ...] = (
    "bf16", "fp16", "tf32", "fp16x3", "fp16x4", "fp32", "fp64",
)

_RANK = {fmt: i for i, fmt in enumerate(PRECISION_LEVELS)}

#: Input formats consumed by the TensorCore MMA path (everything the
#: :func:`repro.tc.gemm.tc_gemm` quantizer accepts except plain fp32).
TC_INPUT_FORMATS = frozenset({"fp16", "bf16", "tf32", "fp16x3", "fp16x4"})

#: Multi-term split formats — each logical GEMM costs 3-4 hardware GEMMs,
#: so quantizing already-coarse data through them is pure waste.
SPLIT_FORMATS = frozenset({"fp16x3", "fp16x4"})

#: A split upcast is *wasted* when its effective roundoff is at least
#: this factor finer than the storage rounding the data already took
#: (fp16 storage + fp16x3 input is 2^11 finer: flagged; fp32 storage +
#: fp16x4 is exactly matched: clean).
WASTE_FACTOR = 256.0

#: Storage element format by config.element_bytes.
STORAGE_FORMATS = {2: "fp16", 4: "fp32", 8: "fp64"}

#: Default tolerance of the CLI precision sweep and the CI gate: generous
#: enough for every shipped split-precision plan at the sweep shapes
#: (predicted bounds sit near 1e-4), tight enough that a plain-fp16 deep
#: flat reduction tree (bound ~1e-2) is flagged.
DEFAULT_TOLERANCE = 1e-3

#: Rules this module emits (the serve admission path waives exactly these
#: when the job carries the health=escalate runtime fallback).
PRECISION_RULES = frozenset({
    "tc-format-invariant",
    "wasted-upcast",
    "unsafe-downcast",
    "tolerance-exceeded",
})


def roundoff(fmt: str) -> float:
    """Unit roundoff of lattice level *fmt*."""
    try:
        return UNIT_ROUNDOFF[fmt]
    except KeyError:
        raise ValidationError(
            f"unknown precision format {fmt!r}; lattice levels: "
            f"{', '.join(PRECISION_LEVELS)}"
        ) from None


def rank(fmt: str) -> int:
    """Lattice rank of *fmt* (higher = finer)."""
    try:
        return _RANK[fmt]
    except KeyError:
        raise ValidationError(
            f"unknown precision format {fmt!r}; lattice levels: "
            f"{', '.join(PRECISION_LEVELS)}"
        ) from None


@dataclass(frozen=True)
class PrecisionPlan:
    """The precision configuration of one plan, as the pass sees it.

    ``storage`` is the host/transfer element format (derived from
    ``config.element_bytes``), ``gemm_input`` the TC input-quantizer
    format (``config.precision.input_format``), ``accumulate`` the MMA
    accumulator format (fp32 on every real TensorCore).
    """

    storage: str = "fp32"
    gemm_input: str = "fp16"
    accumulate: str = "fp32"

    @staticmethod
    def from_config(config) -> "PrecisionPlan":
        """Derive the plan a :class:`~repro.config.SystemConfig` implies."""
        return PrecisionPlan(
            storage=STORAGE_FORMATS.get(config.element_bytes, "fp32"),
            gemm_input=config.precision.input_format,
        )

    def describe(self) -> str:
        """Compact ``storage->input/accumulate`` tag for report summaries."""
        return f"{self.storage}->{self.gemm_input}/{self.accumulate}"


@dataclass
class PrecisionFlow:
    """What one error-flow walk concluded about a program."""

    plan: PrecisionPlan
    #: Predicted relative-residual upper bound at the program's outputs.
    bound: float = 0.0
    #: GEMM-kind ops walked (trsm records as GEMM too).
    n_gemms: int = 0
    #: Deepest accumulation chain seen in a single op.
    max_k: int = 0
    #: Name of the first GEMM-kind op (anchor for plan-level findings).
    first_gemm: str = ""


def _valid_plan_findings(plan: PrecisionPlan) -> list[AnalysisFinding]:
    """Structural (walk-free) checks: lattice membership, TC accumulator
    invariant, wasted split upcasts."""
    findings: list[AnalysisFinding] = []
    for role, fmt in (
        ("storage", plan.storage),
        ("gemm input", plan.gemm_input),
        ("accumulate", plan.accumulate),
    ):
        if fmt not in _RANK:
            findings.append(
                AnalysisFinding(
                    rule="tc-format-invariant",
                    message=(
                        f"{role} format {fmt!r} is not a lattice level "
                        f"({', '.join(PRECISION_LEVELS)})"
                    ),
                    op=role,
                )
            )
    if findings:
        return findings
    if plan.gemm_input in TC_INPUT_FORMATS and plan.accumulate != "fp32":
        findings.append(
            AnalysisFinding(
                rule="tc-format-invariant",
                message=(
                    f"TensorCore MMA accumulates in fp32; a "
                    f"{plan.gemm_input} input with a {plan.accumulate} "
                    f"accumulator breaks the input-format invariant"
                ),
                op="accumulate",
            )
        )
    if (
        plan.gemm_input in SPLIT_FORMATS
        and roundoff(plan.gemm_input) * WASTE_FACTOR < roundoff(plan.storage)
    ):
        findings.append(
            AnalysisFinding(
                rule="wasted-upcast",
                message=(
                    f"{plan.gemm_input} split input "
                    f"(u={roundoff(plan.gemm_input):.1e}, "
                    f"{3 if plan.gemm_input == 'fp16x3' else 4}x TC work) on "
                    f"{plan.storage} storage (u={roundoff(plan.storage):.1e}): "
                    f"the extra split terms reconstruct bits the storage "
                    f"rounding already destroyed and buy no accuracy"
                ),
                op="gemm-input",
            )
        )
    return findings


def _op_accesses(op):
    reads, writes = [], []
    for acc in op.tags.get("accesses", ()):
        (writes if acc[5] else reads).append(acc)
    return reads, writes


def propagate(program, plan: PrecisionPlan | None = None) -> PrecisionFlow:
    """Walk *program*'s ops in issue order, tracking a per-buffer (and
    per-host-matrix) forward-error bound under *plan* (defaults to the
    plan the program's config implies).

    Issue order is a valid topological order of every legal schedule
    (the graph builder emits it that way). Granularity is one
    bound per device buffer and per host *region* (matrix id + rect —
    partial reads join every overlapping stored region), and a device
    buffer's bound *resets* when a transfer overwrites it after compute — the engines rotate a handful
    of staging buffers for the whole run, and without the reset the
    stale bound of the previous tile would compound through every
    iteration of the panel loop. Consecutive transfer writes into the
    same buffer still ``max``-join (that is how partial loads stack two
    R factors into one merge buffer in the dist layer).
    """
    if plan is None:
        plan = PrecisionPlan.from_config(program.config)
    flow = PrecisionFlow(plan=plan)
    if (
        plan.storage not in _RANK
        or plan.gemm_input not in _RANK
        or plan.accumulate not in _RANK
    ):
        # structurally invalid plans are reported by check_precision; a
        # bound under unknown roundoffs would be meaningless
        flow.bound = float("inf")
        return flow
    u_store = roundoff(plan.storage)
    u_in = roundoff(plan.gemm_input)
    u_acc = roundoff(plan.accumulate)

    dev: dict[int, float] = {}
    # host bounds are keyed per *region* (matrix id + rect): the dist
    # layer stages every leaf's R factor through its own row slab of one
    # staging matrix, and a matrix-level key would chain all of a round's
    # independent merges through one shared max — erasing precisely the
    # binomial-vs-flat depth distinction the pass exists to price
    host: dict[tuple, float] = {}
    host_written: set[tuple] = set()
    #: Buffers whose latest write was a transfer: the next transfer into
    #: them stacks (max-join); a transfer after compute overwrites.
    staging: set[int] = set()

    def host_err(tag) -> float:
        if tag in host:
            return host[tag]
        # partial-rect read: join every overlapping stored region
        err = u_store
        for key, val in host.items():
            if key[0] == tag[0] and rects_overlap(
                (key[1], key[2]), (key[3], key[4]),
                (tag[1], tag[2]), (tag[3], tag[4]),
            ):
                err = max(err, val)
        return err

    def transfer_write(handle: int, err: float) -> None:
        if handle in staging:
            dev[handle] = max(dev.get(handle, 0.0), err)
        else:
            dev[handle] = err
            staging.add(handle)

    for op in program.ops:
        reads, writes = _op_accesses(op)
        if op.kind is OpKind.COPY_H2D:
            tag = op.tags.get("host_region")
            src = host_err(tag) if tag is not None else u_store
            for acc in writes:
                transfer_write(acc[0], src)
        elif op.kind is OpKind.COPY_D2H:
            tag = op.tags.get("host_region")
            err = max((dev.get(acc[0], 0.0) for acc in reads), default=0.0)
            if tag is not None:
                host[tag] = max(err + u_store, u_store)
                host_written.add(tag)
        elif op.kind is OpKind.COPY_D2D:
            err = max((dev.get(acc[0], 0.0) for acc in reads), default=0.0)
            for acc in writes:
                transfer_write(acc[0], err)
        elif op.kind is OpKind.GEMM:
            # covers true GEMMs (flops = 2 m n k) and trsm (flops = k^2 n,
            # recorded under the same kind): k_est recovers the
            # accumulation-chain length from the output rect — within 2x
            # for trsm, folded into the recurrence constants
            flow.n_gemms += 1
            if not flow.first_gemm:
                flow.first_gemm = op.name
            # max-join over operands (error *level*, not a sum: summing
            # re-counts shared ancestry every level and goes exponential
            # in chain depth; the 2x it drops per join is folded into the
            # recurrence constants) + the op's local contribution.
            operand_err = max(
                (dev.get(acc[0], 0.0) for acc in reads), default=0.0
            )
            k_est = 1
            if writes:
                acc = writes[0]
                out = max((acc[2] - acc[1]) * (acc[4] - acc[3]), 1)
                k_est = max(1, int(op.flops) // (2 * out))
            flow.max_k = max(flow.max_k, k_est)
            step = 2.0 * u_in + k_est * u_acc
            for acc in writes:
                dev[acc[0]] = (
                    max(operand_err, dev.get(acc[0], 0.0)) + step
                )
                staging.discard(acc[0])
        elif op.kind is OpKind.PANEL:
            # a panel factorization of r rows runs its inner products
            # through the same TC pipeline: one r-deep chain in-place
            err_in = max(
                (dev.get(acc[0], 0.0) for acc in reads + writes), default=0.0
            )
            rows = max(
                (acc[2] - acc[1] for acc in writes), default=1
            )
            flow.max_k = max(flow.max_k, rows)
            step = err_in + 2.0 * u_in + max(rows, 1) * u_acc
            for acc in writes:
                dev[acc[0]] = max(dev.get(acc[0], 0.0), step)
                staging.discard(acc[0])

    if host_written:
        flow.bound = max(host[tag] for tag in host_written)
    elif host:
        flow.bound = max(host.values())
    else:
        flow.bound = max(dev.values(), default=0.0)
    return flow


def check_precision(
    program,
    *,
    plan: PrecisionPlan | None = None,
    tolerance: float | None = None,
) -> tuple[PrecisionFlow, list[AnalysisFinding]]:
    """Run the full precision pass: structural invariants plus the
    error-flow walk, with the tolerance rules applied when *tolerance*
    is given (None runs the structural rules and reports the bound
    without judging it).

    Rule precedence keeps one finding per root cause: a structural
    (``tc-format-invariant`` / ``wasted-upcast``) finding suppresses the
    tolerance rules, and ``unsafe-downcast`` suppresses
    ``tolerance-exceeded`` (a bound blown by a single quantization step
    is the downcast's fault, not a second defect).
    """
    if plan is None:
        plan = PrecisionPlan.from_config(program.config)
    if tolerance is not None:
        # finite too: a NaN or infinite tolerance passes every bound
        positive_float(tolerance, "tolerance")
    findings = _valid_plan_findings(plan)
    flow = propagate(program, plan)
    if findings or tolerance is None:
        return flow, findings
    anchor = flow.first_gemm
    for role, fmt in (("gemm input", plan.gemm_input), ("storage", plan.storage)):
        if flow.n_gemms and roundoff(fmt) > tolerance:
            findings.append(
                AnalysisFinding(
                    rule="unsafe-downcast",
                    message=(
                        f"{role} format {fmt} (u={roundoff(fmt):.1e}) "
                        f"quantizes live tiles past the {tolerance:.1e} "
                        f"tolerance in a single step; no downstream op "
                        f"can recover (first at {anchor!r})"
                    ),
                    op=anchor,
                )
            )
            break
    if not findings and flow.bound > tolerance:
        findings.append(
            AnalysisFinding(
                rule="tolerance-exceeded",
                message=(
                    f"predicted forward-error bound {flow.bound:.2e} "
                    f"exceeds the caller's tolerance {tolerance:.1e} "
                    f"({flow.n_gemms} GEMM-kind ops, deepest chain "
                    f"k={flow.max_k}, plan {plan.describe()})"
                ),
                op=anchor,
            )
        )
    return flow, findings


def assert_precision_ok(report) -> None:
    """Raise :class:`~repro.errors.PrecisionViolation` if *report* carries
    any precision-rule finding (other findings are :func:`~repro.analysis.
    verify.assert_plan_ok`'s business)."""
    if any(f.rule in PRECISION_RULES for f in report.findings):
        raise PrecisionViolation(report)


__all__ = [
    "DEFAULT_TOLERANCE",
    "PRECISION_LEVELS",
    "PRECISION_RULES",
    "SPLIT_FORMATS",
    "STORAGE_FORMATS",
    "TC_INPUT_FORMATS",
    "WASTE_FACTOR",
    "PrecisionFlow",
    "PrecisionPlan",
    "assert_precision_ok",
    "check_precision",
    "propagate",
    "rank",
    "roundoff",
]
